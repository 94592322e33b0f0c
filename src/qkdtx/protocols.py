"""End-to-end DPS and decoy-state BB84 sessions with asymptotic key rates.

Sessions are deterministic functions of (config, channel, detector, seed)
and event-driven. A unit's two detector ports share its whole usable flux,
so its click probability Q = 1 - (1 - p_dark)^2 exp(-flux) does not depend
on its bit, basis or phase error, and phase errors are independent across
units. Per intensity class a session therefore draws the units sent (one
multinomial), their clicks ~ Binomial(sent, Q), the sifted clicks ~
Binomial(clicks, basis match) and the wrong decodes ~ Binomial(sifted,
W / Q), with W the wrong-decode probability averaged over the phase noise
once (:func:`_mean_wrong_click`). :func:`analytic_expectations` computes
each class's Q and W once and a session draws from them, at the same cost
for any number of units. :func:`run_session` runs either kind: DPS is the
one-class, always-sifted case of the decoy BB84 session, its units the
n - 1 interference slots of n pulses where BB84's are n pulse pairs.
Each kind is one :data:`KINDS` record of fields, frame and key-rate step.
:func:`single_photon_yield` gives the one-photon yield and error rate that
the decoy bounds estimate.

Sessions bypass the injection-locked transmitter (``optics.emit_pulse_train``)
and take each differential phase as the programmed one plus N(0, sigma_phi),
the law its modulated injection gives (the tests check both agree).

Intensity convention: ``mu_signal``/``mu_decoy`` are mean photon numbers per
encoded unit (one pulse for DPS, one pulse pair for BB84). The decoy-state
Poisson bookkeeping uses the same numbers, which keeps the gain formulas and
the yield bounds mutually consistent.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .linkmodel import ChannelModel, DetectorModel, transmittance
from .optics import port_intensities, sigma_phi_for_error_rate

DPS = "dps"
BB84_DECOY = "bb84-decoy"

INTENSITY_CLASSES = ("vacuum", "decoy", "signal")

#: Largest mu_signal a config may set: the phase average below is exact to
#: 1e-9 relative up to this many photons per unit.
MU_SIGNAL_MAX = 20.0

#: Largest session size: the class split is one multinomial of int64 count.
MAX_PULSES = 2**63 - 1

#: The phase average's M = 64 phases theta_j = 2 pi j / M, its frequencies
#: k = 1 .. M/2 and the cosine transform 2 cos(k theta_j) / M, whose Nyquist
#: row k = M/2 takes half weight.
_PHASES = 2.0 * np.pi * np.arange(64) / 64
_FREQS = np.arange(1, 33)
_COS_TRANSFORM = np.cos(np.outer(_FREQS, _PHASES)) / 32
_COS_TRANSFORM[-1] /= 2


def binary_entropy(x: float) -> float:
    """Shannon entropy of a binary variable, -x log2 x - (1-x) log2 (1-x).

    Defined on [0, 1] with 0 log 0 := 0; NaN is outside the domain.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError("binary_entropy is defined on [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    a = np.float64(x)
    return float(-a * np.log2(a) - (1 - a) * np.log2(1 - a))


# ---------------------------------------------------------------------------
# configuration and results
# ---------------------------------------------------------------------------

@dataclass
class ProtocolConfig:
    """Protocol parameters of one kind. A field the kind reads (:data:`KINDS`)
    takes the kind's default when None; the others stay None, and setting one
    raises ValueError: DPS has no decoy intensity, class probability or basis."""

    kind: str
    clock_hz: Optional[float] = None
    mu_signal: Optional[float] = None
    mu_decoy: Optional[float] = None
    p_signal: Optional[float] = None
    p_decoy: Optional[float] = None
    p_vacuum: Optional[float] = None
    basis_prob_x: Optional[float] = None
    f_ec: Optional[float] = None
    sigma_phi: Optional[float] = None
    receiver_loss_db: Optional[float] = None

    def __post_init__(self):
        if self.kind not in list(KINDS):  # a list: the kind may be unhashable
            raise ValueError(f"kind must be one of {list(KINDS)}, got {self.kind!r}")
        fields = KINDS[self.kind].fields
        for name, value in vars(self).items():
            if name in fields and value is None:
                setattr(self, name, fields[name][0])
            elif name not in (*fields, "kind") and value is not None:
                raise ValueError(f"{self.kind} reads no {name}")
        if not 0.0 < self.clock_hz < math.inf:
            raise ValueError("clock_hz must be finite and > 0")
        if not 0.0 < self.mu_signal <= MU_SIGNAL_MAX:
            raise ValueError(f"mu_signal must be <= {MU_SIGNAL_MAX:g} photons per unit, "
                             "where the closed form's phase average is exact, and > 0")
        if self.mu_decoy is not None:
            # the vacuum + weak-decoy bounds divide by the decoy intensity
            if not 0.0 < self.mu_decoy < self.mu_signal:
                raise ValueError("need 0 < mu_decoy < mu_signal")
            probs = self.p_vacuum + self.p_decoy + self.p_signal
            if not abs(probs - 1.0) <= 1e-12:
                raise ValueError("intensity probabilities must sum to 1")
            for name in ("p_vacuum", "p_decoy", "p_signal"):
                if not 0.0 <= getattr(self, name) <= 1.0:
                    raise ValueError(f"intensity probability {name} must be in [0, 1]")
        if self.basis_prob_x is not None and not 0.0 < self.basis_prob_x < 1.0:
            raise ValueError("basis_prob_x must be in (0, 1)")
        if not 1.0 <= self.f_ec < math.inf:
            raise ValueError("f_ec must be finite and >= 1")
        if not 0.0 <= self.sigma_phi < math.inf:
            raise ValueError("sigma_phi must be finite and >= 0")
        if not 0.0 <= self.receiver_loss_db < math.inf:
            raise ValueError("receiver_loss_db must be finite and >= 0")

    def basis_match_probability(self) -> float:
        """Probability that a detection is sifted (1 for DPS: no bases)."""
        p = self.basis_prob_x
        return 1.0 if p is None else p * p + (1 - p) * (1 - p)

    def class_probabilities(self) -> np.ndarray:
        """Emission probability of each of :meth:`classes`."""
        return self.classes()[1]

    def classes(self) -> tuple:
        """Intensity classes a unit is drawn from: names, emission
        probabilities and mean photon numbers. DPS sends one class."""
        if self.mu_decoy is None:
            return ("signal",), np.array([1.0]), np.array([self.mu_signal])
        return (INTENSITY_CLASSES,
                np.array([self.p_vacuum, self.p_decoy, self.p_signal]),
                np.array([0.0, self.mu_decoy, self.mu_signal]))


@dataclass
class IntensityTally:
    """Counts for one intensity class."""

    sent: int = 0
    clicks: int = 0
    sifted: int = 0
    errors: int = 0


@dataclass
class SessionResult:
    """Outcome of one protocol session.

    ``qber`` is errors/sifted over the key-bearing tallies (all detections
    for DPS; basis-matched signal detections for BB84).
    """

    protocol: str
    pulses_sent: int
    per_intensity: dict
    sifted_bits: int
    errors: int
    qber: float
    raw_rate_hz: float
    sifted_rate_hz: float
    skr_bps: float
    flags: list = field(default_factory=list)
    decoy: Optional["DecoyEstimates"] = None

    def to_dict(self) -> dict:
        return {k: v for k, v in dataclasses.asdict(self).items()
                if v is not None}


# ---------------------------------------------------------------------------
# decoy-state bounds and key rates
# ---------------------------------------------------------------------------

@dataclass
class DecoyEstimates:
    """Single-photon bounds from the vacuum + weak-decoy method."""

    y0: float
    y1_lower: float
    e1_upper: float
    q1: float
    y1_lower_se: float = 0.0
    flags: list = field(default_factory=list)


def decoy_estimate(q_signal, q_decoy, q_vacuum, e_signal, e_decoy, e_vacuum,
                   mu_signal, mu_decoy, sent_counts=None) -> DecoyEstimates:
    """Bound the single-photon yield and error from two-intensity statistics.

    Vacuum + weak-decoy analytic bounds: with signal intensity mu, decoy
    intensity nu < mu and vacuum yield Y0 = Q_vacuum,

        Y1 >= mu/(mu nu - nu^2) * [Q_d e^nu - Q_s e^mu nu^2/mu^2
                                   - (mu^2 - nu^2)/mu^2 * Y0]
        e1 <= (E_d Q_d e^nu - Y0/2) / (nu * Y1)
        Q1  = Y1 * mu * e^(-mu)

    Every gain and error rate must lie in [0, 1]. Infeasible bounds are
    clamped ([0,1] for Y1, [0,0.5] for e1) and flagged.
    sent_counts, when given as (n_signal, n_decoy, n_vacuum), adds a binomial
    standard error for the Y1 bound.
    """
    mu, nu = mu_signal, mu_decoy
    if not 0.0 < nu < mu:
        raise ValueError("need 0 < mu_decoy < mu_signal")
    for name, value in (("q_signal", q_signal), ("q_decoy", q_decoy),
                        ("q_vacuum", q_vacuum), ("e_signal", e_signal),
                        ("e_decoy", e_decoy), ("e_vacuum", e_vacuum)):
        if not 0.0 <= value <= 1.0:  # NaN fails too
            raise ValueError(f"{name} must lie in [0, 1]")

    flags = []
    y0 = q_vacuum
    if q_signal == 0.0 and q_decoy == 0.0 and q_vacuum == 0.0:
        return DecoyEstimates(0.0, 0.0, 0.0, 0.0, 0.0, ["no-detections"])

    denom = mu * nu - nu * nu
    c_d = np.exp(nu)
    c_s = np.exp(mu) * nu * nu / (mu * mu)
    c_v = (mu * mu - nu * nu) / (mu * mu)
    y1 = (mu / denom) * (q_decoy * c_d - q_signal * c_s - c_v * y0)
    if y1 < 0.0:
        y1 = 0.0
        flags.append("y1-clamped")
    elif y1 > 1.0:
        y1 = 1.0
        flags.append("y1-clamped")

    se = 0.0
    if sent_counts is not None:
        n_s, n_d, n_v = sent_counts
        var = 0.0
        for q, n, c in ((q_decoy, n_d, c_d), (q_signal, n_s, c_s),
                        (q_vacuum, n_v, c_v)):
            if n > 0:
                var += (mu / denom * c) ** 2 * q * (1 - q) / n
        se = float(np.sqrt(var))

    if y1 > 0.0:
        e1 = (e_decoy * q_decoy * c_d - 0.5 * y0) / (nu * y1)
        if e1 < 0.0:
            e1 = 0.0
            flags.append("e1-clamped")
        elif e1 > 0.5:
            e1 = 0.5
            flags.append("e1-clamped")
    else:
        e1 = 0.5
        flags.append("e1-clamped")

    q1 = y1 * mu * np.exp(-mu)
    return DecoyEstimates(float(y0), float(y1), float(e1), float(q1), se, flags)


def skr_dps(sifted_rate_hz, error_rate, mu, cfg: ProtocolConfig) -> float:
    """Asymptotic DPS secure key rate.

    R = sifted_rate * [ -log2 p_c(e) - f_ec * h2(e) ], clamped at zero, with
    p_c = 1 - e^2 - (1 - 6e)^2 / 2 the collision bound, derived for e <= 1/6
    (no bit is secure beyond); p_c(0) = 1/2 keeps the full sifted rate.
    """
    if not 0.0 <= error_rate < 0.5:
        raise ValueError("error_rate must lie in [0, 0.5)")
    if not 0.0 <= sifted_rate_hz < math.inf:  # NaN fails too
        raise ValueError("sifted_rate_hz must be finite and >= 0")
    if sifted_rate_hz == 0.0 or error_rate > 1.0 / 6.0:
        return 0.0
    p_c = 1.0 - error_rate * error_rate - (1.0 - 6.0 * error_rate) ** 2 / 2.0
    fraction = -np.log2(p_c) - cfg.f_ec * binary_entropy(error_rate)
    return float(max(sifted_rate_hz * fraction, 0.0))


def skr_bb84(estimates: DecoyEstimates, q_signal, e_signal,
             cfg: ProtocolConfig) -> float:
    """Asymptotic decoy-BB84 secure key rate (GLLP form).

    R = sift * clock * p_signal * [ Q1 (1 - h2(e1)) - f_ec Q_s h2(E_s) ],
    clamped at zero; sift is the basis-match probability.
    """
    for name, value in (("q_signal", q_signal), ("e_signal", e_signal)):
        if not 0.0 <= value <= 1.0:  # NaN fails too
            raise ValueError(f"{name} must lie in [0, 1]")
    sift = cfg.basis_match_probability()
    gain_term = estimates.q1 * (1.0 - binary_entropy(estimates.e1_upper))
    ec_term = cfg.f_ec * q_signal * binary_entropy(e_signal)
    rate = sift * cfg.clock_hz * cfg.p_signal * (gain_term - ec_term)
    return float(max(rate, 0.0))


def _collision_key_rate(cfg, gains, errors, qber, sifted_rate, sent_counts=None):
    """DPS: the collision bound on the QBER, and no decoy estimates."""
    return skr_dps(sifted_rate, min(qber, 0.5 - 1e-15), cfg.mu_signal, cfg), None


def _decoy_key_rate(cfg, gains, errors, qber, sifted_rate, sent_counts=None):
    """BB84: the vacuum + weak-decoy bound, where sent_counts (units sent per
    class name) adds the Y1 standard error."""
    if sent_counts is not None:
        sent_counts = tuple(sent_counts[c] for c in ("signal", "decoy", "vacuum"))
    est = decoy_estimate(gains["signal"], gains["decoy"], gains["vacuum"],
                         errors["signal"], errors["decoy"], errors["vacuum"],
                         cfg.mu_signal, cfg.mu_decoy, sent_counts=sent_counts)
    return skr_bb84(est, gains["signal"], errors["signal"], cfg), est


#: One protocol kind: the fields it reads, as field -> (default, source); its
#: frame, n pulses carrying n - unit_offset units of which the fraction
#: temporal_efficiency of the light interferes; and its key-rate step.
#: A step finds skr_dps, skr_bb84 and decoy_estimate by module name when it
#: runs, so perfbench/tracing.py, which swaps those attributes, times them.
Kind = NamedTuple("Kind", [("fields", dict), ("unit_offset", int),
                           ("temporal_efficiency", float), ("key_rate", Callable)])

#: The phase noise gives e_opt = (1 - exp(-sigma^2/2)) / 2; the DPS receiver
#: loss stands for the receiver chip and detector coupling, and the BB84
#: analysis needs none to land on its reference rates.
_SHARED = {
    "mu_signal": (0.5, "reference run: signal intensity 0.5 photons per encoded unit"),
    "f_ec": (1 / 0.9, "error-correction efficiency 90%, f_ec = 1/0.9"),
}
KINDS = {
    DPS: Kind({
        "clock_hz": (2e9, "reference transmitter: 2 GHz gain-switched pulse train"),
        **_SHARED,
        "sigma_phi": (sigma_phi_for_error_rate(0.025),
                      "calibrated: e_opt = 2.5%, the reference error rate at 20 dB; "
                      "the closed form reads 2.508% there (root 0.31979 rad)"),
        "receiver_loss_db": (
            8.5, "calibrated toward the reference 400 kb/s secure rate at 20 dB; "
                 "the closed form reads 519.1 kb/s there (root 9.628 dB)"),
    }, unit_offset=1, temporal_efficiency=1.0,  # every DPS slot interferes
        key_rate=_collision_key_rate),
    BB84_DECOY: Kind({
        "clock_hz": (1e9, "reference transmitter: pulse pairs at 1 GHz"),
        **_SHARED,
        "mu_decoy": (0.125, "reference run: decoy intensity 0.125 photons per encoded unit"),
        "p_signal": (14 / 16, "reference run: signal emission probability 14/16"),
        "p_decoy": (1 / 16, "reference run: decoy emission probability 1/16"),
        "p_vacuum": (1 / 16, "reference run: vacuum emission probability 1/16"),
        "basis_prob_x": (0.5, "symmetric active basis choice"),
        "sigma_phi": (sigma_phi_for_error_rate(0.023),
                      "calibrated: e_opt = 2.3%; against the reference 2.2% error rate "
                      "at 20 dB the closed form reads 2.304% (root 0.29969 rad)"),
        "receiver_loss_db": (0.0, "no receiver insertion loss applied"),
    }, unit_offset=0, temporal_efficiency=0.5,  # time-bin: only the central AMZI slot interferes
        key_rate=_decoy_key_rate),
}

# ---------------------------------------------------------------------------
# shared click model
# ---------------------------------------------------------------------------

def _usable_efficiency(cfg: ProtocolConfig, channel: ChannelModel,
                       det: DetectorModel) -> float:
    """eta_t: the probability that an emitted photon reaches a detector in
    the kind's interfering slot and is detected."""
    return KINDS[cfg.kind].temporal_efficiency * (
        transmittance(channel) * 10.0 ** (-cfg.receiver_loss_db / 10.0)
        * det.efficiency)


def _click_probability(lam, p_dark):
    """1 - (1 - p_dark) exp(-lam) for a threshold detector whose port gets
    Poisson light of mean lam; computed in place in the float array lam.
    Darks act as extra Poisson light of mean -log(1 - p_dark), and expm1
    keeps small probabilities to full relative precision."""
    np.subtract(lam, math.log1p(-p_dark), out=lam)
    np.negative(lam, out=lam)
    np.expm1(lam, out=lam)
    return np.negative(lam, out=lam)


def _mean_wrong_click(flux, sigma, p_dark) -> float:
    """Probability W that a unit of usable flux clicks and decodes wrongly,
    averaged over its phase error delta ~ N(0, sigma) taken mod 2 pi.

    The right and wrong ports get independent Poisson light of means
    flux*(1 +/- cos delta)/2 and click with p_r and p_w; a single click reads
    its own port and a double click a random one, so
    w = p_w (1 - p_r) + p_r p_w / 2. W is the trapezoid rule on the phases
    theta_j weighted by the wrapped normal's series
    (1 + 2 sum_k exp(-k^2 sigma^2/2) cos k theta_j)/M. Written as w(0) plus
    each frequency's expm1 damping times w's cosine coefficient, it is w(0)
    exactly at sigma = 0 and keeps its relative precision near 0.
    """
    lam_r, lam_w = port_intensities(np.cos(_PHASES), 0.5 * flux)
    p_r = _click_probability(lam_r, p_dark)
    p_w = _click_probability(lam_w, p_dark)
    w = p_w * (1.0 - p_r) + 0.5 * p_r * p_w
    damping = np.expm1(-0.5 * (sigma * _FREQS) ** 2)
    return float(w[0] + damping @ (_COS_TRANSFORM @ w))


def _unit_gain(flux, p_dark) -> float:
    """Probability that either port of a unit of usable flux clicks."""
    return -math.expm1(-(flux - 2.0 * math.log1p(-p_dark)))


def single_photon_yield(cfg: ProtocolConfig, channel: ChannelModel,
                        det: DetectorModel) -> tuple:
    """(Y1, e1): the probability that a unit emitting one photon clicks, and
    the share of its clicks that decode wrongly, averaged over the phase
    noise. These are what :class:`DecoyEstimates`' y1_lower and e1_upper
    bound. A photon is usable with probability eta_t
    (:func:`_usable_efficiency`)."""
    eta_t = _usable_efficiency(cfg, channel, det)
    p_dark = det.p_dark
    y1 = 1.0 - (1.0 - p_dark) ** 2 * (1.0 - eta_t)
    # the photon lights the right port with probability eta_t (1 + c) / 2,
    # the wrong one with eta_t (1 - c) / 2, or is lost; this is linear in
    # c = cos(delta), whose mean is exp(-sigma^2 / 2)
    c = math.exp(-0.5 * cfg.sigma_phi ** 2)
    w1 = 0.5 * (eta_t * (1.0 - (1.0 - p_dark) * c)
                + (1.0 - eta_t) * _unit_gain(0.0, p_dark))
    return y1, w1 / y1 if y1 > 0 else 0.5


# ---------------------------------------------------------------------------
# analytic expectations
# ---------------------------------------------------------------------------

@dataclass
class AnalyticExpectations:
    """Closed-form per-class gains, error rates and error gains, and rates."""

    gains: dict
    error_rates: dict
    error_gains: dict
    raw_rate_hz: float
    sifted_rate_hz: float
    qber: float
    skr_bps: float
    decoy: Optional[DecoyEstimates] = None


def analytic_expectations(cfg: ProtocolConfig, channel: ChannelModel,
                          det: DetectorModel) -> AnalyticExpectations:
    """Expected gains, error rates and key rate without Monte-Carlo noise.

    Each class's gain Q = 1 - (1-p_dark)^2 * exp(-mu_eff), with mu_eff the
    usable unit flux mu * eta_t (:func:`_usable_efficiency`), and its error
    gain W = E_delta[w(delta)], the law a session given the result draws
    from, give its error rate W / Q. To leading order that is the familiar
    E = [e_opt (Q - Q_dark) + Q_dark/2] / Q with
    e_opt = (1 - exp(-sigma^2/2)) / 2, but the phase average keeps it exact
    in the high-flux regime too. The same key-rate step as the
    Monte-Carlo path is applied to the expected tallies.
    """
    eta_t = _usable_efficiency(cfg, channel, det)
    names, p_cls, mus = cfg.classes()

    gains, errors, error_gains = {}, {}, {}
    for name, mu in zip(names, mus):
        flux = mu * eta_t
        q = gains[name] = _unit_gain(flux, det.p_dark)
        wrong = error_gains[name] = _mean_wrong_click(flux, cfg.sigma_phi, det.p_dark)
        errors[name] = wrong / q if q > 0 else 0.5
    raw = cfg.clock_hz * float(np.dot(p_cls, [gains[c] for c in names]))
    sifted = raw * cfg.basis_match_probability()
    skr, est = KINDS[cfg.kind].key_rate(cfg, gains, errors, errors["signal"], sifted)
    return AnalyticExpectations(
        gains=gains, error_rates=errors, error_gains=error_gains, raw_rate_hz=raw,
        sifted_rate_hz=sifted, qber=errors["signal"], skr_bps=skr, decoy=est)


# ---------------------------------------------------------------------------
# Monte-Carlo sessions
# ---------------------------------------------------------------------------

def run_session(cfg: ProtocolConfig, channel: ChannelModel,
                det: DetectorModel, n_pulses, rng,
                expected: Optional[AnalyticExpectations] = None) -> SessionResult:
    """Monte-Carlo session of the config's kind over n_pulses pulses.

    Its units are the n_pulses - 1 interference slots of DPS, where a key
    bit sets the differential phase of consecutive pulses to 0 or pi and
    every detection is sifted, or the n_pulses pulse pairs of BB84, each with
    an intensity class, a basis and a bit in its within-pair phase, sifted on
    a basis match. A double click reads a random bit.

    Per class, the units sent come from one multinomial draw, the clicks
    from Binomial(sent, gain), the sifted clicks from Binomial(clicks, basis
    match) and the wrong decodes from Binomial(sifted, W / gain), with gain
    and error gain W from ``expected``, the :func:`analytic_expectations` of
    the same arguments (computed when None). A unit's click is independent
    of its phase error, as are the phase errors of units, so the last draw
    is exact; a session costs the same at any size.
    """
    if not 1_000 <= n_pulses <= MAX_PULSES:
        raise ValueError("n_pulses must be in [1e3, 2**63 - 1]")
    expected = expected or analytic_expectations(cfg, channel, det)
    n_units = int(n_pulses) - KINDS[cfg.kind].unit_offset
    names, p_cls, _ = cfg.classes()
    match = cfg.basis_match_probability()
    tallies = {}
    for name, sent in zip(names, rng.multinomial(n_units, p_cls)):
        gain, wrong = expected.gains[name], expected.error_gains[name]
        clicks = int(rng.binomial(sent, gain))
        sifted = int(rng.binomial(clicks, match))
        p_wrong = min(max(wrong / gain, 0.0), 1.0) if gain > 0 else 0.0
        tallies[name] = IntensityTally(int(sent), clicks, sifted,
                                       int(rng.binomial(sifted, p_wrong)))

    flags = []
    gains = {n: t.clicks / t.sent if t.sent else 0.0 for n, t in tallies.items()}
    errs = {n: t.errors / t.sifted if t.sifted else 0.5 for n, t in tallies.items()}
    sig = tallies["signal"]
    if sig.sifted == 0:
        flags.append("no-detections")
        qber = 0.0
    else:
        qber = sig.errors / sig.sifted
        if qber >= 0.5:
            qber = 0.5
            flags.append("qber-clamped")

    total_clicks = sum(t.clicks for t in tallies.values())
    total_sifted = sum(t.sifted for t in tallies.values())
    sifted_rate = cfg.clock_hz * total_sifted / n_units
    skr, est = KINDS[cfg.kind].key_rate(cfg, gains, errs, qber, sifted_rate,
                                        {n: t.sent for n, t in tallies.items()})
    if est is not None:
        flags.extend(est.flags)
    return SessionResult(
        protocol=cfg.kind, pulses_sent=int(n_pulses), per_intensity=tallies,
        sifted_bits=total_sifted, errors=sig.errors, qber=qber,
        raw_rate_hz=cfg.clock_hz * total_clicks / n_units,
        sifted_rate_hz=sifted_rate, skr_bps=skr, flags=flags, decoy=est)
