"""Tests for protocol sessions, decoy bounds, and key-rate formulas."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate, optimize, stats

from qkdtx.harness import _within, load_reference_points
from qkdtx.linkmodel import (DETECTOR_PRESETS, ChannelModel, DetectorModel,
                             detector_preset, transmittance)
from qkdtx.optics import (DifferentialPhaseSequence, InjectionMode, emit_pulse_train,
                          port_intensities, sigma_phi_for_error_rate)
from qkdtx.protocols import (
    BB84_DECOY,
    DPS,
    INTENSITY_CLASSES,
    KINDS,
    DecoyEstimates,
    MU_SIGNAL_MAX,
    ProtocolConfig,
    _click_probability,
    _mean_wrong_click,
    _unit_gain,
    _usable_efficiency,
    analytic_expectations,
    binary_entropy,
    decoy_estimate,
    run_session,
    single_photon_yield,
    skr_bb84,
    skr_dps,
)


def make_rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def snspd(clock):
    return detector_preset("snspd", gate_rate_hz=clock)


# ---------------------------------------------------------------------------
# binary entropy
# ---------------------------------------------------------------------------

def test_binary_entropy_reference_points():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0, rel=1e-15)
    # frozen from a 50-digit evaluation of -x log2 x - (1-x) log2 (1-x)
    assert binary_entropy(0.025) == pytest.approx(0.16866093149667021, rel=1e-12)


def test_binary_entropy_domain():
    with pytest.raises(ValueError):
        binary_entropy(-0.1)
    with pytest.raises(ValueError):
        binary_entropy(1.1)
    for edge in (0.0, 1.0, np.float64(0.0), np.float64(1.0)):
        h = binary_entropy(edge)
        assert type(h) is float and h == 0.0


@settings(max_examples=1000)
@given(st.floats(0.0, 1.0))
@example(5e-324)
@example(2.2250738585072014e-308)
@example(0.5)
@example(float(np.nextafter(1.0, 0.0)))
def test_binary_entropy_float_path_matches_the_array_path(x):
    # the formula evaluated on a float64 array, with 0 log 0 := 0 at the ends
    a = np.array([x])
    ref = 0.0 if x in (0.0, 1.0) else \
        float((-a * np.log2(a) - (1 - a) * np.log2(1 - a))[0])
    for value in (x, np.float64(x)):
        h = binary_entropy(value)
        assert type(h) is float
        assert h.hex() == ref.hex()


@pytest.mark.parametrize("bad", [np.nan, -0.1, 1.1, -np.inf, np.inf, -5e-324])
def test_binary_entropy_rejects_floats_outside_the_domain(bad):
    for value in (bad, np.float64(bad)):
        with pytest.raises(ValueError, match=r"^binary_entropy is defined on \[0, 1\]$"):
            binary_entropy(value)


def test_binary_entropy_rejects_nan():
    # NaN fails every comparison, so a range check written as "x < 0 or
    # x > 1" would let it through and return h2 = 0
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        binary_entropy(np.nan)
    cfg = ProtocolConfig(BB84_DECOY)
    est = decoy_estimate(1e-3, 2.5e-4, 1e-6, 0.02, 0.03, 0.5, 0.5, 0.125)
    with pytest.raises(ValueError):
        skr_bb84(est, 1e-3, np.nan, cfg)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        ProtocolConfig(kind=BB84_DECOY, clock_hz=1e9, p_signal=0.8,
                       p_decoy=0.05, p_vacuum=0.05)
    with pytest.raises(ValueError, match="mu_decoy"):
        ProtocolConfig(kind=BB84_DECOY, clock_hz=1e9, mu_decoy=0.6)
    with pytest.raises(ValueError, match="mu_decoy"):
        ProtocolConfig(kind=BB84_DECOY, clock_hz=1e9, mu_decoy=0.0)
    # the closed form's phase average is exact up to MU_SIGNAL_MAX photons
    assert ProtocolConfig(DPS, mu_signal=MU_SIGNAL_MAX).mu_signal == 20.0
    with pytest.raises(ValueError, match="mu_signal"):
        ProtocolConfig(BB84_DECOY, mu_signal=20.5)
    with pytest.raises(ValueError, match="mu_signal"):
        ProtocolConfig(DPS, mu_signal=0.0)
    # DPS has no decoy class or basis choice: it holds None in those fields,
    # rejects each of them by name, and takes any mu_signal up to the bound
    dps = ProtocolConfig(kind=DPS)
    assert dps == ProtocolConfig(DPS)
    assert ProtocolConfig(DPS, mu_signal=0.1).mu_signal == 0.1
    for field in ("mu_decoy", "p_signal", "p_decoy", "p_vacuum", "basis_prob_x"):
        assert getattr(dps, field) is None
        for value in (0.0, 0.5):
            with pytest.raises(ValueError, match=f"dps reads no {field}"):
                ProtocolConfig(kind=DPS, **{field: value})
    with pytest.raises(ValueError, match="kind"):
        ProtocolConfig(kind="b92", clock_hz=1e9)
    with pytest.raises(ValueError, match="kind"):
        ProtocolConfig(kind=["dps"])
    # each class probability lies in [0, 1], not only their sum at 1
    with pytest.raises(ValueError, match="p_vacuum"):
        ProtocolConfig(BB84_DECOY, p_vacuum=-0.25, p_decoy=0.25, p_signal=1.0)
    with pytest.raises(ValueError, match="p_decoy"):
        ProtocolConfig(BB84_DECOY, p_vacuum=0.25, p_decoy=-0.25, p_signal=1.0)
    # NaN and inf fail each field's check, not only through the loader
    nan, inf = float("nan"), float("inf")
    for field, value, message in (
            ("sigma_phi", nan, "sigma_phi"), ("clock_hz", nan, "clock_hz"),
            ("clock_hz", inf, "clock_hz"), ("f_ec", nan, "f_ec"),
            ("receiver_loss_db", nan, "receiver_loss_db"),
            ("p_signal", nan, "probabilities")):
        with pytest.raises(ValueError, match=message):
            ProtocolConfig(BB84_DECOY, **{field: value})


def test_class_probabilities_follow_classes():
    assert ProtocolConfig(DPS).class_probabilities().tolist() == [1.0]
    b = ProtocolConfig(BB84_DECOY)
    assert b.class_probabilities().tolist() == [b.p_vacuum, b.p_decoy, b.p_signal]


def test_default_configs():
    d = ProtocolConfig(DPS)
    assert d.clock_hz == 2e9 and KINDS[DPS].temporal_efficiency == 1.0
    assert d.mu_signal == 0.5 and d.f_ec == pytest.approx(1 / 0.9)
    b = ProtocolConfig(BB84_DECOY)
    assert b.clock_hz == 1e9 and KINDS[BB84_DECOY].temporal_efficiency == 0.5
    assert b.p_signal == pytest.approx(14 / 16)
    assert b.basis_match_probability() == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# decoy bounds
# ---------------------------------------------------------------------------

def test_decoy_ideal_single_photon_channel_is_tight():
    # force a channel where only single photons ever click: Q_mu = mu eta e^-mu
    eta = 0.01
    mu, nu = 0.5, 0.125
    est = decoy_estimate(mu * eta * np.exp(-mu), nu * eta * np.exp(-nu), 0.0,
                         0.0, 0.0, 0.0, mu, nu)
    assert est.y1_lower == pytest.approx(eta, rel=1e-2)
    assert est.y1_lower == pytest.approx(eta, rel=1e-12)  # bound is exact here
    assert est.q1 == pytest.approx(eta * mu * np.exp(-mu), rel=1e-12)


def test_decoy_all_zero_gains():
    est = decoy_estimate(0, 0, 0, 0, 0, 0, 0.5, 0.125)
    assert est.y0 == est.y1_lower == est.q1 == 0.0
    assert "no-detections" in est.flags


def test_decoy_e1_clamp():
    est = decoy_estimate(1e-3, 1e-6, 0.0, 0.025, 0.5, 0.0, 0.5, 0.125)
    assert est.e1_upper == 0.5
    assert "e1-clamped" in est.flags


def test_decoy_y1_clamp_on_infeasible_gains():
    est = decoy_estimate(0.9, 1e-9, 1e-9, 0.0, 0.0, 0.0, 0.5, 0.125)
    assert est.y1_lower == 0.0
    assert "y1-clamped" in est.flags


def test_y1_lower_se_is_the_binomial_delta_method():
    # the delta method over (Q_s, Q_d, Q_v): grad y1_lower by central
    # differences of decoy_estimate itself, each gain binomial with variance
    # q (1 - q) / n; gains of 0.05 to 0.6 make the (1 - q) factor visible
    rng = make_rng(31)
    errors = (0.02, 0.03, 0.5)
    for _ in range(20):
        mu = rng.uniform(0.4, 0.9)
        nu = rng.uniform(0.05, 0.3) * mu
        eta, y0 = rng.uniform(0.5, 0.95), rng.uniform(0.05, 0.3)
        gains = [1.0 - (1.0 - y0) * math.exp(-eta * m) for m in (mu, nu)] + [y0]
        counts = [int(n) for n in rng.integers(10**3, 10**7, 3)]
        est = decoy_estimate(*gains, *errors, mu, nu, sent_counts=counts)
        assert 0.0 < est.y1_lower < 1.0 and "y1-clamped" not in est.flags
        var = 0.0
        for i, (q, n) in enumerate(zip(gains, counts)):
            h = 1e-4 * q
            up, down = list(gains), list(gains)
            up[i] += h
            down[i] -= h
            grad = (decoy_estimate(*up, *errors, mu, nu).y1_lower
                    - decoy_estimate(*down, *errors, mu, nu).y1_lower) / (2 * h)
            var += grad * grad * q * (1.0 - q) / n
        assert est.y1_lower_se == pytest.approx(math.sqrt(var), rel=1e-6)


def test_decoy_validation():
    with pytest.raises(ValueError):
        decoy_estimate(0.5, 0.5, 0.0, 0, 0, 0, 0.125, 0.5)  # mu < nu
    with pytest.raises(ValueError):
        decoy_estimate(1.5, 0.5, 0.0, 0, 0, 0, 0.5, 0.125)


def test_decoy_rejects_error_rates_outside_unit_interval():
    rates = {"e_signal": 0.02, "e_decoy": 0.03, "e_vacuum": 0.5}
    for name in rates:
        for bad in (np.nan, -0.01, 1.5):
            with pytest.raises(ValueError, match=f"{name} must lie in"):
                decoy_estimate(1e-3, 2.5e-4, 1e-6, **{**rates, name: bad},
                               mu_signal=0.5, mu_decoy=0.125)


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from([DPS, BB84_DECOY]),
       preset=st.sampled_from(sorted(DETECTOR_PRESETS)),
       loss_db=st.floats(0.0, 40.0),
       mu=st.floats(1e-3, MU_SIGNAL_MAX),
       sigma_phi=st.floats(0.0, 1.5))
@example(kind=BB84_DECOY, preset="snspd", loss_db=0.0, mu=MU_SIGNAL_MAX,
         sigma_phi=0.0)
def test_poisson_expansion_oracle(kind, preset, loss_db, mu, sigma_phi):
    # brute-force photon-number bookkeeping: each class's gain is the
    # Poisson-weighted sum of the n-photon yields 1 - (1 - p_dark)^2 (1 - eta_t)^n,
    # summed until the Poisson tail is below 1e-15, and the n = 1 term with
    # the one-photon wrong-decode numerator w1 of README's click model gives
    # the closed-form single-photon yield and error rate
    fields = dict(mu_signal=mu, sigma_phi=sigma_phi)
    if kind == BB84_DECOY:
        fields["mu_decoy"] = mu / 4
    cfg = ProtocolConfig(kind, **fields)
    det = detector_preset(preset, gate_rate_hz=cfg.clock_hz)
    ch = ChannelModel(loss_db)
    a = analytic_expectations(cfg, ch, det)
    eta_t = _usable_efficiency(cfg, ch, det)
    p_dark = det.p_dark

    def yield_n(n):
        return 1 - (1 - p_dark) ** 2 * (1 - eta_t) ** n

    for name, mu_class in zip(*cfg.classes()[::2]):
        n_max = int(stats.poisson.isf(1e-15, mu_class)) + 1
        assert stats.poisson.sf(n_max, mu_class) < 1e-15
        n = np.arange(n_max + 1)
        q_brute = float(np.dot(stats.poisson.pmf(n, mu_class), yield_n(n)))
        assert q_brute == pytest.approx(a.gains[name], rel=1e-12, abs=1e-14), name

    y1, e1 = single_photon_yield(cfg, ch, det)
    assert y1 == yield_n(1)
    y0 = 1 - (1 - p_dark) ** 2
    c = np.exp(-sigma_phi ** 2 / 2)
    w1 = (eta_t * (1 + c) / 2 * p_dark / 2
          + eta_t * (1 - c) / 2 * (1 - p_dark / 2) + (1 - eta_t) * y0 / 2)
    assert e1 == pytest.approx(w1 / y1, rel=1e-8)


@settings(max_examples=200, deadline=None)
@given(mu=st.floats(1e-3, MU_SIGNAL_MAX),
       nu_fraction=st.floats(0.02, 0.95),
       p_decoy=st.floats(0.01, 0.45),
       p_vacuum=st.floats(0.01, 0.45),
       sigma_phi=st.floats(0.0, 1.5),
       loss_db=st.floats(0.0, 40.0),
       preset=st.sampled_from(sorted(DETECTOR_PRESETS)))
def test_closed_form_decoy_bounds_are_sound_across_configs(
        mu, nu_fraction, p_decoy, p_vacuum, sigma_phi, loss_db, preset):
    # with no sampling noise the decoy bounds hold with no slack against the
    # true single-photon yield Y1 and error rate e1
    cfg = ProtocolConfig(BB84_DECOY, mu_signal=mu, mu_decoy=mu * nu_fraction,
                         p_signal=1.0 - p_decoy - p_vacuum, p_decoy=p_decoy,
                         p_vacuum=p_vacuum, sigma_phi=sigma_phi)
    det = detector_preset(preset, gate_rate_hz=cfg.clock_hz)
    ch = ChannelModel(loss_db)
    a = analytic_expectations(cfg, ch, det)
    y1, e1 = single_photon_yield(cfg, ch, det)
    assert a.decoy.y1_lower <= y1
    assert a.decoy.e1_upper >= e1


# ---------------------------------------------------------------------------
# key-rate formulas
# ---------------------------------------------------------------------------

def test_skr_dps_limits():
    cfg = ProtocolConfig(DPS)
    # collision probability 1/2 at zero error: the full sifted rate survives
    assert skr_dps(1e6, 0.0, 0.5, cfg) == pytest.approx(1e6, rel=1e-12)
    assert skr_dps(0.0, 0.1, 0.5, cfg) == 0.0
    with pytest.raises(ValueError):
        skr_dps(1e6, 0.5, 0.5, cfg)
    # high error: clamped at zero
    assert skr_dps(1e6, 0.12, 0.5, cfg) == 0.0
    # an interior point against the collision bound p_c = 1 - e^2 - (1-6e)^2/2
    e = 0.02
    p_c = 1 - e ** 2 - (1 - 6 * e) ** 2 / 2
    h2 = -e * np.log2(e) - (1 - e) * np.log2(1 - e)
    want = 1e6 * (-np.log2(p_c) - cfg.f_ec * h2)
    assert want > 0
    assert skr_dps(1e6, e, 0.5, cfg) == pytest.approx(want, rel=1e-12)
    # past e = 1/6 the bound is void and no bit is secure
    assert skr_dps(1e6, 0.3, 0.5, cfg) == 0.0


@pytest.mark.parametrize("rate", [-1.0, -np.inf, np.nan, np.inf])
def test_skr_dps_rejects_a_sifted_rate_not_finite_and_non_negative(rate):
    # at a low error rate the key fraction is positive, so a negative rate
    # would come back as 0, NaN as NaN and inf as inf
    with pytest.raises(ValueError, match="^sifted_rate_hz must be finite and >= 0$"):
        skr_dps(rate, 0.01, 0.5, ProtocolConfig(DPS))


@pytest.mark.parametrize("name, q_signal, e_signal", [
    ("q_signal", -1e-3, 0.02), ("q_signal", 1.5, 0.02), ("q_signal", np.nan, 0.02),
    ("e_signal", 1e-3, -0.3), ("e_signal", 1e-3, 1.2), ("e_signal", 1e-3, np.nan)])
def test_skr_bb84_rejects_a_signal_gain_or_error_rate_outside_0_1(
        name, q_signal, e_signal):
    # a clamp on e_signal used to turn -0.3 into 0 and return a positive rate
    cfg = ProtocolConfig(BB84_DECOY)
    est = decoy_estimate(1e-3, 2.5e-4, 1e-6, 0.02, 0.03, 0.5, 0.5, 0.125)
    with pytest.raises(ValueError, match=rf"^{name} must lie in \[0, 1\]$"):
        skr_bb84(est, q_signal, e_signal, cfg)


@pytest.mark.parametrize("kind, want", [
    (DPS, {"skr_dps": 1}),
    (BB84_DECOY, {"decoy_estimate": 1, "skr_bb84": 1})])
def test_key_rate_steps_call_the_module_level_formulas(monkeypatch, kind, want):
    # perfbench/tracing.py times the key rate by swapping these module
    # attributes; a KINDS record that held the functions themselves would
    # bypass the swap and zero that timing without failing anything else
    from qkdtx import protocols
    calls = {}

    def counting(name):
        inner = getattr(protocols, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return inner(*args, **kwargs)
        return wrapper

    for name in ("skr_dps", "skr_bb84", "decoy_estimate"):
        monkeypatch.setattr(protocols, name, counting(name))
    cfg = ProtocolConfig(kind)
    ch, det = ChannelModel(20.0), snspd(cfg.clock_hz)
    expected = analytic_expectations(cfg, ch, det)
    assert calls == want
    calls.clear()
    s = run_session(cfg, ch, det, 10 ** 10, make_rng(5), expected=expected)
    assert calls == want
    assert s.skr_bps > 0


def test_skr_bb84_limits():
    cfg = ProtocolConfig(BB84_DECOY)
    est = DecoyEstimates(y0=0.0, y1_lower=0.0, e1_upper=0.0, q1=0.0)
    assert skr_bb84(est, 1e-3, 0.02, cfg) == 0.0
    # noiseless collapse: R = sift * clock * p_signal * Q1
    est = DecoyEstimates(y0=0.0, y1_lower=4e-3, e1_upper=0.0,
                         q1=4e-3 * 0.5 * np.exp(-0.5))
    want = 0.5 * cfg.clock_hz * cfg.p_signal * est.q1
    assert skr_bb84(est, 1e-3, 0.0, cfg) == pytest.approx(want, rel=1e-12)


def gllp_rate(q1, e1, q_signal, e_signal, basis_prob_x, clock_hz, p_signal, f_ec):
    """The asymptotic GLLP key rate with decoy-state Q1 and e1 (Gottesman, Lo,
    Lutkenhaus & Preskill, QIC 4, 325 (2004); Lo, Ma & Chen, PRL 94, 230504
    (2005)), sift * clock * p_signal * [Q1 (1 - h2(e1)) - f_ec Q_s h2(E_s)],
    clamped at 0, with h2 written through math.log2."""
    def h2(x):
        return 0.0 if x in (0.0, 1.0) else -x * math.log2(x) - (1 - x) * math.log2(1 - x)
    sift = basis_prob_x ** 2 + (1 - basis_prob_x) ** 2
    return max(sift * clock_hz * p_signal
               * (q1 * (1 - h2(e1)) - f_ec * q_signal * h2(e_signal)), 0.0)


@settings(max_examples=300, deadline=None)
@given(q1=st.floats(0.0, 1e-2), e1=st.floats(0.0, 0.5), q_signal=st.floats(0.0, 2e-2),
       e_signal=st.floats(0.0, 0.5), basis_prob_x=st.floats(0.05, 0.95),
       clock_hz=st.floats(1e6, 1e10), p_decoy=st.floats(0.0, 0.3), f_ec=st.floats(1.0, 2.0))
@example(q1=5.8e-4, e1=0.0335, q_signal=1e-3, e_signal=0.02, basis_prob_x=0.5,
         clock_hz=1e9, p_decoy=0.0625, f_ec=1 / 0.9)
@example(q1=5.8e-4, e1=0.0335, q_signal=1e-3, e_signal=0.02, basis_prob_x=0.8,
         clock_hz=1e9, p_decoy=0.2, f_ec=1.5)
def test_skr_bb84_is_the_gllp_rate(q1, e1, q_signal, e_signal, basis_prob_x, clock_hz,
                                   p_decoy, f_ec):
    # the bundled BB84 sweep digest alone caught skr_bb84 without its f_ec;
    # this law catches it wherever the rate is positive and E_s > 0, as at
    # the first example, decoy_estimate(1e-3, 2.5e-4, 1e-6, 0.02, 0.03, 0.5,
    # 0.5, 0.125) on the BB84 defaults
    p_signal = 1.0 - 2 * p_decoy
    cfg = ProtocolConfig(BB84_DECOY, clock_hz=clock_hz, basis_prob_x=basis_prob_x,
                         p_signal=p_signal, p_decoy=p_decoy, p_vacuum=p_decoy, f_ec=f_ec)
    est = DecoyEstimates(y0=0.0, y1_lower=0.0, e1_upper=e1, q1=q1)
    want = gllp_rate(q1, e1, q_signal, e_signal, basis_prob_x, clock_hz, cfg.p_signal, f_ec)
    assert skr_bb84(est, q_signal, e_signal, cfg) == pytest.approx(want, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# sessions
# ---------------------------------------------------------------------------

def test_dps_noiseless_limit():
    cfg = ProtocolConfig(DPS, sigma_phi=0.0, receiver_loss_db=0.0)
    det = DetectorModel(efficiency=1.0, dark_rate_hz=0.0, gate_rate_hz=2e9)
    s = run_session(cfg, ChannelModel(0.0), det, 100_000, make_rng(1))
    assert s.qber == 0.0
    assert s.sifted_bits == s.per_intensity["signal"].clicks
    assert s.skr_bps > 0


def test_dps_zero_detections_flagged():
    cfg = ProtocolConfig(DPS)
    det = DetectorModel(efficiency=1e-6, dark_rate_hz=0.0, gate_rate_hz=2e9)
    s = run_session(cfg, ChannelModel(60.0), det, 1_000, make_rng(2))
    assert s.skr_bps == 0.0
    assert "no-detections" in s.flags


def test_bb84_noiseless_limit_and_basis_match():
    cfg = ProtocolConfig(BB84_DECOY, sigma_phi=0.0)
    det = DetectorModel(efficiency=1.0, dark_rate_hz=0.0, gate_rate_hz=1e9)
    n = 200_000
    s = run_session(cfg, ChannelModel(0.0), det, n, make_rng(3))
    assert s.qber == 0.0
    clicks = sum(t.clicks for t in s.per_intensity.values())
    # sifted fraction matches the basis-match probability within 3 sigma
    p = cfg.basis_match_probability()
    assert abs(s.sifted_bits - clicks * p) <= 3 * np.sqrt(clicks * p * (1 - p))


def test_bb84_vacuum_yield_matches_dark_rate():
    cfg = ProtocolConfig(BB84_DECOY)
    det = DetectorModel(efficiency=0.8, dark_rate_hz=1e6, gate_rate_hz=1e9)
    n = 2_000_000
    s = run_session(cfg, ChannelModel(20.0), det, n, make_rng(4))
    t = s.per_intensity["vacuum"]
    p_dark_unit = 1 - (1 - det.p_dark) ** 2
    expect = t.sent * p_dark_unit
    assert abs(t.clicks - expect) <= 3 * np.sqrt(expect)


def test_dps_dark_only_click_rate():
    # a blind detector clicks only on darks: never without them, and at
    # the per-unit dark gain 1 - (1 - p_dark)^2 with random bits otherwise
    cfg = ProtocolConfig(DPS)
    blind = DetectorModel(efficiency=0.0, dark_rate_hz=0.0, gate_rate_hz=2e9)
    s = run_session(cfg, ChannelModel(0.0), blind, 100_000, make_rng(5))
    assert s.per_intensity["signal"].clicks == 0

    dark = DetectorModel(efficiency=0.0, dark_rate_hz=2e5, gate_rate_hz=2e9)
    a = analytic_expectations(cfg, ChannelModel(0.0), dark)
    assert a.gains["signal"] == pytest.approx(1 - (1 - 1e-4) ** 2, rel=1e-12)
    assert a.qber == pytest.approx(0.5)
    t = run_session(cfg, ChannelModel(0.0), dark, 1_000_000,
                    make_rng(6)).per_intensity["signal"]
    expect = t.sent * a.gains["signal"]
    assert abs(t.clicks - expect) <= 5 * np.sqrt(expect)
    assert abs(t.errors - t.clicks / 2) <= 5 * np.sqrt(t.clicks / 4)


def test_bb84_qber_floor_dark_dominated():
    # vacuum detections carry no signal: their error rate sits at 1/2
    cfg = ProtocolConfig(BB84_DECOY)
    det = DetectorModel(efficiency=0.8, dark_rate_hz=1e6, gate_rate_hz=1e9)
    s = run_session(cfg, ChannelModel(20.0), det, 2_000_000, make_rng(5))
    t = s.per_intensity["vacuum"]
    se = np.sqrt(0.25 / t.sifted)
    assert abs(t.errors / t.sifted - 0.5) <= 3 * se
    a = analytic_expectations(cfg, ChannelModel(20.0), det)
    assert a.error_rates["vacuum"] == pytest.approx(0.5, abs=1e-12)


def test_session_rng_determinism():
    cfg = ProtocolConfig(DPS)
    det = snspd(2e9)
    r1 = run_session(cfg, ChannelModel(10.0), det, 50_000, make_rng(6))
    r2 = run_session(cfg, ChannelModel(10.0), det, 50_000, make_rng(6))
    assert r1.to_dict() == r2.to_dict()


def test_session_streams_pinned():
    # per-class (sent, clicks, sifted, errors) at one seed: a change to the
    # order or kind of the random draws of either session shows up here
    def tallies(s):
        return {name: (t.sent, t.clicks, t.sifted, t.errors)
                for name, t in s.per_intensity.items()}

    ch = ChannelModel(10.0)
    dps = ProtocolConfig(DPS)
    s = run_session(dps, ch, snspd(dps.clock_hz), 200_000, make_rng(123))
    assert tallies(s) == {"signal": (199999, 1187, 1187, 25)}

    bb = ProtocolConfig(BB84_DECOY)
    s = run_session(bb, ch, snspd(bb.clock_hz), 200_000, make_rng(123))
    assert tallies(s) == {"vacuum": (12699, 0, 0, 0), "decoy": (12511, 59, 34, 1),
                          "signal": (174790, 3400, 1672, 36)}


class _LoggedGenerator:
    """Forwards every draw to a Generator and logs its arguments' exact
    bytes, so that draws at probabilities one ulp apart differ in the log."""

    def __init__(self, seed):
        self._rng = make_rng(seed)
        self.log = []

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def logged(*args):
            self.log.append((name, *((np.asarray(a).dtype.str, np.asarray(a).tobytes())
                                     for a in args)))
            return method(*args)
        return logged


def _reference_session(cfg, ch, det, n_pulses, rng):
    """Per-class tallies, QBER and key rate of a session whose classes draw
    from gains and error gains computed in the session itself, one class at
    a time."""
    n_units = n_pulses - 1 if cfg.kind == DPS else n_pulses
    names, p_cls, mus = cfg.classes()
    eta_t = _usable_efficiency(cfg, ch, det)
    match = cfg.basis_match_probability()
    tallies = {}
    for name, mu, sent in zip(names, mus, rng.multinomial(n_units, p_cls)):
        flux = mu * eta_t
        gain = _unit_gain(flux, det.p_dark)
        wrong = _mean_wrong_click(flux, cfg.sigma_phi, det.p_dark)
        clicks = int(rng.binomial(sent, gain))
        sifted = int(rng.binomial(clicks, match))
        p_wrong = min(max(wrong / gain, 0.0), 1.0) if gain > 0 else 0.0
        tallies[name] = (int(sent), clicks, sifted, int(rng.binomial(sifted, p_wrong)))
    _, _, sifted, errors = tallies["signal"]
    qber = min(errors / sifted, 0.5) if sifted else 0.0
    rate = cfg.clock_hz * sum(t[2] for t in tallies.values()) / n_units
    skr, _ = KINDS[cfg.kind].key_rate(
        cfg, {n: t[1] / t[0] if t[0] else 0.0 for n, t in tallies.items()},
        {n: t[3] / t[2] if t[2] else 0.5 for n, t in tallies.items()},
        qber, rate, sent_counts={n: t[0] for n, t in tallies.items()})
    return tallies, qber, skr


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from([DPS, BB84_DECOY]),
       loss_db=st.floats(0.0, 60.0),
       sigma_phi=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
       det=st.one_of(
           st.just((0.0, 0.0)), st.just((0.0, 1e3)), st.just((1.0, 0.0)),
           st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1e7))),
       n_pulses=st.integers(1_000, 10 ** 12),
       seed=st.integers(0, 2 ** 32 - 1))
def test_session_draws_bit_for_bit_as_from_per_class_groups(
        kind, loss_db, sigma_phi, det, n_pulses, seed):
    # the session reads each class's law from the closed form; it must make
    # the draws, at the same probabilities to the bit, that computing that
    # law in the session made, including at a gain of exactly 0 (a blind
    # detector without darks)
    cfg = ProtocolConfig(kind, sigma_phi=sigma_phi)
    det = DetectorModel(efficiency=det[0], dark_rate_hz=det[1],
                        gate_rate_hz=cfg.clock_hz)
    ch = ChannelModel(loss_db)
    rng, ref_rng = _LoggedGenerator(seed), _LoggedGenerator(seed)
    s = run_session(cfg, ch, det, n_pulses, rng)
    tallies, qber, skr = _reference_session(cfg, ch, det, n_pulses, ref_rng)
    assert rng.log == ref_rng.log
    assert {n: (t.sent, t.clicks, t.sifted, t.errors)
            for n, t in s.per_intensity.items()} == tallies
    assert (s.qber.hex(), s.skr_bps.hex()) == (float(qber).hex(), float(skr).hex())


@pytest.mark.parametrize("kind, e_opt", [(DPS, 0.025), (BB84_DECOY, 0.023)])
def test_transmitter_phase_noise_is_the_session_law(kind, e_opt):
    # Sessions draw each unit's differential phase as the programmed one plus
    # N(0, sigma_phi) instead of emitting pulse trains; the injection-locked
    # transmitter must give that law. BB84 sends pulse pairs whose absolute
    # phase is redrawn between pairs, so only within-pair steps carry data.
    rng = make_rng(41)
    n = 200_000
    if kind == DPS:
        cfg = ProtocolConfig(DPS)
        seq = DifferentialPhaseSequence(np.pi * rng.integers(0, 2, n), 2)
        data = np.ones(n, dtype=bool)
    else:
        cfg = ProtocolConfig(BB84_DECOY)
        steps = (np.pi / 2) * rng.integers(0, 4, 2 * n)
        boundary = np.arange(2 * n) % 2 == 1
        seq = DifferentialPhaseSequence(steps, 4, pair_boundary=boundary)
        data = ~boundary
    assert cfg.sigma_phi == sigma_phi_for_error_rate(e_opt)
    mode = InjectionMode.modulated(seq, phase_noise_sigma=cfg.sigma_phi)
    train = emit_pulse_train(len(seq) + 1, cfg.mu_signal, mode, rng)
    emitted = train.differential_phases()[data]
    programmed = seq.diff_phases[data]
    delta = np.angle(np.exp(1j * (emitted - programmed)))
    assert stats.kstest(delta, "norm", args=(0.0, cfg.sigma_phi)).pvalue > 0.01
    # a demodulator set to the programmed phase sends (1 - cos delta)/2 of
    # the light to the wrong port, on average (1 - exp(-sigma^2/2))/2
    wrong = port_intensities(np.cos(emitted - programmed), 0.5)[1]
    assert (1.0 - np.exp(-cfg.sigma_phi ** 2 / 2)) / 2 == pytest.approx(e_opt)
    assert abs(wrong.mean() - e_opt) < 5 * wrong.std() / np.sqrt(wrong.size)


def test_session_minimum_size():
    # 1,000 pulses is the smallest session of either kind; DPS sends its
    # 999 interference slots and reports the 1,000 pulses
    for kind, units in ((DPS, 999), (BB84_DECOY, 1_000)):
        cfg = ProtocolConfig(kind)
        det = snspd(cfg.clock_hz)
        for size in (999, 2**63):  # 2**63 overflows the int64 class split
            with pytest.raises(ValueError, match="n_pulses"):
                run_session(cfg, ChannelModel(0.0), det, size, make_rng(0))
        s = run_session(cfg, ChannelModel(0.0), det, 1_000, make_rng(0))
        assert s.pulses_sent == 1_000
        assert sum(t.sent for t in s.per_intensity.values()) == units


# ---------------------------------------------------------------------------
# analytic expectations and derived properties
# ---------------------------------------------------------------------------

def test_analytic_vacuum_limit():
    cfg = ProtocolConfig(BB84_DECOY)
    det = snspd(1e9)
    a = analytic_expectations(cfg, ChannelModel(10.0), det)
    p_dark_unit = 1 - (1 - det.p_dark) ** 2
    assert a.gains["vacuum"] == pytest.approx(p_dark_unit, rel=1e-9)
    assert a.error_rates["vacuum"] == pytest.approx(0.5)


def test_analytic_noise_free_errors_vanish():
    for cfg in (ProtocolConfig(DPS, sigma_phi=0.0),
                ProtocolConfig(BB84_DECOY, sigma_phi=0.0)):
        det = DetectorModel(efficiency=0.8, dark_rate_hz=0.0,
                            gate_rate_hz=cfg.clock_hz)
        a = analytic_expectations(cfg, ChannelModel(10.0), det)
        for cls, e in a.error_rates.items():
            if a.gains[cls] > 0:
                assert e == pytest.approx(0.0, abs=1e-12)


def test_analytic_matches_mc_moderate_loss():
    cfg = ProtocolConfig(DPS)
    ch = ChannelModel(10.0)
    det = snspd(2e9)
    a = analytic_expectations(cfg, ch, det)
    s = run_session(cfg, ch, det, 2_000_000, make_rng(7))
    t = s.per_intensity["signal"]
    q = a.gains["signal"]
    assert abs(t.clicks - t.sent * q) <= 4 * np.sqrt(t.sent * q * (1 - q))
    e = a.error_rates["signal"]
    assert abs(t.errors - t.sifted * e) <= 4 * np.sqrt(t.sifted * e * (1 - e)) + 1


def _wrapped_normal_mean(f, sigma):
    """E[f(delta)] for delta ~ N(0, sigma) by adaptive quadrature over
    [0, pi] against the wrapped density, summed over its 2 pi images; f is
    even and 2 pi periodic."""
    images = 2 * np.pi * np.arange(-3 - int(2 * sigma), 4 + int(2 * sigma))

    def density(d):
        return np.sum(stats.norm.pdf(d + images, scale=sigma))

    kinks = [k * sigma for k in (1, 3, 6) if k * sigma < np.pi] or None
    value, _ = integrate.quad(lambda d: f(d) * density(d), 0.0, np.pi,
                              points=kinks, epsabs=0.0, epsrel=1e-13, limit=500)
    return 2.0 * value


@pytest.mark.parametrize("flux", [1e-4, 0.01, 0.5, 5.0, MU_SIGNAL_MAX])
def test_phase_average_matches_quad(flux):
    # the closed form's (and the sessions') wrong-decode numerator against
    # adaptive quadrature of the same law written with 1 - cos = 2 sin^2(delta/2);
    # relative error at most 1e-9 at every sigma, to wrapped-uniform noise and
    # up to the largest flux a config allows
    for sigma in (0.0, 0.01, 0.05, 0.185, 0.5, 1.0, 3.0, 10.0):
        for p_dark in (0.0, 1e-7, 1e-3):
            def wrong(d):
                lam_w = flux * np.sin(0.5 * d) ** 2
                p_w, p_r = -np.expm1(np.log1p(-p_dark) - [lam_w, flux - lam_w])
                return p_w * (1 - p_r) + 0.5 * p_r * p_w

            want = wrong(0.0) if sigma == 0 else _wrapped_normal_mean(wrong, sigma)
            got = _mean_wrong_click(flux, sigma, p_dark)
            assert got == pytest.approx(want, rel=1e-9, abs=0.0), (sigma, p_dark)


_TAIL_5_SIGMA = stats.norm.sf(5.0)


def _binomial_5_sigma(k, n, p):
    """True when k lies inside both 5-sigma tails of Binomial(n, p)."""
    lo = stats.binom.ppf(_TAIL_5_SIGMA, n, p)
    hi = stats.binom.isf(_TAIL_5_SIGMA, n, p)
    return lo <= k <= hi


def dense_tallies(cfg, channel, det, n_units, rng):
    """Per-class (sent, clicks, sifted, errors) drawn slot by slot, with no
    use of the sessions' per-class gains or the quadrature: each unit draws
    its class, bit, bases and phase noise; its bar and cross ports get the
    means flux*(1 +/- cos(phase))/2 and click on one uniform each against
    _click_probability; a double click reads a coin."""
    names, p_cls, mus = cfg.classes()
    flux = mus * _usable_efficiency(cfg, channel, det)
    cls = rng.choice(len(names), n_units, p=p_cls)
    bit = rng.integers(0, 2, n_units)
    if cfg.kind == DPS:
        x_a = x_b = np.ones(n_units, dtype=bool)
    else:
        x_a = rng.random(n_units) < cfg.basis_prob_x
        x_b = rng.random(n_units) < cfg.basis_prob_x
    # (2 bit + [B in X] - [A in X]) quarter turns: with matched bases bit 0
    # lights the bar port
    phase = np.pi / 2 * (2 * bit + x_b.astype(int) - x_a)
    phase += rng.normal(0.0, cfg.sigma_phi, n_units)
    bar_lam, cross_lam = port_intensities(np.cos(phase), 0.5 * flux[cls])
    bar = rng.random(n_units) < _click_probability(bar_lam, det.p_dark)
    cross = rng.random(n_units) < _click_probability(cross_lam, det.p_dark)
    read_bar = np.where(bar & cross, rng.random(n_units) < 0.5, bar)
    sifted = (bar | cross) & (x_a == x_b)
    wrong = sifted & (read_bar != (bit == 0))
    return {name: (int(np.sum(cls == i)), int(np.sum((bar | cross)[cls == i])),
                   int(np.sum(sifted[cls == i])), int(np.sum(wrong[cls == i])))
            for i, name in enumerate(names)}


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from([DPS, BB84_DECOY]),
       mu=st.floats(1e-6, MU_SIGNAL_MAX),
       nu_fraction=st.floats(0.05, 0.9),
       p_decoy=st.floats(0.05, 0.45),
       p_vacuum=st.floats(0.05, 0.45),
       # past sigma ~ 9 the wrapped phase noise is uniform to double precision
       sigma_phi=st.one_of(st.floats(0.0, 1.0), st.floats(1.0, 100.0)),
       loss_db=st.floats(0.0, 30.0),
       preset=st.sampled_from(sorted(DETECTOR_PRESETS)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_mc_tallies_match_analytic_across_configs(
        kind, mu, nu_fraction, p_decoy, p_vacuum, sigma_phi, loss_db, preset, seed):
    # per class, each tally of the session and of the slot-by-slot
    # reference sampler lies in the exact 5-sigma range of its binomial law
    # given the tally it is drawn from: sent of the units, clicks of sent,
    # sifted of clicks, errors of sifted
    kw = dict(mu_signal=mu, sigma_phi=sigma_phi)
    n = 200_000
    if kind == DPS:
        cfg = ProtocolConfig(DPS, **kw)
        units = n - 1  # interference slots
        send, match = {"signal": 1.0}, 1.0
    else:
        cfg = ProtocolConfig(BB84_DECOY, 
            **kw, mu_decoy=mu * nu_fraction, p_decoy=p_decoy, p_vacuum=p_vacuum,
            p_signal=1.0 - p_decoy - p_vacuum)
        units = n
        send = dict(zip(INTENSITY_CLASSES, cfg.class_probabilities()))
        match = cfg.basis_match_probability()
    det = detector_preset(preset, gate_rate_hz=cfg.clock_hz)
    ch = ChannelModel(loss_db)
    a = analytic_expectations(cfg, ch, det)
    s = run_session(cfg, ch, det, n, make_rng(seed))
    session_tallies = {name: (t.sent, t.clicks, t.sifted, t.errors)
                       for name, t in s.per_intensity.items()}
    dense = dense_tallies(cfg, ch, det, units, make_rng(seed))

    for tallies in (session_tallies, dense):
        assert set(tallies) == set(send)
        for name, p_send in send.items():
            sent, clicks, sifted, errors = tallies[name]
            assert _binomial_5_sigma(sent, units, p_send), name
            assert _binomial_5_sigma(clicks, sent, a.gains[name]), name
            assert _binomial_5_sigma(sifted, clicks, match), name
            assert _binomial_5_sigma(errors, sifted, a.error_rates[name]), name


@pytest.mark.parametrize("n", [10 ** 10, 10 ** 12], ids=["1e10", "1e12"])
@pytest.mark.parametrize("variant", ["bb84", "dps"])
def test_session_past_int32_counts(variant, n):
    # the signal class alone sends more than 2^31 units, so an int32 count
    # in the multinomial or binomial draws would show here; a session costs
    # the same at 1e12 units as at 1e10
    ch = ChannelModel(30.0)
    cfg = ProtocolConfig(DPS if variant == "dps" else BB84_DECOY)
    det = snspd(cfg.clock_hz)
    s = run_session(cfg, ch, det, n, make_rng(12))
    names, p_cls, _ = cfg.classes()
    units = n - 1 if cfg.kind == DPS else n  # DPS: interference slots
    send = dict(zip(names, p_cls))
    a = analytic_expectations(cfg, ch, det)
    match = cfg.basis_match_probability()
    assert s.per_intensity["signal"].sent > 2 ** 31
    assert sum(t.sent for t in s.per_intensity.values()) == units
    for name, p_send in send.items():
        t = s.per_intensity[name]
        assert _binomial_5_sigma(t.sent, units, p_send), name
        assert _binomial_5_sigma(t.clicks, t.sent, a.gains[name]), name
        assert _binomial_5_sigma(t.sifted, t.clicks, match), name
        assert _binomial_5_sigma(t.errors, t.sifted, a.error_rates[name]), name


def test_sessions_and_closed_form_read_the_kinds_frame(monkeypatch):
    # halving BB84's temporal efficiency in its KINDS record is 10 log10(2) dB
    # more channel loss, for the class gains and the single-photon yield alike
    cfg = ProtocolConfig(BB84_DECOY)
    det = snspd(cfg.clock_hz)
    ch = ChannelModel(10.0)
    half_ch = ChannelModel(10.0 + 10 * np.log10(2))
    half = analytic_expectations(cfg, half_ch, det)
    half_y1, half_e1 = single_photon_yield(cfg, half_ch, det)
    monkeypatch.setitem(KINDS, BB84_DECOY,
                        KINDS[BB84_DECOY]._replace(temporal_efficiency=0.25))
    a = analytic_expectations(cfg, ch, det)
    for name in INTENSITY_CLASSES:
        assert a.gains[name] == pytest.approx(half.gains[name], rel=1e-12, abs=0.0)
        assert a.error_gains[name] == pytest.approx(half.error_gains[name],
                                                    rel=1e-12, abs=0.0)
    y1, e1 = single_photon_yield(cfg, ch, det)
    assert (y1, e1) == pytest.approx((half_y1, half_e1), rel=1e-12, abs=0.0)
    # BB84 has no receiver loss: a photon is usable with 0.25 T eta_det
    assert y1 == pytest.approx(
        1 - (1 - det.p_dark) ** 2 * (1 - 0.25 * transmittance(ch) * det.efficiency),
        rel=1e-12, abs=0.0)


def _closed_form(kind, preset, loss_db, **fields):
    cfg = ProtocolConfig(kind, **fields)
    det = detector_preset(preset, gate_rate_hz=cfg.clock_hz)
    return analytic_expectations(cfg, ChannelModel(loss_db), det)


_REFERENCES = {r.label: r for r in load_reference_points()}


@pytest.mark.parametrize("kind, knob, label, reads, bracket", [
    (DPS, "receiver_loss_db", "dps-snspd-20db-skr", "519.1 kb/s", (0.0, 15.0)),
    (DPS, "sigma_phi", "dps-snspd-20db-qber", "2.508%", (0.1, 0.5)),
    (BB84_DECOY, "sigma_phi", "bb84-snspd-20db-qber", "2.304%", (0.1, 0.5))])
def test_calibrated_defaults_state_their_closed_form_and_root(
        kind, knob, label, reads, bracket):
    # each calibrated default's source states what the closed form reads at
    # its reference point and the root that would land on the reference value
    ref = _REFERENCES[label]
    default, source = KINDS[kind].fields[knob]
    assert source.startswith("calibrated")

    def reading(value):
        return getattr(_closed_form(kind, "snspd", ref.loss_db, **{knob: value}),
                       ref.quantity)

    root = optimize.brentq(lambda v: reading(v) - ref.expected, *bracket, xtol=1e-12)
    got = reading(default)
    shown = (f"{got / 1e3:.1f} kb/s" if ref.quantity == "skr_bps"
             else f"{100 * got:.3f}%")
    unit, digits = ("dB", 3) if knob == "receiver_loss_db" else ("rad", 5)
    assert shown == reads and f"reads {reads}" in source
    assert f"(root {root:.{digits}f} {unit})" in source
    assert _within(got, ref)  # the default keeps its reference point in band


def test_no_dps_receiver_loss_puts_all_four_dps_points_in_band():
    # README's Calibration and limits: in the closed form, the APD rate falls
    # and the APD QBER rises with the DPS receiver loss, and the APD rate
    # reaches its band only past the loss where the APD QBER leaves its own
    refs = [r for label, r in _REFERENCES.items() if label.startswith("dps-")]
    assert len(refs) == 4

    losses = np.linspace(0.0, 15.0, 751)
    points = [{"snspd": _closed_form(DPS, "snspd", 20.0, receiver_loss_db=loss),
               "apd": _closed_form(DPS, "apd", 10.0, receiver_loss_db=loss)}
              for loss in losses]
    for loss, point in zip(losses, points):
        assert not all(_within(getattr(point[r.label.split("-")[1]], r.quantity), r)
                       for r in refs), loss
    apd = [point["apd"] for point in points]
    assert all(a.skr_bps >= b.skr_bps and a.qber <= b.qber
               for a, b in zip(apd, apd[1:]))
    skr, qber = _REFERENCES["dps-apd-10db-skr"], _REFERENCES["dps-apd-10db-qber"]

    def apd_edge(quantity, edge):
        return optimize.brentq(
            lambda l: getattr(_closed_form(DPS, "apd", 10.0, receiver_loss_db=l),
                              quantity) - edge, 0.0, 15.0, xtol=1e-9)

    skr_from = apd_edge("skr_bps", skr.expected * skr.tolerance)
    qber_until = apd_edge("qber", qber.expected + qber.tolerance)
    assert (round(skr_from, 3), round(qber_until, 3)) == (11.458, 11.259)
    # README's figures at the default and near the QBER edge
    for loss, kbps, factor, percent in ((8.5, 807.7, 6.46, 3.42),
                                        (11.2, 284.0, 2.27, 4.18)):
        a = _closed_form(DPS, "apd", 10.0, receiver_loss_db=loss)
        assert (round(a.skr_bps / 1e3, 1), round(a.skr_bps / skr.expected, 2),
                round(100 * a.qber, 2)) == (kbps, factor, percent)


def test_skr_monotonicity_grids():
    det = snspd(2e9)
    detb = snspd(1e9)
    dps = ProtocolConfig(DPS)
    bb = ProtocolConfig(BB84_DECOY)

    def skr_of(cfg, d, loss):
        return analytic_expectations(cfg, ChannelModel(loss), d).skr_bps

    for cfg, d in ((dps, det), (bb, detb)):
        losses = [0, 5, 10, 15, 20, 25]
        vals = [skr_of(cfg, d, l) for l in losses]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

        darks = [0, 10, 100, 1e3, 1e4, 1e5]
        vals = [analytic_expectations(
            cfg, ChannelModel(20.0),
            DetectorModel(d.efficiency, dk, d.gate_rate_hz)).skr_bps
            for dk in darks]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

        sigmas = [0.0, 0.1, 0.2, 0.3, 0.35]
        vals = [analytic_expectations(
            type(cfg)(**{**cfg.__dict__, "sigma_phi": s}),
            ChannelModel(20.0), d).skr_bps for s in sigmas]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

        fecs = [1.0, 1.05, 1.11, 1.2, 1.4]
        vals = [analytic_expectations(
            type(cfg)(**{**cfg.__dict__, "f_ec": f}),
            ChannelModel(20.0), d).skr_bps for f in fecs]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_zero_key_cutoff_analytic_vs_mc():
    # elevated darks pull the cutoff to moderate loss; MC agrees within 1 dB
    det = DetectorModel(efficiency=0.8, dark_rate_hz=2e5, gate_rate_hz=2e9,
                        label="noisy")
    cfg = ProtocolConfig(DPS)
    losses = np.arange(10.0, 30.0, 1.0)
    analytic = np.array([
        analytic_expectations(cfg, ChannelModel(l), det).skr_bps for l in losses])
    assert analytic[0] > 0 and analytic[-1] == 0.0
    cut_analytic = losses[np.argmax(analytic == 0.0)]
    mc = []
    for i, l in enumerate(losses):
        s = run_session(cfg, ChannelModel(l), det, 3_000_000, make_rng(100 + i))
        mc.append(s.skr_bps)
    mc = np.array(mc)
    cut_mc = losses[np.argmax(mc == 0.0)]
    assert abs(cut_mc - cut_analytic) <= 1.0


def test_session_result_serializes():
    cfg = ProtocolConfig(BB84_DECOY)
    s = run_session(cfg, ChannelModel(5.0), snspd(1e9), 20_000, make_rng(8))
    d = s.to_dict()
    assert set(d["per_intensity"]) == {"vacuum", "decoy", "signal"}
    assert d["qber"] == s.qber
    assert isinstance(d["decoy"]["y1_lower"], float)

    cfg = ProtocolConfig(DPS)
    s = run_session(cfg, ChannelModel(5.0), snspd(2e9), 20_000, make_rng(8))
    d = s.to_dict()
    assert list(d) == ["protocol", "pulses_sent", "per_intensity",
                       "sifted_bits", "errors", "qber", "raw_rate_hz",
                       "sifted_rate_hz", "skr_bps", "flags"]
    assert d["pulses_sent"] == 20_000
    assert d["per_intensity"] == {"signal": {
        "sent": 19_999, "clicks": s.sifted_bits, "sifted": s.sifted_bits,
        "errors": s.errors}}
