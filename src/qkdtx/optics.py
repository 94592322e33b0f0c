"""Phase-encoded pulse trains and their AMZI demodulation.

Models the three injection regimes of a gain-switched slave laser seeded by a
master laser (no injection, CW injection, directly modulated injection) and
the delay-line interferometer that converts differential phase into intensity.
Each pulse is a point event carrying a mean photon number and an optical
phase; pulse shape, chirp and jitter are below the abstraction level.
Emitted differential phases are the programmed steps plus locking noise,
exactly (across a randomized pair boundary, the difference of the two
absolute phases; without injection, np.diff of the uniform phases).
Each phase array is reduced mod 2*pi exactly once: a train's phases on
their first read, its emitted differential phases when it is built, and
``differential_phases()`` returns that one read-only array on every call.
``dual_basis_demodulate`` returns a float64 record array (``radius``,
``angle``), and ``amzi_interfere`` and ``fringe_scan`` an
``InterferenceResult`` of read-only columns, with no object per pulse; its
row view serves only the benchmark's checks, which still read rows.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import repeat
from typing import NamedTuple, Optional

import numpy as np

TWO_PI = 2.0 * np.pi
_PERIOD_S = 5e-10  # the default slot period, a 2 GHz train


#: Shorter arrays take np.mod: the fast line's guard and arithmetic cost a fixed
#: 6-11 us, and on 2 vCPUs (numpy 2.4) broke even with np.mod at 384-416
#: float64 elements (2,000: 17 vs 43 us; 100,000: 0.32 vs 2.9 ms).
_FAST_MIN_SIZE = 400


def reduce_phase(phi):
    """Reduce phase(s) into [0, 2*pi); values equal to 2*pi map to 0.

    Bitwise equal to ``np.mod(phi, TWO_PI)``, then 2*pi mapped to 0. A float64
    ndarray of at least ``_FAST_MIN_SIZE`` elements, all |x| < 2*pi, takes
    ``(x < 0) * TWO_PI + x``: there fmod returns x itself, so np.mod's only
    rounding is its own x + 2*pi on negatives, and +0.0 turns -0.0 into
    np.mod's +0.0. Scalars, lists, other dtypes, NaN, inf, |x| >= 2*pi and
    short arrays take np.mod.
    """
    if (type(phi) is np.ndarray and phi.size >= _FAST_MIN_SIZE
            and phi.dtype == np.float64 and -TWO_PI < phi.min()
            and phi.max() < TWO_PI):  # NaN fails both comparisons
        out = (phi < 0.0) * TWO_PI
        out += phi
    else:
        out = np.mod(phi, TWO_PI)
        if out.ndim == 0:
            return 0.0 if out == TWO_PI else float(out)
    # both lines round tiny negatives up to exactly 2*pi
    out[out == TWO_PI] = 0.0
    return out


def _count(value, name: str, least: int) -> int:
    """``value`` as an int: a Python or numpy integer, not a bool, >= least."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}")
    return int(value)


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


def sigma_phi_for_visibility(visibility: float) -> float:
    """Gaussian differential-phase noise that yields a given fringe visibility.

    Inverts V = exp(-sigma^2 / 2), the mean-contrast law for Gaussian
    differential-phase noise.
    """
    if not 0.0 < visibility <= 1.0:
        raise ValueError(f"visibility must be in (0, 1], got {visibility}")
    return float(np.sqrt(-2.0 * np.log(visibility)))


def sigma_phi_for_error_rate(e_opt: float) -> float:
    """Gaussian phase noise that yields a given optical error fraction.

    The wrong-port flux fraction under noise is e = (1 - exp(-sigma^2/2)) / 2,
    so this is sigma_phi_for_visibility(1 - 2 e).
    """
    if not 0.0 <= e_opt < 0.5:
        raise ValueError(f"optical error fraction must be in [0, 0.5), got {e_opt}")
    return sigma_phi_for_visibility(1.0 - 2.0 * e_opt)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

class PulseTrain:
    """Equal-intensity pulse sequence with per-slot phases.

    The train copies the phases as given and reduces that copy mod 2*pi on
    the first read of ``phases``, which from then on is one read-only array.
    When the train was produced by :func:`emit_pulse_train`, the
    emission-time differential phases are kept alongside (reduced once, here),
    so demodulation is exactly invariant under a global phase shift of the
    whole train and never reads ``phases``.

    Parameters
    ----------
    phases : array_like
        Optical phase of each pulse, radians.
    mean_photons : float
        Mean photon number per pulse (equal for all pulses).
    period_s : float
        Slot period T in seconds.
    diff_phases : array_like, optional
        Differential phases phase[k+1] - phase[k] as emitted (length n-1).
    """

    def __init__(self, phases, mean_photons, period_s, diff_phases=None):
        phases = np.array(phases, dtype=float, ndmin=1)  # a private, writeable copy
        if phases.ndim != 1 or phases.size == 0 or not np.isfinite(phases).all():
            raise ValueError("phases must be a non-empty 1-d array of finite values")
        if not 0.0 <= mean_photons < np.inf:
            raise ValueError("mean_photons must be finite and >= 0")
        if not 0.0 < period_s < np.inf:
            raise ValueError("period_s must be finite and > 0")
        self._phases = phases
        self.mean_photons = float(mean_photons)
        self.period_s = float(period_s)
        if diff_phases is not None:
            diff_phases = np.asarray(diff_phases, dtype=float)
            if (diff_phases.shape != (phases.size - 1,)
                    or not np.isfinite(diff_phases).all()):
                raise ValueError("diff_phases must be n_pulses - 1 finite values")
            diff_phases = _read_only(reduce_phase(diff_phases))
        self._diff_phases = diff_phases

    @property
    def n_pulses(self) -> int:
        return self._phases.size

    @property
    def phases(self) -> np.ndarray:
        """Optical phase of each pulse in [0, 2*pi), read-only."""
        # the copy as given: reduce it once (racing first reads give equal bits)
        if self._phases.flags.writeable:
            self._phases = _read_only(reduce_phase(self._phases))
        return self._phases

    def differential_phases(self) -> np.ndarray:
        """Phase increments between consecutive pulses in [0, 2*pi), as one
        read-only array computed once."""
        if self._diff_phases is None:
            self._diff_phases = _read_only(reduce_phase(self.phases[1:] - self.phases[:-1]))
        return self._diff_phases


class DifferentialPhaseSequence:
    """Protocol-level differential phases, array-backed.

    ``diff_phases[k]`` is the phase step from pulse k to pulse k+1;
    ``pair_boundary[k]`` marks steps across which global-phase coherence is
    deliberately broken (pulse-pair randomization). ``modulation_levels`` is
    the M of the M-ary phase format; every phase must sit on the
    2*pi*k/M grid.
    """

    def __init__(self, diff_phases, modulation_levels, pair_boundary=None):
        diff_phases = np.atleast_1d(np.asarray(diff_phases, dtype=float))
        modulation_levels = _count(modulation_levels, "modulation_levels", 2)
        dp = reduce_phase(diff_phases)
        k = np.rint(dp * modulation_levels / TWO_PI)
        on_grid = np.abs(dp - k * TWO_PI / modulation_levels)
        on_grid = np.minimum(on_grid, TWO_PI - on_grid)
        if not np.all(on_grid <= 1e-9):  # NaN is off the grid too
            raise ValueError(
                f"differential phases must lie on the 2*pi*k/{modulation_levels} grid")
        if pair_boundary is None:
            pair_boundary = np.zeros(dp.size, dtype=bool)
        else:
            pair_boundary = np.asarray(pair_boundary, dtype=bool)
            if pair_boundary.shape != dp.shape:
                raise ValueError("pair_boundary must match diff_phases in length")
        self.diff_phases = dp
        self.pair_boundary = pair_boundary
        self.modulation_levels = modulation_levels

    @classmethod
    def mpsk(cls, levels: int, symbol_indices) -> "DifferentialPhaseSequence":
        """Build an M-ary sequence from integer symbols in [0, levels)."""
        levels = _count(levels, "levels", 2)
        idx = np.asarray(symbol_indices, dtype=float)
        if not np.all((idx == np.rint(idx)) & (idx >= 0) & (idx < levels)):
            raise ValueError("symbol indices must be integers in [0, levels)")
        return cls(idx * (TWO_PI / levels), levels)

    def __len__(self) -> int:
        return self.diff_phases.size


#: The InjectionMode fields each seeding variant reads.
_VARIANT_READS = {"off": (), "cw": ("master_angular_freq", "phase_noise_sigma"),
                  "modulated": ("phase_sequence", "phase_noise_sigma",
                                "pair_randomization")}


@dataclass(frozen=True)  # the field rule below holds for the mode's lifetime
class InjectionMode:
    """Seeding regime of the slave laser.

    variant is one of "off", "cw", "modulated". For "cw" the differential
    phase per slot is master_angular_freq * period (the free evolution of the
    master wave over one repetition period); for "modulated" it follows
    phase_sequence. phase_noise_sigma is the standard deviation of Gaussian
    differential-phase noise modeling imperfect locking; pair_randomization
    re-draws the absolute phase at every pair boundary. A field the variant
    does not read (:data:`_VARIANT_READS`) must keep its default, or
    ValueError names it.
    """

    variant: str
    master_angular_freq: float = 0.0
    phase_sequence: Optional[DifferentialPhaseSequence] = None
    phase_noise_sigma: float = 0.0
    pair_randomization: bool = False

    def __post_init__(self):
        if self.variant not in list(_VARIANT_READS):  # the variant may be unhashable
            raise ValueError(f"unknown injection variant {self.variant!r}")
        for f in fields(self)[1:]:  # every field after variant
            if (f.name not in _VARIANT_READS[self.variant]
                    and getattr(self, f.name) != f.default):
                raise ValueError(f"{self.variant} injection reads no {f.name}")
        if not 0.0 <= self.phase_noise_sigma < np.inf:
            raise ValueError("phase_noise_sigma must be finite and >= 0")
        if not np.isfinite(self.master_angular_freq):
            raise ValueError("master_angular_freq must be finite")
        if self.variant == "modulated" and self.phase_sequence is None:
            raise ValueError("modulated injection requires a phase sequence")

    @classmethod
    def off(cls) -> "InjectionMode":
        return cls("off")

    @classmethod
    def cw(cls, master_angular_freq=0.0, phase_noise_sigma=0.0) -> "InjectionMode":
        return cls("cw", master_angular_freq=master_angular_freq,
                   phase_noise_sigma=phase_noise_sigma)

    @classmethod
    def modulated(cls, phase_sequence, phase_noise_sigma=0.0,
                  pair_randomization=False) -> "InjectionMode":
        return cls("modulated", phase_sequence=phase_sequence,
                   phase_noise_sigma=phase_noise_sigma,
                   pair_randomization=pair_randomization)


@dataclass(frozen=True)
class AmziConfig:
    """Asymmetric Mach-Zehnder demodulator: one-slot delay plus phase trim.

    delay_s must match the train period; phase_offset is the relative phase
    theta_A between long and short arm; output_port selects which
    complementary port is read out.
    """

    delay_s: float
    phase_offset: float = 0.0
    output_port: str = "bar"

    def __post_init__(self):
        if not 0.0 < self.delay_s < np.inf:
            raise ValueError("delay_s must be finite and > 0")
        if not np.isfinite(self.phase_offset):
            raise ValueError("phase_offset must be finite")
        if self.output_port not in ("bar", "cross"):
            raise ValueError("output_port must be 'bar' or 'cross'")


class InterferenceRecord(NamedTuple):
    """Intensity leaving one AMZI port for one interference slot."""

    slot_index: int
    intensity_out: float
    input_intensity: float


@dataclass(frozen=True, eq=False)  # a generated __eq__ over arrays would be wrong
class InterferenceResult:
    """AMZI port intensities as read-only columns, ``intensity_out[k]`` at slot
    ``slot_index[k]``. The row view (an ``InterferenceRecord`` per index, built
    on read) and ``InterferenceRecord`` stay only until ROADMAP item 1 revises
    the benchmark, whose checks read rows; item 2 then deletes both.
    """

    slot_index: np.ndarray
    intensity_out: np.ndarray
    input_intensity: float

    def __len__(self) -> int:
        return self.slot_index.size

    def __getitem__(self, k: int) -> InterferenceRecord:
        return InterferenceRecord(self.slot_index[k].item(),
                                  self.intensity_out[k].item(), self.input_intensity)

    def __iter__(self):
        return map(InterferenceRecord._make, zip(self.slot_index.tolist(),
                   self.intensity_out.tolist(), repeat(self.input_intensity)))


@dataclass
class ConstellationReport:
    """Demodulated M-ary constellation plus its noiseless eye levels."""

    modulation_levels: int
    points: np.recarray
    eye_levels: np.ndarray

    @property
    def radius(self) -> float:
        """Every point's radius: dual_basis_demodulate fills the column with
        the train's one pulse intensity."""
        return self.points.radius[0].item()


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def _emission(n_pulses, mode, rng, period_s):
    """Draw one train in emit_pulse_train's stream order. Returns its absolute
    phases before any global offset and its n-1 emitted differential phases,
    unreduced."""
    if mode.variant == "off":
        unwrapped = rng.uniform(0.0, TWO_PI, n_pulses)
        return unwrapped, unwrapped[1:] - unwrapped[:-1]
    if mode.variant == "cw":
        step = reduce_phase(mode.master_angular_freq * period_s)
    else:
        seq = mode.phase_sequence
        if len(seq) < n_pulses - 1:
            raise ValueError(
                f"phase sequence has {len(seq)} symbols; need >= {n_pulses - 1}")
        step = seq.diff_phases[:n_pulses - 1]
    start = rng.uniform(0.0, TWO_PI)
    sigma = mode.phase_noise_sigma
    diffs = rng.normal(0.0, sigma, n_pulses - 1) if sigma > 0 else np.zeros(n_pulses - 1)
    diffs += step  # programmed step plus noise, in a new array
    unwrapped = np.empty(n_pulses)
    unwrapped[0] = 0.0
    np.cumsum(diffs, out=unwrapped[1:])
    unwrapped += start
    boundaries = (np.flatnonzero(mode.phase_sequence.pair_boundary[:n_pulses - 1])
                  if mode.pair_randomization else ())  # read by modulated only
    if len(boundaries):
        redraws = rng.uniform(0.0, TWO_PI, boundaries.size)
        # pulse p+1 restarts at a fresh absolute phase; later pulses
        # keep accumulating the programmed steps from there
        seg_offsets = np.concatenate(([0.0], redraws - unwrapped[boundaries + 1]))
        seg_of = np.searchsorted(boundaries + 1, np.arange(n_pulses), side="right")
        unwrapped += seg_offsets[seg_of]
        # reduced on their own, so that all of diffs lies in (-2*pi, 2*pi)
        diffs[boundaries] = reduce_phase(unwrapped[boundaries + 1] - unwrapped[boundaries])
    return unwrapped, diffs


def emit_pulse_train(n_pulses, mean_photons, mode, rng, period_s=_PERIOD_S,
                     global_phase_offset=0.0):
    """Emit a gain-switched pulse train under a given injection regime.

    Random-stream consumption is fixed per regime so that runs with the same
    seed are reproducible: n uniform draws (off), or one uniform start phase,
    n-1 Gaussian noise draws when phase_noise_sigma > 0, then one uniform draw
    per randomized pair boundary.

    Parameters
    ----------
    n_pulses : int
        Number of pulses, >= 1.
    mean_photons : float
        Mean photon number per pulse.
    mode : InjectionMode
        Seeding regime.
    rng : numpy.random.Generator
        Seeded random stream.
    period_s : float
        Slot period (default 500 ps, a 2 GHz train).
    global_phase_offset : float
        Constant added to every absolute phase; the emitted differential
        phases are unaffected, which makes demodulation bitwise invariant
        under this offset.

    Returns
    -------
    PulseTrain
    """
    unwrapped, diffs = _emission(_count(n_pulses, "n_pulses", 1), mode, rng, period_s)
    unwrapped += global_phase_offset
    # PulseTrain reduces both arrays, each once
    return PulseTrain(unwrapped, mean_photons, period_s, diff_phases=diffs)


# ---------------------------------------------------------------------------
# demodulation
# ---------------------------------------------------------------------------

def port_intensities(cos_phi, half_input):
    """Bar and cross port intensities I_in/2 * (1 +/- cos) of a balanced
    interferometer, given half_input = I_in/2 (scalar or array) and the
    float array cos_phi (visibility included), which is overwritten by the
    cross-port intensity."""
    bar = cos_phi + 1.0
    bar *= half_input
    cross = np.subtract(1.0, cos_phi, out=cos_phi)
    cross *= half_input
    return bar, cross


def amzi_intensity(diff_phases, input_intensity, phase_offset=0.0, port="bar"):
    """Port intensity for given differential phases (vectorized core).

    Implements I_out = I_in/2 * [1 +/- cos(dphi + theta_A)] for the bar (+)
    and cross (-) port of a balanced one-slot-delay interferometer.
    """
    if port not in ("bar", "cross"):
        raise ValueError(f"port must be 'bar' or 'cross', got {port!r}")
    c = np.asarray(np.cos(np.asarray(diff_phases, dtype=float) + phase_offset))
    bar, cross = port_intensities(c, 0.5 * input_intensity)
    return (bar if port == "bar" else cross)[()]  # a scalar for scalar input


def amzi_interfere(train: PulseTrain, cfg: AmziConfig) -> InterferenceResult:
    """Interfere consecutive pulses in the AMZI.

    Slot k (k >= 1) holds the intensity of the overlap between pulse k and
    the delayed pulse k-1 at the configured port.
    """
    if train.n_pulses < 2:
        raise ValueError("train must contain at least 2 pulses")
    if abs(cfg.delay_s - train.period_s) > 1e-9 * train.period_s:
        raise ValueError(
            f"AMZI delay {cfg.delay_s} s does not match train period "
            f"{train.period_s} s")
    out = amzi_intensity(train.differential_phases(), train.mean_photons,
                         cfg.phase_offset, cfg.output_port)
    return InterferenceResult(_read_only(np.arange(1, train.n_pulses)),
                              _read_only(out), train.mean_photons)


def dual_basis_demodulate(train: PulseTrain) -> np.recarray:
    """Recover (radius, differential phase) for every consecutive pulse pair.

    Uses two demodulators, one reading the {0, pi} quadrature (theta_A = 0)
    and one the {pi/2, 3pi/2} quadrature (theta_A = -pi/2); the angle is the
    two-argument arctangent of the normalized port intensities. One float64
    record per pair: ``radius`` (the pulse intensity) and ``angle`` in
    [0, 2*pi); a dark train gives zeros.
    """
    if train.n_pulses < 2:
        raise ValueError("train must contain at least 2 pulses")
    diffs = train.differential_phases()
    i_in = train.mean_photons
    if i_in == 0.0:
        angle = np.zeros(diffs.size)
    else:
        i_i = amzi_intensity(diffs, i_in, 0.0, "bar")
        i_q = amzi_intensity(diffs, i_in, -np.pi / 2.0, "bar")
        angle = reduce_phase(np.arctan2(2.0 * i_q / i_in - 1.0, 2.0 * i_i / i_in - 1.0))
    return np.rec.fromarrays([np.full(diffs.size, i_in), angle], names="radius,angle")


def fringe_scan(mode, mean_photons, theta_grid, pulses_per_point,
                rng) -> InterferenceResult:
    """Sweep the demodulator phase and record the mean bar-port intensity.

    Emits a fresh train per grid point (the slow thermal sweep of the real
    receiver), so slot j of the result holds the mean intensity at fringe
    position ``theta_grid[j]``; each point draws what ``emit_pulse_train`` draws.
    """
    theta_grid = np.asarray(theta_grid, dtype=float)
    if theta_grid.ndim != 1 or theta_grid.size < 2 or not np.isfinite(theta_grid).all():
        raise ValueError("theta_grid must be a 1-d array of at least 2 finite values")
    pulses_per_point = _count(pulses_per_point, "pulses_per_point", 2)
    if not 0.0 <= mean_photons < np.inf:
        raise ValueError("mean_photons must be finite and >= 0")
    means = np.empty(theta_grid.size)
    for j, theta in enumerate(theta_grid):
        diffs = _emission(pulses_per_point, mode, rng, _PERIOD_S)[1]
        means[j] = np.mean(amzi_intensity(reduce_phase(diffs), mean_photons, theta, "bar"))
    return InterferenceResult(_read_only(np.arange(theta_grid.size)),
                              _read_only(means), float(mean_photons))


def fringe_visibility(intensities) -> float:
    """Fringe contrast (I_max - I_min) / (I_max + I_min).

    An ``InterferenceResult`` or 1-d intensity array spanning at least one
    full fringe (demodulator phase swept over 2*pi, or differential phase
    covering its full range).
    """
    vals = np.asarray(getattr(intensities, "intensity_out", intensities), dtype=float)
    if vals.ndim != 1 or vals.size < 2 or not np.isfinite(vals).all():
        raise ValueError("need a 1-d array of at least 2 finite intensities")
    hi, lo = float(vals.max()), float(vals.min())
    if hi + lo == 0.0:
        raise ValueError("all intensities are zero; visibility is undefined")
    return (hi - lo) / (hi + lo)


def constellation_eye(levels, sigma_phi, n_symbols, rng) -> ConstellationReport:
    """Demodulate a random M-ary phase-keyed train; report IQ points and eye.

    Its pulses carry one photon on average, so the noiseless single-port eye
    levels are the distinct values of (1 + cos(2*pi*k/M)) / 2: for even M,
    exactly M/2 + 1 of them (for odd M the count is reported as found).
    """
    levels = _count(levels, "levels", 2)
    n_symbols = _count(n_symbols, "n_symbols", levels)
    idx = rng.integers(0, levels, n_symbols)
    seq = DifferentialPhaseSequence.mpsk(levels, idx)
    mode = InjectionMode.modulated(seq, phase_noise_sigma=sigma_phi)
    train = emit_pulse_train(n_symbols + 1, 1.0, mode, rng)
    points = dual_basis_demodulate(train)
    k = np.arange(levels)
    eye = amzi_intensity(k * TWO_PI / levels, 1.0, 0.0, "bar")
    eye = np.unique(np.round(eye, 12))
    return ConstellationReport(levels, points, np.sort(eye))
