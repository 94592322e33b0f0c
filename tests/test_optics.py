"""Tests for pulse-train emission and AMZI demodulation."""

import dataclasses
import gc
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from qkdtx.optics import (
    _FAST_MIN_SIZE,
    TWO_PI,
    AmziConfig,
    DifferentialPhaseSequence,
    InjectionMode,
    InterferenceRecord,
    InterferenceResult,
    PulseTrain,
    amzi_intensity,
    amzi_interfere,
    constellation_eye,
    dual_basis_demodulate,
    emit_pulse_train,
    fringe_scan,
    fringe_visibility,
    reduce_phase,
    sigma_phi_for_error_rate,
    sigma_phi_for_visibility,
)


def make_rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


# ---------------------------------------------------------------------------
# types and phase arithmetic
# ---------------------------------------------------------------------------

@given(st.floats(min_value=-100.0, max_value=100.0))
def test_reduce_phase_range(phi):
    out = reduce_phase(phi)
    assert 0.0 <= out < TWO_PI


def test_reduce_phase_exact_two_pi_maps_to_zero():
    assert reduce_phase(TWO_PI) == 0.0
    assert reduce_phase(2 * TWO_PI) == 0.0


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-0.0)
@example(-5e-324)
@example(-1e-17)
@example(float(np.nextafter(TWO_PI, 0.0)))
@example(TWO_PI)
@example(float(np.nextafter(TWO_PI, 7.0)))
def test_reduce_phase_is_idempotent_bitwise(phi):
    # a train reduces each phase array once, which equals reducing it again
    once = reduce_phase(phi)
    assert np.float64(reduce_phase(once)).tobytes() == np.float64(once).tobytes()
    arr = reduce_phase(np.array([phi, -phi]))
    assert reduce_phase(arr.copy()).tobytes() == arr.tobytes()
    assert arr[0] == once


def _mod_reference(phi):
    """reduce_phase as np.mod alone computes it."""
    out = np.mod(phi, TWO_PI)
    if np.ndim(out) == 0:
        return 0.0 if out == TWO_PI else float(out)
    out[out == TWO_PI] = 0.0
    return out


def _assert_reduces_like_np_mod(phi):
    before = np.array(phi, copy=True)
    got, want = reduce_phase(phi), _mod_reference(phi)
    assert type(got) is type(want)
    assert np.asarray(got).dtype == np.asarray(want).dtype
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert np.asarray(phi).tobytes() == before.tobytes()  # the input is left as is


#: Floats where a reduction mod 2*pi can go wrong, and their neighbours.
_EDGES = [np.nan, 0.0, -0.0, 5e-324, -5e-324, -1e-17, TWO_PI, -TWO_PI]
_EDGES += [float(np.nextafter(v, to)) for v in _EDGES[1:] for to in (-np.inf, np.inf)]


@st.composite
def _phase_inputs(draw):
    """Arrays inside (-2*pi, 2*pi), outside it or mixed, on both sides of the
    fast-path size, with edge values sprinkled in; as float64, float32 or int
    arrays, lists, 0-d arrays or Python scalars."""
    n = draw(st.integers(0, 2 * _FAST_MIN_SIZE)
             | st.sampled_from([_FAST_MIN_SIZE - 1, _FAST_MIN_SIZE, 2_000]))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    inside = rng.uniform(-TWO_PI, TWO_PI, n)
    outside = rng.choice([-1.0, 1.0], n) * rng.uniform(TWO_PI, 1e4, n)
    x = draw(st.sampled_from([inside, outside,
                              np.where(rng.random(n) < 0.5, inside, outside)]))
    for v in draw(st.lists(st.sampled_from(_EDGES), max_size=4 if n else 0)):
        x[rng.integers(n)] = v
    form = draw(st.sampled_from(["float64", "float32", "int", "list", "0-d", "scalar"]))
    if form == "float32":
        return x.astype(np.float32)
    if form == "int":
        return np.rint(np.nan_to_num(x)).astype(np.int64)
    if form == "list":
        return x.tolist()
    first = x[0] if n else draw(st.sampled_from(_EDGES))
    return np.array(first) if form == "0-d" else float(first)


@settings(max_examples=300, deadline=None)
@given(_phase_inputs())
def test_reduce_phase_equals_np_mod_bitwise(phi):
    _assert_reduces_like_np_mod(phi)


@pytest.mark.parametrize("v", _EDGES)
def test_reduce_phase_edge_values_equal_np_mod_bitwise(v):
    inside = make_rng(3).uniform(-TWO_PI, TWO_PI, 2 * _FAST_MIN_SIZE)
    inside[::7] = v  # out-of-range edges send the whole array to np.mod
    for phi in (v, np.array(v), np.full(3, v), np.full(_FAST_MIN_SIZE, v), inside):
        _assert_reduces_like_np_mod(phi)


def test_optics_hands_np_mod_no_array_of_fast_path_size(monkeypatch):
    """The phase arrays of the benchmark's optics work all lie in
    (-2*pi, 2*pi), so none of them reaches np.mod."""
    sizes = []
    real_mod = np.mod

    def counting_mod(x, *args, **kwargs):
        sizes.append(np.size(x))
        return real_mod(x, *args, **kwargs)

    monkeypatch.setattr(np, "mod", counting_mod)
    rng = make_rng(40)
    n = 4 * _FAST_MIN_SIZE
    seq = DifferentialPhaseSequence.mpsk(4, rng.integers(0, 4, n - 1))
    cw = InjectionMode.cw(master_angular_freq=1e9, phase_noise_sigma=0.1)
    trains = [emit_pulse_train(n, 1.0, mode, rng) for mode in
              (InjectionMode.off(), cw, InjectionMode.modulated(seq, 0.05))]
    for train in (trains[0], trains[2]):
        dual_basis_demodulate(train)
    for port in ("bar", "cross"):
        amzi_interfere(trains[1], AmziConfig(5e-10, 0.3, port))
    fringe_scan(cw, 1.0, np.linspace(0.0, TWO_PI, 4, endpoint=False), 2_000, rng)
    constellation_eye(8, 0.05, n, rng)
    assert max(sizes, default=0) < _FAST_MIN_SIZE


def test_pulse_train_phases_are_the_reduced_input_bitwise():
    x = np.concatenate((make_rng(4).normal(0.0, 50.0, 200),
                        [-0.0, -1e-17, TWO_PI, np.nextafter(TWO_PI, 7.0)]))
    want = reduce_phase(x.copy())
    tr = PulseTrain(x, 0.5, 5e-10)  # no diff_phases given
    x[:] = 1.0  # the train keeps its own copy until the first read
    assert tr.phases.tobytes() == want.tobytes()
    assert tr.phases is tr.phases  # reduced once, then kept
    assert tr.differential_phases().tobytes() == reduce_phase(np.diff(want)).tobytes()


def test_differential_phases_are_read_only():
    emitted = emit_pulse_train(50, 0.5, InjectionMode.off(), make_rng(5))
    built = PulseTrain(make_rng(5).uniform(-9.0, 9.0, 50), 0.5, 5e-10)
    for tr in (emitted, built):
        diffs = tr.differential_phases()
        before = diffs.copy()
        assert tr.differential_phases() is diffs  # computed once, no per-call mod
        with pytest.raises(ValueError, match="read-only"):
            diffs[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            tr.phases[0] = 1.0
        assert np.array_equal(tr.differential_phases(), before)


def test_demodulated_points_are_a_float64_record_array():
    phases = make_rng(3).uniform(0, TWO_PI, 9)
    pts = dual_basis_demodulate(PulseTrain(phases, 0.4, 5e-10))
    assert isinstance(pts, np.recarray)
    assert len(pts) == phases.size - 1
    assert pts.dtype.names == ("radius", "angle")
    assert pts.radius.dtype == pts.angle.dtype == np.float64
    assert np.all(pts.radius == 0.4)
    assert np.all((0.0 <= pts.angle) & (pts.angle < TWO_PI))
    # a dark train gives the same records, all zero
    dark = dual_basis_demodulate(PulseTrain(phases, 0.0, 5e-10))
    assert isinstance(dark, np.recarray) and dark.dtype == pts.dtype
    assert dark.radius.tolist() == dark.angle.tolist() == [0.0] * 8


def test_pulse_train_invariants():
    tr = PulseTrain([0.0, 1.0, 7.0], 0.5, 5e-10)
    assert tr.n_pulses == 3
    assert tr.phases[2] == pytest.approx(7.0 - TWO_PI)
    with pytest.raises(ValueError):
        PulseTrain([0.0], -0.5, 5e-10)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="mean_photons"):
            PulseTrain([0.0], bad, 5e-10)
        with pytest.raises(ValueError, match="period_s"):
            PulseTrain([0.0], 0.5, bad)
    with pytest.raises(ValueError):
        PulseTrain([], 0.5, 5e-10)
    with pytest.raises(ValueError):
        PulseTrain([0.0, 1.0], 0.5, 5e-10, diff_phases=[0.1, 0.2])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="array of finite values"):
            PulseTrain([0.0, bad], 0.5, 5e-10)
        with pytest.raises(ValueError, match="n_pulses - 1 finite values"):
            PulseTrain([0.0, 1.0], 0.5, 5e-10, diff_phases=[bad])


def test_sequence_grid_validation():
    DifferentialPhaseSequence([0.0, np.pi], 2)
    for off_grid in (0.3, np.nan):
        with pytest.raises(ValueError, match="grid"):
            DifferentialPhaseSequence([off_grid], 2)
    with pytest.raises(ValueError):
        DifferentialPhaseSequence([0.0], 1)
    seq = DifferentialPhaseSequence.mpsk(4, [0, 1, 2, 3])
    assert seq.diff_phases[1] == pytest.approx(np.pi / 2)


def test_levels_must_be_integers():
    rng = make_rng(8)
    with pytest.raises(ValueError, match="levels must be an integer"):
        constellation_eye(8.5, 0.0, 200, rng)
    with pytest.raises(ValueError, match="modulation_levels must be an integer"):
        DifferentialPhaseSequence(np.arange(3) * TWO_PI / 4.5, 4.5)
    with pytest.raises(ValueError, match="levels must be an integer"):
        DifferentialPhaseSequence.mpsk(4.0, [0, 1])
    rep = constellation_eye(np.int64(4), 0.0, 16, rng)  # numpy integers are integers
    assert type(rep.modulation_levels) is int and rep.modulation_levels == 4
    assert rep.eye_levels.size == 3


def test_mpsk_rejects_fractional_symbols():
    for bad in ([0.7, 3.9], [1.0, np.nan], [np.inf]):
        with pytest.raises(ValueError, match="symbol indices must be integers"):
            DifferentialPhaseSequence.mpsk(4, bad)
    seq = DifferentialPhaseSequence.mpsk(4, np.array([0, 3], dtype=np.int32))
    assert seq.diff_phases.tolist() == [0.0, 3 * (TWO_PI / 4)]


def test_pulse_counts_must_be_integers():
    rng = make_rng(9)
    with pytest.raises(ValueError, match="n_pulses must be an integer, got 2.5"):
        emit_pulse_train(2.5, 1.0, InjectionMode.off(), rng)
    with pytest.raises(ValueError, match="pulses_per_point must be an integer, got 2.5"):
        fringe_scan(InjectionMode.off(), 1.0, [0.0, 1.0], 2.5, rng)
    assert emit_pulse_train(np.int64(3), 1.0, InjectionMode.off(), rng).n_pulses == 3
    # a bool is no count, though Python counts it an int
    with pytest.raises(ValueError, match="n_pulses must be an integer, got True"):
        emit_pulse_train(True, 1.0, InjectionMode.off(), rng)
    with pytest.raises(ValueError, match="pulses_per_point must be an integer"):
        fringe_scan(InjectionMode.off(), 1.0, [0.0, 1.0], True, rng)
    with pytest.raises(ValueError, match="levels must be an integer, got True"):
        DifferentialPhaseSequence.mpsk(True, [0])
    assert fringe_scan(InjectionMode.off(), 1.0, [0.0, 1.0], np.int32(2), rng).intensity_out.size == 2


def test_injection_mode_validation():
    with pytest.raises(ValueError):
        InjectionMode("off", phase_sequence=DifferentialPhaseSequence([0.0], 2))
    with pytest.raises(ValueError):
        InjectionMode("modulated")
    for bad in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="phase_noise_sigma"):
            InjectionMode("cw", phase_noise_sigma=bad)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="master_angular_freq"):
            InjectionMode.cw(master_angular_freq=bad)
    with pytest.raises(ValueError):
        InjectionMode("squeezed")


def test_injection_mode_holds_only_the_fields_its_variant_reads():
    seq = DifferentialPhaseSequence([0.0], 2)
    unread = {
        "off": {"master_angular_freq": 3.0, "phase_sequence": seq,
                "phase_noise_sigma": 0.5, "pair_randomization": True},
        "cw": {"phase_sequence": seq, "pair_randomization": True},
        "modulated": {"master_angular_freq": 3.0},
    }
    for variant, fields in unread.items():
        base = {"phase_sequence": seq} if variant == "modulated" else {}
        for name, value in fields.items():
            with pytest.raises(ValueError, match=f"{variant} injection reads no {name}"):
                InjectionMode(variant, **base, **{name: value})
    # each read field may leave its default, and no field changes afterwards
    InjectionMode("cw", master_angular_freq=3.0, phase_noise_sigma=0.5)
    InjectionMode("modulated", phase_sequence=seq, phase_noise_sigma=0.5,
                  pair_randomization=True)
    with pytest.raises(dataclasses.FrozenInstanceError):
        InjectionMode.cw().pair_randomization = True


def test_sigma_calibration_helpers():
    s = sigma_phi_for_visibility(0.983)
    assert s == pytest.approx(0.1851818502714049, abs=1e-12)
    assert np.exp(-s**2 / 2) == pytest.approx(0.983, abs=1e-12)
    assert sigma_phi_for_error_rate(0.0) == 0.0
    with pytest.raises(ValueError):
        sigma_phi_for_visibility(0.0)
    with pytest.raises(ValueError):
        sigma_phi_for_error_rate(0.6)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def test_cw_zero_drift_phases_equal():
    # on-resonance CW seeding with no noise freezes the phase
    tr = emit_pulse_train(3, 0.2, InjectionMode.cw(), make_rng(5))
    assert np.allclose(np.diff(tr.phases), 0.0, atol=1e-12)
    assert np.allclose(tr.differential_phases(), 0.0, atol=1e-12)


def test_modulated_pi_step():
    seq = DifferentialPhaseSequence([np.pi], 2)
    tr = emit_pulse_train(2, 0.2, InjectionMode.modulated(seq), make_rng(6))
    assert reduce_phase(tr.phases[1] - tr.phases[0]) == pytest.approx(np.pi)


def test_cw_drift_step():
    # omega_M * T = pi/2 per period
    period = 5e-10
    mode = InjectionMode.cw(master_angular_freq=(np.pi / 2) / period)
    tr = emit_pulse_train(4, 0.2, mode, make_rng(6), period_s=period)
    assert np.allclose(tr.differential_phases(), np.pi / 2, atol=1e-9)


def test_off_mode_differences_uniform():
    # oracle: differences of i.i.d. uniform phases are uniform mod 2*pi
    n = 1_000_000
    tr = emit_pulse_train(n, 0.2, InjectionMode.off(), make_rng(7))
    diffs = tr.differential_phases()
    stat = kstest(diffs / TWO_PI, "uniform").statistic
    assert stat < 2.0 / np.sqrt(n - 1)


def test_emit_rejects_non_finite_mean_photons():
    for bad in (-0.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="mean_photons"):
            emit_pulse_train(4, bad, InjectionMode.off(), make_rng(0))
        with pytest.raises(ValueError, match="mean_photons"):
            fringe_scan(InjectionMode.off(), bad, [0.0, 1.0], 4, make_rng(0))


def test_modulated_sequence_too_short():
    seq = DifferentialPhaseSequence([0.0, np.pi], 2)
    with pytest.raises(ValueError, match="sequence"):
        emit_pulse_train(5, 0.2, InjectionMode.modulated(seq), make_rng(0))


def test_pair_randomization_keeps_intra_pair_phase():
    # pairs (0,1), (2,3), ...: boundary symbols sit between pairs
    n_pairs = 2000
    diff = np.zeros(2 * n_pairs - 1)
    boundary = np.zeros(2 * n_pairs - 1, dtype=bool)
    diff[0::2] = np.pi          # within-pair steps
    boundary[1::2] = True       # between-pair steps
    seq = DifferentialPhaseSequence(diff, 2, pair_boundary=boundary)
    tr = emit_pulse_train(2 * n_pairs, 0.2,
                          InjectionMode.modulated(seq, pair_randomization=True),
                          make_rng(8))
    d = tr.differential_phases()
    intra = d[0::2]
    inter = d[1::2]
    assert np.allclose(intra, np.pi, atol=1e-9)
    # between-pair phases are re-randomized: uniform, not clustered at 0
    stat = kstest(inter / TWO_PI, "uniform").statistic
    assert stat < 2.0 / np.sqrt(inter.size)


def test_one_pulse_trains_are_pinned():
    # one pulse has no step: every regime draws only its start phase, so the
    # phase and the generator state after it match across regimes
    seq = DifferentialPhaseSequence([np.pi, 0.0], 2, pair_boundary=[True, True])
    modes = (InjectionMode.off(),
             InjectionMode.cw(master_angular_freq=3.0e9, phase_noise_sigma=0.5),
             InjectionMode.modulated(seq, phase_noise_sigma=0.5,
                                     pair_randomization=True))
    for mode in modes:
        rng = make_rng(11)
        tr = emit_pulse_train(1, 0.4, mode, rng, global_phase_offset=1.25)
        assert tr.phases.tolist() == [2.0578304089805353]
        assert tr.differential_phases().shape == (0,)
        assert (rng.bit_generator.state["state"]["state"]
                == 211884317528684817169046156472096961009)


def test_emission_noise_consumption_reproducible():
    seq = DifferentialPhaseSequence.mpsk(2, [0, 1, 0, 1])
    mode = InjectionMode.modulated(seq, phase_noise_sigma=0.1)
    t1 = emit_pulse_train(5, 0.2, mode, make_rng(9))
    t2 = emit_pulse_train(5, 0.2, mode, make_rng(9))
    assert np.array_equal(t1.phases, t2.phases)


def _circular_gap(a, b):
    """Largest distance between two phase arrays on the circle."""
    d = reduce_phase(np.asarray(a) - np.asarray(b))
    return float(np.max(np.minimum(d, TWO_PI - d), initial=0.0))


def test_noise_free_emission_returns_the_programmed_steps_bitwise():
    n = 1_000_000
    seq = DifferentialPhaseSequence.mpsk(4, make_rng(30).integers(0, 4, n - 1))
    tr = emit_pulse_train(n, 0.5, InjectionMode.modulated(seq), make_rng(31),
                          global_phase_offset=2.1)
    assert tr.differential_phases().tobytes() == reduce_phase(seq.diff_phases).tobytes()
    assert _circular_gap(tr.differential_phases(), np.diff(tr.phases)) < 1e-9


@pytest.mark.parametrize("variant", ["cw", "modulated"])
def test_noisy_emission_returns_step_plus_noise_bitwise(variant):
    n, sigma, period = 3000, 0.3, 5e-10
    seq = DifferentialPhaseSequence.mpsk(8, make_rng(32).integers(0, 8, n - 1))
    if variant == "cw":
        mode = InjectionMode.cw(master_angular_freq=4.4 / period, phase_noise_sigma=sigma)
        step = reduce_phase(4.4)
    else:
        mode = InjectionMode.modulated(seq, phase_noise_sigma=sigma)
        step = seq.diff_phases
    rng = make_rng(33)
    tr = emit_pulse_train(n, 0.5, mode, rng, period_s=period)
    replica = make_rng(33)
    replica.uniform(0.0, TWO_PI)  # the start phase, then the noise
    noise = replica.normal(0.0, sigma, n - 1)
    assert tr.differential_phases().tobytes() == reduce_phase(step + noise).tobytes()
    assert rng.random() == replica.random()
    assert _circular_gap(tr.differential_phases(), np.diff(tr.phases)) < 1e-9


def test_pair_randomised_emission_differs_from_the_steps_only_at_boundaries():
    n, sigma = 3001, 0.1
    boundary = make_rng(34).random(n - 1) < 0.3
    seq = DifferentialPhaseSequence(make_rng(35).integers(0, 4, n - 1) * (TWO_PI / 4), 4,
                                    pair_boundary=boundary)
    mode = InjectionMode.modulated(seq, phase_noise_sigma=sigma, pair_randomization=True)
    rng = make_rng(36)
    tr = emit_pulse_train(n, 0.5, mode, rng)
    replica = make_rng(36)
    start = replica.uniform(0.0, TWO_PI)
    steps = seq.diff_phases + replica.normal(0.0, sigma, n - 1)
    redraws = iter(replica.uniform(0.0, TWO_PI, np.count_nonzero(boundary)))
    assert rng.random() == replica.random()
    unwrapped = [start]  # pulse by pulse: a boundary restarts at a fresh phase
    for k in range(n - 1):
        unwrapped.append(next(redraws) if boundary[k] else unwrapped[-1] + steps[k])
    d = tr.differential_phases()
    assert d[~boundary].tobytes() == reduce_phase(steps)[~boundary].tobytes()
    assert _circular_gap(d[boundary], np.diff(unwrapped)[boundary]) < 1e-9
    assert _circular_gap(d, np.diff(tr.phases)) < 1e-9


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["off", "cw", "modulated", "pairs"]),
       st.sampled_from([0.0, 0.4]), st.integers(2, 40), st.integers(2, 500),
       st.integers(0, 2**32 - 1))
def test_fringe_scan_draws_as_emit_pulse_train(variant, sigma, points, pulses, seed):
    seq = DifferentialPhaseSequence(make_rng(37).integers(0, 4, 499) * (TWO_PI / 4), 4,
                                    pair_boundary=np.arange(499) % 2 == 1)
    mode = {"off": InjectionMode.off(),
            "cw": InjectionMode.cw(master_angular_freq=1.3e9, phase_noise_sigma=sigma),
            "modulated": InjectionMode.modulated(seq, phase_noise_sigma=sigma),
            "pairs": InjectionMode.modulated(seq, phase_noise_sigma=sigma,
                                             pair_randomization=True)}[variant]
    grid = np.linspace(0.0, TWO_PI, points, endpoint=False)
    rng, reference = make_rng(seed), make_rng(seed)
    got = fringe_scan(mode, 0.7, grid, pulses, rng).intensity_out
    want = [np.mean(amzi_intensity(
                emit_pulse_train(pulses, 0.7, mode, reference).differential_phases(),
                0.7, theta, "bar")) for theta in grid]
    assert got.tobytes() == np.array(want).tobytes()
    assert rng.random() == reference.random()


# ---------------------------------------------------------------------------
# AMZI interference
# ---------------------------------------------------------------------------

def amplitude_oracle(phases, i_in, theta, port):
    """Independent route: complex field amplitudes through both couplers."""
    a = np.sqrt(i_in) * np.exp(1j * np.asarray(phases))
    delayed, direct = a[:-1], a[1:] * np.exp(1j * theta)
    if port == "bar":
        return np.abs(direct + delayed) ** 2 / 4.0
    return np.abs(direct - delayed) ** 2 / 4.0


def test_eq1_reference_points():
    cfg = AmziConfig(delay_s=5e-10)
    i_in = 0.8
    for dphi, expected in ((0.0, i_in), (np.pi, 0.0), (np.pi / 2, i_in / 2)):
        tr = PulseTrain([0.0, dphi], i_in, 5e-10)
        rec = amzi_interfere(tr, cfg)[0]
        assert rec.intensity_out == pytest.approx(expected, abs=1e-12)
        assert rec.input_intensity == i_in


def test_amzi_errors():
    tr = PulseTrain([0.0, 1.0], 0.5, 5e-10)
    with pytest.raises(ValueError, match="delay"):
        amzi_interfere(tr, AmziConfig(delay_s=6e-10))
    single = PulseTrain([0.0], 0.5, 5e-10)
    with pytest.raises(ValueError, match="2 pulses"):
        amzi_interfere(single, AmziConfig(delay_s=5e-10))
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="delay_s"):
            AmziConfig(delay_s=bad)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="phase_offset"):
            AmziConfig(5e-10, bad)
    with pytest.raises(ValueError):
        AmziConfig(delay_s=5e-10, output_port="diagonal")


def test_amzi_intensity_rejects_unknown_ports():
    assert amzi_intensity(0.0, 1.0, port="bar") == 1.0
    assert amzi_intensity(0.0, 1.0, port="cross") == 0.0
    for port in ("Bar", "diagonal", ""):
        with pytest.raises(ValueError, match=f"got {port!r}"):
            amzi_intensity([0.0, 1.0], 1.0, port=port)


def test_amzi_intensity_broadcasts_the_offset():
    theta = np.linspace(0.0, TWO_PI, 8)  # a fringe: one phase, swept offset
    assert np.array_equal(amzi_intensity(0.0, 1.0, theta), 0.5 * (np.cos(theta) + 1.0))


def test_bulk_records_equal_the_array_law_exactly():
    rng = make_rng(22)
    n = 1000
    tr = emit_pulse_train(n, 0.7, InjectionMode.off(), rng)
    diffs = tr.differential_phases()
    for port in ("bar", "cross"):
        res = amzi_interfere(tr, AmziConfig(5e-10, 0.4, port))
        assert np.array_equal(res.intensity_out, amzi_intensity(diffs, 0.7, 0.4, port))
        assert np.array_equal(res.slot_index, np.arange(1, n))
        assert res.input_intensity == 0.7
    pts = dual_basis_demodulate(tr)
    i_i = amzi_intensity(diffs, 0.7, 0.0, "bar")
    i_q = amzi_intensity(diffs, 0.7, -np.pi / 2.0, "bar")
    want = reduce_phase(np.arctan2(2.0 * i_q / 0.7 - 1.0, 2.0 * i_i / 0.7 - 1.0))
    assert np.array_equal(pts.angle, want)
    assert np.all(pts.radius == 0.7)


def test_port_complementarity():
    rng = make_rng(11)
    tr = PulseTrain(rng.uniform(0, TWO_PI, 500), 0.7, 5e-10)
    theta = 0.3
    bar = amzi_interfere(tr, AmziConfig(5e-10, theta, "bar")).intensity_out
    cross = amzi_interfere(tr, AmziConfig(5e-10, theta, "cross")).intensity_out
    assert bar + cross == pytest.approx(0.7, rel=1e-12)
    assert np.all((bar >= 0.0) & (bar <= 0.7))


def test_amplitude_oracle_equivalence():
    # two independent routes: cosine formula vs complex amplitudes
    rng = make_rng(12)
    for _ in range(50):
        n = int(rng.integers(2, 101))
        phases = rng.uniform(0, TWO_PI, n)
        i_in = float(rng.uniform(0.1, 2.0))
        theta = float(rng.uniform(0, TWO_PI))
        tr = PulseTrain(phases, i_in, 5e-10)
        for port in ("bar", "cross"):
            got = amzi_interfere(tr, AmziConfig(5e-10, theta, port)).intensity_out
            want = amplitude_oracle(tr.phases, i_in, theta, port)
            assert np.allclose(got, want, atol=1e-10)


def test_global_phase_invariance_bitwise():
    seq = DifferentialPhaseSequence.mpsk(8, make_rng(1).integers(0, 8, 499))
    mode = InjectionMode.modulated(seq, phase_noise_sigma=0.05)
    base = emit_pulse_train(500, 0.6, mode, make_rng(13))
    shifted = emit_pulse_train(500, 0.6, mode, make_rng(13),
                               global_phase_offset=1.2345)
    assert not np.allclose(base.phases, shifted.phases)
    cfg = AmziConfig(5e-10, 0.37, "bar")
    out_a = amzi_interfere(base, cfg).intensity_out
    out_b = amzi_interfere(shifted, cfg).intensity_out
    assert np.array_equal(out_a, out_b)


def test_row_view_equals_the_list_of_records():
    n = 1000
    tr = emit_pulse_train(n, 0.7, InjectionMode.off(), make_rng(23))
    for port in ("bar", "cross"):
        res = amzi_interfere(tr, AmziConfig(5e-10, 0.4, port))
        out = amzi_intensity(tr.differential_phases(), 0.7, 0.4, port).tolist()
        want = [InterferenceRecord(k + 1, v, 0.7) for k, v in enumerate(out)]
        rows = list(res)
        assert rows == want
        assert all(type(r) is InterferenceRecord and type(r.slot_index) is int
                   and type(r.intensity_out) is float for r in rows)
        assert len(res) == n - 1 and bool(res)
        for k in (0, 1, n - 2, -1, -(n - 1)):
            assert res[k] == want[k]
            assert type(res[k].slot_index) is int and type(res[k].intensity_out) is float
        for k in (n - 1, -n):
            with pytest.raises(IndexError):
                res[k]
    fringe = fringe_scan(InjectionMode.cw(), 0.5, [0.0, 1.0, 2.0], 10, make_rng(24))
    assert list(fringe) == [InterferenceRecord(j, m, 0.5)
                            for j, m in enumerate(fringe.intensity_out.tolist())]


def test_result_columns_are_read_only():
    tr = emit_pulse_train(50, 0.7, InjectionMode.off(), make_rng(25))
    fringe = fringe_scan(InjectionMode.cw(), 0.5, [0.0, 1.0, 2.0], 10, make_rng(26))
    for res in (amzi_interfere(tr, AmziConfig(5e-10)), fringe):
        assert isinstance(res, InterferenceResult)
        for column in (res.slot_index, res.intensity_out):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1
        assert res.slot_index.dtype == np.int64 and res.intensity_out.dtype == np.float64


def test_interfere_tracks_no_object_per_pulse():
    tr = emit_pulse_train(100_000, 1.0, InjectionMode.cw(phase_noise_sigma=0.1),
                          make_rng(27))
    cfg = AmziConfig(5e-10)
    tr.differential_phases()
    gc.collect()
    before = len(gc.get_objects())
    res = amzi_interfere(tr, cfg)
    assert len(gc.get_objects()) - before < 10
    assert len(res) == 99_999


# ---------------------------------------------------------------------------
# dual-basis demodulation
# ---------------------------------------------------------------------------

def test_dual_basis_identity():
    tr = PulseTrain([0.3, 0.3], 0.9, 5e-10)
    pt = dual_basis_demodulate(tr)[0]
    assert pt.angle == pytest.approx(0.0, abs=1e-12)
    assert pt.radius == pytest.approx(0.9)


def test_dual_basis_8dpsk_symbol():
    # invert the two quadrature intensities analytically
    tr = PulseTrain([0.0, 3 * np.pi / 4], 1.0, 5e-10)
    pt = dual_basis_demodulate(tr)[0]
    assert pt.angle == pytest.approx(3 * np.pi / 4, abs=1e-9)


def test_dual_basis_recovers_all_programmed_phases():
    rng = make_rng(14)
    idx = rng.integers(0, 8, 300)
    seq = DifferentialPhaseSequence.mpsk(8, idx)
    tr = emit_pulse_train(301, 1.0, InjectionMode.modulated(seq), rng)
    points = dual_basis_demodulate(tr)
    want = idx * TWO_PI / 8
    got = points.angle
    err = np.abs(reduce_phase(got - want + np.pi) - np.pi)
    assert np.max(err) < 1e-9


def test_dual_basis_noisy_recovery_within_3_sigma():
    sigma = 0.1
    rng = make_rng(15)
    n = 2000
    idx = rng.integers(0, 4, n)
    seq = DifferentialPhaseSequence.mpsk(4, idx)
    tr = emit_pulse_train(n + 1, 1.0,
                          InjectionMode.modulated(seq, phase_noise_sigma=sigma), rng)
    got = dual_basis_demodulate(tr).angle
    err = np.abs(reduce_phase(got - idx * TWO_PI / 4 + np.pi) - np.pi)
    # each symbol within 3 sigma with 99.7% probability
    assert np.mean(err < 3 * sigma) > 0.99


def test_phase_randomized_ring():
    tr = emit_pulse_train(100_000, 0.5, InjectionMode.off(), make_rng(16))
    pts = dual_basis_demodulate(tr)
    radii, angles = pts.radius, pts.angle
    assert np.all(radii == 0.5)  # constant-radius ring
    stat = kstest(angles / TWO_PI, "uniform").statistic
    assert stat < 2.0 / np.sqrt(angles.size)


# ---------------------------------------------------------------------------
# visibility
# ---------------------------------------------------------------------------

def test_noiseless_visibility_is_one():
    grid = np.linspace(0, TWO_PI, 128, endpoint=False)
    recs = fringe_scan(InjectionMode.cw(), 1.0, grid, 100, make_rng(17))
    assert fringe_visibility(recs) == pytest.approx(1.0, abs=1e-12)


def test_visibility_law_across_sigmas():
    # Monte-Carlo fringe contrast vs V = exp(-sigma^2/2), 3 standard errors
    grid = np.linspace(0, TWO_PI, 128, endpoint=False)
    n_per = 2500
    for sigma in (0.0, 0.1, 0.1851818502714049, 0.5):
        mode = InjectionMode.cw(phase_noise_sigma=sigma)
        recs = fringe_scan(mode, 1.0, grid, n_per, make_rng(18))
        v = fringe_visibility(recs)
        want = np.exp(-sigma**2 / 2)
        # extremum sampling noise: std of cos(delta) over the train mean
        var_cos = (1 + np.exp(-2 * sigma**2)) / 2 - np.exp(-sigma**2)
        se = 3 * np.sqrt(2 * var_cos / n_per) + 1e-4
        assert abs(v - want) < max(se, 1e-12)


def test_visibility_errors():
    with pytest.raises(ValueError, match="at least 2"):
        fringe_visibility(np.array([0.5]))
    with pytest.raises(ValueError, match="zero"):
        fringe_visibility(np.zeros(2))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            fringe_visibility(np.array([0.2, bad, 0.8]))
    with pytest.raises(ValueError, match="1-d"):
        fringe_visibility(np.full((2, 2), 0.5))
    assert fringe_visibility(np.array([0.2, 0.8])) == pytest.approx(0.6)


def test_fringe_scan_rejects_non_finite_grid():
    rng = make_rng(19)
    state = rng.bit_generator.state
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="theta_grid"):
            fringe_scan(InjectionMode.cw(), 1.0, [0.0, bad, 1.0], 100, rng)
    assert rng.bit_generator.state == state


def test_fringe_scan_rejects_a_grid_that_is_not_1d():
    rng = make_rng(20)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="theta_grid"):
        fringe_scan(InjectionMode.cw(), 1.0, np.zeros((2, 3)), 100, rng)
    assert rng.bit_generator.state == state


# ---------------------------------------------------------------------------
# constellation and eye
# ---------------------------------------------------------------------------

def test_eye_level_counts():
    rng = make_rng(19)
    r8 = constellation_eye(8, 0.0, 64, rng)
    assert r8.eye_levels.size == 5
    r2 = constellation_eye(2, 0.0, 16, rng)
    assert r2.eye_levels.size == 2
    assert np.allclose(r2.eye_levels, [0.0, 1.0])
    r4 = constellation_eye(4, 0.0, 16, rng)
    assert r4.eye_levels.size == 3
    assert np.allclose(r4.eye_levels, [0.0, 0.5, 1.0])


def test_eye_levels_odd_m_reported():
    r3 = constellation_eye(3, 0.0, 9, make_rng(20))
    assert r3.eye_levels.size == 2  # cos(0) and the degenerate pair cos(+-2pi/3)


def test_constellation_validation():
    with pytest.raises(ValueError):
        constellation_eye(1, 0.0, 8, make_rng(0))
    with pytest.raises(ValueError):
        constellation_eye(8, 0.0, 4, make_rng(0))


def test_constellation_clusters_on_grid():
    rng = make_rng(21)
    rep = constellation_eye(8, 0.0, 4096, rng)
    angles = rep.points.angle
    k = np.rint(angles / (TWO_PI / 8)).astype(int) % 8
    err = np.abs(reduce_phase(angles - k * TWO_PI / 8 + np.pi) - np.pi)
    assert np.max(err) < 1e-9
    assert set(k) == set(range(8))
    assert rep.radius == 1.0 and np.all(rep.points.radius == rep.radius)


# ---------------------------------------------------------------------------
# pinned outputs: every array the optics layer returns, bit for bit
# ---------------------------------------------------------------------------

def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def _pinned_trains():
    """One train per seeding regime, each with a global phase offset; the
    cw drift and the modulated pair redraws exercise every phase path."""
    n = 4001
    rng = make_rng(2024)
    diffs = rng.integers(0, 4, n - 1) * (TWO_PI / 4)
    boundary = np.zeros(n - 1, dtype=bool)
    boundary[1::2] = True
    seq = DifferentialPhaseSequence(diffs, 4, pair_boundary=boundary)
    period = 5e-10
    modes = {
        "off": InjectionMode.off(),
        "cw": InjectionMode.cw(master_angular_freq=7.3 / period, phase_noise_sigma=0.2),
        "modulated": InjectionMode.modulated(seq, phase_noise_sigma=0.05,
                                             pair_randomization=True),
    }
    return {name: emit_pulse_train(n, 0.8, mode, rng, period_s=period,
                                   global_phase_offset=5.9)
            for name, mode in modes.items()}


#: sha256 of the float64 bytes of each output of _pinned_digests; a change to
#: any single bit fails these tests.
PINS = {
    "phases-off": "25449789f1b0d56fb67f6c9fed9082f20272c64e44e06b8e5a06b7ecf829da93",
    "phases-cw": "157b9b03666d16034978bdeee7cb2862befd95561d182e1c2eae434d3426b694",
    "phases-modulated": "f6d7613dc304ffd889346e334d546f2a2587e2249d742bd9035c1a96fe4f8c62",
    "demodulate-off": "547259094ba70a0224d9b5311dfe798e2844207337049da429bbee2b7a46e960",
    "demodulate-modulated": "bde06b1acc4f43b31d41f05106fdd7d6838dc9790e919a7b91c8613b862c1d8f",
    "interfere-bar": "1d0596ba4594f9e532e3467574d55f0843aa34af5944f788a49fa0c692b95094",
    "interfere-cross": "96d98ea89c9f655159888513a1382050d4232c593e96d378c21197bd270aeb22",
    "fringe-scan": "2e51f2f570c114e8ed8ddb2e7495e2e878062e66074191faaccaadfa815dddf8",
}


def _pinned_digests():
    trains = _pinned_trains()
    out = {f"phases-{name}": _digest(tr.phases, tr.differential_phases())
           for name, tr in trains.items()}
    for name in ("off", "modulated"):
        pts = dual_basis_demodulate(trains[name])
        out[f"demodulate-{name}"] = _digest(pts.radius, pts.angle)
    for port in ("bar", "cross"):
        res = amzi_interfere(trains["cw"], AmziConfig(5e-10, 0.4, port))
        out[f"interfere-{port}"] = _digest(res.intensity_out)
    mode = InjectionMode.cw(master_angular_freq=3.1e9, phase_noise_sigma=0.3)
    fringe = fringe_scan(mode, 0.5, np.linspace(0.0, TWO_PI, 24, endpoint=False),
                         300, make_rng(77))
    out["fringe-scan"] = _digest(fringe.intensity_out)
    return out


@pytest.fixture(scope="module")
def pinned_digests():
    return _pinned_digests()


@pytest.mark.parametrize("key", sorted(PINS))
def test_optics_outputs_are_pinned(key, pinned_digests):
    assert pinned_digests[key] == PINS[key]
