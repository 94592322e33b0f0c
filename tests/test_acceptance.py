"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -rA -s`` to see the verdict lines.
Criterion 7's DPS secure-rate band is known to be unreachable in this model
family (see the xfail note on the test); everything else must pass at the
stated tolerances.
"""

import itertools
import json
import time
from importlib import resources

import numpy as np
import pytest

from qkdtx import cli
from qkdtx.harness import (
    ReferencePoint,
    compare_to_reference,
    config_from_dict,
    run_sweep,
)
from qkdtx.linkmodel import ChannelModel, detector_preset
from qkdtx.optics import (
    TWO_PI,
    AmziConfig,
    InjectionMode,
    PulseTrain,
    amzi_interfere,
    constellation_eye,
    fringe_scan,
    fringe_visibility,
    reduce_phase,
    sigma_phi_for_visibility,
)
from qkdtx.protocols import (
    BB84_DECOY,
    DPS,
    ProtocolConfig,
    analytic_expectations,
    run_session,
    single_photon_yield,
)
from qkdtx.randomness import (
    byte_autocorrelation,
    byte_histogram,
    goodness_of_fit,
    quantize,
    sample_interference,
)


def make_rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def verdict(criterion, ok, detail):
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def load_bundled_config(name):
    with resources.files("qkdtx.data").joinpath(name).open() as f:
        return config_from_dict(json.load(f))


def load_bundled_references():
    with resources.files("qkdtx.data").joinpath("reference_points.json").open() as f:
        return [ReferencePoint(**e) for e in json.load(f)["references"]]


# ---------------------------------------------------------------------------
# 1. interferometer exactness against the complex-amplitude oracle
# ---------------------------------------------------------------------------

def test_criterion_1_amzi_amplitude_oracle():
    rng = make_rng(101)
    trains = []
    for _ in range(10_000):
        n = int(rng.integers(2, 31))
        trains.append((rng.uniform(0, TWO_PI, n),
                       float(rng.uniform(0.1, 2.0)),
                       float(rng.uniform(0, TWO_PI))))
    t0 = time.perf_counter()
    worst = 0.0
    for phases, i_in, theta in trains:
        tr = PulseTrain(phases, i_in, 5e-10)
        out = amzi_interfere(tr, AmziConfig(5e-10, theta)).intensity_out
        a = np.sqrt(i_in) * np.exp(1j * tr.phases)
        oracle = np.abs(a[1:] * np.exp(1j * theta) + a[:-1]) ** 2 / 4.0
        worst = max(worst, float(np.max(np.abs(out - oracle))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 1.0
    assert verdict(1, ok, f"10^4 random trains, max |dI| = {worst:.2e}, "
                          f"{elapsed:.2f} s")


# ---------------------------------------------------------------------------
# 2. arcsine statistics of the QRNG samples
# ---------------------------------------------------------------------------

def test_criterion_2_arcsine_statistics():
    t0 = time.perf_counter()
    n = 1_025_000
    raw = quantize(sample_interference(n, make_rng(102)))
    chi2, p = goodness_of_fit(byte_histogram(raw))
    autocorr = byte_autocorrelation(raw, 50)
    worst_ac = float(np.max(np.abs(autocorr)))
    elapsed = time.perf_counter() - t0
    ok = p > 0.01 and worst_ac < 5e-3 and elapsed < 5.0
    assert verdict(2, ok, f"chi-square p = {p:.3f}, max |autocorr| lags 1-50 = "
                          f"{worst_ac:.2e}, {elapsed:.2f} s")


# ---------------------------------------------------------------------------
# 3. visibility calibration and no-injection suppression
# ---------------------------------------------------------------------------

def test_criterion_3_visibility_calibration():
    sigma = sigma_phi_for_visibility(0.983)
    grid = np.linspace(0, TWO_PI, 256, endpoint=False)
    recs = fringe_scan(InjectionMode.cw(phase_noise_sigma=sigma), 1.0, grid,
                       3907, make_rng(103))  # 256 * 3907 ~ 1e6 pulses
    v_cw = fringe_visibility(recs)

    grid_off = np.linspace(0, TWO_PI, 16, endpoint=False)
    recs_off = fringe_scan(InjectionMode.off(), 1.0, grid_off, 62_500,
                           make_rng(104))  # 1e6 pulses
    v_off = fringe_visibility(recs_off)
    ok = abs(v_cw - 0.983) < 0.002 and v_off < 0.01
    assert verdict(3, ok, f"V(sigma={sigma:.4f}) = {v_cw:.4f} (target 0.983"
                          f" +- 0.002), no-injection V = {v_off:.4f} (< 0.01)")


# ---------------------------------------------------------------------------
# 4. RZ-8DPSK constellation and eye
# ---------------------------------------------------------------------------

def test_criterion_4_8dpsk_constellation():
    rep = constellation_eye(8, 0.0, 8192, make_rng(105))
    angles = np.array([p.angle for p in rep.points])
    k = np.rint(angles / (TWO_PI / 8)).astype(int) % 8
    worst_mean = 0.0
    for cluster in range(8):
        dev = reduce_phase(angles[k == cluster] - cluster * TWO_PI / 8 + np.pi) - np.pi
        worst_mean = max(worst_mean, abs(float(dev.mean())))
    ok = set(k) == set(range(8)) and worst_mean < 1e-9 and rep.eye_levels.size == 5
    assert verdict(4, ok, f"8 clusters, worst mean-angle error = {worst_mean:.2e}, "
                          f"{rep.eye_levels.size} eye levels")


# ---------------------------------------------------------------------------
# 5. DPS at 20 dB and the secure-rate slope
# ---------------------------------------------------------------------------

def test_criterion_5_dps_reference_point_and_slope():
    cfg = load_bundled_config("dps_snspd.json")
    assert cfg.pulses_per_point == 10_000_000
    t0 = time.perf_counter()
    table = run_sweep(cfg)
    per_point = (time.perf_counter() - t0) / len(table.rows)
    r20 = next(r for r in table.rows if r.loss_db == 20.0)
    qber_ok = abs(r20.qber - 0.025) <= 0.005
    skr_ok = 400e3 / 2 <= r20.skr_bps <= 400e3 * 2
    sub = [r for r in table.rows if 5.0 <= r.loss_db <= 25.0]
    slope = float(np.polyfit([r.loss_db for r in sub],
                             np.log10([r.skr_bps for r in sub]), 1)[0])
    slope_ok = abs(slope + 0.1) <= 0.02
    ok = qber_ok and skr_ok and slope_ok and per_point < 10.0
    assert verdict(5, ok, f"QBER(20 dB) = {100 * r20.qber:.2f}% (2.5 +- 0.5), "
                          f"SKR = {r20.skr_bps / 1e3:.0f} kb/s (factor 2 of 400), "
                          f"slope = {slope:.4f} dec/dB (-0.1 +- 0.02), "
                          f"{per_point:.1f} s/point")


# ---------------------------------------------------------------------------
# 6. BB84 at 20 dB and the 16.7 dB field point
# ---------------------------------------------------------------------------

def test_criterion_6_bb84_reference_points():
    raw = {"schema_version": 1, "protocol": {"kind": "bb84-decoy"},
           "detector": "snspd", "channel": {"loss_db": [15.0, 16.7, 20.0]},
           "pulses_per_point": 20_000_000, "seed": 31415}
    table = run_sweep(config_from_dict(raw))
    r20 = next(r for r in table.rows if r.loss_db == 20.0)
    r167 = next(r for r in table.rows if abs(r.loss_db - 16.7) < 1e-9)
    ok_q20 = abs(r20.qber - 0.022) <= 0.005
    ok_s20 = 270e3 / 2 <= r20.skr_bps <= 270e3 * 2
    ok_q167 = abs(r167.qber - 0.0204) <= 0.005
    ok_s167 = 618e3 / 2 <= r167.skr_bps <= 618e3 * 2
    # the same checks through the bundled reference table
    refs = [r for r in load_bundled_references() if r.label.startswith("bb84-")
            and "apd" not in r.label]
    report = compare_to_reference(table, refs)
    ok = ok_q20 and ok_s20 and ok_q167 and ok_s167 and report.all_passed
    assert verdict(6, ok, f"20 dB: QBER = {100 * r20.qber:.2f}% "
                          f"SKR = {r20.skr_bps / 1e3:.0f} kb/s; 16.7 dB: "
                          f"QBER = {100 * r167.qber:.2f}% "
                          f"SKR = {r167.skr_bps / 1e3:.0f} kb/s; "
                          f"reference table all_passed = {report.all_passed}")


# ---------------------------------------------------------------------------
# 7. APD receiver at 10 dB
# ---------------------------------------------------------------------------

def test_criterion_7_apd_qber_and_bb84_rate():
    cfg_b = ProtocolConfig(BB84_DECOY)
    apd_b = detector_preset("apd", gate_rate_hz=cfg_b.clock_hz)
    rb = run_session(cfg_b, ChannelModel(10.0), apd_b, 20_000_000,
                     make_rng(42))
    cfg_d = ProtocolConfig(DPS)
    apd_d = detector_preset("apd", gate_rate_hz=cfg_d.clock_hz)
    rd = run_session(cfg_d, ChannelModel(10.0), apd_d, 40_000_000,
                     make_rng(42))
    ok_bb = abs(rb.qber - 0.032) <= 0.007 and 840e3 / 2 <= rb.skr_bps <= 840e3 * 2
    ok_dq = abs(rd.qber - 0.035) <= 0.007
    ok = ok_bb and ok_dq
    assert verdict(7, ok, f"BB84: QBER = {100 * rb.qber:.2f}% (3.2 +- 0.7), "
                          f"SKR = {rb.skr_bps / 1e3:.0f} kb/s (factor 2 of 840); "
                          f"DPS: QBER = {100 * rd.qber:.2f}% (3.5 +- 0.7)")


@pytest.mark.xfail(
    strict=True,
    reason="DPS secure rate at the APD point cannot land in a factor-2 band "
           "of 125 kb/s while its QBER stays in its band: in the closed form "
           "the APD rate comes down to 250 kb/s only from a DPS receiver loss "
           "of 11.458 dB, and the APD QBER passes 4.2% beyond 11.259 dB "
           "(test_no_dps_receiver_loss_puts_all_four_dps_points_in_band); at "
           "the 8.5 dB default the APD rate reads 807.7 kb/s, 6.46x of 125.")
def test_criterion_7_dps_apd_rate_band():
    cfg_d = ProtocolConfig(DPS)
    apd_d = detector_preset("apd", gate_rate_hz=cfg_d.clock_hz)
    rd = run_session(cfg_d, ChannelModel(10.0), apd_d, 40_000_000,
                     make_rng(42))
    ok = 125e3 / 2 <= rd.skr_bps <= 125e3 * 2
    assert verdict(7, ok, f"DPS APD SKR = {rd.skr_bps / 1e3:.0f} kb/s "
                          f"(factor 2 of 125)")


# ---------------------------------------------------------------------------
# 8. decoy-bound soundness and the Poisson-expansion oracle
# ---------------------------------------------------------------------------

def test_criterion_8_decoy_soundness():
    cfg = ProtocolConfig(BB84_DECOY)
    det = detector_preset("snspd", gate_rate_hz=cfg.clock_hz)
    ch = ChannelModel(10.0)
    true_y1, _ = single_photon_yield(cfg, ch, det)
    sound = 0
    trials = 100
    for seed in range(trials):
        s = run_session(cfg, ch, det, 200_000, make_rng(8000 + seed))
        if s.decoy.y1_lower <= true_y1 + 3 * s.decoy.y1_lower_se:
            sound += 1

    # brute-force Poisson photon-number expansion vs the closed-form gain
    from math import exp, factorial
    p_dark = det.p_dark
    worst = 0.0
    for mu in (cfg.mu_signal, cfg.mu_decoy):
        q_closed = analytic_expectations(cfg, ch, det).gains[
            "signal" if mu == cfg.mu_signal else "decoy"]
        eta_sys = 0.1 * det.efficiency * 10 ** (-cfg.receiver_loss_db / 10)
        # time-bin BB84: only the central of the AMZI's three slots interferes
        q_photon = 0.5 * eta_sys
        q_brute = sum(
            exp(-mu) * mu ** n / factorial(n)
            * (1 - (1 - p_dark) ** 2 * (1 - q_photon) ** n)
            for n in range(0, 21))
        worst = max(worst, abs(q_brute - q_closed))
    ok = sound >= 99 and worst < 1e-10
    assert verdict(8, ok, f"y1 bound sound in {sound}/100 seeded runs "
                          f"against the closed-form Y1 = {true_y1:.4e}, "
                          f"Poisson oracle max |dQ| = {worst:.1e}")


# ---------------------------------------------------------------------------
# 9. Monte-Carlo vs analytic at 0, 10, 20 dB
# ---------------------------------------------------------------------------

def _counts_within(observed, n, p, label, failures):
    expect = n * p
    sd = np.sqrt(max(expect * (1 - p), 0.0))
    if abs(observed - expect) > 3 * sd + 1:
        failures.append(f"{label}: {observed} vs {expect:.1f} (sd {sd:.1f})")


def test_criterion_9_mc_analytic_consistency():
    failures = []
    for loss in (0.0, 10.0, 20.0):
        ch = ChannelModel(loss)

        cfg = ProtocolConfig(DPS)
        det = detector_preset("snspd", gate_rate_hz=cfg.clock_hz)
        a = analytic_expectations(cfg, ch, det)
        s = run_session(cfg, ch, det, 10_000_000, make_rng(900 + int(loss)))
        t = s.per_intensity["signal"]
        _counts_within(t.clicks, t.sent, a.gains["signal"],
                       f"dps {loss} dB clicks", failures)
        _counts_within(t.errors, t.sifted, a.error_rates["signal"],
                       f"dps {loss} dB errors", failures)

        cfg_b = ProtocolConfig(BB84_DECOY)
        det_b = detector_preset("snspd", gate_rate_hz=cfg_b.clock_hz)
        ab = analytic_expectations(cfg_b, ch, det_b)
        sb = run_session(cfg_b, ch, det_b, 10_000_000,
                         make_rng(950 + int(loss)))
        total_clicks = 0
        for cls in ("vacuum", "decoy", "signal"):
            tc = sb.per_intensity[cls]
            total_clicks += tc.clicks
            _counts_within(tc.clicks, tc.sent, ab.gains[cls],
                           f"bb84 {loss} dB {cls} clicks", failures)
            if tc.sifted * ab.error_rates[cls] >= 10:
                _counts_within(tc.errors, tc.sifted, ab.error_rates[cls],
                               f"bb84 {loss} dB {cls} errors", failures)
        _counts_within(sb.sifted_bits, total_clicks,
                       cfg_b.basis_match_probability(),
                       f"bb84 {loss} dB sifted", failures)
    ok = not failures
    assert verdict(9, ok, "all tallies within 3 binomial sigma at 0/10/20 dB"
                   if ok else f"deviations: {failures}")


# ---------------------------------------------------------------------------
# 10. sweep determinism across worker counts
# ---------------------------------------------------------------------------

def test_criterion_10_sweep_determinism(tmp_path):
    raw = {"schema_version": 1, "protocol": {"kind": "dps"},
           "detector": "snspd", "channel": {"loss_db": [0.0, 10.0, 20.0]},
           "pulses_per_point": 100_000, "seed": 77}
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(raw))
    out = {}
    for fmt, workers in itertools.product(("csv", "json"), ("1", "8")):
        path = tmp_path / f"{workers}.{fmt}"
        assert cli.main(["sweep", "--config", str(cfgp), "--workers", workers,
                         "--format", fmt, "--out", str(path)]) == 0
        out[fmt, workers] = path.read_bytes()
    ok = out["csv", "1"] == out["csv", "8"] and out["json", "1"] == out["json", "8"]
    assert verdict(10, ok, "CSV and JSON byte-identical with 1 and 8 workers")
