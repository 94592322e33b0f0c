"""The benchmark workloads: inputs made from a seed, one timed rep, checks.

A rep is one user-level run of the workload. Only the calls a user would
make are inside the timed section; the correctness checks run after it and
decide, per operation, whether the rep's output is right. An operation is
a sweep point, a QRNG run or an optics stage; it fails when it raises or
fails its check.

Every rep of a run uses the same seed, so its outputs must be identical
from rep to rep; each rep returns a fingerprint of its outputs and the
runner compares them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy import stats

from qkdtx import cli, harness, linkmodel, optics, protocols, randomness
# Bound here, before any tracing is installed, so that the checks' own calls
# are not counted as calls of the program.
from qkdtx.protocols import decoy_estimate, skr_bb84, skr_dps

DATA = Path(harness.__file__).resolve().parent / "data"

#: Monte-Carlo tallies must lie within this many binomial standard
#: deviations of the closed-form expectation. At 5 sigma a correct program
#: fails one check in about 1.7 million.
K_SIGMA = 5.0


@dataclass
class Rep:
    wall_s: float
    units: int
    attempted: int
    failed: int
    fingerprint: str


def _call(fn, *args):
    """Run one operation; an exception is reported and counts as a failure."""
    try:
        return fn(*args)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None


def _within(observed, expected, sd) -> bool:
    return abs(observed - expected) <= K_SIGMA * sd


def _count_range(n, p) -> tuple:
    """Least and greatest count of a Binomial(n, p) tally inside both of
    its K_SIGMA tails, from the exact law, so that tallies of a few counts
    are judged right too."""
    n, tail = int(round(n)), stats.norm.sf(K_SIGMA)
    return float(stats.binom.ppf(tail, n, p)), float(stats.binom.isf(tail, n, p))


def _ratio_range(trials, p_event, p_error) -> tuple:
    """Least and greatest errors / events of a tally whose events are
    Binomial(trials, p_event) and whose errors are Binomial(events,
    p_error), each count within its K_SIGMA range; an error rate over as
    few events as is plausible, too. An empty tally may read anything."""
    ev_lo, ev_hi = _count_range(trials, p_event)
    lo = _count_range(ev_hi, p_error)[0] / ev_hi if ev_hi > 0 else 0.0
    hi = min(_count_range(ev_lo, p_error)[1] / ev_lo, 1.0) if ev_lo > 0 else 1.0
    return lo, hi


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

class Sweep:
    """``qkdtx sweep`` on a bundled config, one operation per loss point."""

    def __init__(self, config, points, workers, default_seed, references,
                 units_name):
        self.config_path = DATA / config
        self.points = points
        self.workers = workers
        self.default_seed = default_seed
        self.references = references
        self.units_name = units_name
        self._cfg = None
        self._expected = None

    def cli_argv(self, seed, out_dir, workers=None):
        return ["sweep", "--config", str(self.config_path), "--seed", str(seed),
                "--points", str(self.points),
                "--workers", str(self.workers if workers is None else workers),
                "--out", str(Path(out_dir) / "table.csv")]

    def rep(self, seed, out_dir, serial=False) -> Rep:
        if self._cfg is None:
            self._cfg = harness.load_config(self.config_path)
        n_points = len(self._cfg.losses_db)
        out = Path(out_dir) / "table.csv"
        out.unlink(missing_ok=True)
        argv = self.cli_argv(seed, out_dir, 1 if serial else None)
        t0 = perf_counter()
        rc = _call(cli.main, argv)
        wall = perf_counter() - t0
        if rc != 0 or not out.is_file():
            return Rep(wall, 0, n_points, n_points, "")
        text = out.read_bytes()
        bad = _call(self._failed_points, text.decode(), seed)
        failed = n_points if bad is None else len(bad)
        return Rep(wall, (n_points - failed) * self.points, n_points, failed,
                   _digest(text))

    def _expectations(self):
        """Closed-form expectations and the ranges of QBER and key rate a
        correct session can give, per loss, computed once per process."""
        if self._expected is None:
            cfg = self._cfg
            self._expected = {}
            for loss in cfg.losses_db:
                exp = protocols.analytic_expectations(
                    cfg.protocol, linkmodel.ChannelModel(loss), cfg.detector)
                _, _, _, key_trials, q_key = self._expected_counts(exp)
                qber_range = _ratio_range(key_trials, q_key, exp.error_rates["signal"])
                skr_range = (self._bb84_skr_range(exp)
                             if cfg.protocol.kind == protocols.BB84_DECOY else None)
                self._expected[loss] = exp, qber_range, skr_range
        return self._expected

    def _expected_counts(self, exp):
        """(trials, click probability, sifted probability, key-bearing
        trials, their sifted probability) of one session."""
        p = self._cfg.protocol
        n = self.points
        if p.kind == protocols.DPS:
            q = exp.gains["signal"]
            return n - 1, q, q, n - 1, q
        q_mean = sum(pc * exp.gains[c] for pc, c in
                     zip(p.class_probabilities(), protocols.INTENSITY_CLASSES))
        match = p.basis_match_probability()
        return n, q_mean, q_mean * match, n * p.p_signal, exp.gains["signal"] * match

    def _bb84_skr_range(self, exp) -> tuple:
        """Least and greatest Monte-Carlo BB84 key rate at one loss.

        The key rate comes from each class's gain and error rate, which the
        table does not carry. Each of them is moved on its own to the ends
        of its K_SIGMA range, taken from the exact binomial law so that the
        few counts of the vacuum and decoy classes at high loss are judged
        right; the shifts of the key rate add in quadrature, each side on
        its own. The vacuum class's error rate does not enter the rate.
        """
        p = self._cfg.protocol
        match = p.basis_match_probability()
        values = {}
        for pc, c in zip(p.class_probabilities(), protocols.INTENSITY_CLASSES):
            sent, q, e = self.points * pc, exp.gains[c], exp.error_rates[c]
            lo, hi = _count_range(sent, q)
            values["q_" + c] = (q, lo / sent, hi / sent)
            values["e_" + c] = (e, *_ratio_range(sent, q * match, e))

        def rate(**moved):
            x = {k: moved.get(k, v[0]) for k, v in values.items()}
            est = decoy_estimate(x["q_signal"], x["q_decoy"], x["q_vacuum"],
                                 x["e_signal"], x["e_decoy"], x["e_vacuum"],
                                 p.mu_signal, p.mu_decoy)
            return skr_bb84(est, x["q_signal"], x["e_signal"], p)

        centre = rate()
        down = up = 0.0
        for k, (_, lo, hi) in values.items():
            shifts = [rate(**{k: lo}) - centre, rate(**{k: hi}) - centre]
            down += min(*shifts, 0.0) ** 2
            up += max(*shifts, 0.0) ** 2
        return centre - math.sqrt(down), centre + math.sqrt(up)

    def _failed_points(self, csv_text, seed) -> set:
        """Loss points whose row fails a check.

        Clicks, sifted rate and QBER must agree with
        ``analytic_expectations`` within K_SIGMA binomial deviations (the
        QBER within the exact range of ``_ratio_range``); the
        key rate must equal the DPS formula applied to the row's own QBER
        and sifted rate, or for BB84 lie in the range of
        ``_bb84_skr_range``; the analytic columns must equal the closed form
        recomputed here; each row must carry its derived seed; and the
        analytic columns must pass ``compare_to_reference`` for the
        workload's own protocol with the SNSPD receiver. The reference check
        uses the analytic columns because the published tolerances (0.5
        points of QBER) are tighter than the Monte-Carlo noise of a run this
        short; the sigma checks tie the Monte-Carlo columns to them.
        """
        table = harness.SweepTable.from_csv(csv_text)
        expected = self._expectations()
        proto = self._cfg.protocol
        bad = set()
        if [r.loss_db for r in table.rows] != self._cfg.losses_db:
            return set(self._cfg.losses_db)
        for i, row in enumerate(table.rows):
            exp, qber_range, skr_range = expected[row.loss_db]
            trials, q, q_sifted, _, _ = self._expected_counts(exp)
            sifted_count = row.sifted_rate_hz * trials / proto.clock_hz
            if proto.kind == protocols.DPS:
                skr_ok = row.skr_bps == skr_dps(row.sifted_rate_hz,
                                                min(row.qber, 0.5 - 1e-15),
                                                proto.mu_signal, proto)
            else:
                skr_ok = skr_range[0] <= row.skr_bps <= skr_range[1]
            ok = (row.seed == harness.point_seed(seed, i)
                  and row.analytic_qber == exp.qber
                  and row.analytic_skr_bps == exp.skr_bps
                  and _within(row.clicks, trials * q, math.sqrt(trials * q * (1 - q)))
                  and _within(sifted_count, trials * q_sifted,
                              math.sqrt(trials * q_sifted * (1 - q_sifted)))
                  and qber_range[0] <= row.qber <= qber_range[1]
                  and skr_ok)
            if not ok:
                bad.add(row.loss_db)

        refs = [r for r in harness.load_reference_points(DATA / "reference_points.json")
                if r.label.startswith(self.references)]
        analytic = harness.SweepTable([
            dataclasses.replace(r, qber=r.analytic_qber, skr_bps=r.analytic_skr_bps,
                                sifted_rate_hz=expected[r.loss_db][0].sifted_rate_hz)
            for r in table.rows])
        report = harness.compare_to_reference(analytic, refs)
        losses = np.array(self._cfg.losses_db)
        for entry in report.entries:
            if not entry.passed:
                bad.add(float(losses[np.argmin(np.abs(losses - entry.loss_db))]))
        return bad


# ---------------------------------------------------------------------------
# QRNG
# ---------------------------------------------------------------------------

class Qrng:
    """``qkdtx qrng`` followed by extraction of the full entropy budget."""

    units_name = "events"
    workers = 1

    def __init__(self, events, default_seed):
        self.events = events
        self.default_seed = default_seed
        # exact min-entropy of the 8-bit arcsine histogram: its largest bin
        edges = np.arange(randomness.QUANT_LEVELS + 1) / randomness.QUANT_LEVELS
        self.max_bin_mass = float(np.max(np.diff(randomness.arcsine_cdf(edges, 1.0))))

    def cli_argv(self, seed, out_dir, workers=None):
        out_dir = Path(out_dir)
        return ["qrng", "--n", str(self.events), "--seed", str(seed),
                "--out-bytes", str(out_dir / "raw.bin"),
                "--out", str(out_dir / "report.json")]

    def _run(self, argv, raw_path, seed):
        if cli.main(argv) != 0:
            raise RuntimeError("qkdtx qrng exited with an error")
        raw = np.frombuffer(raw_path.read_bytes(), dtype=np.uint8)
        budget = randomness.entropy_budget_bits(raw)
        return raw, budget, randomness.extract_bits(raw, budget, seed)

    def rep(self, seed, out_dir, serial=False) -> Rep:
        out_dir = Path(out_dir)
        argv = self.cli_argv(seed, out_dir)
        t0 = perf_counter()
        result = _call(self._run, argv, out_dir / "raw.bin", seed)
        wall = perf_counter() - t0
        if result is None:
            return Rep(wall, 0, 1, 1, "")
        report_text = (out_dir / "report.json").read_bytes()
        ok = _call(self._check, json.loads(report_text), *result)
        raw, _, bits = result
        return Rep(wall, self.events if ok else 0, 1, 0 if ok else 1,
                   _digest(raw, bits, report_text))

    def _check(self, report, raw, budget, bits) -> bool:
        """Chi-square, autocorrelation, min-entropy and extractor output.

        The chi-square p-value may not fall below 1e-6; every lag's
        autocorrelation stays within 5/sqrt(n); the plug-in min-entropy
        stays within K_SIGMA of the exact arcsine max-bin value (about 4.65
        bits per byte); the extractor returns exactly the budget, and its
        ones fraction is 1/2 within K_SIGMA.
        """
        n = raw.size
        p = self.max_bin_mass
        h_sd = math.sqrt(p * (1 - p) / n) / (p * math.log(2))
        ones_sd = 0.5 / math.sqrt(max(bits.size, 1))
        return (n == self.events
                and report["p_value"] >= 1e-6
                and max(abs(a) for a in report["autocorr"]) <= 5.0 / math.sqrt(n)
                and _within(report["min_entropy_bits"], -math.log2(p), h_sd)
                and bits.size == budget > 0
                and _within(float(bits.mean()), 0.5, ones_sd))


# ---------------------------------------------------------------------------
# optics
# ---------------------------------------------------------------------------

#: Locking noise giving the reference 98.3% fringe visibility.
_SIGMA = optics.sigma_phi_for_visibility(0.983)
_FRINGE_GRID = np.linspace(0.0, optics.TWO_PI, 128, endpoint=False)
_FRINGE_PULSES = 2_000
_EYE_LEVELS = 8
_EYE_SIGMA = 0.05


class Optics:
    """Pulse trains in the three seeding regimes through the demodulators."""

    units_name = "pulses"
    workers = 1

    def __init__(self, pulses, symbols, default_seed):
        self.pulses = pulses
        self.symbols = symbols
        self.default_seed = default_seed
        self.units_per_rep = (3 * pulses + _FRINGE_GRID.size * _FRINGE_PULSES
                              + symbols + 1)

    def cli_argv(self, seed, out_dir, workers=None):
        return ["constellation", "--levels", str(_EYE_LEVELS),
                "--sigma", repr(_EYE_SIGMA), "--symbols", str(self.symbols),
                "--seed", str(seed), "--out", str(Path(out_dir) / "eye.json")]

    def rep(self, seed, out_dir, serial=False) -> Rep:
        out_dir = Path(out_dir)
        n = self.pulses
        rng = np.random.Generator(np.random.PCG64(seed))
        programmed = rng.integers(0, 4, n - 1)
        seq = optics.DifferentialPhaseSequence.mpsk(4, programmed)
        cw = optics.InjectionMode.cw(phase_noise_sigma=_SIGMA)
        argv = self.cli_argv(seed, out_dir)

        t0 = perf_counter()
        trains = _call(lambda: [
            optics.emit_pulse_train(n, 1.0, optics.InjectionMode.off(), rng),
            optics.emit_pulse_train(n, 1.0, cw, rng),
            optics.emit_pulse_train(n, 1.0, optics.InjectionMode.modulated(seq), rng)])
        demod = trains and _call(lambda: [optics.dual_basis_demodulate(trains[0]),
                                          optics.dual_basis_demodulate(trains[2])])
        records = trains and _call(optics.amzi_interfere, trains[1],
                                   optics.AmziConfig(trains[1].period_s))
        fringe = _call(optics.fringe_scan, cw, 1.0, _FRINGE_GRID, _FRINGE_PULSES, rng)
        eye_rc = _call(cli.main, argv)
        wall = perf_counter() - t0

        eye = (json.loads((out_dir / "eye.json").read_text()) if eye_rc == 0
               else None)
        checks = {
            "emit": trains and _call(self._check_emit, trains, programmed),
            "demodulate": demod and _call(self._check_demod, demod, programmed),
            "interfere": records and _call(self._check_interfere, records),
            "fringe_scan": fringe and _call(self._check_fringe, fringe),
            "constellation": eye and _call(self._check_eye, eye),
        }
        failed = sum(not ok for ok in checks.values())
        fingerprint = "" if failed else _digest(
            np.array([p.angle for p in demod[1]]),
            np.array([r.intensity_out for r in records]),
            np.array([r.intensity_out for r in fringe]),
            json.dumps(eye).encode())
        return Rep(wall, 0 if failed else self.units_per_rep, len(checks), failed,
                   fingerprint)

    def _check_emit(self, trains, programmed) -> bool:
        """Every train has n pulses; the modulated one carries the program."""
        steps = trains[2].differential_phases() / (optics.TWO_PI / 4)
        return (all(t.n_pulses == self.pulses for t in trains)
                and np.array_equal(np.rint(steps).astype(int) % 4, programmed))

    def _check_demod(self, demod, programmed) -> bool:
        """Ring radii equal the pulse intensity; decoded phases match."""
        ring, decoded = demod
        angles = np.array([p.angle for p in decoded])
        err = np.angle(np.exp(1j * (angles - programmed * (optics.TWO_PI / 4))))
        return (len(ring) == len(decoded) == self.pulses - 1
                and all(p.radius == 1.0 for p in ring)
                and float(np.max(np.abs(err))) < 1e-9)

    def _check_interfere(self, records) -> bool:
        """Mean bar-port intensity of the CW train is (1 + V) / 2."""
        vals = np.array([r.intensity_out for r in records])
        v = math.exp(-_SIGMA ** 2 / 2)
        var_cos = 0.5 * (1 + math.exp(-2 * _SIGMA ** 2)) - math.exp(-_SIGMA ** 2)
        sd = 0.5 * math.sqrt(var_cos / vals.size)
        return (vals.size == self.pulses - 1
                and records[0].slot_index == 1
                and records[-1].slot_index == self.pulses - 1
                and _within(float(vals.mean()), 0.5 * (1 + v), sd))

    def _check_fringe(self, fringe) -> bool:
        """Fringe visibility matches exp(-sigma^2 / 2) within 0.003."""
        v = optics.fringe_visibility(fringe)
        return (len(fringe) == _FRINGE_GRID.size
                and abs(v - math.exp(-_SIGMA ** 2 / 2)) < 3e-3)

    def _check_eye(self, eye) -> bool:
        """M/2 + 1 eye levels; every point within 7 sigma of the phase grid."""
        m = _EYE_LEVELS
        k = np.arange(m // 2 + 1)
        levels = 0.5 * (1 + np.cos(k * optics.TWO_PI / m))
        angles = np.array([p["angle"] for p in eye["points"]])
        err = np.angle(np.exp(1j * angles * m)) / m
        return (eye["modulation_levels"] == m
                and eye["n_symbols"] == self.symbols == len(angles)
                and np.allclose(sorted(eye["eye_levels"]), sorted(levels), atol=1e-12)
                and all(p["radius"] == 1.0 for p in eye["points"])
                and float(np.max(np.abs(err))) <= 7 * _EYE_SIGMA)


WORKLOADS = {
    "sweep-dps": Sweep("dps_snspd.json", points=2_000_000, workers=1,
                       default_seed=1001, references=("dps-snspd",),
                       units_name="pulses"),
    "sweep-bb84": Sweep("bb84_snspd.json", points=1_000_000, workers=2,
                        default_seed=31415,
                        references=("bb84-snspd", "bb84-field-fiber"),
                        units_name="pairs"),
    "qrng": Qrng(events=1_025_000, default_seed=7),
    "optics": Optics(pulses=100_000, symbols=25_000, default_seed=7),
}
