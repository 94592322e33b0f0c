#!/usr/bin/env python3
"""qkdtx benchmark: end-to-end and per-layer metrics on four workloads.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-dps --seed 1001 --seconds 25 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end metrics
of BENCHMARK.json. ``--trace 1`` runs untraced reps, then serial traced reps,
and prints the per-layer metrics, tracing overhead included. Without
``--workload`` every workload runs both ways, each in a fresh interpreter,
and every metric is printed as a table.

A single-workload run prints readable lines and, as its last line, one JSON
object with the keys correct, attempted, failed and metrics. Why each
workload was chosen is recorded in BENCHMARK.json; seeds, run sizes and
which end-to-end metric each per-layer metric should move are recorded in
perfbench/manifest.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from tracing import RNG_KINDS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fewest fresh interpreters started per run to time set-up; the median is
#: reported. One starts after each timed rep, so set-up is sampled over the
#: same minutes as the reps.
SETUP_PROBES = 10
#: ``python -X importtime`` runs per traced run; the median is reported.
IMPORT_PROBES = 3
#: Fewest reps per timed phase, however short --seconds is.
MIN_REPS = 2


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _run_child(argv) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], env=_child_env(), cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=120)


def probe_setup(cli_argv) -> float:
    """Seconds from starting a fresh interpreter to the first layer call."""
    t0 = perf_counter()
    out = _run_child([str(HERE / "setup_probe.py"), *cli_argv])
    return float(out.stdout.split()[-1]) - t0


def parse_importtime(text) -> tuple:
    """(qkdtx, scipy.signal + scipy.stats) cumulative import seconds.

    ``-X importtime`` prints a module after the modules it imports, indented
    two spaces per level. The qkdtx total sums the top-level qkdtx entries,
    leaving out the interpreter's own start-up imports; the scipy share
    counts each outermost scipy.signal or scipy.stats entry once.
    """
    entries = []
    for line in text.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2]
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(parts[1]) * 1e-6))
    total = sum(cum for depth, name, cum in entries
                if depth == 0 and name.split(".")[0] == "qkdtx")
    share, counted_depth = 0.0, None
    for depth, name, cum in reversed(entries):  # parents before children
        if counted_depth is not None and depth > counted_depth:
            continue
        counted_depth = None
        if name in ("scipy.signal", "scipy.stats"):
            share += cum
            counted_depth = depth
    return total, share


def measure_imports() -> tuple:
    runs = [parse_importtime(_run_child(["-X", "importtime", "-c", "import qkdtx.cli"]).stderr)
            for _ in range(IMPORT_PROBES)]
    return tuple(statistics.median(col) for col in zip(*runs))


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest child, in MB."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def run_reps(workload, seed, out_dir, seconds, serial=False, tracer=None):
    """Repeat the workload for at least ``seconds`` (and MIN_REPS reps)."""
    reps, spans = [], []
    t_end = perf_counter() + seconds
    while len(reps) < MIN_REPS or perf_counter() < t_end:
        reps.append(workload.rep(seed, out_dir, serial))
        if tracer is not None:
            spans.append(tracer.finish())
    return reps, spans


def mark_divergent(reps):
    """A rep whose outputs differ from the first good rep's fails whole."""
    good = [r.fingerprint for r in reps if r.fingerprint]
    for r in reps:
        if r.fingerprint and r.fingerprint != good[0]:
            r.failed, r.units = r.attempted, 0


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


# ---------------------------------------------------------------------------
# per-layer metrics from one traced rep's spans
# ---------------------------------------------------------------------------

def layer_values(spans):
    """Per-rep timings, pooled samples and exact counters of one traced rep."""
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)

    def total(*names):
        return sum((s.duration for n in names for s in by[n] if s.top_level_in_layer), 0.0)

    sessions = by["run_dps_session"] + by["run_bb84_session"]
    extract = by["extract_bits"]
    optics_top = [s for s in spans if s.layer == "optics" and s.top_level_in_layer]
    timings = {
        "cli.self_s": sum((s.self_time for s in by["main"]), 0.0),
        "harness.table_s": total("to_csv"),
        "harness.point_busy_s": sum((s.duration for s in by["run_point"]), 0.0),
        "linkmodel.busy_s": sum((s.duration for s in spans if s.layer == "linkmodel"), 0.0),
        "randomness.sample_s": total("sample_interference"),
        "randomness.quantize_s": total("quantize"),
        "randomness.analyze_s": total("analyze"),
        "randomness.extract_s": total("extract_bits"),
        "optics.emit_s": total("emit_pulse_train"),
        "optics.demodulate_s": total("dual_basis_demodulate"),
        "optics.interfere_s": total("amzi_interfere"),
        "optics.fringe_scan_s": total("fringe_scan"),
        "optics.constellation_s": total("constellation_eye"),
    }
    samples = {
        "load_config": [s.duration for s in by["load_config"]],
        "point": [s.duration for s in by["run_point"]],
        "session": [s.duration for s in sessions],
        "analytic": [s.duration for s in by["analytic_expectations"]],
        "decoy_skr": [s.duration for n in ("decoy_estimate", "skr_dps", "skr_bb84")
                      for s in by[n]],
    }
    counters = {
        "points": len(by["run_point"]),
        "session_units": sum(s.counts["units"] for s in sessions),
        "linkmodel.calls": sum(1 for s in spans if s.layer == "linkmodel"),
        "randomness.blocks": len(by["toeplitz_hash"]),
        "bits_in": sum(s.counts["bits_in"] for s in extract),
        "bits_out": sum(s.counts["bits_out"] for s in extract),
        "optics.objects": sum(s.counts["objects"] for s in optics_top),
    }
    for kind in RNG_KINDS:
        counters[f"draws.{kind}"] = sum(s.counts[kind] for s in sessions)
    return timings, samples, counters


def traced_run(workload, seed, seconds, out_dir):
    """Per-layer metrics: untraced reps, then serial traced reps."""
    import_total, import_scipy = measure_imports()
    if workload.workers > 1:
        own, _ = run_reps(workload, seed, out_dir, 0.25 * seconds)
        serial, _ = run_reps(workload, seed, out_dir, 0.25 * seconds, serial=True)
    else:
        own = serial = run_reps(workload, seed, out_dir, 0.5 * seconds, serial=True)[0]
    tracer = Tracer()
    with tracer.installed():
        traced, rep_spans = run_reps(workload, seed, out_dir, 0.5 * seconds,
                                     serial=True, tracer=tracer)
    reps = own + (serial if serial is not own else []) + traced
    mark_divergent(reps)

    per_rep = [layer_values(spans) for spans in rep_spans]
    timings = {k: _median(t[k] for t, _, _ in per_rep) for k in per_rep[0][0]}
    pooled = defaultdict(list)
    for _, samples, _ in per_rep:
        for k, v in samples.items():
            pooled[k].extend(v)
    counters = per_rep[0][2]
    counters_repeat = all(c == counters for _, _, c in per_rep)

    units = counters["session_units"]
    draws = {k[len("draws."):]: v for k, v in counters.items() if k.startswith("draws.")}
    points = sorted(pooled["point"])
    pulses = max(r.units for r in traced)
    own_wall = _median(r.wall_s for r in own)
    serial_wall = _median(r.wall_s for r in serial)
    traced_wall = _median(r.wall_s for r in traced)
    values = {
        "cli.import_s": import_total,
        "cli.self_s": timings["cli.self_s"],
        "harness.load_config_s": _median(pooled["load_config"]),
        "harness.point_s.p50": _median(points),
        "harness.point_s.p90": (statistics.quantiles(points, n=10)[8]
                                if len(points) > 1 else _median(points)),
        "harness.pool_efficiency": (timings["harness.point_busy_s"]
                                    / (workload.workers * own_wall)),
        "harness.table_s": timings["harness.table_s"],
        "protocols.session_s": _median(pooled["session"]),
        "protocols.session_units_per_s": (units * len(per_rep) / sum(pooled["session"])
                                          if pooled["session"] else 0.0),
        "protocols.rng_draws_per_unit": sum(draws.values()) / units if units else 0.0,
        "protocols.analytic_us": 1e6 * _median(pooled["analytic"]),
        "protocols.decoy_skr_us": 1e6 * _median(pooled["decoy_skr"]),
        "linkmodel.calls": counters["linkmodel.calls"],
        "linkmodel.busy_s": timings["linkmodel.busy_s"],
        "randomness.import_s": import_scipy,
        "randomness.extract_yield": (counters["bits_out"] / counters["bits_in"]
                                     if counters["bits_in"] else 0.0),
        "randomness.blocks": counters["randomness.blocks"],
        "optics.objects_per_pulse": (counters["optics.objects"] / pulses
                                     if counters["optics.objects"] and pulses else 0.0),
        "trace.overhead_s": traced_wall - serial_wall,
        "trace.overhead_frac": (traced_wall - serial_wall) / serial_wall,
        "trace.reps": len(traced),
    }
    for kind, n in draws.items():
        values[f"protocols.rng_draws_per_unit.{kind}"] = n / units if units else 0.0
    for k in ("randomness.sample_s", "randomness.quantize_s", "randomness.analyze_s",
              "randomness.extract_s", "optics.emit_s", "optics.demodulate_s",
              "optics.interfere_s", "optics.fringe_scan_s", "optics.constellation_s"):
        values[k] = timings[k]
    notes = [f"traced reps {len(traced)}, untraced serial reps {len(serial)}"
             + (f", untraced reps with {workload.workers} workers {len(own)}"
                if own is not serial else ""),
             f"exact counters repeat across traced reps: {counters_repeat}",
             f"counters: {json.dumps(counters, sort_keys=True)}"]
    return values, reps, counters_repeat, notes


def untraced_run(workload, seed, seconds, out_dir):
    """End-to-end metrics: timed reps for at least ``seconds``, each
    followed by a set-up probe in a fresh interpreter."""
    cli_argv = workload.cli_argv(seed, out_dir)
    reps, setup = [], []
    t_end = perf_counter() + seconds
    while len(setup) < SETUP_PROBES or perf_counter() < t_end:
        reps.append(workload.rep(seed, out_dir))
        setup.append(probe_setup(cli_argv))
    mark_divergent(reps)
    rates = [r.units / r.wall_s for r in reps]
    values = {
        "setup_s": statistics.median(setup),
        "units_per_s": statistics.median(rates),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = [f"setup_s: median of {len(setup)} fresh interpreters, one after each rep",
             f"units_per_s: median of {len(reps)} reps; units are "
             f"{workload.units_name}; rep wall s median "
             f"{statistics.median(r.wall_s for r in reps):.4f}, "
             f"min {min(r.wall_s for r in reps):.4f}, max {max(r.wall_s for r in reps):.4f}"]
    return values, reps, True, notes


def run_workload(spec, name, seed, seconds, trace) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    seed = workload.default_seed if seed is None else seed
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as out_dir:
        run = traced_run if trace else untraced_run
        values, reps, counters_repeat, notes = run(workload, seed, seconds, Path(out_dir))

    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    print(f"workload {name}, seed {seed}, trace {trace}: {len(reps)} reps, "
          f"{attempted} operations attempted, {failed} failed "
          f"(failed_frac {failed / attempted})")
    for note in notes:
        print(f"  {note}")
    for key, m in metrics.items():
        print(f"  {key:<40} {m['value']!r:>24} {m['unit']}")
    return {"correct": failed == 0 and counters_repeat, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def run_all(spec, seconds) -> int:
    """Every workload, untraced then traced, each in a fresh interpreter."""
    rows, ok = [], True
    for w in spec["workloads"]:
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, __file__, "--workload", w["name"], "--seconds",
                 str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            sys.stderr.write(out.stderr)
            if out.returncode != 0:
                ok = False
                rows.append((w["name"], "error", out.returncode, f"exit code, trace {trace}"))
                continue
            result = json.loads(out.stdout.splitlines()[-1])
            ok = ok and result["correct"]
            rows.append((w["name"], "failed_frac",
                         result["failed"] / result["attempted"],
                         f"of {result['attempted']} ops, trace {trace}"))
            rows += [(w["name"], k, m["value"], m["unit"])
                     for k, m in result["metrics"].items()]
    for row in rows:
        print(f"{row[0]:<11} {row[1]:<40} {row[2]!r:>24} {row[3]}")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default=None,
                   help="one workload of BENCHMARK.json; all of them if omitted")
    p.add_argument("--seed", type=int, default=None,
                   help="input seed (default: the workload's bundled seed)")
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per run (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "qkdtx" / "__init__.py").is_file():
        print(f"error: no qkdtx source tree at {SRC} (run from a repository "
              "checkout)", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        p.error(f"--workload must be one of {', '.join(names)}")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.workload is None:
        return run_all(spec, seconds)

    sys.path.insert(0, str(SRC))
    result = run_workload(spec, args.workload, args.seed, seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
