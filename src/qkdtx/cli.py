"""Command-line interface.

Subcommands: simulate (one loss point), sweep (loss scan to CSV/JSON),
qrng (raw bytes plus statistics report), constellation (M-ary demodulation
report), compare (sweep table vs reference points). Exit codes: 0 success,
1 validation error, 2 reference-comparison failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import harness, optics
from .harness import ConfigError

#: The text json.dumps(indent=2) writes around each point's radius and angle
#: in "points"; float.__repr__ is json's form of a finite float, and radius
#: and angle are finite.
_FIRST_POINT = '    {\n      "radius": '
_ANGLE_KEY = ',\n      "angle": '
_NEXT_POINT = '\n    },\n    {\n      "radius": '


def _points_json(report) -> str:
    """The items of "points" as json.dumps(indent=2) writes them, without the
    last point's closing brace; every point shares the report's one radius,
    so its repr is written once."""
    radius = f"{report.radius!r}{_ANGLE_KEY}"
    return (_FIRST_POINT + radius
            + (_NEXT_POINT + radius).join(map(float.__repr__, report.points.angle.tolist())))


def _write_or_print(text: str, out):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _rng(seed):
    return np.random.Generator(np.random.PCG64(harness.check_seed(seed, "--seed")))


def _load_experiment(args):
    cfg = harness.load_config(args.config)
    if args.seed is not None:
        cfg.seed = harness.check_seed(args.seed, "--seed")
    if args.points is not None:
        if args.points < 1_000:
            raise ConfigError("--points must be >= 1e3")
        cfg.pulses_per_point = args.points
        cfg.provenance.pop("pulses_per_point", None)  # no longer a default
    return cfg


def _cmd_simulate(args) -> int:
    cfg = _load_experiment(args)
    loss = cfg.losses_db[0] if args.loss_db is None else args.loss_db
    session = harness.run_session(cfg, loss)
    payload = {"config": cfg.to_dict(), "result": session.to_dict()}
    _write_or_print(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _cmd_sweep(args) -> int:
    if args.workers < 1:
        raise ConfigError("--workers must be >= 1")
    cfg = _load_experiment(args)
    table = harness.run_sweep(cfg)
    if args.format == "csv":
        _write_or_print(table.to_csv(), args.out)
    else:
        _write_or_print(json.dumps(table.to_dict(), indent=2) + "\n", args.out)
    return 0


def _cmd_qrng(args) -> int:
    from . import randomness  # only this command samples: sweeps never load it
    # no name holds the float intensities, so analyze does not keep them alive
    byte_values = randomness.quantize(randomness.sample_interference(args.n, _rng(args.seed)))
    report = randomness.analyze(byte_values, max_lag=args.lags)
    if args.out_bytes:
        Path(args.out_bytes).write_bytes(byte_values.tobytes())
    _write_or_print(json.dumps(report.to_dict(), indent=2) + "\n", args.out)
    return 0


def _cmd_constellation(args) -> int:
    report = optics.constellation_eye(args.levels, args.sigma, args.symbols,
                                      _rng(args.seed))
    points = report.points
    header = json.dumps({
        "modulation_levels": report.modulation_levels,
        "n_symbols": len(points),
        "eye_levels": report.eye_levels.tolist(),
    }, indent=2)
    body = _points_json(report)
    _write_or_print(f'{header[:-2]},\n  "points": [\n{body}\n    }}\n  ]\n}}\n', args.out)
    return 0


def _cmd_compare(args) -> int:
    table = harness.SweepTable.from_csv(Path(args.table).read_text())
    refs = harness.load_reference_points(args.references)
    if args.select:
        refs = [r for r in refs if args.select in r.label]
        if not refs:
            raise ConfigError(f"no reference labels match {args.select!r}")
    report = harness.compare_to_reference(table, refs)
    _write_or_print(json.dumps(report.to_dict(), indent=2) + "\n", args.out)
    return 0 if report.all_passed else 2


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qkdtx",
        description="Simulator for a modulator-free injection-locked QKD transmitter")
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one loss point")
    sw = sub.add_parser("sweep", help="run the configured loss sweep")
    for run in (sim, sw):
        run.add_argument("--config", required=True)
        run.add_argument("--seed", type=int, default=None, help="override config seed")
        run.add_argument("--points", type=int, default=None,
                         help="override pulses/pairs per point")
        run.add_argument("--out", default=None)
    sim.add_argument("--loss-db", type=float, default=None)
    sim.set_defaults(func=_cmd_simulate)

    # kept only because perfbench/workloads.py passes it; ROADMAP item 1 deletes it
    sw.add_argument("--workers", type=int, default=1,
                    help="ignored, must be >= 1: points run in one thread")
    sw.add_argument("--format", choices=("csv", "json"), default="csv")
    sw.set_defaults(func=_cmd_sweep)

    q = sub.add_parser("qrng", help="generate and validate quantum random bytes")
    q.add_argument("--n", type=int, default=1_025_000,
                   help="number of interference events")
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--lags", type=int, default=50)
    q.add_argument("--out-bytes", default=None, help="raw byte stream output path")
    q.add_argument("--out", default=None, help="JSON report output path")
    q.set_defaults(func=_cmd_qrng)

    c = sub.add_parser("constellation", help="M-ary phase constellation and eye")
    c.add_argument("--levels", type=int, default=8)
    c.add_argument("--sigma", type=float, default=0.0)
    c.add_argument("--symbols", type=int, default=4096)
    c.add_argument("--seed", type=int, required=True)
    c.add_argument("--out", default=None)
    c.set_defaults(func=_cmd_constellation)

    cmp_ = sub.add_parser("compare", help="compare a sweep table to references")
    cmp_.add_argument("--table", required=True, help="sweep CSV path")
    cmp_.add_argument("--references", default=None,
                      help="reference JSON (bundled defaults if omitted)")
    cmp_.add_argument("--select", default=None,
                      help="only references whose label contains this string "
                           "(e.g. 'dps-snspd')")
    cmp_.add_argument("--out", default=None)
    cmp_.set_defaults(func=_cmd_compare)
    return p


_parser = functools.cache(build_parser)  # main's, built at its first call


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
