#!/usr/bin/env python3
"""Decoy-state BB84 vs channel loss, including the 16.7 dB field-fiber point.

Runs the bundled pulse-pair BB84 experiment (signal/decoy/vacuum at
14/16, 1/16, 1/16), prints the decoy-bound diagnostics at one point, and
compares the analytic curve to the bundled reference values. The reference
QBER bands are +-0.5 points wide, tighter than the Monte-Carlo noise of a
4M-pair run, so the Monte-Carlo value is printed beside each entry for
context rather than judged.
"""

import dataclasses
import json
from importlib import resources

import numpy as np

from qkdtx.harness import (
    SweepTable,
    compare_to_reference,
    config_from_dict,
    load_reference_points,
    run_sweep,
)
from qkdtx.linkmodel import ChannelModel, detector_preset
from qkdtx.protocols import analytic_expectations, run_session, single_photon_yield

with resources.files("qkdtx.data").joinpath("bb84_snspd.json").open() as f:
    raw = json.load(f)
raw["pulses_per_point"] = 4_000_000   # demo speed; acceptance uses more
cfg = config_from_dict(raw)

table = run_sweep(cfg)
print("loss_db   QBER%   sifted (Mc/s)   SKR (kb/s)   analytic SKR")
for r in table.rows:
    print(f"{r.loss_db:7.1f}{100 * r.qber:8.2f}{r.sifted_rate_hz / 1e6:13.3f}"
          f"{r.skr_bps / 1e3:13.1f}{r.analytic_skr_bps / 1e3:13.1f}")

# decoy-bound internals at the field-fiber loss, beside the closed-form
# single-photon yield and error rate they bound
field_fiber = ChannelModel(16.7)
snspd = detector_preset("snspd", cfg.protocol.clock_hz)
rng = np.random.default_rng(cfg.seed)
session = run_session(cfg.protocol, field_fiber, snspd, 4_000_000, rng)
est = session.decoy
y1, e1 = single_photon_yield(cfg.protocol, field_fiber, snspd)
print(f"\nat 16.7 dB: Y0 = {est.y0:.2e}, Y1 lower bound = {est.y1_lower:.4e} "
      f"(closed-form Y1 = {y1:.4e})")
print(f"e1 upper bound = {est.e1_upper:.4f} (closed-form e1 = {e1:.4f}); "
      f"secure rate {session.skr_bps / 1e3:.0f} kb/s "
      f"(field system: 618 kb/s over 75 km of deployed fiber)")

refs = [r for r in load_reference_points()
        if r.label.startswith("bb84") and "apd" not in r.label]
analytic = SweepTable([
    dataclasses.replace(
        r, qber=r.analytic_qber, skr_bps=r.analytic_skr_bps,
        sifted_rate_hz=analytic_expectations(
            cfg.protocol, ChannelModel(r.loss_db), cfg.detector).sifted_rate_hz)
    for r in table.rows])
report = compare_to_reference(analytic, refs)
mc = compare_to_reference(table, refs)
print("\nreference comparison (analytic; Monte-Carlo for context):")
for e, m in zip(report.entries, mc.entries):
    verdict = "ok" if e.passed else "MISS"
    print(f"  {e.label:32s} expected {e.expected:10.4g}  analytic "
          f"{e.observed:10.4g}  {verdict:4s}  MC {m.observed:10.4g}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not available; skipping the figure")
else:
    loss = [r.loss_db for r in table.rows]
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.semilogy(loss, [max(r.skr_bps, 1.0) for r in table.rows], "s-",
                label="secure (MC)")
    ax.semilogy(loss, [max(r.analytic_skr_bps, 1.0) for r in table.rows],
                "k--", label="secure (analytic)")
    ax.plot(16.7, 618e3, "y*", ms=14, label="field fiber 618 kb/s")
    ax.plot(20.0, 270e3, "r*", ms=14, label="reference 270 kb/s")
    ax.set_xlabel("channel loss (dB)")
    ax.set_ylabel("secure key rate (b/s)")
    ax.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig("bb84_decoy_sweep.png", dpi=120)
    print("wrote bb84_decoy_sweep.png")
