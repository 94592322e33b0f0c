#!/usr/bin/env python3
"""DPS key generation vs channel loss with the calibrated 2 GHz transmitter.

Runs the bundled DPS experiment (SNSPD receiver) over 0-25 dB, prints the
sifted/secure rates against the closed-form expectations, and marks the
reference 20 dB point. Scale pulses_per_point down for a quicker pass.
"""

import json
from importlib import resources

import numpy as np

from qkdtx.harness import config_from_dict, run_sweep

with resources.files("qkdtx.data").joinpath("dps_snspd.json").open() as f:
    raw = json.load(f)
raw["pulses_per_point"] = 2_000_000   # demo speed; acceptance uses 1e7
cfg = config_from_dict(raw)

table = run_sweep(cfg)
print("loss_db   QBER%   sifted (Mc/s)   SKR (kb/s)   analytic SKR")
for r in table.rows:
    print(f"{r.loss_db:7.1f}{100 * r.qber:8.2f}{r.sifted_rate_hz / 1e6:13.3f}"
          f"{r.skr_bps / 1e3:13.1f}{r.analytic_skr_bps / 1e3:13.1f}")

r20 = next(r for r in table.rows if r.loss_db == 20.0)
print(f"\nat 20 dB (100 km of standard fiber) the secure rate is "
      f"{r20.skr_bps / 1e3:.0f} kb/s; the reference system reports 400 kb/s")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not available; skipping the figure")
else:
    loss = [r.loss_db for r in table.rows]
    fig, ax1 = plt.subplots(figsize=(6, 4))
    ax1.semilogy(loss, [r.skr_bps for r in table.rows], "s-", label="secure (MC)")
    ax1.semilogy(loss, [r.analytic_skr_bps for r in table.rows], "k--",
                 label="secure (analytic)")
    ax1.semilogy(loss, [r.sifted_rate_hz for r in table.rows], "^-",
                 label="sifted")
    ax1.plot(20.0, 400e3, "r*", ms=14, label="reference 400 kb/s")
    ax1.set_xlabel("channel loss (dB)")
    ax1.set_ylabel("rate (b/s)")
    ax1.legend(fontsize=8)
    ax2 = ax1.twinx()
    ax2.plot(loss, [100 * r.qber for r in table.rows], "o:", color="tab:gray")
    ax2.set_ylabel("QBER (%)")
    ax2.set_ylim(0, 6)
    fig.tight_layout()
    fig.savefig("dps_loss_sweep.png", dpi=120)
    print("wrote dps_loss_sweep.png")
