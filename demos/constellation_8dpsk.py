#!/usr/bin/env python3
"""RZ-8DPSK constellation and eye levels from the modulated transmitter.

Eight differential phase states land on 2*pi*k/8; a single demodulator port
then shows exactly five distinct eye levels for the noiseless signal.
"""

import numpy as np

from qkdtx import constellation_eye

rng = np.random.default_rng(33)

noiseless = constellation_eye(8, 0.0, 4096, rng)
print("noiseless RZ-8DPSK:")
print(f"  eye levels ({noiseless.eye_levels.size}): "
      f"{np.round(noiseless.eye_levels, 6).tolist()}")

noisy = constellation_eye(8, 0.08, 4096, rng)
angles = noisy.points.angle
k = np.rint(angles / (2 * np.pi / 8)).astype(int) % 8
spread = [float(np.std(np.angle(np.exp(1j * (angles[k == c] - c * np.pi / 4)))))
          for c in range(8)]
print("\nwith 0.08 rad locking noise:")
print(f"  per-cluster angular spread: {np.round(spread, 4).tolist()}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("\nmatplotlib not available; skipping the figure")
else:
    fig, axes = plt.subplots(1, 2, figsize=(9, 4))
    radius = noisy.points.radius
    axes[0].scatter(radius * np.cos(angles), radius * np.sin(angles), s=4, alpha=0.4)
    axes[0].set_title("8DPSK constellation (sigma = 0.08)")
    axes[0].set_aspect("equal")
    for lvl in noiseless.eye_levels:
        axes[1].axhline(lvl, color="k", lw=1)
    axes[1].set_title("noiseless eye levels (5 distinct)")
    axes[1].set_ylabel("port intensity / I_in")
    axes[1].set_xticks([])
    fig.tight_layout()
    fig.savefig("constellation_8dpsk.png", dpi=120)
    print("\nwrote constellation_8dpsk.png")
