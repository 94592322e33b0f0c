#!/usr/bin/env python3
"""Walk through the three seeding regimes of the gain-switched transmitter.

1. No injection: every pulse carries a fresh random phase; demodulated IQ
   points fill a ring and the interference fringe washes out.
2. CW injection: the phase step per slot is locked; the fringe visibility
   follows V = exp(-sigma^2/2) as locking noise grows.
3. Modulated injection: programmed differential phases come back out of the
   dual-quadrature demodulator.

Writes phase_encoding_regimes.png next to this script when matplotlib is
available; always prints a short summary.
"""

import numpy as np

from qkdtx import (
    DifferentialPhaseSequence,
    InjectionMode,
    dual_basis_demodulate,
    emit_pulse_train,
    fringe_scan,
    fringe_visibility,
    sigma_phi_for_visibility,
)

rng = np.random.default_rng(2026)

# --- regime 1: free-running pulses -> ring in the IQ plane ----------------
train_off = emit_pulse_train(20_000, 1.0, InjectionMode.off(), rng)
ring = dual_basis_demodulate(train_off)
print("no injection:")
print(f"  {len(ring)} demodulated symbols, constant radius {ring.radius[0]}")
print(f"  angle spread fills [0, 2pi): std = {ring.angle.std():.3f} "
      f"(uniform would be {2 * np.pi / np.sqrt(12):.3f})")

# --- regime 2: CW seeding -> coherence transfer ----------------------------
theta_grid = np.linspace(0, 2 * np.pi, 128, endpoint=False)
print("\ncw injection, fringe visibility vs locking noise:")
for sigma in (0.0, 0.1, sigma_phi_for_visibility(0.983), 0.4):
    recs = fringe_scan(InjectionMode.cw(phase_noise_sigma=sigma), 1.0,
                       theta_grid, 2000, rng)
    v = fringe_visibility(recs)
    print(f"  sigma = {sigma:.4f} rad -> V = {v:.4f} "
          f"(law predicts {np.exp(-sigma**2 / 2):.4f})")

recs_off = fringe_scan(InjectionMode.off(), 1.0, theta_grid[:16], 40_000, rng)
print(f"  injection off -> V = {fringe_visibility(recs_off):.4f} (suppressed)")

# --- regime 3: modulated seeding -> deterministic phase steps ---------------
symbols = rng.integers(0, 4, 12)
seq = DifferentialPhaseSequence.mpsk(4, symbols)
train_mod = emit_pulse_train(13, 1.0, InjectionMode.modulated(seq), rng)
decoded = dual_basis_demodulate(train_mod)
steps = decoded.angle / (2 * np.pi / 4)
print("\nmodulated injection:")
print(f"  programmed QPSK symbols: {symbols.tolist()}")
print(f"  decoded symbols:         {np.rint(steps).astype(int).tolist()}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("\nmatplotlib not available; skipping the figure")
else:
    fig, axes = plt.subplots(1, 3, figsize=(13, 4))
    shown = ring[:4000]
    axes[0].scatter(shown.radius * np.cos(shown.angle),
                    shown.radius * np.sin(shown.angle), s=2, alpha=0.3)
    axes[0].set_title("no injection: IQ ring")
    axes[0].set_aspect("equal")

    for sigma in (0.0, sigma_phi_for_visibility(0.983), 0.4):
        recs = fringe_scan(InjectionMode.cw(phase_noise_sigma=sigma), 1.0,
                           theta_grid, 2000, rng)
        axes[1].plot(theta_grid, recs.intensity_out,
                     label=f"sigma={sigma:.3f}")
    axes[1].set_title("cw injection: fringes")
    axes[1].set_xlabel("demodulator phase (rad)")
    axes[1].legend(fontsize=8)

    axes[2].plot(steps, "o-")
    axes[2].set_title("modulated injection: decoded QPSK")
    axes[2].set_xlabel("symbol index")
    fig.tight_layout()
    fig.savefig("phase_encoding_regimes.png", dpi=120)
    print("\nwrote phase_encoding_regimes.png")
