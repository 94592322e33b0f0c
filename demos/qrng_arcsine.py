#!/usr/bin/env python3
"""Phase-randomization QRNG end to end.

Samples interference intensities of phase-random pulses (in units of the
input intensity I_in), digitizes them to 8 bits, checks the arcsine shape
(chi-square), the byte autocorrelation and the min-entropy, then condenses
the bytes into nearly uniform bits with the Toeplitz extractor.
"""

import numpy as np

from qkdtx.randomness import (
    analyze,
    byte_autocorrelation,
    entropy_budget_bits,
    extract_bits,
    quantize,
    sample_interference,
)

N = 1_025_000
rng = np.random.default_rng(22)

raw = quantize(sample_interference(N, rng))
report = analyze(raw, max_lag=50)

print(f"{N} interference events, 8-bit digitizer")
print(f"  chi-square vs arcsine bin masses: {report.chi_square:.1f} "
      f"(p = {report.p_value:.3f})")
print(f"  max |autocorrelation| lags 1-50: {np.max(np.abs(report.autocorr)):.2e}")
print(f"  min-entropy: {report.min_entropy_bits:.3f} bits/byte")

budget = entropy_budget_bits(raw)
bits = extract_bits(raw, budget, seed_matrix_seed=99)
ones = int(bits.sum())
print(f"\nToeplitz extraction: {raw.size} bytes -> {budget} bits")
print(f"  ones fraction {ones / bits.size:.5f} (ideal 0.5)")
out_bytes = np.packbits(bits)[: bits.size // 8]
print(f"  extracted-byte max |autocorrelation|: "
      f"{np.max(np.abs(byte_autocorrelation(out_bytes, 50))):.2e}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("\nmatplotlib not available; skipping the figure")
else:
    fig, ax = plt.subplots(figsize=(6, 4))
    centers = (np.arange(256) + 0.5) / 256
    ax.bar(centers, report.histogram / N * 256, width=1 / 256, alpha=0.6,
           label="measured")
    interior = np.linspace(0.002, 0.998, 400)
    ax.plot(interior, 1 / (np.pi * np.sqrt(interior * (1 - interior))), "k-",
            lw=1.5, label="arcsine density")
    ax.set_xlabel("output intensity / I_in")
    ax.set_ylabel("density")
    ax.set_ylim(0, 8)
    ax.legend()
    fig.tight_layout()
    fig.savefig("qrng_arcsine.png", dpi=120)
    print("\nwrote qrng_arcsine.png")
