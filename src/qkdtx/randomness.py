"""Phase-randomization QRNG: arcsine statistics, quantization, extraction.

Interfering equal-intensity pulses with uniformly random phase difference
yields I_out = I_in/2 * (1 + cos(phi)), whose density is the arcsine law
P(I) = 1 / (pi * sqrt(I * (I_in - I))). Raw samples are digitized to 8 bits,
validated (chi-square, autocorrelation, min-entropy) and condensed with a
Toeplitz extractor.

Importing this module loads numpy and qkdtx.optics only; scipy is imported
inside goodness_of_fit, the one function that needs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .optics import TWO_PI, port_intensities

QUANT_LEVELS = 256           # 8-bit digitizer
EXTRACTOR_MARGIN_BITS = 64   # security margin subtracted from the entropy budget
_BLOCK_BITS = 1 << 16        # Toeplitz hashing block size (input bits)


@dataclass
class QrngSampleSet:
    """Raw interference intensities plus (after quantization) their bytes."""

    intensities: np.ndarray
    input_intensity: float
    bytes: Optional[np.ndarray] = None

    def __post_init__(self):
        self.intensities = np.asarray(self.intensities, dtype=float)
        if self.input_intensity <= 0:
            raise ValueError("input_intensity must be > 0")
        if np.any((self.intensities < 0) | (self.intensities > self.input_intensity)):
            raise ValueError("intensities must lie in [0, input_intensity]")
        if self.bytes is not None:
            self.bytes = np.asarray(self.bytes, dtype=np.uint8)
            if self.bytes.size != self.intensities.size:
                raise ValueError("bytes and intensities must have equal length")

    @property
    def sample_count(self) -> int:
        return int(self.intensities.size)


@dataclass
class RandomnessReport:
    """Statistical summary of a quantized sample set."""

    histogram: np.ndarray
    chi_square: float
    p_value: float
    autocorr: np.ndarray
    min_entropy_bits: float

    def to_dict(self) -> dict:
        return {
            "histogram": self.histogram.tolist(),
            "chi_square": self.chi_square,
            "p_value": self.p_value,
            "autocorr": self.autocorr.tolist(),
            "min_entropy_bits": self.min_entropy_bits,
        }


# ---------------------------------------------------------------------------
# arcsine law
# ---------------------------------------------------------------------------

def arcsine_pdf(i_out, i_in):
    """Density 1 / (pi * sqrt(i_out * (i_in - i_out))) on (0, i_in).

    The endpoints are vertical asymptotes (fully destructive / constructive
    interference) and are rejected.
    """
    if i_in <= 0:
        raise ValueError("i_in must be > 0")
    i_out = np.asarray(i_out, dtype=float)
    if np.any((i_out <= 0) | (i_out >= i_in)):
        raise ValueError("i_out must lie strictly inside (0, i_in)")
    out = 1.0 / (np.pi * np.sqrt(i_out * (i_in - i_out)))
    return float(out) if out.ndim == 0 else out


def arcsine_cdf(i_out, i_in):
    """Cumulative distribution (2/pi) * arcsin(sqrt(i_out / i_in)) on [0, i_in]."""
    if i_in <= 0:
        raise ValueError("i_in must be > 0")
    i_out = np.asarray(i_out, dtype=float)
    if np.any((i_out < 0) | (i_out > i_in)):
        raise ValueError("i_out must lie in [0, i_in]")
    out = (2.0 / np.pi) * np.arcsin(np.sqrt(i_out / i_in))
    return float(out) if out.ndim == 0 else out


def sample_interference(n, i_in, rng) -> QrngSampleSet:
    """Draw n interference intensities with uniformly random phase.

    Equivalent in distribution to inverse-CDF sampling of the arcsine law.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if i_in <= 0:
        raise ValueError("i_in must be > 0")
    cos_phi = np.cos(rng.uniform(0.0, TWO_PI, int(n)))
    intensities, _ = port_intensities(cos_phi, 0.5 * i_in)
    return QrngSampleSet(intensities, i_in)


# ---------------------------------------------------------------------------
# quantization and statistics
# ---------------------------------------------------------------------------

def quantize(samples: QrngSampleSet, full_scale=None) -> QrngSampleSet:
    """Digitize to 8 bits: byte = floor(256 * I / full_scale), clamped to 255.

    full_scale defaults to the input intensity (digitizer exactly spans the
    interference range) and must not truncate the distribution.
    """
    if full_scale is None:
        full_scale = samples.input_intensity
    if full_scale <= 0:
        raise ValueError("full_scale must be > 0")
    if full_scale < samples.input_intensity:
        raise ValueError("full_scale must be >= the input intensity")
    raw = np.floor(QUANT_LEVELS * samples.intensities / full_scale)
    byte_vals = np.minimum(raw, QUANT_LEVELS - 1).astype(np.uint8)
    return QrngSampleSet(samples.intensities, samples.input_intensity, byte_vals)


def byte_histogram(byte_values) -> np.ndarray:
    """256-bin occupancy of a byte stream."""
    return np.bincount(np.asarray(byte_values, dtype=np.uint8), minlength=QUANT_LEVELS)


def byte_autocorrelation(byte_values, max_lag=50) -> np.ndarray:
    """Lag 1..max_lag Pearson autocorrelation coefficients.

    Uses the standard autocovariance estimator normalized by the total
    variance. Raises on constant streams (undefined variance) and on streams
    too short for the requested lag.
    """
    x = np.asarray(byte_values, dtype=float)
    if x.size <= max_lag + 1:
        raise ValueError(f"need more than {max_lag + 1} samples for lag {max_lag}")
    x = x - x.mean()
    denom = float(np.dot(x, x))
    if denom == 0.0:
        raise ValueError("constant byte stream: autocorrelation is undefined")
    return np.array([np.dot(x[:-k], x[k:]) / denom for k in range(1, max_lag + 1)])


def _bin_masses(i_in, full_scale) -> np.ndarray:
    """Exact arcsine probability mass of each of the 256 digitizer bins."""
    edges = np.arange(QUANT_LEVELS + 1) * (full_scale / QUANT_LEVELS)
    edges = np.minimum(edges, i_in)
    cdf = arcsine_cdf(edges, i_in)
    masses = np.diff(cdf)
    masses[-1] += 1.0 - cdf[-1]  # clamp path: top bin absorbs I == full_scale
    return masses


def goodness_of_fit(histogram, i_in, full_scale=None):
    """Chi-square of an 8-bit histogram against the exact arcsine bin masses.

    Edge bins are merged inward until every counted bin expects at least 5
    events (the asymptotes otherwise break the chi-square approximation);
    the p-value uses bins_used - 1 degrees of freedom.

    Returns
    -------
    (chi_square, p_value)
    """
    hist = np.asarray(histogram, dtype=float)
    if hist.size != QUANT_LEVELS:
        raise ValueError(f"histogram must have {QUANT_LEVELS} bins")
    n = hist.sum()
    if n < 1e4:
        raise ValueError("need at least 1e4 samples for a stable chi-square")
    if full_scale is None:
        full_scale = i_in
    expected = n * _bin_masses(i_in, full_scale)

    lo, hi = 0, QUANT_LEVELS - 1
    while hi > lo and expected[lo] < 5.0:
        expected[lo + 1] += expected[lo]
        hist[lo + 1] += hist[lo]
        lo += 1
    while hi > lo and expected[hi] < 5.0:
        expected[hi - 1] += expected[hi]
        hist[hi - 1] += hist[hi]
        hi -= 1
    expected = expected[lo:hi + 1]
    observed = hist[lo:hi + 1]
    if expected.size < 2:
        raise ValueError("degenerate histogram: all mass in one bin")

    # chdtrc is the function scipy.stats.chi2.sf evaluates; imported here so
    # that importing qkdtx does not pay for loading scipy.
    from scipy.special import chdtrc

    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    p = float(chdtrc(expected.size - 1, chi2))
    return chi2, p


def min_entropy(histogram) -> float:
    """Min-entropy per byte, -log2(max_k p_k)."""
    hist = np.asarray(histogram, dtype=float)
    n = hist.sum()
    if hist.size == 0 or n <= 0:
        raise ValueError("empty histogram")
    return float(-np.log2(hist.max() / n))


def analyze(samples: QrngSampleSet, max_lag=50, full_scale=None) -> RandomnessReport:
    """Full statistical report for a quantized sample set."""
    if samples.bytes is None:
        raise ValueError("samples must be quantized first")
    hist = byte_histogram(samples.bytes)
    chi2, p = goodness_of_fit(hist, samples.input_intensity, full_scale)
    ac = byte_autocorrelation(samples.bytes, max_lag)
    return RandomnessReport(hist, chi2, p, ac, min_entropy(hist))


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------

def entropy_budget_bits(byte_values) -> int:
    """Extractable bits: floor(n_bytes * min_entropy) minus the safety margin."""
    hist = byte_histogram(byte_values)
    budget = int(np.floor(hist.sum() * min_entropy(hist))) - EXTRACTOR_MARGIN_BITS
    return max(budget, 0)


def _fft_length(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= n, a length numpy's FFT handles fast."""
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def toeplitz_hash(bits, diagonal_bits, n_out) -> np.ndarray:
    """Multiply a bit vector by a binary Toeplitz matrix over GF(2).

    The matrix T (n_out x n_in) is defined by its diagonal sequence t of
    length n_in + n_out - 1 via T[i, j] = t[i - j + n_in - 1]; t[n_in-1:]
    is the first column and t[n_in-1::-1] the first row. Output bit i is the
    parity of entry n_in - 1 + i of the integer convolution t * x.

    The convolution is one circular float64 FFT convolution of length
    L = _fft_length(n_in + n_out - 1). Linear entries at or beyond L wrap
    onto entries 0 .. n_in - 2 only, which are discarded, so the kept
    entries are exact integer sums up to rounding error. If that error
    reaches 0.25 the parity could be wrong, and ArithmeticError is raised
    instead of returning bits.
    """
    x = np.asarray(bits, dtype=np.uint8) & 1
    t = np.asarray(diagonal_bits, dtype=np.uint8) & 1
    n_in = x.size
    if n_out < 0:
        raise ValueError("n_out must be >= 0")
    if n_out == 0:
        return np.zeros(0, dtype=np.uint8)
    if n_in == 0:
        raise ValueError("bits must not be empty")
    if t.size != n_in + n_out - 1:
        raise ValueError("diagonal sequence must have n_in + n_out - 1 bits")
    n_fft = _fft_length(t.size)
    spectrum = np.fft.rfft(t.astype(np.float64), n_fft)
    spectrum *= np.fft.rfft(x.astype(np.float64), n_fft)
    conv = np.fft.irfft(spectrum, n_fft)[n_in - 1:n_in - 1 + n_out]
    counts = np.rint(conv)
    if np.max(np.abs(conv - counts)) >= 0.25:
        raise ArithmeticError("FFT rounding error too large for an exact parity")
    return (counts.astype(np.int64) & 1).astype(np.uint8)


def extract_bits(byte_values, out_len_bits, seed_matrix_seed) -> np.ndarray:
    """Condense raw bytes into nearly uniform bits by Toeplitz hashing.

    The input bit string is hashed in 64-Kibit blocks, each with fresh
    matrix bits drawn from a PRNG seeded by seed_matrix_seed, so the result
    is deterministic for fixed inputs and seed. out_len_bits may not exceed
    the min-entropy budget less a 64-bit margin.
    """
    byte_values = np.asarray(byte_values, dtype=np.uint8)
    if out_len_bits < 0:
        raise ValueError("out_len_bits must be >= 0")
    if out_len_bits == 0:
        return np.zeros(0, dtype=np.uint8)
    budget = entropy_budget_bits(byte_values)
    if out_len_bits > budget:
        raise ValueError(
            f"requested {out_len_bits} bits exceeds the entropy budget of "
            f"{budget} bits (min-entropy minus {EXTRACTOR_MARGIN_BITS}-bit margin)")

    bits = np.unpackbits(byte_values)
    n_in = bits.size
    starts = np.arange(0, n_in, _BLOCK_BITS)
    sizes = np.minimum(_BLOCK_BITS, n_in - starts)
    # spread the requested output across blocks proportionally to block size
    quota = np.floor(out_len_bits * np.cumsum(sizes) / n_in).astype(np.int64)
    outs = np.diff(np.concatenate(([0], quota)))

    matrix_rng = np.random.Generator(np.random.PCG64(seed_matrix_seed))
    pieces = []
    for start, size, m in zip(starts, sizes, outs):
        if m == 0:
            continue
        t = matrix_rng.integers(0, 2, size=int(size + m - 1), dtype=np.uint8)
        pieces.append(toeplitz_hash(bits[start:start + size], t, int(m)))
    return np.concatenate(pieces) if pieces else np.zeros(0, dtype=np.uint8)
