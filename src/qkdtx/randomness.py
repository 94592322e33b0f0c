"""Phase-randomization QRNG: arcsine statistics, quantization, extraction.

Interfering equal-intensity pulses with uniformly random phase difference
yields I_out = I_in/2 * (1 + cos(phi)), whose density is the arcsine law
P(I) = 1 / (pi * sqrt(I * (I_in - I))). The digitizer spans [0, I_in], so
samples are float arrays of I/I_in in [0, 1]. They are digitized to uint8
bytes, validated (chi-square, autocorrelation, min-entropy) and condensed
with a Toeplitz extractor.

Sampling, digitizing, the autocorrelation's lag sums and extraction run on
every usable CPU: the caller and n - 1 threads take chunks, lags or block
pairs from one queue, and each item writes only its own slice of the output,
so every result is the same for any CPU count. Importing this module loads numpy and qkdtx.optics only; scipy and
the thread pool are imported inside the functions that use them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .optics import TWO_PI, _count, port_intensities

QUANT_LEVELS = 256           # 8-bit digitizer
EXTRACTOR_MARGIN_BITS = 64   # security margin subtracted from each block's budget
_BLOCK_BITS = 1 << 16        # Toeplitz hashing block size (input bits)
_LAG_ROW = 512               # autocorrelation row width: float32 row sums stay exact
_CHUNK = 1 << 16             # elements per work item of sampling and digitizing


@dataclass
class RandomnessReport:
    """Statistical summary of a quantized byte stream."""

    histogram: np.ndarray
    chi_square: float
    p_value: float
    autocorr: np.ndarray
    min_entropy_bits: float

    def to_dict(self) -> dict:
        return {name: value.tolist() if isinstance(value, np.ndarray) else value
                for name, value in vars(self).items()}


# ---------------------------------------------------------------------------
# one work queue on every CPU
# ---------------------------------------------------------------------------

def _usable_cpus() -> int:
    """CPUs this process may run on."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _on_every_cpu(work, items) -> list:
    """[work(item) for item in items], the caller and n - 1 threads (n usable
    CPUs, at most one thread per item) taking items from one queue.

    One CPU or one item starts no thread. An error in any thread propagates
    once the queue is empty. work must call none of this module's public
    functions: it runs on worker threads, and a profiler that wraps those
    functions keeps one stack of calls for every thread.
    """
    results = [None] * len(items)
    queue = enumerate(items)
    def drain():  # next() on an enumerated list holds the GIL: each item is taken once
        for i, item in queue:
            results[i] = work(item)
    n_workers = min(_usable_cpus(), len(items)) - 1
    if n_workers < 1:
        drain()
        return results
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(n_workers) as pool:
        futures = [pool.submit(drain) for _ in range(n_workers)]
        drain()
        for future in futures:
            future.result()
    return results


def _chunks(values) -> list[np.ndarray]:
    """Consecutive _CHUNK-element views of values flattened (a copy if it is
    not contiguous)."""
    flat = values.reshape(-1)
    return [flat[i:i + _CHUNK] for i in range(0, flat.size, _CHUNK)]


# ---------------------------------------------------------------------------
# arcsine law
# ---------------------------------------------------------------------------

def arcsine_cdf(i_out, i_in):
    """Cumulative distribution (2/pi) * arcsin(sqrt(i_out / i_in)) on [0, i_in]."""
    if i_in <= 0:
        raise ValueError("i_in must be > 0")
    i_out = np.asarray(i_out, dtype=float)
    if np.any((i_out < 0) | (i_out > i_in)):
        raise ValueError("i_out must lie in [0, i_in]")
    out = (2.0 / np.pi) * np.arcsin(np.sqrt(i_out / i_in))
    return float(out) if out.ndim == 0 else out


def sample_interference(n, rng) -> np.ndarray:
    """Draw n interference intensities I/I_in in [0, 1] with random phase.

    Equivalent in distribution to inverse-CDF sampling of the arcsine law.
    The phases come from one rng.uniform call on the caller; cos and the bar
    port then overwrite them chunk by chunk on every CPU.
    """
    out = np.ascontiguousarray(rng.uniform(0.0, TWO_PI, _count(n, "n", 1)), dtype=float)
    def bar_port(phases):
        phases[:] = port_intensities(np.cos(phases, out=phases), 0.5)[0]
    _on_every_cpu(bar_port, _chunks(out))
    return out


# ---------------------------------------------------------------------------
# quantization and statistics
# ---------------------------------------------------------------------------

def quantize(intensities) -> np.ndarray:
    """Digitize I/I_in to 8 bits: byte = floor(256 * I/I_in), clamped to 255.

    Values off [0, 1], NaN included, miss the digitizer and are rejected.
    Chunks are checked and digitized on every CPU into the uint8 output,
    which keeps the input's shape.
    """
    x = np.asarray(intensities, dtype=float)
    out = np.empty(x.shape, dtype=np.uint8)
    def digitize(chunk):
        values, dest = chunk
        if not np.all((values >= 0.0) & (values <= 1.0)):
            raise ValueError("intensities must lie in [0, 1] (units of I_in)")
        raw = QUANT_LEVELS * values
        np.floor(raw, out=raw)
        np.minimum(raw, QUANT_LEVELS - 1, out=raw)
        dest[:] = raw
    _on_every_cpu(digitize, list(zip(_chunks(x), _chunks(out))))
    return out


def byte_histogram(byte_values) -> np.ndarray:
    """256-bin occupancy of a byte stream."""
    return np.bincount(np.asarray(byte_values, dtype=np.uint8), minlength=QUANT_LEVELS)


def _quantized(byte_values, caller) -> np.ndarray:
    """byte_values as an array, if it holds the uint8 bytes of quantize."""
    byte_values = np.asarray(byte_values)
    if byte_values.dtype != np.uint8:
        raise ValueError(f"{caller} needs the uint8 bytes of quantize, not {byte_values.dtype}")
    return byte_values


def _lag_sum(c, k) -> int:
    """sum(c[i] * c[i + k]) over i < c.size - k, exactly, for float32 |c| <= 128.

    Each 512-wide row sum is an integer of magnitude at most 128^2 * 512 =
    2^23, inside float32's exact integers in any order of summation; the
    rows are summed in float64 (exact below 2^53) and the short tail apart.
    """
    m = c.size - k
    full = m - m % _LAG_ROW
    rows = np.einsum("ij,ij->i", c[:full].reshape(-1, _LAG_ROW),
                     c[k:k + full].reshape(-1, _LAG_ROW))
    return int(rows.sum(dtype=np.float64)) + int(np.einsum("i,i->", c[full:m], c[k + full:]))


def byte_autocorrelation(byte_values, max_lag=50) -> np.ndarray:
    """Lag 1..max_lag Pearson autocorrelation coefficients of uint8 bytes.

    Uses the standard autocovariance estimator normalized by the total
    variance, each coefficient one correctly rounded division (Python's
    int / int) of two exact integers. With c = byte - 128, one float32 copy,
    S the sum of c, h_k and t_k the sums of its first and last k entries and
    P_k = sum c[i] c[i + k] from _lag_sum (exact integers, so the lags may
    run on every CPU in any order), n^2 times the lag-k
    autocovariance is n^2 P_k - n S (2 S - h_k - t_k) + (n - k) S^2, and n^2
    times the variance is n^2 P_0 - n S^2. No BLAS routine runs: numpy's
    OpenBLAS dot spins a helper thread that then competes with the worker of
    a following extract_bits (see README). Raises on dtypes other than
    uint8, on max_lag below 1, on constant streams (undefined variance) and
    on streams too short for the requested lag.
    """
    b = _quantized(byte_values, "byte_autocorrelation")
    if max_lag < 1:
        raise ValueError("max_lag must be >= 1")
    n = b.size
    if n <= max_lag + 1:
        raise ValueError(f"need more than {max_lag + 1} samples for lag {max_lag}")
    c = b.astype(np.float32)
    c -= 128.0
    total = int(b.sum(dtype=np.int64)) - 128 * n  # S
    ends = (np.cumsum(b[:max_lag], dtype=np.int64)  # bytes of the first k plus the last k
            + np.cumsum(b[:-max_lag - 1:-1], dtype=np.int64)).tolist()
    sums = _on_every_cpu(lambda k: _lag_sum(c, k), list(range(max_lag + 1)))
    denom = n * (n * sums[0] - total * total)
    if denom == 0:
        raise ValueError("constant byte stream: autocorrelation is undefined")
    return np.array([(n * n * sums[k] - n * total * (2 * total - ends[k - 1] + 256 * k)
                      + (n - k) * total * total) / denom for k in range(1, max_lag + 1)])


def _bin_masses() -> np.ndarray:
    """Exact arcsine probability mass of each of the 256 digitizer bins."""
    return np.diff(arcsine_cdf(np.arange(QUANT_LEVELS + 1) / QUANT_LEVELS, 1.0))


def goodness_of_fit(histogram) -> tuple[float, float]:
    """(chi_square, p_value) of an 8-bit histogram against the exact arcsine
    bin masses.

    All 256 bins are counted, with no merging, and the p-value uses 255
    degrees of freedom. The lightest bins are the two central ones (mass
    0.00249 each) and the edge bins the heaviest (0.0398 each), so at the
    required 1e4 samples or more every bin expects at least 24.9 events,
    well above the 5 the chi-square approximation needs.
    """
    hist = np.asarray(histogram, dtype=float)
    if hist.size != QUANT_LEVELS:
        raise ValueError(f"histogram must have {QUANT_LEVELS} bins")
    n = hist.sum()
    if n < 1e4:
        raise ValueError("need at least 1e4 samples for a stable chi-square")
    expected = n * _bin_masses()
    from scipy.special import chdtrc  # the kernel of scipy.stats.chi2.sf, loaded on first use
    chi2 = float(np.sum((hist - expected) ** 2 / expected))
    return chi2, float(chdtrc(QUANT_LEVELS - 1, chi2))


def min_entropy(histogram) -> float:
    """Min-entropy per byte, -log2(max_k p_k)."""
    hist = np.asarray(histogram, dtype=float)
    n = hist.sum()
    if hist.size == 0 or n <= 0:
        raise ValueError("empty histogram")
    return float(-np.log2(hist.max() / n))


def analyze(byte_values, max_lag=50) -> RandomnessReport:
    """Full statistical report for the uint8 output of quantize."""
    byte_values = _quantized(byte_values, "analyze")
    hist = byte_histogram(byte_values)
    chi2, p = goodness_of_fit(hist)
    ac = byte_autocorrelation(byte_values, max_lag)
    return RandomnessReport(hist, chi2, p, ac, min_entropy(hist))


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------

def _block_quotas(byte_values) -> np.ndarray:
    """Each hashing block's max(floor(n_b * h) - margin, 0) bits for n_b bytes, with
    h the arcsine law's min-entropy per byte capped by the sample's plug-in value."""
    hist = byte_histogram(byte_values)
    h = min(min_entropy(hist), -np.log2(_bin_masses().max()))
    n, block_bytes = int(hist.sum()), _BLOCK_BITS // 8
    sizes = np.minimum(block_bytes, n - np.arange(0, n, block_bytes))
    return np.maximum(np.floor(sizes * h).astype(np.int64) - EXTRACTOR_MARGIN_BITS, 0)


def entropy_budget_bits(byte_values) -> int:
    """Extractable bits of the uint8 output of quantize: the sum of the
    hashing blocks' quotas."""
    return int(_block_quotas(_quantized(byte_values, "entropy_budget_bits")).sum())


def _convolution_parity(vectors, t_spectrum, n_fft, first, n_outs) -> list[np.ndarray]:
    """Parities of entries first .. first + n_out - 1 of the integer
    convolution of each of one or two bit vectors with the sequence whose
    length-n_fft rFFT is t_spectrum, one array per vector and its n_out.

    A pair shares one forward and one inverse FFT: x = x_a + 2^s x_b, with s
    the bit length of the longer vector, so every entry of x_a's convolution
    (at most n_a ones) stays below 2^s and the lanes never mix. At 64-Kibit
    blocks s = 17 and every packed entry lies below 2^34, well inside
    float64's exact integers. Rounded to v, entry k gives parity v & 1 for
    x_a and (v >> s) & 1 for x_b. ArithmeticError is raised if |v - rint v|
    reaches 0.25, where a parity could be wrong. Full-size pairs stay below
    about 1e-6 (2^-20), on the seed-7 run and on all-ones blocks; a third
    lane at 2^34 would scale that error by about 2^17, to about 0.06.
    """
    width = max(v.size for v in vectors)
    shift = width.bit_length()
    packed = np.zeros(width)  # one buffer, built in place: x_b, shifted, plus x_a
    packed[:vectors[-1].size] = vectors[-1]
    if len(vectors) == 2:
        packed *= 2.0 ** shift
        packed[:vectors[0].size] += vectors[0]
    spectrum = np.fft.rfft(packed, n_fft)
    del packed  # not held through the inverse FFT
    spectrum *= t_spectrum
    conv = np.fft.irfft(spectrum, n_fft)[first:first + max(n_outs)]
    counts = np.rint(conv)
    conv -= counts
    if np.max(np.abs(conv, out=conv)) >= 0.25:
        raise ArithmeticError("FFT rounding error too large for an exact parity")
    counts = counts.astype(np.int64)
    return [((counts[:n_out] >> lane * shift) & 1).astype(np.uint8)
            for lane, n_out in enumerate(n_outs)]


def toeplitz_hash(bits, diagonal_bits, n_out) -> np.ndarray:
    """Multiply a bit vector by a binary Toeplitz matrix over GF(2).

    T (n_out x n_in) has the diagonal sequence t of n_in + n_out - 1 bits,
    T[i, j] = t[i - j + n_in - 1], so output bit i is the parity of entry
    n_in - 1 + i of the integer convolution t * x. That is one circular
    float64 FFT convolution of length L = next_fast_len(t.size, real=True),
    whose wrapped entries land on indices 0 .. n_in - 2 only, so the kept
    ones are exact up to rounding. ArithmeticError is raised if the rounding
    error reaches 0.25, where the parity could be wrong.
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
    from scipy.fft import next_fast_len
    n_fft = next_fast_len(t.size, real=True)
    return _convolution_parity([x], np.fft.rfft(t.astype(np.float64), n_fft),
                               n_fft, n_in - 1, [n_out])[0]


def extract_bits(byte_values, out_len_bits, seed_matrix_seed) -> np.ndarray:
    """Condense the uint8 bytes of quantize into nearly uniform bits by
    Toeplitz hashing.

    Blocks of W = min(64 Ki, n_in) input bits get m_b output bits each, split
    from out_len_bits by cumulative floors over the block quotas; at a 64-bit
    margin the leftover hash lemma puts each block within 2^-32 of uniform,
    and the errors add over blocks. One max(m_b) x W Toeplitz matrix from a
    PCG64 PRNG seeded by seed_matrix_seed serves every block through its first
    m_b rows and first n_b columns. Consecutive blocks are hashed in pairs,
    one forward and one inverse FFT per pair (63 pairs instead of 126
    blocks at 1,025,000 bytes; see _convolution_parity), and the pairs go
    through _on_every_cpu's queue, each writing its own slices of the output,
    so the output does not depend on the CPU count.
    """
    byte_values = _quantized(byte_values, "extract_bits")
    if out_len_bits < 0:
        raise ValueError("out_len_bits must be >= 0")
    if out_len_bits == 0:
        return np.zeros(0, dtype=np.uint8)
    quotas = _block_quotas(byte_values)
    budget = int(quotas.sum())
    if out_len_bits > budget:
        raise ValueError(f"requested {out_len_bits} bits exceeds the entropy budget of {budget}"
                         f" bits (min-entropy less {EXTRACTOR_MARGIN_BITS} bits per block)")

    ends = out_len_bits * np.cumsum(quotas) // budget  # integer: no share exceeds its quota
    width, block_bytes = min(_BLOCK_BITS, 8 * byte_values.size), _BLOCK_BITS // 8
    from scipy.fft import next_fast_len
    t = np.random.Generator(np.random.PCG64(seed_matrix_seed)).integers(
        0, 2, width + int(np.diff(ends, prepend=0).max()) - 1, dtype=np.uint8)
    n_fft = next_fast_len(t.size, real=True)
    t_spectrum = np.fft.rfft(t.astype(np.float64), n_fft)
    out = np.empty(out_len_bits, dtype=np.uint8)
    blocks = [(byte_values[b * block_bytes:(b + 1) * block_bytes], dest)
              for b, dest in enumerate(np.split(out, ends[:-1])) if dest.size]
    def hash_pair(pair):
        byte_blocks, dests = zip(*pair)
        # kept entries width - 1 .. width - 2 + m_b; wrapped ones land below n_b - 1
        parities = _convolution_parity([np.unpackbits(b) for b in byte_blocks], t_spectrum,
                                       n_fft, width - 1, [dest.size for dest in dests])
        for dest, parity in zip(dests, parities):
            dest[:] = parity
    _on_every_cpu(hash_pair, [blocks[i:i + 2] for i in range(0, len(blocks), 2)])
    return out
