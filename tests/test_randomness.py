"""Tests for the arcsine QRNG statistics and extraction pipeline."""

import hashlib
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len
from scipy.stats import chi2 as chi2_dist
from scipy.stats import kstest

import qkdtx
from qkdtx import cli, randomness
from qkdtx.randomness import (
    _bin_masses,
    analyze,
    arcsine_cdf,
    byte_autocorrelation,
    byte_histogram,
    entropy_budget_bits,
    extract_bits,
    goodness_of_fit,
    min_entropy,
    quantize,
    sample_interference,
    toeplitz_hash,
)


def make_rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


@pytest.fixture(scope="module")
def seed7_bytes():
    """The qkdtx qrng default run: 1,025,000 events from PCG64(7)."""
    return quantize(sample_interference(1_025_000, make_rng(7)))


@pytest.fixture(scope="module")
def seed7_extract(seed7_bytes):
    """(budget, bits): the seed-7 extraction of the full entropy budget."""
    budget = entropy_budget_bits(seed7_bytes)
    return budget, extract_bits(seed7_bytes, budget, seed_matrix_seed=7)


#: sha256 of the packed seed-7 extraction of the full entropy budget
SEED7_EXTRACT_SHA256 = "0533b4519b578ff9863d1588cfa39b621bb4ed05636df7ef2e815954ee8b1c98"


def block_split(byte_values, out_len_bits, block_bits=1 << 16):
    """(first byte, n_b bytes, m_b output bits) of each hashing block. The
    quota is max(floor(n_b * h) - 64, 0), h the arcsine law's min-entropy per
    byte capped by the sample's, and out_len_bits is split by cumulative
    floors over the quotas."""
    b = np.asarray(byte_values, dtype=np.uint8)
    h = min(-np.log2(np.bincount(b, minlength=256).max() / b.size),
            -np.log2(_bin_masses().max()))
    starts = np.arange(0, b.size, block_bits // 8)
    sizes = np.minimum(block_bits // 8, b.size - starts)
    quotas = np.maximum(np.floor(sizes * h).astype(np.int64) - 64, 0)
    ends = out_len_bits * np.cumsum(quotas) // quotas.sum()
    return starts, sizes, np.diff(ends, prepend=0)


def serial_extract(byte_values, out_len_bits, seed_matrix_seed):
    """One-seed reference for extract_bits, block after block on the calling
    thread. One diagonal t of W + max(m_b) - 1 bits (W the block width) gives
    block b the diagonal t[W - n_b : W + m_b - 1]: the first m_b rows and the
    first n_b columns of one max(m_b) x W Toeplitz matrix."""
    bits = np.unpackbits(np.asarray(byte_values, dtype=np.uint8))
    starts, sizes, shares = block_split(byte_values, out_len_bits)
    w = min(1 << 16, bits.size)
    t = make_rng(seed_matrix_seed).integers(0, 2, w + shares.max() - 1, dtype=np.uint8)
    pieces = [toeplitz_hash(bits[8 * s:8 * (s + n)], t[w - 8 * n:w + m - 1], int(m))
              for s, n, m in zip(starts, sizes, shares) if m]
    return np.concatenate(pieces) if pieces else np.zeros(0, dtype=np.uint8)


def traced_peak_mb(fn, *args):
    """Peak traced allocation, in MB, while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def dense_toeplitz(t, n_in, n_out):
    """The n_out x n_in matrix T[i, j] = t[i - j + n_in - 1], written out."""
    rows = np.arange(n_out)[:, None]
    cols = np.arange(n_in)[None, :]
    return t[rows - cols + n_in - 1]


class ConstantPhaseRng:
    """Degenerate stand-in: every uniform draw lands on the same phase."""

    def __init__(self, phase):
        self.phase = phase

    def uniform(self, lo, hi, n):
        return np.full(n, self.phase)


# ---------------------------------------------------------------------------
# density / distribution
# ---------------------------------------------------------------------------

def test_cdf_reference_values():
    assert arcsine_cdf(0.0, 1.0) == 0.0
    assert arcsine_cdf(1.0, 1.0) == pytest.approx(1.0)
    assert arcsine_cdf(0.5, 1.0) == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(ValueError):
        arcsine_cdf(-0.1, 1.0)
    with pytest.raises(ValueError):
        arcsine_cdf(1.1, 1.0)


def test_cdf_pdf_consistency():
    # central-difference derivative of the CDF matches the density
    x = np.linspace(0.01, 0.99, 1000)
    h = 1e-7
    deriv = (arcsine_cdf(x + h, 1.0) - arcsine_cdf(x - h, 1.0)) / (2 * h)
    assert np.allclose(deriv, 1.0 / (np.pi * np.sqrt(x * (1.0 - x))), rtol=1e-6)


def test_sample_mean_is_half_input():
    n = 1_025_000
    s = sample_interference(n, make_rng(1))
    sigma = 0.5 / np.sqrt(2)  # std of I/I_in under the arcsine law
    assert abs(s.mean() - 0.5) < 3 * sigma / np.sqrt(n)


def test_degenerate_phase_gives_zero_output():
    s = sample_interference(100, ConstantPhaseRng(np.pi))
    assert np.allclose(s, 0.0, atol=1e-12)


def test_sample_matches_arcsine_ks():
    n = 1_000_000
    s = sample_interference(n, make_rng(2))
    stat = kstest(s, lambda x: arcsine_cdf(x, 1.0)).statistic
    assert stat < 1.63 / np.sqrt(n)  # Kolmogorov critical value at alpha = 0.01


def test_sampling_equivalence_inverse_cdf():
    # same distribution via inverse-CDF draws: I = I_in sin^2(pi u / 2)
    n = 100_000
    direct = sample_interference(n, make_rng(3))
    u = make_rng(4).uniform(0, 1, n)
    inverse = np.sin(np.pi * u / 2.0) ** 2
    def ecdf(data):
        xs = np.sort(data)
        return xs
    xs = ecdf(direct); ys = ecdf(inverse)
    grid = np.linspace(0.0, 1.0, 2001)
    d = np.max(np.abs(np.searchsorted(xs, grid) / n
                      - np.searchsorted(ys, grid) / n))
    assert d < 2.0 / np.sqrt(n)


def test_sample_validation():
    with pytest.raises(ValueError, match="n must be >= 1"):
        sample_interference(0, make_rng(0))
    # a count is an integer: no float is truncated, and a bool is no count
    for bad in (2.7, True, np.float64(3.0)):
        with pytest.raises(ValueError, match="n must be an integer"):
            sample_interference(bad, make_rng(0))
    assert sample_interference(np.int32(3), make_rng(0)).shape == (3,)


# ---------------------------------------------------------------------------
# quantization
# ---------------------------------------------------------------------------

def test_quantize_reference_points():
    b = quantize(np.array([0.0, 1.0, 0.5, 255 / 256, np.nextafter(1 / 256, 0)]))
    assert b.dtype == np.uint8
    assert b.tolist() == [0, 255, 128, 255, 0]


def test_quantize_validation():
    # intensities are in units of I_in: anything off [0, 1] misses the digitizer
    for bad in (-0.1, 1.5, np.nan):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            quantize(np.array([0.5, bad]))


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=50))
def test_quantizer_monotone(vals):
    b = quantize(np.array(vals)).astype(int)
    order = np.argsort(vals, kind="stable")
    assert np.all(np.diff(b[order]) >= 0)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def test_autocorr_constant_stream_errors():
    with pytest.raises(ValueError, match="constant"):
        byte_autocorrelation(np.full(1000, 7, dtype=np.uint8), 5)


def test_autocorr_insufficient_samples():
    with pytest.raises(ValueError):
        byte_autocorrelation(np.arange(10, dtype=np.uint8), 20)
    for lag in (0, -5):
        with pytest.raises(ValueError, match="max_lag"):
            byte_autocorrelation(np.arange(1000, dtype=np.uint8), lag)


def test_autocorr_duplicated_stream():
    base = make_rng(5).integers(0, 256, 100_000)
    dup = np.repeat(base, 2).astype(np.uint8)
    c = byte_autocorrelation(dup, 2)
    assert abs(c[0] - 0.5) < 0.01
    assert abs(c[1]) < 0.01


def test_autocorr_iid_small():
    n = 200_000
    b = make_rng(6).integers(0, 256, n).astype(np.uint8)
    c = byte_autocorrelation(b, 50)
    assert np.max(np.abs(c)) < 5 * (1 / np.sqrt(n)) + 1e-4


def test_goodness_of_fit_self_consistency():
    b = quantize(sample_interference(100_000, make_rng(7)))
    chi2, p = goodness_of_fit(byte_histogram(b))
    assert p > 0.01


def test_goodness_of_fit_p_value_is_chi2_sf(seed7_bytes):
    hist = byte_histogram(seed7_bytes)
    chi2, p = goodness_of_fit(hist)
    assert p == 0.5465583074091717
    # all 256 bins are counted: 255 degrees of freedom
    assert p == chi2_dist.sf(chi2, df=255)


def test_goodness_of_fit_rejects_uniform():
    b = make_rng(8).integers(0, 256, 100_000)
    chi2, p = goodness_of_fit(byte_histogram(b))
    assert p < 1e-6


def test_goodness_of_fit_exact_expected_counts():
    # histogram equal to the exact expected counts scores chi-square zero
    n = 1_000_000
    hist = n * _bin_masses()
    chi2, p = goodness_of_fit(hist)
    assert chi2 == pytest.approx(0.0, abs=1e-18)
    assert p == pytest.approx(1.0)


def test_goodness_of_fit_degenerate():
    # all mass in one bin is a valid input that fails the fit outright
    hist = np.zeros(256)
    hist[0] = 1e6
    assert goodness_of_fit(hist)[1] == 0.0
    with pytest.raises(ValueError, match="256 bins"):
        goodness_of_fit(np.ones(10))
    with pytest.raises(ValueError, match="1e4"):
        goodness_of_fit(np.ones(256))  # fewer than 1e4 samples
    # at exactly 1e4 samples the lightest bin still expects 24.9 events
    assert 1e4 * _bin_masses().min() == pytest.approx(24.87, abs=0.01)
    assert goodness_of_fit(1e4 * _bin_masses())[1] == pytest.approx(1.0)


def test_min_entropy_reference_points():
    assert min_entropy(np.ones(256)) == pytest.approx(8.0)
    single = np.zeros(256)
    single[17] = 100
    assert min_entropy(single) == 0.0
    with pytest.raises(ValueError):
        min_entropy(np.zeros(256))
    # ideal arcsine at full scale: the top bin dominates
    masses = _bin_masses()
    want = -np.log2(1 - arcsine_cdf(255 / 256, 1.0))
    assert -np.log2(masses.max()) == pytest.approx(want, rel=1e-12)
    assert want == pytest.approx(4.65055, abs=1e-4)
    assert min_entropy(1_000_000 * masses) == pytest.approx(want, rel=1e-12)


def test_histogram_symmetry_about_center():
    # I and I_in - I are identically distributed
    s = sample_interference(200_000, make_rng(10))
    h1 = byte_histogram(quantize(s)).astype(float)
    h2 = byte_histogram(quantize(1.0 - s)).astype(float)
    # chi-square homogeneity on pooled bins with enough mass
    keep = (h1 + h2) >= 10
    expected = (h1[keep] + h2[keep]) / 2
    chi2 = float(np.sum((h1[keep] - expected) ** 2 / expected
                        + (h2[keep] - expected) ** 2 / expected))
    p = float(chi2_dist.sf(chi2, df=keep.sum() - 1))
    assert p > 0.01


def test_analyze_requires_quantized():
    s = sample_interference(100_000, make_rng(0))
    with pytest.raises(ValueError, match="uint8"):
        analyze(s)
    with pytest.raises(ValueError, match="uint8"):
        analyze(quantize(s).astype(np.int64))
    report = analyze(quantize(s), max_lag=3)
    assert report.histogram.sum() == 100_000 and report.autocorr.size == 3


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------

def test_toeplitz_identity_row():
    # 1 x n matrix whose first row is e1: output bit equals first input bit
    for first_bit in (0, 1):
        x = np.array([first_bit, 1, 0, 1], dtype=np.uint8)
        t = np.zeros(4, dtype=np.uint8)
        t[3] = 1  # T[0, 0] = t[n_in - 1]
        out = toeplitz_hash(x, t, 1)
        assert out.tolist() == [first_bit]


def test_toeplitz_matches_dense_matrix():
    rng = make_rng(11)
    n_in, n_out = 40, 16
    x = rng.integers(0, 2, n_in).astype(np.uint8)
    t = rng.integers(0, 2, n_in + n_out - 1).astype(np.uint8)
    T = np.empty((n_out, n_in), dtype=np.uint8)
    for i in range(n_out):
        for j in range(n_in):
            T[i, j] = t[i - j + n_in - 1]
    want = (T @ x) % 2
    got = toeplitz_hash(x, t, n_out)
    assert np.array_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 300), st.integers(1, 300), st.integers(0, 2**32 - 1))
@example(1, 1, 0)
@example(1, 300, 1)
@example(300, 1, 2)
def test_toeplitz_small_shapes_match_dense_product(n_in, n_out, seed):
    rng = make_rng(seed)
    x = rng.integers(0, 2, n_in).astype(np.uint8)
    t = rng.integers(0, 2, n_in + n_out - 1).astype(np.uint8)
    want = dense_toeplitz(t.astype(np.int64), n_in, n_out) @ x % 2
    assert np.array_equal(toeplitz_hash(x, t, n_out), want)


def test_toeplitz_full_size_block_sampled_rows():
    # one extractor block of the qkdtx qrng default run
    rng = make_rng(16)
    n_in, n_out = 1 << 16, 37_851
    x = rng.integers(0, 2, n_in).astype(np.uint8)
    t = rng.integers(0, 2, n_in + n_out - 1).astype(np.uint8)
    got = toeplitz_hash(x, t, n_out)
    assert got.shape == (n_out,) and got.dtype == np.uint8
    rows = np.concatenate(([0, n_out - 1], rng.choice(n_out, 254, replace=False)))
    for i in rows:
        # row i of T is t[i : i + n_in] reversed
        assert got[i] == int(np.sum(t[i:i + n_in][::-1] & x)) % 2


def test_toeplitz_validation():
    with pytest.raises(ValueError, match="empty"):
        toeplitz_hash(np.zeros(0, np.uint8), np.zeros(2, np.uint8), 3)
    with pytest.raises(ValueError, match="n_out"):
        toeplitz_hash(np.ones(4, np.uint8), np.ones(4, np.uint8), -1)
    with pytest.raises(ValueError, match="diagonal"):
        toeplitz_hash(np.ones(4, np.uint8), np.ones(4, np.uint8), 2)
    assert toeplitz_hash(np.ones(4, np.uint8), np.ones(4, np.uint8), 0).size == 0


def test_toeplitz_rounding_guard(monkeypatch):
    # a convolution entry 0.3 away from an integer has no trustworthy parity
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda a, n: irfft(a, n) + 0.3)
    with pytest.raises(ArithmeticError):
        toeplitz_hash(np.ones(8, np.uint8), np.ones(11, np.uint8), 4)


def test_extract_rounding_guard(monkeypatch):
    # the same guard holds on the packed pairs extract_bits hashes
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda a, n: irfft(a, n) + 0.3)
    b = quantize(sample_interference(8192 * 3, make_rng(21)))
    with pytest.raises(ArithmeticError, match="exact parity"):
        extract_bits(b, 1_000, seed_matrix_seed=1)


@pytest.mark.parametrize("diagonal", ["random", "ones"])
def test_packed_pair_rounding_margin(monkeypatch, diagonal):
    # two all-ones 64-Kibit blocks at the seed-7 share give the largest packed
    # entries, up to 2^16 + 2^33; their error stays far below the 0.25 guard
    w, m = 1 << 16, 38_033
    t = (make_rng(20).integers(0, 2, w + m - 1, dtype=np.uint8) if diagonal == "random"
         else np.ones(w + m - 1, np.uint8))
    n_fft = next_fast_len(t.size, real=True)
    errors = []
    irfft = np.fft.irfft

    def recording_irfft(a, n):
        conv = irfft(a, n)
        kept = conv[w - 1:w - 1 + m]
        errors.append(float(np.max(np.abs(kept - np.rint(kept)))))
        return conv

    monkeypatch.setattr(np.fft, "irfft", recording_irfft)
    ones = np.ones(w, np.uint8)
    pair = randomness._convolution_parity([ones, ones], np.fft.rfft(t.astype(np.float64), n_fft),
                                          n_fft, w - 1, [m, m])
    window = np.concatenate(([0], np.cumsum(t, dtype=np.int64)))
    want = ((window[w:w + m] - window[:m]) & 1).astype(np.uint8)  # row i: sum of t[i : i + w]
    assert len(errors) == 1 and errors[0] < 1e-3
    assert all(np.array_equal(parity, want) for parity in pair)


def test_extract_pinned_output(seed7_extract):
    budget, bits = seed7_extract
    assert budget == 4_758_711
    assert bits.size == budget
    digest = hashlib.sha256(np.packbits(bits).tobytes()).hexdigest()
    assert digest == SEED7_EXTRACT_SHA256


def test_no_block_share_exceeds_its_min_entropy_less_the_margin(seed7_bytes, monkeypatch):
    # each block keeps a 64-bit margin of its own, so the leftover hash lemma
    # bounds every block's distance from uniform by 2^-32; blocks are hashed
    # in pairs, one forward and one inverse FFT each
    shares, pairs = [], []
    parity = randomness._convolution_parity

    def recording_parity(vectors, *args):
        shares.extend((bits.size, m) for bits, m in zip(vectors, args[-1], strict=True))
        pairs.append(len(vectors))
        return parity(vectors, *args)

    monkeypatch.setattr(randomness, "_convolution_parity", recording_parity)
    budget = entropy_budget_bits(seed7_bytes)
    extract_bits(seed7_bytes, budget, seed_matrix_seed=7)
    h = -np.log2(_bin_masses().max())  # the seed-7 plug-in value lies above the law
    assert len(shares) == 126 and sum(m for _, m in shares) == budget
    assert pairs == [2] * 63
    assert sorted(n for n, _ in shares) == [8_000] + [1 << 16] * 125
    for n_bits, m in shares:
        assert m <= np.floor(n_bits / 8 * h) - 64


def test_consecutive_blocks_agree_half_the_time(seed7_bytes, seed7_extract):
    # one seed serves every block; bits at equal offsets in consecutive
    # blocks' outputs still agree half the time, within 5 sigma
    budget, bits = seed7_extract
    shares = block_split(seed7_bytes, budget)[2]
    pieces = np.split(bits, np.cumsum(shares)[:-1])
    agree = total = 0
    for first, second in zip(pieces, pieces[1:]):
        m = min(first.size, second.size)
        agree += int(np.count_nonzero(first[:m] == second[:m]))
        total += m
    assert total > 4_700_000
    assert abs(agree - total / 2) < 5 * np.sqrt(total) / 2


@pytest.mark.parametrize("n_cpu", [1, 2, 3, 8])
def test_extract_output_independent_of_cpu_count(seed7_bytes, monkeypatch, n_cpu):
    monkeypatch.setattr(randomness, "_usable_cpus", lambda: n_cpu)
    threads = set()
    parity = randomness._convolution_parity

    def recording_parity(*args):
        threads.add(threading.current_thread())
        return parity(*args)

    monkeypatch.setattr(randomness, "_convolution_parity", recording_parity)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # workers writing disjoint slices of one array
    try:
        bits = extract_bits(seed7_bytes, entropy_budget_bits(seed7_bytes), seed_matrix_seed=7)
    finally:
        sys.setswitchinterval(interval)
    assert hashlib.sha256(np.packbits(bits).tobytes()).hexdigest() == SEED7_EXTRACT_SHA256
    # the caller and up to n - 1 workers take block pairs from one queue
    assert threading.main_thread() in threads
    assert (len(threads) == 1) if n_cpu == 1 else (1 < len(threads) <= n_cpu)


@pytest.mark.parametrize("n_cpu", [1, 2, 3])
@pytest.mark.parametrize("out_len_bits", [
    60_000,  # every block hashed, the last one short
    10,      # 31 of 41 blocks get a zero quota
])
def test_extract_matches_serial_block_loop(monkeypatch, n_cpu, out_len_bits):
    monkeypatch.setattr(randomness, "_usable_cpus", lambda: n_cpu)
    b = quantize(sample_interference(8192 * 40 + 1234, make_rng(17)))
    want = serial_extract(b, out_len_bits, 23)
    assert want.size == out_len_bits
    assert np.array_equal(extract_bits(b, out_len_bits, seed_matrix_seed=23), want)


@pytest.mark.parametrize("n_cpu", [1, 2, 3])
def test_extract_matches_dense_gf2_oracle(monkeypatch, n_cpu):
    # 256-bit blocks (32 bytes, a quota of at most floor(32 * 4.65) - 64 = 84
    # bits) against the one matrix written out: block b is T[:m_b, :n_b] x_b
    monkeypatch.setattr(randomness, "_BLOCK_BITS", 256)
    monkeypatch.setattr(randomness, "_usable_cpus", lambda: n_cpu)
    rng = make_rng(19)
    cases = [(32 * 5 + 7, None),   # a short last block with a zero quota: the fifth goes alone
             (32 * 5 + 20, None),  # a short last block with a quota
             (32 * 7, None),       # an odd block count: the last block goes alone
             (32 * 7 + 20, None),  # the short last block is the second of a pair
             (32 * 6, 3),          # most blocks get a zero share
             (25, None)]           # one block, narrower than 256 bits
    cases += [(int(rng.integers(14, 600)), int(rng.integers(1, 10**6))) for _ in range(40)]
    for n_bytes, out_len in cases:
        b = quantize(sample_interference(n_bytes, rng))
        budget = entropy_budget_bits(b)
        assert budget > 0
        out_len = budget if out_len is None else 1 + out_len % budget
        seed = int(rng.integers(2**32))
        starts, sizes, shares = block_split(b, out_len, 256)
        w = min(256, 8 * b.size)
        t = make_rng(seed).integers(0, 2, w + shares.max() - 1, dtype=np.uint8)
        T = dense_toeplitz(t.astype(np.int64), w, int(shares.max()))
        bits = np.unpackbits(b)
        want = np.concatenate([T[:m, :8 * n] @ bits[8 * s:8 * (s + n)] % 2
                               for s, n, m in zip(starts, sizes, shares) if m])
        assert np.array_equal(extract_bits(b, out_len, seed_matrix_seed=seed), want)


def test_extract_worker_error_propagates(monkeypatch):
    monkeypatch.setattr(randomness, "_usable_cpus", lambda: 2)
    worker_raised = threading.Event()
    parity = randomness._convolution_parity

    def failing_in_workers(*args):
        if threading.current_thread() is threading.main_thread():
            worker_raised.wait(timeout=60)  # leave the other pair to the worker
            return parity(*args)
        worker_raised.set()
        raise ArithmeticError("FFT rounding error too large for an exact parity")

    monkeypatch.setattr(randomness, "_convolution_parity", failing_in_workers)
    b = quantize(sample_interference(8192 * 4, make_rng(18)))
    with pytest.raises(ArithmeticError, match="exact parity"):
        extract_bits(b, 1_000, seed_matrix_seed=1)
    assert worker_raised.is_set()


# Peak traced allocations on the pinned 1,025,000-byte stream (numpy buffers
# are traced). Before blocks were unpacked one at a time and the in-place
# trims, the peaks were 17.8 MB (extract_bits), 17.4 MB (quantize) and
# 25.7 MB (qkdtx qrng); after, 10.6, 9.2 and 17.5 MB. Each bound sits
# between the two, at least 2 MB from either. Hashing blocks in pairs, each
# pair packed into one buffer freed before the inverse FFT, keeps
# extract_bits at 10.5-10.8 MB.

def test_extract_memory_bounded(seed7_bytes, monkeypatch):
    # two CPUs: the caller and one worker each hold one pair's FFT buffers
    monkeypatch.setattr(randomness, "_usable_cpus", lambda: 2)
    budget = entropy_budget_bits(seed7_bytes)
    assert traced_peak_mb(extract_bits, seed7_bytes, budget, 7) < 13.0


def test_quantize_memory_bounded():
    s = sample_interference(1_025_000, make_rng(7))
    assert traced_peak_mb(quantize, s) < 12.0


def test_cli_qrng_memory_bounded(tmp_path):
    out = str(tmp_path / "report.json")
    assert cli.main(["qrng", "--n", "20000", "--seed", "7", "--out", out]) == 0  # loads scipy
    assert traced_peak_mb(cli.main, ["qrng", "--seed", "7", "--out", out]) < 21.0


@pytest.mark.parametrize("seed", [3, 7, 10])
def test_budget_never_exceeds_the_arcsine_law(seed):
    # these seeds' plug-in min-entropy lies above the law's 4.6505555 bits
    # per byte (by up to 5,593 bits over the run), which is sampling noise
    n = 1_025_000
    law = -np.log2(_bin_masses().max())
    sizes = [8192] * 125 + [1_000]  # 64-Kibit hashing blocks, the last one short
    law_bits = sum(int(np.floor(size * law)) - 64 for size in sizes)
    assert law_bits == 4_758_711
    b = quantize(sample_interference(n, make_rng(seed)))
    assert n * min_entropy(byte_histogram(b)) > n * law + 1_000
    assert entropy_budget_bits(b) == law_bits


def test_budget_capped_by_the_sample():
    # a stream worse than the arcsine law keeps its own, smaller budget
    assert entropy_budget_bits(np.zeros(100_000, np.uint8)) == 0
    b = quantize(sample_interference(50_000, make_rng(16)))
    one_bit = np.where(b < 128, 0, 255).astype(np.uint8)
    h = min_entropy(byte_histogram(one_bit))  # about 1 bit per byte
    sizes = [8192] * 6 + [848]  # every block keeps its own 64-bit margin
    assert entropy_budget_bits(one_bit) == sum(int(np.floor(size * h)) - 64 for size in sizes)


def test_extract_zero_length():
    b = make_rng(12).integers(0, 256, 1000).astype(np.uint8)
    assert extract_bits(b, 0, seed_matrix_seed=1).size == 0


def test_extract_budget_enforced():
    b = make_rng(13).integers(0, 256, 1000).astype(np.uint8)
    budget = entropy_budget_bits(b)
    with pytest.raises(ValueError, match="entropy budget"):
        extract_bits(b, budget + 1, seed_matrix_seed=1)


def test_extract_deterministic():
    b = quantize(sample_interference(50_000, make_rng(14)))
    out1 = extract_bits(b, 10_000, seed_matrix_seed=99)
    out2 = extract_bits(b, 10_000, seed_matrix_seed=99)
    assert np.array_equal(out1, out2)
    out3 = extract_bits(b, 10_000, seed_matrix_seed=100)
    assert not np.array_equal(out1, out3)


def test_extracted_stream_uniformity():
    # arcsine-biased bytes in, balanced and uncorrelated bits out
    b = quantize(sample_interference(1_000_000, make_rng(15)))
    out_len = entropy_budget_bits(b)
    bits = extract_bits(b, out_len, seed_matrix_seed=7)
    ones = int(bits.sum())
    assert abs(ones - out_len / 2) < 3 * np.sqrt(out_len) / 2
    out_bytes = np.packbits(bits)[: (bits.size // 8)]
    c = byte_autocorrelation(out_bytes, 50)
    assert np.max(np.abs(c)) < 5e-3


def test_cli_import_leaves_out_scipy_stats_and_process_pool():
    src = str(Path(qkdtx.__file__).resolve().parents[1])
    code = ("import sys, qkdtx.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] in (['scipy', 'stats'], ['scipy', 'signal'])"
            " or m.split('.')[0] in ('multiprocessing', 'concurrent', 'logging')"
            " or m == 'qkdtx.randomness'))")  # only qkdtx qrng imports it
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, cwd=src, timeout=120,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"
