"""Tests for channel attenuation and the detectors' click law."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qkdtx.linkmodel import (
    ChannelModel,
    DetectorModel,
    detector_preset,
    transmittance,
)
from qkdtx.protocols import (
    BB84_DECOY,
    DPS,
    ProtocolConfig,
    _click_probability,
    analytic_expectations,
    run_session,
)


def make_rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def test_transmittance_reference_points():
    assert transmittance(ChannelModel(0.0)) == 1.0
    assert transmittance(ChannelModel(20.0)) == pytest.approx(0.01, rel=1e-12)
    fiber = ChannelModel.from_length(100.0)  # 0.2 dB/km
    assert fiber.loss_db == pytest.approx(20.0)
    assert transmittance(ChannelModel(16.7)) == pytest.approx(0.021380, abs=1e-5)


def test_channel_validation():
    with pytest.raises(ValueError):
        ChannelModel(-1.0)
    with pytest.raises(ValueError):
        ChannelModel.from_length(-5.0)
    for loss in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="loss_db"):
            ChannelModel(loss)


@given(st.floats(min_value=0.0, max_value=60.0),
       st.floats(min_value=0.0, max_value=60.0))
def test_transmittance_composition(a, b):
    # two channels in series equal one channel with summed dB loss
    t_series = transmittance(ChannelModel(a)) * transmittance(ChannelModel(b))
    assert t_series == pytest.approx(transmittance(ChannelModel(a + b)), rel=1e-12)


def test_detector_presets():
    snspd = detector_preset("snspd", gate_rate_hz=2e9)
    assert snspd.efficiency == 0.80
    assert snspd.dark_rate_hz == 90.0
    assert snspd.p_dark == pytest.approx(4.5e-8)
    apd = detector_preset("apd", gate_rate_hz=1e9)
    assert apd.efficiency == 0.18
    assert apd.dark_rate_hz == 25e3
    with pytest.raises(ValueError, match="snspd"):
        detector_preset("pmt", gate_rate_hz=1e9)


def test_detector_validation():
    with pytest.raises(ValueError):
        DetectorModel(efficiency=1.5, dark_rate_hz=0, gate_rate_hz=1e9)
    with pytest.raises(ValueError):
        DetectorModel(efficiency=0.5, dark_rate_hz=2e9, gate_rate_hz=1e9)
    nan, inf = float("nan"), float("inf")
    for field, value in (("dark_rate_hz", nan), ("gate_rate_hz", nan),
                         ("gate_rate_hz", inf)):
        with pytest.raises(ValueError, match=field):
            DetectorModel(**{"efficiency": 0.5, "dark_rate_hz": 90.0,
                             "gate_rate_hz": 1e9, field: value})


def test_simulate_detection_dark_fraction():
    # with no light both ports click only on darks, at the SNSPD per-gate
    # probability 4.5e-8: 5e7 DPS slots are 1e8 detector gates
    cfg = ProtocolConfig(DPS)
    blind = dataclasses.replace(detector_preset("snspd", cfg.clock_hz),
                                efficiency=0.0)
    n = 50_000_000
    s = run_session(cfg, ChannelModel(0.0), blind, n + 1, make_rng(3))
    p = 1 - (1 - blind.p_dark) ** 2
    expect = n * p
    clicks = s.per_intensity["signal"].clicks
    assert abs(clicks - expect) <= 3 * np.sqrt(expect * (1 - p)) + 1


def test_simulate_detection_dark_free_zero_intensity():
    det = DetectorModel(efficiency=0.0, dark_rate_hz=0.0, gate_rate_hz=1e9)
    for kind in (DPS, BB84_DECOY):
        s = run_session(ProtocolConfig(kind), ChannelModel(0.0), det, 1_000_000,
                        make_rng(1))
        assert all(t.clicks == 0 for t in s.per_intensity.values())


def p_click(mu, channel, det):
    """Click probability of the protocols kernel for mu photons at the
    channel input."""
    lam = np.array([mu * transmittance(channel) * det.efficiency])
    return float(_click_probability(lam, det.p_dark)[0])


def test_click_probability_reference_points():
    clean = DetectorModel(efficiency=1.0, dark_rate_hz=0.0, gate_rate_hz=2e9)
    assert p_click(0.0, ChannelModel(0.0), clean) == 0.0

    snspd = detector_preset("snspd", gate_rate_hz=2e9)
    assert p_click(0.0, ChannelModel(0.0), snspd) == pytest.approx(4.5e-8, rel=1e-9)

    det = DetectorModel(efficiency=0.8, dark_rate_hz=0.0, gate_rate_hz=2e9)
    p = p_click(0.5, ChannelModel(20.0), det)
    assert p == pytest.approx(1 - np.exp(-0.004), rel=1e-12)
    assert p == pytest.approx(3.992e-3, abs=1e-6)


def test_click_probability_monotone():
    # the analytic per-pulse gain rises with mu, efficiency and dark rate
    # and falls with loss
    def gain(mu, loss, eff, dark):
        cfg = ProtocolConfig(DPS, mu_signal=mu)
        det = DetectorModel(eff, dark, cfg.clock_hz)
        return analytic_expectations(cfg, ChannelModel(loss), det).gains["signal"]

    base = gain(0.3, 10, 0.5, 100)
    for mu, loss, eff, dark in [(0.4, 10, 0.5, 100), (0.3, 5, 0.5, 100),
                                (0.3, 10, 0.6, 100), (0.3, 10, 0.5, 500)]:
        assert gain(mu, loss, eff, dark) > base
