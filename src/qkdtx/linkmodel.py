"""Lossy channel, given by its loss in dB, and threshold single-photon detectors.

Attenuation acts on mean photon number; detectors are non-photon-number
resolving with a per-gate dark probability. The click law these parameters
feed, 1 - (1-p_dark) * exp(-mu * eta), lives in the protocols kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ChannelModel:
    """Attenuating quantum channel, given by its total loss in dB."""

    loss_db: float

    def __post_init__(self):
        if not 0.0 <= self.loss_db < math.inf:
            raise ValueError("loss_db must be finite and >= 0")


def transmittance(channel: ChannelModel) -> float:
    """Power transmittance 10^(-loss_db / 10), in (0, 1]."""
    return 10.0 ** (-channel.loss_db / 10.0)


@dataclass(frozen=True)
class DetectorModel:
    """Threshold detector: efficiency, dark counts, gating."""

    efficiency: float
    dark_rate_hz: float
    gate_rate_hz: float
    label: str = ""

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError("efficiency must be in [0, 1]")
        if not 0.0 <= self.dark_rate_hz < math.inf:
            raise ValueError("dark_rate_hz must be finite and >= 0")
        if not 0.0 < self.gate_rate_hz < math.inf:
            raise ValueError("gate_rate_hz must be finite and > 0")
        if self.dark_rate_hz / self.gate_rate_hz >= 1.0:
            raise ValueError("per-gate dark probability must be < 1")

    @property
    def p_dark(self) -> float:
        """Dark-count probability per gate."""
        return self.dark_rate_hz / self.gate_rate_hz


#: Named presets: (efficiency, dark rate in Hz).
DETECTOR_PRESETS = {
    "snspd": (0.80, 90.0),
    "apd": (0.18, 25e3),
}


def detector_preset(name: str, gate_rate_hz: float) -> DetectorModel:
    """Build a detector from a named preset, gated at the protocol clock."""
    try:
        eff, dark = DETECTOR_PRESETS[name]
    except KeyError:
        options = ", ".join(sorted(DETECTOR_PRESETS))
        raise ValueError(f"unknown detector preset {name!r}; known presets: {options}")
    return DetectorModel(efficiency=eff, dark_rate_hz=dark,
                         gate_rate_hz=gate_rate_hz, label=name)
