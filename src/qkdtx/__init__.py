"""qkdtx: simulator for a modulator-free, injection-locked QKD transmitter.

Modules
-------
optics      phase-encoded pulse trains and AMZI demodulation
randomness  phase-randomization QRNG and its statistics
linkmodel   lossy channel and single-photon detectors
protocols   DPS and decoy-state BB84 sessions, key rates
harness     experiment configs, loss sweeps, reference comparison

Import names from the module that defines them (``from qkdtx.randomness
import extract_bits``). The package imports none of its modules, so
``import qkdtx.cli`` loads ``randomness`` only when ``qkdtx qrng`` runs.
"""

__version__ = "0.1.0"
