"""Spans and exact counters recorded around the calls into each qkdtx layer.

Tracing is installed from outside the package: for the duration of a traced
rep, the module attributes through which one layer calls another are
replaced by wrappers that record a span (layer, function, start, duration,
parent span). Nothing under ``src/`` is modified, and the originals are put
back when tracing ends, so untraced reps in the same process run the
unpatched code.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

import numpy as np

#: Layer boundaries that are traced: (module whose attribute is replaced,
#: attribute, layer the callee belongs to). The attribute lives in the
#: namespace the caller looks it up in: cli and the benchmark call
#: ``harness.run_sweep`` through the harness module, while harness calls
#: protocols through names it imported into its own namespace. Helpers that
#: run once per pulse (``optics.reduce_phase`` inside ``IqPoint``) are left
#: out on purpose: wrapping them would trace Python's call overhead, not the
#: layer.
BOUNDARIES = (
    ("qkdtx.cli", "main", "cli"),
    ("qkdtx.harness", "load_config", "harness"),
    ("qkdtx.harness", "run_sweep", "harness"),
    ("qkdtx.harness", "run_point", "harness"),
    ("qkdtx.harness", "run_dps_session", "protocols"),
    ("qkdtx.harness", "run_bb84_session", "protocols"),
    ("qkdtx.harness", "analytic_expectations", "protocols"),
    ("qkdtx.protocols", "decoy_estimate", "protocols"),
    ("qkdtx.protocols", "skr_dps", "protocols"),
    ("qkdtx.protocols", "skr_bb84", "protocols"),
    ("qkdtx.harness", "detector_preset", "linkmodel"),
    ("qkdtx.protocols", "transmittance", "linkmodel"),
    ("qkdtx.randomness", "sample_interference", "randomness"),
    ("qkdtx.randomness", "quantize", "randomness"),
    ("qkdtx.randomness", "analyze", "randomness"),
    ("qkdtx.randomness", "entropy_budget_bits", "randomness"),
    ("qkdtx.randomness", "extract_bits", "randomness"),
    ("qkdtx.randomness", "toeplitz_hash", "randomness"),
    ("qkdtx.optics", "emit_pulse_train", "optics"),
    ("qkdtx.optics", "dual_basis_demodulate", "optics"),
    ("qkdtx.optics", "amzi_interfere", "optics"),
    ("qkdtx.optics", "fringe_scan", "optics"),
    ("qkdtx.optics", "constellation_eye", "optics"),
)

#: Public methods traced on classes: (module, class, method, layer).
METHOD_BOUNDARIES = (
    ("qkdtx.harness", "SweepTable", "to_csv", "harness"),
)

#: Session functions whose ``rng`` argument (position 4) is swapped for a
#: CountingGenerator, and whose unit count is argument 3.
_SESSIONS = ("run_dps_session", "run_bb84_session")

RNG_KINDS = ("random", "integers", "normal", "uniform", "poisson", "binomial")


@dataclass
class Span:
    layer: str
    name: str
    start: float
    parent: Optional["Span"]
    duration: float = 0.0
    child_time: float = 0.0
    counts: dict = field(default_factory=dict)
    result: object = None

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time

    @property
    def top_level_in_layer(self) -> bool:
        """True when no enclosing span belongs to the same layer."""
        p = self.parent
        while p is not None:
            if p.layer == self.layer:
                return False
            p = p.parent
        return True


class CountingGenerator:
    """Stands in for ``numpy.random.Generator`` and counts variates drawn.

    Every draw method is forwarded to the wrapped generator, so the random
    stream, and therefore every result, is unchanged.
    """

    def __init__(self, rng):
        self._rng = rng
        self.draws = dict.fromkeys(RNG_KINDS, 0)

    def __getattr__(self, name):
        method = getattr(self._rng, name)
        if name not in self.draws:
            return method

        def counted(*args, **kwargs):
            out = method(*args, **kwargs)
            self.draws[name] += int(np.size(out))
            return out
        return counted


def count_objects(value) -> int:
    """Python objects in a returned value; a numpy array counts as one.

    Containers count themselves plus their items, and objects with fields
    (dataclasses, plain classes) themselves plus their field values, so a
    list of n records with k scalar fields counts 1 + n * (1 + k).
    """
    if isinstance(value, (list, tuple)):
        return 1 + sum(map(count_objects, value))
    if isinstance(value, dict):
        return 1 + sum(map(count_objects, value.values()))
    if isinstance(value, np.ndarray) or isinstance(value, type):
        return 1
    if dataclasses.is_dataclass(value):
        return 1 + sum(count_objects(getattr(value, f.name))
                       for f in dataclasses.fields(value))
    if hasattr(value, "__dict__"):
        return 1 + sum(map(count_objects, vars(value).values()))
    return 1


class Tracer:
    """Records spans in memory while installed; see :meth:`installed`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def finish(self) -> list[Span]:
        """Return the spans recorded so far, counting returned objects, and
        start a new record. Called after a rep's timed section."""
        spans, self.spans = self.spans, []
        for span in spans:
            if span.result is not None:
                span.counts["objects"] = count_objects(span.result)
                span.result = None
        return spans

    def _wrap(self, layer, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(layer, name, perf_counter(), parent)
            if name in _SESSIONS:
                args = list(args)
                args[4] = CountingGenerator(args[4])
                span.counts["units"] = int(args[3])
            tracer._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.duration = perf_counter() - span.start
                tracer._stack.pop()
                if parent is not None:
                    parent.child_time += span.duration
                tracer.spans.append(span)
            if name in _SESSIONS:
                span.counts.update(args[4].draws)
            if layer == "optics" and span.top_level_in_layer:
                span.result = result  # counted by finish(), outside the rep
            if name == "extract_bits":
                span.counts["bits_in"] = 8 * int(np.size(args[0]))
                span.counts["bits_out"] = int(np.size(result))
            return result
        return traced

    @contextmanager
    def installed(self):
        """Replace every traced boundary by its wrapper; restore on exit."""
        saved = []
        try:
            for mod_name, attr, layer in BOUNDARIES:
                mod = importlib.import_module(mod_name)
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self._wrap(layer, attr, original))
            for mod_name, cls_name, attr, layer in METHOD_BOUNDARIES:
                cls = getattr(importlib.import_module(mod_name), cls_name)
                original = cls.__dict__[attr]
                saved.append((cls, attr, original))
                setattr(cls, attr, self._wrap(layer, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
