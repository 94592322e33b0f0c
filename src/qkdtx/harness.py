"""Experiment configuration, loss sweeps, and reference comparison.

Configs are versioned JSON whose protocol holds the fields its kind reads
(``protocols.KINDS``); each default the loader applies is tagged with its
source in a provenance block. A sweep runs one Monte-Carlo session plus
closed-form expectations per loss point, in order in the calling thread,
each point seeded by ``point_seed`` from the master seed and its index.
``run_point`` is the one point path: ``sweep`` keeps each point's row and
``simulate`` prints the session of point 0 at its loss.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from . import protocols
from .linkmodel import ChannelModel, DetectorModel, detector_preset
from .protocols import (DPS, KINDS, MAX_PULSES, ProtocolConfig, SessionResult,
                        analytic_expectations)

SCHEMA_VERSION = 1

#: The loader's own defaults as (value, source); the gate rate defaults to
#: the protocol clock. Protocol and fiber defaults live in their modules.
_DETECTOR_DEFAULT = ("snspd", "reference receiver: superconducting nanowire detectors")
_LABEL_DEFAULT = ("custom", "explicit detector given without a label")
_PULSES_DEFAULT = (1_000_000, "1e6 encoded units per loss point: a quick sweep")
_GATE_SOURCE = "detectors gated at the protocol clock"


class ConfigError(ValueError):
    """Raised when an experiment config fails validation."""


def _default(spec: dict, path: str, default: tuple, provenance: dict):
    """spec's value at path (whose last part is its key in spec), or else the
    (value, source) default's value with its source tagged as
    provenance[path]: every default the loader applies goes through here."""
    key = path.rpartition(".")[2]
    if key in spec:
        return spec[key]
    value, source = default
    provenance[path] = source
    return value


def _reject_unknown(spec: dict, known, where: str) -> None:
    unknown = set(spec) - set(known)
    if unknown:
        raise ConfigError(f"unknown {where} fields: {', '.join(sorted(unknown))}")


@dataclass
class ExperimentConfig:
    """Fully validated experiment: protocol, link, statistics, seeding."""

    protocol: ProtocolConfig
    detector: DetectorModel
    losses_db: list
    pulses_per_point: int
    seed: int
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "protocol": {k: v for k, v in vars(self.protocol).items() if v is not None},
            "detector": dataclasses.asdict(self.detector),
            "channel": {"loss_db": list(self.losses_db)},
            "pulses_per_point": self.pulses_per_point,
            "seed": self.seed,
            "provenance": dict(self.provenance),
        }


def _protocol_from_dict(spec: dict, provenance: dict) -> ProtocolConfig:
    if not isinstance(spec, dict):
        raise ConfigError("protocol must be an object")
    kind = spec.get("kind")
    fields = KINDS[kind].fields if isinstance(kind, str) and kind in KINDS else {}
    kwargs = {name: _number(_default(spec, f"protocol.{name}", default,
                                     provenance), f"protocol.{name}")
              for name, default in fields.items()}
    try:
        protocol = ProtocolConfig(kind=kind, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"protocol: {exc}") from exc
    _reject_unknown(spec, ("kind", *fields), f"{kind} protocol")
    return protocol


def _detector_from_spec(spec, clock_hz: float, provenance: dict) -> DetectorModel:
    """A preset name, or an explicit object that may set its own gate rate."""
    explicit = isinstance(spec, dict)
    if explicit:
        _reject_unknown(spec, ("efficiency", "dark_rate_hz", "gate_rate_hz",
                               "label"), "detector")
        for req in ("efficiency", "dark_rate_hz"):
            if req not in spec:
                raise ConfigError(f"detector.{req} is required for explicit detectors")
        for name in ("efficiency", "dark_rate_hz", "gate_rate_hz"):
            if name in spec:
                _number(spec[name], f"detector.{name}")
        if not isinstance(spec.get("label", ""), str):
            raise ConfigError("detector.label must be a string")
    elif not isinstance(spec, str):
        raise ConfigError("detector must be a preset name or an object")
    gate = _default(spec if explicit else {}, "detector.gate_rate_hz",
                    (clock_hz, _GATE_SOURCE), provenance)
    try:
        if not explicit:
            return detector_preset(spec, gate_rate_hz=gate)
        return DetectorModel(efficiency=spec["efficiency"],
                             dark_rate_hz=spec["dark_rate_hz"],
                             gate_rate_hz=gate,
                             label=_default(spec, "detector.label",
                                            _LABEL_DEFAULT, provenance))
    except ValueError as exc:
        raise ConfigError(f"detector: {exc}") from exc


def _is_number(value) -> bool:
    """An int or float that float64 holds as a finite value; booleans,
    strings, null, NaN, inf and integers beyond float64's range are not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return abs(value) <= sys.float_info.max  # exact for ints, False for NaN


def _number(value, name: str):
    if not _is_number(value):
        raise ConfigError(f"{name} must be a finite float64 number, got {value!r}")
    return value


def _losses_from_spec(spec: dict) -> list:
    if not isinstance(spec, dict):
        raise ConfigError("channel must be an object")
    _reject_unknown(spec, ("loss_db",), "channel")
    losses = spec.get("loss_db", [])
    if not isinstance(losses, list) or not all(_is_number(l) for l in losses):
        raise ConfigError("channel.loss_db must be a list of finite float64 numbers")
    if len(losses) == 0:
        raise ConfigError("channel.loss_db: at least one loss point is required")
    losses = [float(l) for l in losses]
    if any(l < 0 for l in losses):
        raise ConfigError("channel.loss_db: losses must be >= 0")
    return sorted(losses)


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Validate a raw config dict and apply documented defaults."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if raw.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version: expected {SCHEMA_VERSION}, got {raw.get('schema_version')}")
    for req in ("protocol", "channel", "seed"):
        if req not in raw:
            raise ConfigError(f"{req} is a required config field")
    # provenance is accepted so that an emitted config loads back; the loader
    # recomputes it from the defaults it applies
    _reject_unknown(raw, ("schema_version", "protocol", "detector", "channel",
                          "pulses_per_point", "seed", "provenance"), "config")
    provenance = {}
    protocol = _protocol_from_dict(raw["protocol"], provenance)
    detector = _detector_from_spec(
        _default(raw, "detector", _DETECTOR_DEFAULT, provenance),
        protocol.clock_hz, provenance)
    losses = _losses_from_spec(raw["channel"])
    pulses = check_run_size(_default(raw, "pulses_per_point", _PULSES_DEFAULT, provenance),
                            "pulses_per_point")
    return ExperimentConfig(protocol=protocol, detector=detector,
                            losses_db=losses, pulses_per_point=pulses,
                            seed=check_seed(raw["seed"]), provenance=provenance)


def check_seed(seed, name: str = "seed") -> int:
    """The seed if it is an integer >= 0, else a ConfigError naming ``name``."""
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError(f"{name} must be an integer (wall-clock seeding is not allowed)")
    if seed < 0:
        raise ConfigError(f"{name} must be >= 0")
    return seed


def check_run_size(size, name: str) -> int:
    """The pulses or pairs per point if an integer in [1e3, 2**63 - 1], the
    sizes a session can draw, else a ConfigError naming ``name``."""
    if not isinstance(size, int) or isinstance(size, bool) or not 1_000 <= size <= MAX_PULSES:
        raise ConfigError(f"{name} must be an integer in [1e3, 2**63 - 1], got {size!r}")
    return size


def load_config(path) -> ExperimentConfig:
    """Load and validate an experiment config from a JSON file; every error
    names the file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON ({path}, line {exc.lineno}): "
                          f"{exc.msg}")
    try:
        return config_from_dict(raw)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@dataclass
class SweepRow:
    loss_db: float
    qber: float
    sifted_rate_hz: float
    skr_bps: float
    analytic_qber: float
    analytic_skr_bps: float
    clicks: int
    seed: int


CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(SweepRow))
_CSV_PARSERS = {f.name: {"int": int, "float": float}[f.type]
                for f in dataclasses.fields(SweepRow)}


def _csv_field(line: int, column: str, text: str):
    """A sweep CSV field as its column's type, finite as the program writes it."""
    where = f"sweep CSV line {line}, column {column}"
    try:
        value = _CSV_PARSERS[column](text)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    if not -math.inf < value < math.inf:
        raise ValueError(f"{where}: {text!r} is not finite")
    return value


@dataclass
class SweepTable:
    rows: list

    def to_csv(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for r in self.rows:
            lines.append(",".join(repr(getattr(r, c)) for c in CSV_COLUMNS))
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {"columns": list(CSV_COLUMNS),
                "rows": [dataclasses.asdict(r) for r in self.rows]}

    @classmethod
    def from_csv(cls, text: str) -> "SweepTable":
        lines = [(n, l.split(",")) for n, l in enumerate(text.splitlines(), 1)
                 if l.strip()]
        if len(lines) < 2:
            raise ValueError(f"sweep CSV line {len(text.splitlines()) + 1}: "
                             "missing, a table needs a header and a row")
        for n, values in lines:
            if len(values) != len(CSV_COLUMNS):
                raise ValueError(f"sweep CSV line {n}: {len(values)} fields, "
                                 f"expected {len(CSV_COLUMNS)}")
        if tuple(lines[0][1]) != CSV_COLUMNS:
            raise ValueError(f"unexpected sweep CSV header: {lines[0][1]}")
        return cls([SweepRow(**{c: _csv_field(n, c, v)
                                for c, v in zip(CSV_COLUMNS, values)})
                    for n, values in lines[1:]])


def point_seed(master_seed: int, index: int) -> int:
    """Stable per-point seed, independent of run order."""
    ss = np.random.SeedSequence([master_seed, index])
    return int(ss.generate_state(1, np.uint64)[0])


#: perfbench/tracing.py traces each kind's sessions by its name here, so
#: both stay bound to one function until ROADMAP item 1 retires them.
run_dps_session = run_bb84_session = protocols.run_session


def run_point(cfg: ExperimentConfig, loss_db: float,
              index: int) -> tuple[SweepRow, SessionResult]:
    """One loss point as (sweep row, session): the closed form, then a
    session seeded by ``point_seed(cfg.seed, index)`` drawn from its laws."""
    channel = ChannelModel(loss_db=loss_db)
    seed = point_seed(cfg.seed, index)
    exp = analytic_expectations(cfg.protocol, channel, cfg.detector)
    draw = run_dps_session if cfg.protocol.kind == DPS else run_bb84_session
    session = draw(cfg.protocol, channel, cfg.detector, cfg.pulses_per_point,
                   np.random.Generator(np.random.PCG64(seed)), expected=exp)
    clicks = sum(t.clicks for t in session.per_intensity.values())
    return SweepRow(loss_db=float(loss_db), qber=float(session.qber),
                    sifted_rate_hz=float(session.sifted_rate_hz),
                    skr_bps=float(session.skr_bps),
                    analytic_qber=float(exp.qber),
                    analytic_skr_bps=float(exp.skr_bps),
                    clicks=int(clicks), seed=seed), session


def run_sweep(cfg: ExperimentConfig) -> SweepTable:
    """Monte-Carlo plus analytic results for every loss point, in order in
    the calling thread. Each point is seeded by ``point_seed(cfg.seed,
    index)`` and owns its Generator, so no row depends on another point."""
    rows = [run_point(cfg, loss, i)[0] for i, loss in enumerate(cfg.losses_db)]
    rows.sort(key=lambda r: r.loss_db)
    return SweepTable(rows)


# ---------------------------------------------------------------------------
# reference comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReferencePoint:
    """One published value to compare a sweep against."""

    label: str
    loss_db: float
    quantity: str               # "skr_bps" | "qber"
    expected: float
    tolerance_kind: str         # "absolute" | "factor"
    tolerance: float

    def __post_init__(self):
        if not isinstance(self.label, str):
            raise ValueError(f"label must be a string, got {self.label!r}")
        for name in ("loss_db", "expected", "tolerance"):
            _number(getattr(self, name), name)
        if self.tolerance <= 0:
            raise ValueError("tolerance must be > 0")
        if self.tolerance_kind not in ("absolute", "factor"):
            raise ValueError("tolerance_kind must be absolute or factor")
        if self.tolerance_kind == "factor" and self.tolerance < 1:
            raise ValueError("a factor tolerance must be >= 1, or its band is empty")
        if self.quantity not in ("skr_bps", "qber"):
            raise ValueError("quantity must be skr_bps or qber")


def load_reference_points(path=None) -> list:
    """Reference points from a JSON file, the bundled set when path is None;
    every error names the file."""
    source = (resources.files("qkdtx.data").joinpath("reference_points.json")
              if path is None else Path(path))
    try:
        raw = json.loads(source.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"reference file is not valid JSON ({source}, line "
                         f"{exc.lineno}): {exc.msg}") from None
    try:
        entries = raw.get("references") if isinstance(raw, dict) else None
        if not isinstance(entries, list) or not entries:
            raise ValueError("a reference file needs a non-empty 'references' list")
        keys = [f.name for f in dataclasses.fields(ReferencePoint)]
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict) or set(entry) != set(keys):
                raise ValueError(f"references[{i}] must have exactly the keys {', '.join(keys)}")
        return [ReferencePoint(**entry) for entry in entries]
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def _interpolate(table: SweepTable, loss_db: float, quantity: str) -> float:
    if not table.rows:
        raise ValueError("the sweep table has no rows to compare")
    rows = sorted(table.rows, key=lambda r: r.loss_db)
    losses = np.array([r.loss_db for r in rows])
    vals = np.array([getattr(r, quantity) for r in rows])
    if loss_db < losses[0] - 1e-9 or loss_db > losses[-1] + 1e-9:
        raise ValueError(
            f"reference at {loss_db} dB lies outside the swept range "
            f"[{losses[0]}, {losses[-1]}] dB")
    exact = np.abs(losses - loss_db) <= 1e-9
    if exact.any():
        return float(vals[exact.argmax()])
    j = int(np.searchsorted(losses, loss_db))
    l0, l1 = losses[j - 1], losses[j]
    v0, v1 = vals[j - 1], vals[j]
    t = (loss_db - l0) / (l1 - l0)
    if quantity == "skr_bps" and v0 > 0 and v1 > 0:
        # key rates are log-linear in loss
        return float(10.0 ** (np.log10(v0) + t * (np.log10(v1) - np.log10(v0))))
    return float(v0 + t * (v1 - v0))


def _within(observed: float, ref: ReferencePoint) -> bool:
    if ref.tolerance_kind == "absolute":
        return abs(observed - ref.expected) <= ref.tolerance
    return 0 < observed and (ref.expected / ref.tolerance <= observed
                             <= ref.expected * ref.tolerance)


@dataclass(frozen=True)
class ComparisonEntry(ReferencePoint):
    """A reference point with the value the sweep gave there."""

    observed: float
    passed: bool


@dataclass
class ComparisonReport:
    entries: list

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_dict(self) -> dict:
        return {"all_passed": self.all_passed,
                "entries": [dataclasses.asdict(e) for e in self.entries]}


def compare_to_reference(table: SweepTable, references) -> ComparisonReport:
    """Check a sweep against reference points, interpolating where needed."""
    entries = []
    for ref in references:
        observed = _interpolate(table, ref.loss_db, ref.quantity)
        entries.append(ComparisonEntry(*dataclasses.astuple(ref), observed,
                                       _within(observed, ref)))
    return ComparisonReport(entries)
