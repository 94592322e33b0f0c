"""Tests for config loading, sweeps, reference comparison, and the CLI."""

import argparse
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import threading
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from qkdtx import cli, harness, optics, protocols
from qkdtx.harness import (
    ConfigError,
    ReferencePoint,
    SweepTable,
    compare_to_reference,
    config_from_dict,
    load_config,
    load_reference_points,
    run_point,
    run_session,
    run_sweep,
)
from qkdtx.protocols import KINDS, ProtocolConfig


def minimal_dps(**extra):
    raw = {"schema_version": 1, "protocol": {"kind": "dps"},
           "channel": {"loss_db": [0.0, 10.0, 20.0]},
           "detector": "snspd", "pulses_per_point": 100_000, "seed": 11}
    raw.update(extra)
    return raw


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------

def test_minimal_dps_defaults_applied():
    cfg = config_from_dict(minimal_dps())
    assert cfg.protocol.mu_signal == 0.5
    assert cfg.protocol.clock_hz == 2e9
    assert cfg.protocol.f_ec == pytest.approx(1 / 0.9)
    assert cfg.detector.label == "snspd"
    assert cfg.detector.gate_rate_hz == 2e9
    # every applied default carries a provenance tag
    assert "protocol.mu_signal" in cfg.provenance
    assert "protocol.f_ec" in cfg.provenance
    assert "detector.gate_rate_hz" in cfg.provenance
    emitted = cfg.to_dict()
    assert emitted["provenance"] == cfg.provenance


def test_provenance_tags_exactly_the_omitted_fields():
    # each option: (what the config gives, the optional paths it leaves out);
    # a kind's optional fields are the ones KINDS lists for it
    protocols = [(kind, {n: getattr(ProtocolConfig(kind), n) for n in given},
                  {f"protocol.{n}" for n in fields if n not in given})
                 for kind, fields in ((k, v.fields) for k, v in KINDS.items())
                 for given in ((), ("mu_signal", "sigma_phi"), tuple(fields))]
    detectors = [({}, {"detector", "detector.gate_rate_hz"}),
                 ({"detector": "apd"}, {"detector.gate_rate_hz"}),
                 ({"detector": {"preset": "snspd", "gate_rate_hz": 1e9}}, set()),
                 ({"detector": {"efficiency": 0.3, "dark_rate_hz": 100.0}},
                  {"detector.gate_rate_hz", "detector.label"}),
                 ({"detector": {"efficiency": 0.3, "dark_rate_hz": 100.0,
                                "gate_rate_hz": 1e9, "label": "lab"}}, set())]
    channels = [({"loss_db": 10}, set()), ({"loss_db": [20, 10]}, set())]
    pulses = [({}, {"pulses_per_point"}), ({"pulses_per_point": 20_000}, set())]
    for (kind, proto, p_out), (det, d_out), (channel, c_out), (n, n_out) in \
            itertools.product(protocols, detectors, channels, pulses):
        raw = {"protocol": {"kind": kind, **proto}, "channel": channel,
               "seed": 1, **det, **n}
        cfg = config_from_dict(raw)
        assert set(cfg.provenance) == p_out | d_out | c_out | n_out, raw
        assert all(isinstance(v, str) and v for v in cfg.provenance.values())
    # the loaded defaults are the kind's defaults, field by field
    for kind in ("dps", "bb84-decoy"):
        cfg = config_from_dict({"protocol": {"kind": kind},
                                "channel": {"loss_db": 10}, "seed": 1})
        assert cfg.protocol == ProtocolConfig(kind)
        assert cfg.detector.label == "snspd"
        assert cfg.pulses_per_point == 1_000_000


def test_bad_probabilities_name_the_field():
    raw = minimal_dps()
    raw["protocol"].update({"kind": "bb84-decoy", "p_signal": 0.8,
                            "p_decoy": 0.05, "p_vacuum": 0.05})
    with pytest.raises(ConfigError, match="probabilities"):
        config_from_dict(raw)
    # each probability lies in [0, 1], not only their sum at 1
    raw["protocol"].update({"p_vacuum": -0.25, "p_decoy": 0.25, "p_signal": 1.0})
    with pytest.raises(ConfigError, match="p_vacuum"):
        config_from_dict(raw)
    for bad in ("0.5", True, None, float("nan"), float("inf")):
        raw = minimal_dps()
        raw["protocol"]["mu_signal"] = bad
        with pytest.raises(ConfigError, match="protocol.mu_signal"):
            config_from_dict(raw)
    # past 20 photons per unit the closed form's phase average is not exact
    raw = minimal_dps()
    raw["protocol"]["mu_signal"] = 25.0
    with pytest.raises(ConfigError, match="protocol: mu_signal must be <= 20"):
        config_from_dict(raw)


def test_zero_decoy_intensity_rejected_before_any_session(tmp_path,
                                                         monkeypatch):
    raw = minimal_dps()
    raw["protocol"].update({"kind": "bb84-decoy", "mu_decoy": 0.0})
    with pytest.raises(ConfigError, match="mu_decoy"):
        config_from_dict(raw)

    def no_session(*args, **kwargs):
        raise AssertionError("a session ran on an invalid config")

    monkeypatch.setattr(harness, "run_bb84_session", no_session)
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(raw))
    assert cli.main(["sweep", "--config", str(cfgp)]) == 1


def test_unknown_preset_lists_options():
    raw = minimal_dps(detector="pmt")
    with pytest.raises(ConfigError) as err:
        config_from_dict(raw)
    assert "snspd" in str(err.value) and "apd" in str(err.value)
    with pytest.raises(ConfigError, match="detector.preset"):
        config_from_dict(minimal_dps(detector={"preset": ["snspd"]}))


def test_channel_validation():
    with pytest.raises(ConfigError, match="at least one loss"):
        config_from_dict(minimal_dps(channel={"loss_db": []}))
    with pytest.raises(ConfigError, match=">= 0"):
        config_from_dict(minimal_dps(channel={"loss_db": [-3.0]}))
    for channel, field in [({"loss_db": "10"}, "channel.loss_db"),
                           ({"loss_db": [0, "5"]}, "channel.loss_db"),
                           ({"loss_db": [float("nan")]}, "channel.loss_db"),
                           ({}, "channel.loss_db"),
                           # the channel is its loss in dB; no fiber length
                           ({"length_km": [50]},
                            "^unknown channel fields: length_km$"),
                           ({"length_km": [50], "alpha_db_per_km": 0.2},
                            "^unknown channel fields: alpha_db_per_km, length_km$"),
                           ({"loss_db": [10], "alpha_db_per_km": 0.2},
                            "^unknown channel fields: alpha_db_per_km$")]:
        with pytest.raises(ConfigError, match=field):
            config_from_dict(minimal_dps(channel=channel))


def test_seed_is_mandatory_and_integer():
    raw = minimal_dps()
    del raw["seed"]
    with pytest.raises(ConfigError, match="seed"):
        config_from_dict(raw)
    with pytest.raises(ConfigError, match="seed"):
        config_from_dict(minimal_dps(seed="now"))
    with pytest.raises(ConfigError, match="seed"):
        config_from_dict(minimal_dps(seed=True))
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        config_from_dict(minimal_dps(seed=-1))
    assert config_from_dict(minimal_dps(seed=0)).seed == 0


def test_unknown_protocol_field_rejected():
    for field in ("wavelength_nm", "mu_vacuum", "dps_security"):
        raw = minimal_dps()
        raw["protocol"][field] = 0.0
        with pytest.raises(ConfigError, match=field):
            config_from_dict(raw)
    with pytest.raises(ConfigError, match="pulses_per_pont"):
        config_from_dict(minimal_dps(pulses_per_pont=10_000))


def test_dps_config_holds_only_the_fields_dps_reads(tmp_path, capsys):
    # the DPS key rate reads no decoy intensity, class probability or basis
    # choice, so a DPS config naming one fails at load time, by name
    cfgp = tmp_path / "cfg.json"
    for field in ("mu_decoy", "p_signal", "p_decoy", "p_vacuum", "basis_prob_x"):
        raw = minimal_dps()
        raw["protocol"][field] = 0.5
        with pytest.raises(ConfigError, match=f"unknown dps protocol fields: {field}"):
            config_from_dict(raw)
        cfgp.write_text(json.dumps(raw))
        assert cli.main(["sweep", "--config", str(cfgp)]) == 1
        assert field in capsys.readouterr().err
    cfg = config_from_dict(minimal_dps())
    assert len(KINDS["dps"].fields) == 5
    assert len(KINDS["bb84-decoy"].fields) == 10
    assert {k for k in cfg.provenance if k.startswith("protocol.")} == \
        {f"protocol.{n}" for n in KINDS["dps"].fields}
    # no decoy class bounds the signal from below
    raw = minimal_dps()
    raw["protocol"]["mu_signal"] = 0.1
    cfgp.write_text(json.dumps(raw))
    assert cli.main(["sweep", "--config", str(cfgp)]) == 0
    assert config_from_dict(raw).protocol.mu_signal == 0.1
    # an emitted config holds only its kind's fields, and loads back unchanged
    for kind, record in KINDS.items():
        fields = record.fields
        cfg = config_from_dict(minimal_dps(protocol={"kind": kind}))
        emitted = json.loads(json.dumps(cfg.to_dict()))
        assert set(emitted["protocol"]) == {"kind", *fields}
        back = config_from_dict(emitted)
        assert (back.protocol, back.detector, back.losses_db, back.seed) == \
            (cfg.protocol, cfg.detector, cfg.losses_db, cfg.seed)
    for protocol in ({}, {"kind": "b92"}, {"kind": ["dps"]}):
        with pytest.raises(ConfigError, match="protocol: kind must be one of"):
            config_from_dict(minimal_dps(protocol=protocol))


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_the_frame_and_contrast_are_no_config_fields(tmp_path, capsys, kind):
    # a kind's frame is KINDS[kind].temporal_efficiency, and imperfect locking
    # is sigma_phi alone, so a config naming either fails at load, by name
    cfgp = tmp_path / "cfg.json"
    for field in ("temporal_efficiency", "visibility_floor"):
        raw = minimal_dps(protocol={"kind": kind, field: 1.0})
        with pytest.raises(ConfigError,
                           match=f"^unknown {kind} protocol fields: {field}$"):
            config_from_dict(raw)
        cfgp.write_text(json.dumps(raw))
        assert cli.main(["sweep", "--config", str(cfgp)]) == 1
        assert field in capsys.readouterr().err


def test_readme_names_every_protocol_field():
    # README's field and provenance tables name each field some kind reads,
    # and no other
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    named = set(re.findall(r"`protocol\.(\w+)`", readme))
    assert named == {name for kind in KINDS.values() for name in kind.fields}


def test_pulses_floor():
    with pytest.raises(ConfigError, match="pulses_per_point"):
        config_from_dict(minimal_dps(pulses_per_point=10))


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  broken\n}")
    with pytest.raises(ConfigError, match="line"):
        load_config(bad)
    # valid JSON of the wrong shape fails validation too, and simulate
    # exits with the validation code
    for raw, field in (([minimal_dps()], "config"),
                       (minimal_dps(protocol=5), "protocol"),
                       (minimal_dps(protocol=["dps"]), "protocol")):
        bad.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match=field):
            load_config(bad)
        assert cli.main(["simulate", "--config", str(bad)]) == 1


def test_explicit_detector():
    cfg = config_from_dict(minimal_dps(
        detector={"efficiency": 0.3, "dark_rate_hz": 100.0, "label": "lab"}))
    assert cfg.detector.efficiency == 0.3
    assert cfg.detector.gate_rate_hz == 2e9
    with pytest.raises(ConfigError, match="efficiency"):
        config_from_dict(minimal_dps(detector={"dark_rate_hz": 1.0}))
    with pytest.raises(ConfigError, match="efficiency"):
        config_from_dict(minimal_dps(detector={"preset": "snspd",
                                               "efficiency": 0.5}))
    for label in ([1], 5, None):
        with pytest.raises(ConfigError, match="detector.label"):
            config_from_dict(minimal_dps(detector={
                "efficiency": 0.3, "dark_rate_hz": 100.0, "label": label}))
    for bad in ("0.5", True, None, float("nan")):
        with pytest.raises(ConfigError, match="detector.efficiency"):
            config_from_dict(minimal_dps(
                detector={"efficiency": bad, "dark_rate_hz": 100.0}))
        with pytest.raises(ConfigError, match="detector.gate_rate_hz"):
            config_from_dict(minimal_dps(
                detector={"preset": "snspd", "gate_rate_hz": bad}))


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_rows_sorted_and_monotone():
    cfg = config_from_dict(minimal_dps(channel={"loss_db": [20.0, 0.0, 10.0]}))
    table = run_sweep(cfg)
    losses = [r.loss_db for r in table.rows]
    assert losses == [0.0, 10.0, 20.0]
    skrs = [r.skr_bps for r in table.rows]
    assert skrs[0] > skrs[1] > skrs[2]
    assert all(r.analytic_skr_bps > 0 for r in table.rows)


def test_sweep_starts_no_thread(monkeypatch):
    def refuse(self):
        raise AssertionError("a sweep started a thread")
    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert len(run_sweep(config_from_dict(minimal_dps())).rows) == 3


@pytest.mark.parametrize("kind", ["dps", "bb84-decoy"], ids=["dps", "bb84"])
def test_sweep_points_share_no_state(kind):
    raw = minimal_dps(channel={"loss_db": [20.0, 0.0, 10.0]})
    raw["protocol"]["kind"] = kind
    cfg = config_from_dict(raw)
    # each point's row is the same whatever ran before it
    backwards = [run_point(cfg, cfg.losses_db[i], i)
                 for i in reversed(range(len(cfg.losses_db)))]
    assert SweepTable(backwards[::-1]).to_csv() == run_sweep(cfg).to_csv()


def test_sweep_csv_roundtrip():
    cfg = config_from_dict(minimal_dps())
    table = run_sweep(cfg)
    back = SweepTable.from_csv(table.to_csv())
    assert back.to_csv() == table.to_csv()


def test_compare_rejects_malformed_tables_by_line(tmp_path, capsys):
    good = run_sweep(config_from_dict(minimal_dps())).to_csv()
    header, row = good.splitlines()[:2]
    table = tmp_path / "table.csv"
    for text, line in (("", 1), ("\n\n", 3), (header + "\n", 2),
                       (f"{header}\n{row}\n{row.rpartition(',')[0]}\n", 3),
                       (f"{header}\n{row},7\n", 2),
                       (f"{header.rpartition(',')[0]}\n{row}\n", 1)):
        with pytest.raises(ValueError, match=f"sweep CSV line {line}: "):
            SweepTable.from_csv(text)
        table.write_text(text)
        assert cli.main(["compare", "--table", str(table)]) == 1
        assert capsys.readouterr().err.startswith(f"error: sweep CSV line {line}: ")
    # a missing table or reference file is an error line too, not a traceback
    table.write_text(good)
    for argv in (["--table", str(tmp_path / "none.csv")],
                 ["--table", str(table), "--references", str(tmp_path / "none.json")]):
        assert cli.main(["compare", *argv]) == 1
        assert "none." in capsys.readouterr().err


@pytest.mark.parametrize("column, text, message", [
    ("qber", "abc", "could not convert string to float: 'abc'"),
    ("clicks", "1e2", "invalid literal for int() with base 10: '1e2'"),
    ("qber", "nan", "'nan' is not finite"),
    ("skr_bps", "-inf", "'-inf' is not finite"),
])
def test_compare_names_the_line_and_column_of_a_bad_field(tmp_path, capsys,
                                                          column, text, message):
    header, *rows = run_sweep(config_from_dict(minimal_dps())).to_csv().splitlines()
    values = rows[1].split(",")
    values[harness.CSV_COLUMNS.index(column)] = text
    rows[1] = ",".join(values)
    table = tmp_path / "table.csv"
    table.write_text("\n".join([header, *rows]) + "\n")
    expected = f"sweep CSV line 3, column {column}: {message}"
    with pytest.raises(ValueError) as exc:
        SweepTable.from_csv(table.read_text())
    assert str(exc.value) == expected
    assert cli.main(["compare", "--table", str(table)]) == 1
    assert capsys.readouterr().err == f"error: {expected}\n"


def test_run_session():
    cfg = config_from_dict(minimal_dps())
    res = run_session(cfg, 10.0)
    assert res.protocol == "dps"
    assert res.pulses_sent == 100_000
    # it runs the session of the sweep's first point
    row = run_point(cfg, 10.0, 0)
    assert (row.qber, row.clicks) == (res.qber, res.per_intensity["signal"].clicks)
    raw = minimal_dps()
    raw["protocol"]["kind"] = "bb84-decoy"
    assert run_session(config_from_dict(raw), 10.0).protocol == "bb84-decoy"


# ---------------------------------------------------------------------------
# reference comparison
# ---------------------------------------------------------------------------

def fake_table():
    from qkdtx.harness import SweepRow
    rows = [SweepRow(loss_db=l, qber=0.025, sifted_rate_hz=1e6 * 10 ** (-l / 10),
                     skr_bps=4e5 * 10 ** ((20 - l) / 10), analytic_qber=0.025,
                     analytic_skr_bps=4e5 * 10 ** ((20 - l) / 10), clicks=1000,
                     seed=1) for l in (10.0, 15.0, 20.0, 25.0)]
    return SweepTable(rows)


def test_compare_factor_band():
    refs = [ReferencePoint("skr20", 20.0, "skr_bps", 4e5, "factor", 2.0),
            ReferencePoint("qber20", 20.0, "qber", 0.025, "absolute", 0.005)]
    rep = compare_to_reference(fake_table(), refs)
    assert rep.all_passed
    refs_bad = [ReferencePoint("skr20", 20.0, "skr_bps", 4e5 * 3, "factor", 2.0)]
    assert not compare_to_reference(fake_table(), refs_bad).all_passed


def test_compare_log_interpolation():
    # table is exactly log-linear, so any interpolated loss lands on the line
    refs = [ReferencePoint("mid", 17.5, "skr_bps",
                           4e5 * 10 ** ((20 - 17.5) / 10), "relative", 1e-9)]
    rep = compare_to_reference(fake_table(), refs)
    assert rep.all_passed


def test_compare_rejects_an_empty_table():
    refs = [ReferencePoint("skr20", 20.0, "skr_bps", 4e5, "factor", 2.0)]
    with pytest.raises(ValueError, match="sweep table has no rows"):
        compare_to_reference(SweepTable([]), refs)


def test_compare_out_of_range():
    refs = [ReferencePoint("far", 40.0, "skr_bps", 1e3, "factor", 2.0)]
    with pytest.raises(ValueError, match="outside the swept range"):
        compare_to_reference(fake_table(), refs)


def test_reference_point_validation():
    with pytest.raises(ValueError):
        ReferencePoint("x", 10.0, "skr_bps", 1e3, "factor", 0.0)
    with pytest.raises(ValueError):
        ReferencePoint("x", 10.0, "volts", 1e3, "factor", 2.0)
    # a factor band [expected / f, expected * f] is empty for f < 1
    with pytest.raises(ValueError, match="factor tolerance must be >= 1"):
        ReferencePoint("x", 10.0, "skr_bps", 1e3, "factor", 0.5)
    assert ReferencePoint("x", 10.0, "qber", 0.02, "absolute", 0.5).tolerance == 0.5


def _reference(**changes):
    entry = {"label": "skr10", "loss_db": 10.0, "quantity": "skr_bps",
             "expected": 1.0, "tolerance_kind": "factor", "tolerance": 1e12}
    entry.update(changes)
    return {key: value for key, value in entry.items() if value is not None}


@pytest.mark.parametrize("refs, message", [
    ({"points": [_reference()]}, "non-empty 'references' list"),
    ({"references": []}, "non-empty 'references' list"),
    ({"references": [_reference(tolerance=None)]}, r"references\[0\] must have"),
    ({"references": [_reference(), _reference(units="W")]},
     r"references\[1\] must have"),
    ({"references": [_reference(loss_db=float("nan"))]}, "loss_db must be a finite"),
    ({"references": [_reference(expected=float("inf"))]}, "expected must be a finite"),
    ({"references": [_reference(tolerance=float("nan"))]},
     "tolerance must be a finite"),
    ({"references": [_reference(tolerance=0.9)]}, "factor tolerance must be >= 1"),
    ({"references": [_reference(label=5)]}, "label must be a string"),
], ids=["no-references-key", "empty-list", "missing-key", "unknown-key",
        "nan-loss", "inf-expected", "nan-tolerance", "factor-below-1", "numeric-label"])
def test_bad_reference_files_fail_by_name(tmp_path, capsys, refs, message):
    cfgp = write_config(tmp_path, channel={"loss_db": [10.0]})
    table = tmp_path / "table.csv"
    assert cli.main(["sweep", "--config", str(cfgp), "--out", str(table)]) == 0
    refs_path = tmp_path / "refs.json"
    refs_path.write_text(json.dumps(refs))
    with pytest.raises(ValueError, match=message):
        load_reference_points(refs_path)
    # --select reads every label, so it must fail the same way
    for select in ([], ["--select", "dps"]):
        assert cli.main(["compare", "--table", str(table),
                         "--references", str(refs_path), *select]) == 1
        assert capsys.readouterr().err.startswith("error: ")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def write_config(tmp_path, **extra):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(minimal_dps(**extra)))
    return path


def test_cli_simulate(tmp_path, capsys):
    cfgp = write_config(tmp_path)
    out = tmp_path / "result.json"
    rc = cli.main(["simulate", "--config", str(cfgp), "--loss-db", "10",
                   "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["result"]["protocol"] == "dps"
    assert payload["config"]["seed"] == 11
    # the emitted config, provenance block included, loads back unchanged
    cfg, back = load_config(cfgp), config_from_dict(payload["config"])
    assert (back.protocol, back.detector, back.losses_db, back.pulses_per_point,
            back.seed) == (cfg.protocol, cfg.detector, cfg.losses_db,
                           cfg.pulses_per_point, cfg.seed)


def test_cli_points_override_is_not_tagged_as_default(tmp_path):
    raw = minimal_dps()
    del raw["pulses_per_point"]
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(raw))
    out = tmp_path / "result.json"
    assert cli.main(["simulate", "--config", str(cfgp), "--out", str(out)]) == 0
    assert "pulses_per_point" in json.loads(out.read_text())["config"]["provenance"]
    assert cli.main(["simulate", "--config", str(cfgp), "--points", "5000",
                     "--out", str(out)]) == 0
    config = json.loads(out.read_text())["config"]
    assert config["pulses_per_point"] == 5000
    assert "pulses_per_point" not in config["provenance"]


def test_cli_sweep_and_compare_roundtrip(tmp_path):
    cfgp = write_config(tmp_path)
    table_path = tmp_path / "table.csv"
    rc = cli.main(["sweep", "--config", str(cfgp), "--out", str(table_path)])
    assert rc == 0
    refs = {"references": [
        {"label": "skr10", "loss_db": 10.0, "quantity": "skr_bps",
         "expected": 1.0, "tolerance_kind": "factor", "tolerance": 1e12}]}
    refs_path = tmp_path / "refs.json"
    refs_path.write_text(json.dumps(refs))
    rep_path = tmp_path / "report.json"
    rc = cli.main(["compare", "--table", str(table_path),
                   "--references", str(refs_path), "--out", str(rep_path)])
    assert rc == 0
    report = json.loads(rep_path.read_text())
    assert report["all_passed"]

    refs["references"][0].update(expected=1e15, tolerance=1.1)
    refs_path.write_text(json.dumps(refs))
    rc = cli.main(["compare", "--table", str(table_path),
                   "--references", str(refs_path)])
    assert rc == 2  # reference-comparison failure exit code


def test_cli_validation_error_exit_code(tmp_path, capsys):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(minimal_dps(seed="later")))
    rc = cli.main(["sweep", "--config", str(cfgp)])
    assert rc == 1
    cfgp.write_text(json.dumps(minimal_dps()))
    for workers in ("0", "-3"):
        rc = cli.main(["sweep", "--config", str(cfgp), "--workers", workers])
        assert rc == 1
        assert "--workers must be >= 1" in capsys.readouterr().err
    # a negative seed is named, whether it comes from the config or --seed
    cfgp.write_text(json.dumps(minimal_dps(seed=-1)))
    for command in ("sweep", "simulate"):
        assert cli.main([command, "--config", str(cfgp)]) == 1
        assert "seed must be >= 0" in capsys.readouterr().err
    cfgp.write_text(json.dumps(minimal_dps()))
    for argv in (["sweep", "--config", str(cfgp), "--seed", "-3"],
                 ["simulate", "--config", str(cfgp), "--seed", "-3"],
                 ["qrng", "--n", "20000", "--seed", "-3"],
                 ["constellation", "--symbols", "64", "--seed", "-3"]):
        assert cli.main(argv) == 1
        assert "--seed must be >= 0" in capsys.readouterr().err
    for argv, message in ((["--n", "0"], "n must be >= 1"),
                          (["--n", "20000", "--lags", "0"], "max_lag must be >= 1")):
        assert cli.main(["qrng", "--seed", "5", *argv]) == 1
        assert message in capsys.readouterr().err
    # a non-finite phase noise is named, not run as a noiseless or NaN eye
    for sigma in ("nan", "inf"):
        assert cli.main(["constellation", "--symbols", "64", "--seed", "5",
                         "--sigma", sigma]) == 1
        assert "phase_noise_sigma must be finite" in capsys.readouterr().err


def test_cli_compare_select_filter(tmp_path, capsys):
    # 32M pulses put the Monte-Carlo QBER's standard deviation near 0.1
    # points, so the reference's 0.5-point band is about 5 sigma wide
    cfgp = write_config(tmp_path, channel={"loss_db": [20.0]},
                        pulses_per_point=32_000_000)
    table_path = tmp_path / "table.csv"
    assert cli.main(["sweep", "--config", str(cfgp),
                     "--out", str(table_path)]) == 0
    out = tmp_path / "rep.json"
    rc = cli.main(["compare", "--table", str(table_path),
                   "--select", "dps-snspd", "--out", str(out)])
    report = json.loads(out.read_text())
    labels = {e["label"] for e in report["entries"]}
    assert labels == {"dps-snspd-20db-skr", "dps-snspd-20db-qber"}
    assert rc == 0 and report["all_passed"]
    assert cli.main(["compare", "--table", str(table_path),
                     "--select", "nothing-matches"]) == 1


def test_cli_qrng(tmp_path):
    bytes_path = tmp_path / "raw.bin"
    report_path = tmp_path / "report.json"
    rc = cli.main(["qrng", "--n", "50000", "--seed", "5",
                   "--out-bytes", str(bytes_path), "--out", str(report_path)])
    assert rc == 0
    blob = bytes_path.read_bytes()
    assert len(blob) == 50000
    assert hashlib.sha256(blob).hexdigest() == (
        "4186a282938d80d9c90fdaf527621dec9919bcd2b94ecc28d03e9ee2e4bc2df2")
    report = json.loads(report_path.read_text())
    assert report["p_value"] > 0.001
    assert len(report["autocorr"]) == 50
    assert 4.0 < report["min_entropy_bits"] < 5.0
    with pytest.raises(SystemExit):  # --n is the only size option
        cli.main(["qrng", "--points", "50000", "--seed", "5"])


def test_cli_constellation(tmp_path):
    out = tmp_path / "c.json"
    rc = cli.main(["constellation", "--levels", "8", "--symbols", "64",
                   "--seed", "3", "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["modulation_levels"] == 8
    assert len(rep["eye_levels"]) == 5


def test_cli_constellation_bytes_are_pinned(tmp_path):
    out = tmp_path / "eye.json"
    assert cli.main(["constellation", "--levels", "8", "--sigma", "0.05",
                     "--symbols", "25000", "--seed", "7", "--out", str(out)]) == 0
    blob = out.read_bytes()
    assert len(blob) == 1_688_609
    assert hashlib.sha256(blob).hexdigest() == (
        "3a86755dabb57b368b5bc20f1bc90271d6c0a1cde667ca373be01b516c99e127")


#: sha256 of each bundled config's CLI outputs: the sweep CSV on 1 worker,
#: the sweep JSON on 8 and `simulate --loss-db 20`. They pin the Monte-Carlo
#: tallies, the analytic columns and every key rate.
BUNDLED_OUTPUT_SHA256 = {
    "dps_snspd.json": (
        "2488bd645838fe1b7675d27089bd41dfba1a3ad1fed9b54970551e17e49f8692",
        "737150354bb226d7d39347a16c3d48b537a88c2d3a4de4173e829a97e59fc340",
        "347f225330df63073955c31022f1b7fb6f2a6eb98d837910a1dae56c4a1414c7"),
    "bb84_snspd.json": (
        "bdbdeea3c8479664372fc188db8c41fbd4a1331ddcdce1a7a1ec01663cd2bd70",
        "03604dab4ce9f68096e566eec1f3d3991ad0fd6ef2734a4c4139666bd977428b",
        "0492ec79a65172a96cffd34346d58293ca7cce9fcf3d9561fcc23bcfc534c4b0"),
}


@pytest.mark.parametrize("name", sorted(BUNDLED_OUTPUT_SHA256))
def test_bundled_outputs_are_pinned(tmp_path, name):
    cfgp = str(resources.files("qkdtx.data").joinpath(name))
    out = tmp_path / "out"
    digests = []
    for argv in (["sweep", "--workers", "1"],
                 ["sweep", "--workers", "8", "--format", "json"],
                 ["simulate", "--loss-db", "20"]):
        assert cli.main([*argv, "--config", cfgp, "--out", str(out)]) == 0
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert tuple(digests) == BUNDLED_OUTPUT_SHA256[name]


# a list, not the one-shot product: a second collection in one process
# (pytest --keep-duplicates) would find the iterator empty
@pytest.mark.parametrize("levels, sigma", list(itertools.product((2, 3, 8), (0.0, 0.3))))
def test_cli_constellation_matches_json_dumps(tmp_path, levels, sigma):
    out = tmp_path / "eye.json"
    assert cli.main(["constellation", "--levels", str(levels), "--sigma", repr(sigma),
                     "--symbols", "300", "--seed", "4", "--out", str(out)]) == 0
    report = optics.constellation_eye(levels, sigma, 300,
                                      np.random.Generator(np.random.PCG64(4)))
    payload = {
        "modulation_levels": report.modulation_levels,
        "n_symbols": len(report.points),
        "eye_levels": report.eye_levels.tolist(),
        "points": [{"radius": float(p.radius), "angle": float(p.angle)}
                   for p in report.points],
    }
    assert out.read_text() == json.dumps(payload, indent=2) + "\n"


def test_cli_sweep_seed_and_points_override(tmp_path):
    cfgp = write_config(tmp_path)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert cli.main(["sweep", "--config", str(cfgp), "--seed", "99",
                     "--out", str(a)]) == 0
    assert cli.main(["sweep", "--config", str(cfgp), "--seed", "100",
                     "--out", str(b)]) == 0
    assert a.read_text() != b.read_text()


@pytest.mark.parametrize("name, classes",
                         [("dps_snspd.json", 1), ("bb84_snspd.json", 3)])
def test_each_point_computes_its_closed_form_and_seed_once(monkeypatch, name,
                                                           classes):
    calls = {}

    def count(module, attr):
        original = getattr(module, attr)

        def counted(*args, **kwargs):
            calls[attr] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, attr, counted)
    count(protocols, "_mean_wrong_click")
    count(harness, "point_seed")
    cfg = load_config(resources.files("qkdtx.data").joinpath(name))
    n_points = len(cfg.losses_db)
    for run, points in ((lambda: run_point(cfg, cfg.losses_db[-1], 0), 1),
                        (lambda: run_sweep(cfg), n_points)):
        calls.update(_mean_wrong_click=0, point_seed=0)
        run()
        assert calls == {"_mean_wrong_click": classes * points,
                         "point_seed": points}


def test_cli_main_carries_no_state_between_calls(tmp_path, capsys,
                                                 monkeypatch):
    parses = []
    parse_args = argparse.ArgumentParser.parse_args

    def recorded(self, *args, **kwargs):
        namespace = parse_args(self, *args, **kwargs)
        parses.append(vars(namespace))
        return namespace
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recorded)
    cfgp = str(write_config(tmp_path))
    first_sweep = ["sweep", "--config", cfgp, "--seed", "99", "--points",
                   "5000", "--format", "json"]
    sequence = [first_sweep, ["sweep", "--config", cfgp],
                ["simulate", "--config", cfgp],
                ["qrng", "--n", "20000", "--seed", "5", "--lags", "4"],
                ["sweep", "--config", cfgp, "--format", "xml"], first_sweep]
    outputs = {}
    for argv in sequence * 2:
        parses.clear()
        if "xml" in argv:
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2 and parses == []
        else:
            assert cli.main(argv) == 0
            [parsed] = parses
            assert parsed == vars(cli.build_parser().parse_args(argv))
        out = capsys.readouterr()
        assert outputs.setdefault(tuple(argv), out) == out


def test_importing_the_cli_builds_no_parser():
    code = ("import argparse\n"
            "def refuse(*args, **kwargs):\n"
            "    raise AssertionError('a parser was built')\n"
            "argparse.ArgumentParser.__init__ = refuse\n"
            "import qkdtx.cli\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path},
                          timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]


def test_bundled_configs_load():
    for name in ("dps_snspd.json", "bb84_snspd.json"):
        with resources.files("qkdtx.data").joinpath(name).open() as f:
            cfg = config_from_dict(json.load(f))
        assert cfg.pulses_per_point >= 1_000_000
    refs = load_reference_points()
    assert len(refs) == 10
