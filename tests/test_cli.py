"""End-to-end runs of every subcommand through the argparse entry point."""
import contextlib
import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from spatial_firewalls import cli, percolation
from spatial_firewalls.bounds import protected_fraction
from spatial_firewalls.cli import AxisSpec, ExperimentSpec, SpecError, main
from spatial_firewalls.network import NetworkConfig
from spatial_firewalls.percolation import MAX_GRID_POINTS, critical_grid
from spatial_firewalls.spatial import Window


def _body(path):
    """CSV lines below the '#' metadata header."""
    return [l for l in path.read_text().splitlines() if not l.startswith("#")]


def test_bounds_stdout_json(capsys):
    rc = main(["bounds", "--lambda-r", "0.8", "--r-r", "2", "--lambda-f", "0.05",
               "--r-f", "2"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["critical_upper_bound"] == 0.12
    assert data["regime"] == "at_risk"


def test_bounds_table(capsys):
    rc = main(["bounds", "--lambda-r", "0.8", "--lambda-f", "0.05", "--table"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "critical_upper_bound" in out and "0.12" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)                         # table replaces the JSON


def test_bounds_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["bounds", "--r-r", "2", "--r-f", "2", "--lc1", "3.37",
               "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["lc1_provenance"] == "upper_3_37"
    summary = json.loads(capsys.readouterr().out)
    assert summary["out"] == str(out)


def test_sweep_schema_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--lambda-r", "0.5", "--window-size", "30", "--trials", "6",
            "--seed", "9", "--axis", "lambda_f", "--start", "0", "--stop", "0.1",
            "--step", "0.05"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2), "--workers", "2"]) == 0
    body1, body2 = _body(out1), _body(out2)
    assert body1 == body2                      # worker count cannot leak in
    assert body1[0].startswith("lambda_r,")
    assert len(body1) == 4
    for row in body1[1:]:
        fields = row.split(",")
        assert len(fields) == 9
        assert 0.0 <= float(fields[6]) <= 1.0
    meta = [l for l in out1.read_text().splitlines() if l.startswith("#")]
    assert any("tool:" in l for l in meta)
    assert any("spec:" in l for l in meta)


def test_sweep_requires_axis():
    assert main(["sweep", "--trials", "3"]) == 2


def test_sweep_over_lambda_r(tmp_path):
    out = tmp_path / "lr.csv"
    rc = main(["sweep", "--window-size", "30", "--trials", "4", "--lambda-f",
               "0.02", "--axis", "lambda_r", "--start", "0.3", "--stop", "0.6",
               "--step", "0.3", "--out", str(out)])
    assert rc == 0
    rows = _body(out)[1:]
    assert [float(r.split(",")[0]) for r in rows] == [0.3, 0.6]


def test_critical_csv_and_bound_lines(tmp_path):
    out = tmp_path / "crit.csv"
    rc = main(["critical", "--lambda-r", "0.8", "--window-size", "40",
               "--trials", "10", "--search-step", "0.04", "--seed", "2",
               "--out", str(out)])
    assert rc == 0
    text = out.read_text().splitlines()
    bound_lines = [l for l in text if "critical_upper_bound" in l]
    assert len(bound_lines) == 2               # lc1 = 1.44 and 3.37
    assert any("0.12" in l for l in bound_lines)
    body = _body(out)
    assert body[0] == "lambda_r,lambda_f_critical,epsilon,step,trials_per_point"
    assert len(body) == 2
    assert len(body[1].split(",")) == 5
    # 10 trials at epsilon 0.02: the upper rank exceeds the trials
    interval = [l for l in text if "interval" in l]
    assert len(interval) == 1
    assert interval[0].startswith("# lambda_f_critical interval lambda_r=0.8 level=0.95: [")
    assert interval[0].endswith(", unbounded]")


def test_critical_search_exhausted_exit(tmp_path, capsys):
    out = tmp_path / "crit.csv"
    rc = main(["critical", "--lambda-r", "0.8", "--window-size", "40",
               "--trials", "5", "--lambda-f-max", "0.004", "--search-step",
               "0.002", "--out", str(out)])
    assert rc == 1
    assert out.exists()                        # partial CSV still written
    assert _body(out)[0].startswith("lambda_r,")
    assert "exhausted" in capsys.readouterr().err


def test_validate_small(tmp_path):
    out = tmp_path / "validate.csv"
    rc = main(["validate", "--face-samples", "300", "--blocking-trials", "2000",
               "--coupling-realizations", "6", "--window-size", "30",
               "--out", str(out)])
    assert rc == 0
    body = _body(out)
    assert body[0] == "check_name,trials,violations,details"
    checks = {row.split(",")[0] for row in body[1:]}
    assert {"hex_blocking_search", "open_edge_coupling",
            "dependent_edge_count", "independence_offsets"} <= checks
    assert all(row.split(",")[2] == "0" for row in body[1:])
    meta = [l for l in out.read_text().splitlines() if l.startswith("#")]
    assert any("tool:" in l for l in meta) and any("spec:" in l for l in meta)


def test_validate_default_body_unchanged(tmp_path):
    """`validate` at its default sizes, whose 100 coupling worlds come from
    `build_isg`, writes the body pinned here."""
    out = tmp_path / "validate.csv"
    assert main(["validate", "--out", str(out)]) == 0
    assert _body(out) == [
        "check_name,trials,violations,details",
        "closed_face_mc_x0.5,2000,0,freq=0.1550 formula=0.1626 se=0.0083",
        "closed_face_mc_x1,2000,0,freq=0.5150 formula=0.5000 se=0.0112",
        "closed_face_mc_x2,2000,0,freq=0.8865 formula=0.8777 se=0.0073",
        "hex_blocking_search,100000,0,none",
        "open_edge_coupling,100,0,sub+super-critical mix; 47143 open edges",
        "dependent_edge_count,49,0,a,b in [2,8]^2",
        "independence_offsets,1,0,dx=5.3666 dy=7.1554",
    ]


def test_protected_rows(tmp_path):
    out = tmp_path / "prot.csv"
    rc = main(["protected", "--lambda-r", "0.5", "--window-size", "40",
               "--trials", "8", "--margin", "2", "--axis", "lambda_f",
               "--start", "0.05", "--stop", "0.1", "--step", "0.05",
               "--out", str(out)])
    assert rc == 0
    body = _body(out)
    assert body[0] == "lambda_f,r_f,trials,mean_fraction,std_err,formula_fraction"
    rows = [r.split(",") for r in body[1:]]
    assert len(rows) == 2
    assert float(rows[0][5]) == protected_fraction(0.05, 2.0)


# tiny specs of the four commands that write a CSV
_TINY = {
    "sweep": ["sweep", "--lambda-r", "0.5", "--window-size", "20", "--axis", "lambda_f",
              "--start", "0", "--stop", "0.1", "--step", "0.05"],
    "critical": ["critical", "--axis", "lambda_r", "--start", "1", "--stop", "1.5",
                 "--step", "0.5", "--window-size", "20", "--search-step", "0.05"],
    "validate": ["validate", "--face-samples", "50", "--blocking-trials", "100",
                 "--coupling-realizations", "2"],
    "protected": ["protected", "--lambda-r", "0.5", "--window-size", "20", "--axis", "r_f",
                  "--start", "2", "--stop", "3", "--step", "1"],
}


@pytest.mark.parametrize("command", sorted(_TINY))
def test_out_file_holds_the_stdout_body(command, tmp_path, capsys):
    """A command writes the same CSV body to stdout and to --out, and the
    summary line of --out counts the body's rows."""
    argv = _TINY[command] + ["--trials", "3", "--seed", "2"]
    assert main(argv) == 0
    printed = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert _body(out) == printed
    assert summary == {"command": command, "out": str(out), "rows": str(len(printed) - 1)}
    assert len(printed) > 2


_PROTECTED = ["protected", "--lambda-r", "0.5", "--window-size", "30",
              "--trials", "6", "--seed", "3"]
# bodies written by the per-point loop that ran before the r_f values of a
# sweep shared their worlds
_PROTECTED_BODIES = {
    "lambda_f": (["--margin", "2", "--axis", "lambda_f", "--start", "0.05",
                  "--stop", "0.15", "--step", "0.05"], [
        "lambda_f,r_f,trials,mean_fraction,std_err,formula_fraction",
        "0.05,2.0,6,0.45795245174300875,0.01567298224653833,0.4665119089088967",
        "0.1,2.0,6,0.6910312424904571,0.011922494004610332,0.7153904566639707",
        "0.15000000000000002,2.0,6,0.8332146135815833,0.014717634411571508,"
        "0.8481641980193512"]),
    "r_f": (["--margin", "4", "--lambda-f", "0.05", "--axis", "r_f", "--start", "2",
             "--stop", "4", "--step", "1"], [
        "lambda_f,r_f,trials,mean_fraction,std_err,formula_fraction",
        "0.05,2.0,6,0.4279284300329531,0.01475376659412345,0.4665119089088967",
        "0.05,3.0,6,0.7274042402668939,0.015201632061747754,0.7567624385624672",
        "0.05,4.0,6,0.9029993264649557,0.01214063343855704,0.9189974078420569"]),
}


@pytest.mark.parametrize("axis", sorted(_PROTECTED_BODIES))
def test_protected_axis_bodies_unchanged(axis, tmp_path):
    flags, expected = _PROTECTED_BODIES[axis]
    for workers in ("1", "2"):
        out = tmp_path / f"{axis}{workers}.csv"
        assert main(_PROTECTED + flags + ["--workers", workers, "--out", str(out)]) == 0
        assert _body(out) == expected


def test_protected_r_f_axis_matches_single_points(tmp_path, capsys):
    """Each row of an r_f sweep is the body row of a run at that r_f alone,
    and each point still prints its own progress line."""
    common = _PROTECTED + ["--margin", "4", "--lambda-f", "0.05"]
    out = tmp_path / "axis.csv"
    assert main(common + ["--axis", "r_f", "--start", "2", "--stop", "4.5",
                          "--step", "0.5", "--out", str(out)]) == 0
    assert capsys.readouterr().err.count("protected lambda_f=0.05 r_f=") == 6
    rows = _body(out)
    assert len(rows) == 7
    for k, row in enumerate(rows[1:]):
        single = tmp_path / f"r_f{k}.csv"
        assert main(common + ["--r-f", str(2 + 0.5 * k), "--out", str(single)]) == 0
        assert _body(single) == [rows[0], row]


def test_protected_axis_point_below_r_r(capsys):
    rc = main(["protected", "--r-r", "2", "--axis", "r_f", "--start", "1",
               "--stop", "3", "--step", "1", "--trials", "2"])
    err = capsys.readouterr().err
    _assert_spec_error_text(rc, err, "r_f < r_r")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["sweep", "--axis", "r_f", "--start", "1", "--stop", "1", "--step", "1",
     "--trials", "2"],
    ["bounds", "--r-f", "1", "--r-r", "2"],
])
def test_small_firewall_range_error_names_what_the_cli_can_change(argv, capsys):
    """r_f below r_r is refused with what to raise."""
    rc = main(argv)
    err = capsys.readouterr().err
    _assert_spec_error_text(rc, err, "r_f < r_r")
    assert "raise r_f to at least r_r" in err


def test_config_file_and_flag_override(tmp_path):
    cfg = {"command": "sweep", "lambda_r": 0.5, "window_size": 30, "trials": 3,
           "master_seed": 4,
           "axis": {"param": "lambda_f", "start": 0, "stop": 0.05, "step": 0.05}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out.csv"
    rc = main(["sweep", "--config", str(path), "--trials", "5", "--out", str(out)])
    assert rc == 0
    rows = _body(out)[1:]
    assert all(row.split(",")[5] == "5" for row in rows)   # flag wins over file


def test_config_command_mismatch(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"command": "bounds"}))
    assert main(["sweep", "--config", str(path)]) == 2
    assert "does not match" in capsys.readouterr().err


def test_config_unknown_field(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"command": "bounds", "lambda_q": 1.0}))
    assert main(["bounds", "--config", str(path)]) == 2
    assert "lambda_q" in capsys.readouterr().err


def test_config_invalid_json(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text("{\n  'command': sweep\n}")
    assert main(["bounds", "--config", str(path)]) == 2
    assert "line" in capsys.readouterr().err


def test_bad_axis_step(capsys):
    rc = main(["sweep", "--axis", "lambda_f", "--start", "0", "--stop", "0.1",
               "--step", "-0.01"])
    assert rc == 2
    assert "step" in capsys.readouterr().err


def test_bad_epsilon():
    assert main(["critical", "--epsilon", "1.5", "--trials", "2"]) == 2


def _assert_spec_error(rc, capsys, needle):
    _assert_spec_error_text(rc, capsys.readouterr().err, needle)


def _assert_spec_error_text(rc, err, needle):
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert needle in err


def test_config_wrong_field_type(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"command": "sweep", "trials": "100"}))
    _assert_spec_error(main(["sweep", "--config", str(path)]), capsys, "trials")


def test_config_integers_write_the_flags_body(tmp_path, capsys):
    """A float field given as a JSON integer, an axis's included, is stored
    as a float, so a run from a config file writes the body and the spec
    line of the same run from flags."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "command": "sweep", "lambda_r": 1, "r_r": 2, "lambda_f": 0, "r_f": 2,
        "window_size": 20, "trials": 2,
        "axis": {"param": "r_f", "start": 2, "stop": 3, "step": 1}}))
    outputs = []
    for argv in (["--config", str(path)],
                 ["--lambda-r", "1", "--r-r", "2", "--lambda-f", "0", "--r-f", "2",
                  "--window-size", "20", "--trials", "2",
                  "--axis", "r_f", "--start", "2", "--stop", "3", "--step", "1"]):
        assert main(["sweep"] + argv) == 0
        outputs.append([line for line in capsys.readouterr().out.splitlines()
                        if not line.startswith("# wall_time_s")])
    assert outputs[0] == outputs[1]
    assert outputs[0][-2].startswith("1.0,2.0,0.0,2.0,20.0,2,")


@pytest.mark.parametrize("config,needle", [
    ({"r_r": 10 ** 400}, "r_r is too large for a float"),
    ({"axis": {"param": "lambda_f", "start": 0, "stop": -10 ** 400, "step": 1}},
     "axis.stop is too large for a float"),
])
def test_config_integer_too_large_for_a_float_exits_2(config, needle, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"command": "sweep", **config}))
    _assert_spec_error(main(["sweep", "--config", str(path)]), capsys, needle)


def test_config_integer_too_long_to_read_exits_2(tmp_path, capsys):
    """An integer of more digits than Python converts is a malformed file."""
    path = tmp_path / "spec.json"
    path.write_text('{"command": "bounds", "r_r": ' + "1" * 5000 + "}")
    _assert_spec_error(main(["bounds", "--config", str(path)]), capsys, "digits")


@pytest.mark.parametrize("trials", [10 ** 29, 2 ** 63 - 1, 2 ** 62 + 1])
def test_trials_beyond_the_fan_outs_int64_exit_2(trials, tmp_path, capsys):
    """A trial count the fan-out's int64 trial ranges cannot hold is refused
    before any work, from flags and from a config file; 2**62 passes."""
    for argv in (["sweep", "--trials", str(trials)] + _AXIS,
                 ["protected", "--trials", str(trials), "--lambda-f", "0.1"]):
        _assert_spec_error(main(argv), capsys, "trials must be <= 2**62")
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"command": "sweep", "trials": trials, "axis": {
        "param": "lambda_f", "start": 0, "stop": 0.1, "step": 0.05}}))
    _assert_spec_error(main(["sweep", "--config", str(path)]), capsys, "trials")
    ExperimentSpec(command="bounds", trials=2 ** 62).validate()


# each subcommand's (option string, dest, parse type), as they were written
# by hand before the flags came from ExperimentSpec's fields
_COMMON_OPTIONS = {
    ("-h", "help", None), ("--help", "help", None), ("--config", "config", None),
    ("--seed", "master_seed", int), ("--trials", "trials", int),
    ("--epsilon", "epsilon", float), ("--out", "out", None), ("--lc1", "lc1", None),
    ("--workers", "workers", int), ("--lambda-r", "lambda_r", float),
    ("--r-r", "r_r", float), ("--lambda-f", "lambda_f", float), ("--r-f", "r_f", float),
    ("--window-size", "window_size", float), ("--margin", "firewall_margin", float),
    ("--axis", "axis_param", None), ("--start", "axis_start", float),
    ("--stop", "axis_stop", float), ("--step", "axis_step", float)}
_OWN_OPTIONS = {
    "sweep": set(), "protected": set(), "bounds": {("--table", "table", None)},
    "critical": {("--lambda-f-max", "lambda_f_max", float),
                 ("--search-step", "search_step", float)},
    "validate": {("--face-samples", "face_samples", int),
                 ("--blocking-trials", "blocking_trials", int),
                 ("--coupling-realizations", "coupling_realizations", int)}}


@pytest.mark.parametrize("command", sorted(_OWN_OPTIONS))
def test_each_subcommand_keeps_its_options(command):
    sub = next(a for a in cli._build_parser()._actions if a.dest == "command")
    actions = sub.choices[command]._actions
    assert {(s, a.dest, a.type) for a in actions for s in a.option_strings} \
        == _COMMON_OPTIONS | _OWN_OPTIONS[command]
    assert next(a.help for a in actions if a.dest == "lc1") == \
        "1.44 | 3.37 | 0.768 | custom float"


_AXIS = ["--axis", "lambda_f", "--start", "0", "--stop", "0.1", "--step", "0.05"]


@pytest.mark.parametrize("argv,needle", [
    (["sweep", "--lambda-r", "-1"] + _AXIS, "lambda_r"),
    (["sweep", "--window-size", "nan"] + _AXIS, "window_size"),
    (["sweep", "--margin", "nan"] + _AXIS, "firewall_margin"),
    (["sweep", "--axis", "r_r", "--start", "0", "--stop", "2", "--step", "1"], "r_r"),
    (["sweep", "--axis", "lambda_f", "--start", "0", "--stop", "nan",
      "--step", "0.05"], "axis"),
    (["validate", "--face-samples", "10", "--blocking-trials", "10",
      "--coupling-realizations", "-3"], "coupling_realizations"),
    (["validate", "--r-r", "1e-9", "--r-f", "1e-9", "--coupling-realizations", "1",
      "--face-samples", "10", "--blocking-trials", "10"], "2**62"),
    # an oversized coupling lattice is refused before any check runs
    (["validate", "--r-r", "1e-3", "--r-f", "1e-3", "--coupling-realizations", "1",
      "--face-samples", "10", "--blocking-trials", "10"], "coupling lattice"),
    # a range just above the square's underflow gives cells too many to count
    (["sweep", "--r-r", "1e-150", "--r-f", "1"] + _AXIS, "2**62"),
    (["critical", "--r-r", "1e-150", "--r-f", "1"], "2**62"),
    # a range whose square overflows float64 cannot be tested
    (["critical", "--r-f", "1e200"], "square overflows"),
    (["protected", "--r-f", "1e200", "--lambda-f", "0.1"], "square overflows"),
    (["validate", "--r-r", "1e200", "--r-f", "1e200", "--coupling-realizations", "1",
      "--face-samples", "10", "--blocking-trials", "10"], "square overflows"),
    (["bounds", "--r-f", "1e200"], "square overflows"),
    (["sweep", "--r-f", "1e200"] + _AXIS, "square overflows"),
    # nor a ratio r_f / r_r whose dependent-edge count overflows a float
    (["bounds", "--r-r", "1e-150", "--r-f", "1e10"], "dependent-edge count"),
    # a huge window is refused without an overflow warning
    (["sweep", "--window-size", "1e200"] + _AXIS, "2**62"),
    (["critical", "--window-size", "1e300"], "2**62"),
    # nor one whose square underflows to 0
    (["bounds", "--r-r", "1e-200", "--r-f", "1e-200"], "square underflows"),
    (["sweep", "--r-r", "5e-324", "--r-f", "1"] + _AXIS, "square underflows"),
])
def test_malformed_model_parameters(argv, needle, capsys):
    _assert_spec_error(main(argv + ["--trials", "2"]), capsys, needle)


@pytest.mark.parametrize("words,needle", [
    (["bounds", "--r-r", "-1e-3"], "r_r must be > 0"),
    (["sweep"] + _AXIS + ["--lambda-r", "-inf"], "lambda_r must be finite and >= 0"),
    (["bounds", "--r-f", "-nan"], "r_f must be > 0"),
])
def test_a_negative_value_written_as_its_own_word(words, needle, capsys):
    """-1e-3, -inf and -nan after a flag are its value, as in the `=` form,
    not a flag that argparse does not know: exit 2 with one error line."""
    joined = words[:-2] + [f"{words[-2]}={words[-1]}"]
    for argv in (words, joined):
        _assert_spec_error(main(argv), capsys, needle)


@pytest.mark.parametrize("source", ["flags", "config"])
@pytest.mark.parametrize("command, param, needle", [
    pytest.param("bounds", "lambda_r", "bounds takes no axis", id="bounds"),
    pytest.param("validate", "lambda_r", "validate takes no axis", id="validate"),
    pytest.param("critical", "r_f", "critical takes an axis over lambda_r only",
                 id="critical"),
    pytest.param("protected", "r_r", "protected takes an axis over lambda_f or r_f only",
                 id="protected"),
    pytest.param("sweep", None, "sweep requires an axis", id="sweep"),
])
def test_bounds_and_validate_refuse_an_axis(command, param, needle, source, tmp_path,
                                            capsys):
    """An axis that the command does not take, or a sweep without one, is
    refused, from flags or from a config file, before any per-point check
    or work: exit 2 with one error line. At r_f = 0.5 < r_r, critical over
    r_f names the axis, not the firewall range."""
    spec = {"command": command}
    argv = [command]
    if param is not None:
        spec["axis"] = {"param": param, "start": 0.5, "stop": 1.0, "step": 0.5}
        argv += ["--axis", param, "--start", "0.5", "--stop", "1", "--step", "0.5"]
    if source == "config":
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        argv = [command, "--config", str(path)]
    with contextlib.ExitStack() as stack:
        runs = [stack.enter_context(mock.patch.object(cli, f"_run_{name}"))
                for name in cli._COMMANDS]
        _assert_spec_error(main(argv), capsys, needle)
    assert not any(run.called for run in runs)


@pytest.mark.parametrize("argv", [
    ["protected", "--lambda-r", "0"],
    ["protected", "--lambda-r", "0", "--axis", "lambda_f", "--start", "0", "--stop", "1",
     "--step", "0.5"],
])
def test_protected_needs_positive_lambda_r(argv, capsys):
    _assert_spec_error(main(argv + ["--trials", "2"]), capsys, "lambda_r")


def test_protected_no_devices_exit(capsys):
    rc = main(["protected", "--lambda-r", "1e-9", "--trials", "2",
               "--window-size", "5"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "empty device sets" in err


def test_run_too_large_for_memory_exits_1(capsys):
    """A firewall pool below NumPy's Poisson limit but far beyond memory
    (1e16 firewalls) fails at its first allocation, before any byte is
    touched: exit 1 with one error line, not a traceback."""
    rc = main(["protected", "--lambda-f", "1e12", "--window-size", "100",
               "--trials", "1"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "allocate" in err


def test_axis_point_count_bound():
    """An axis of MAX_GRID_POINTS points validates; one point more is
    refused before a value list or a configuration is built."""
    at = AxisSpec("lambda_f", 0.0, MAX_GRID_POINTS - 1.0, 1.0)
    at.validate()
    assert at.size() == MAX_GRID_POINTS
    over = ExperimentSpec(command="sweep",
                          axis=AxisSpec("lambda_f", 0.0, float(MAX_GRID_POINTS), 1.0))
    with pytest.raises(SpecError, match="more than 100000 points"):
        over.validate()
    # a ratio that overflows to inf is refused too
    with pytest.raises(SpecError, match="more than 100000 points"):
        AxisSpec("lambda_f", 0.0, 1.0, 5e-324).validate()


def test_critical_grid_point_count_bound():
    """The critical search's grid j * step / 8, j = 0..n, up to lambda_f_max:
    MAX_GRID_POINTS points pass, one more is a SpecError from the spec and
    a ValueError from the search's own helper."""
    cfg = NetworkConfig(lambda_r=0.8, r_r=2.0, lambda_f=0.0, r_f=2.0,
                        window=Window.square(10.0))
    at = 8.0 / (MAX_GRID_POINTS - 1)  # lambda_f_max 1 in MAX - 1 intervals
    assert critical_grid(cfg, 1.0, at)[2] + 1 == MAX_GRID_POINTS
    ExperimentSpec(command="critical", lambda_f_max=1.0, search_step=at).validate()

    over = 8.0 / MAX_GRID_POINTS
    with pytest.raises(ValueError, match="more than 100000 points"):
        critical_grid(cfg, 1.0, over)
    for spec in (ExperimentSpec(command="critical", lambda_f_max=1.0, search_step=over),
                 ExperimentSpec(command="critical", search_step=1e-320)):
        with pytest.raises(SpecError, match="more than 100000 points"):
            spec.validate()


def test_ceiling_below_one_grid_step(tmp_path):
    """A lambda_f_max far below step / 8 searches the grid (0, step / 8)
    instead of dividing by an empty grid."""
    cfg = NetworkConfig(lambda_r=0.8, r_r=2.0, lambda_f=0.0, r_f=2.0,
                        window=Window.square(10.0))
    assert critical_grid(cfg, 1e-12, 1.0) == (0.125, 1.0, 1)
    out = tmp_path / "crit.csv"
    assert main(["critical", "--lambda-f-max", "1e-12", "--search-step", "1",
                 "--lambda-r", "0.1", "--window-size", "10", "--trials", "2",
                 "--out", str(out)]) == 0
    assert _body(out)[1].split(",")[1] == "0.0"


def test_tiny_step_exits_2(capsys):
    _assert_spec_error(main(["sweep", "--axis", "lambda_f", "--start", "0", "--stop",
                             "1", "--step", "1e-12", "--trials", "2"]),
                       capsys, "axis")
    _assert_spec_error(main(["critical", "--search-step", "1e-9", "--trials", "2"]),
                       capsys, "search grid")


def test_trial_cell_grid_beyond_int64_exits_2(tmp_path, capsys):
    """A D2D range whose trial cells (side 0.7 r_r) over the window would
    number more than 2**62 is refused by the spec check, at any axis point
    of a sweep or in a critical search: exit 2, one error line, no trial
    run and no CSV written."""
    out = tmp_path / "out.csv"
    tiny = ["--r-r", "1e-9", "--r-f", "1e-9", "--lambda-r", "0.01", "--trials", "2",
            "--out", str(out)]
    with mock.patch.object(percolation, "_TrialState", side_effect=AssertionError):
        for argv in (["sweep", *tiny, *_AXIS],
                     ["critical", *tiny, "--lambda-f-max", "1", "--search-step", "0.5"],
                     ["sweep", "--r-f", "2", "--axis", "r_r", "--start", "1e-9",
                      "--stop", "1", "--step", "0.5", "--trials", "2", "--out", str(out)]):
            _assert_spec_error(main(argv), capsys, "2**62")
            assert not out.exists()
    # the cells of a 1 m window at r_r = 1e-9 fit, and the sweep runs
    assert main(["sweep", *tiny, *_AXIS, "--window-size", "1"]) == 0
    assert len(_body(out)) == 4


@pytest.mark.parametrize("argv,needle", [
    (["sweep", "--lambda-f", "1e300", "--axis", "lambda_r", "--start", "1",
      "--stop", "1", "--step", "1"], "firewall-pool count"),
    (["critical", "--lambda-f-max", "1e300", "--search-step", "1e300"],
     "firewall-pool count"),
    (["protected", "--lambda-f", "1e300"], "firewall-pool count"),
    (["sweep", "--lambda-r", "1e300"] + _AXIS, "device count"),
])
def test_intensity_beyond_poisson_limit_exits_2(argv, needle, tmp_path, capsys):
    """A device or firewall-pool mean count (intensity times window area)
    beyond NumPy's Poisson sampler is refused by the spec check: exit 2,
    one error line, no world sampled and no CSV written, where the run
    used to exit 1 after its progress lines. For a critical search the pool
    is its ceiling."""
    out = tmp_path / "out.csv"
    with mock.patch.object(percolation, "sample_world", side_effect=AssertionError):
        _assert_spec_error(main(argv + ["--trials", "2", "--out", str(out)]), capsys,
                           needle)
    assert not out.exists()


def test_base_intensity_overridden_by_axis_is_not_sampled(tmp_path):
    """Only the worlds a run samples are checked: a base lambda_r beyond the
    Poisson limit that a lambda_r axis replaces at every point runs."""
    out = tmp_path / "out.csv"
    assert main(["sweep", "--lambda-r", "1e300", "--axis", "lambda_r", "--start",
                 "0.1", "--stop", "0.1", "--step", "1", "--window-size", "10",
                 "--trials", "2", "--out", str(out)]) == 0
    assert len(_body(out)) == 2


def test_main_validates_the_spec_once(tmp_path):
    """`main` validates the spec once, in `run`; a malformed spec still
    exits 2 from that one check."""
    validate = ExperimentSpec.validate
    with mock.patch.object(ExperimentSpec, "validate", autospec=True,
                           side_effect=validate) as calls:
        assert main(["sweep", "--axis", "lambda_f", "--start", "0", "--stop", "0.1",
                     "--step", "0.05", "--trials", "2", "--window-size", "10",
                     "--out", str(tmp_path / "s.csv")]) == 0
        assert calls.call_count == 1
        assert main(["sweep", "--axis", "lambda_f", "--start", "0", "--stop", "1",
                     "--step", "1e-12", "--trials", "2"]) == 2
        assert calls.call_count == 2


def test_main_calls_run_through_the_module():
    """`main` reaches `run` through the module global, so wrapping
    `cli.run` sees every command."""
    with mock.patch.object(cli, "run", return_value=0) as run:
        assert main(["bounds"]) == 0
    assert run.call_count == 1


def _run_fresh(script, cwd, unset=()):
    """Run `script` in a fresh interpreter that imports this checkout's
    package, with the environment variables `unset` removed."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    for name in unset:
        env.pop(name, None)
    return subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_every_subcommand_runs_without_scipy(tmp_path):
    """In a fresh interpreter where importing SciPy fails, all five
    subcommands run at tiny sizes, exit 0 and leave no SciPy module
    loaded."""
    script = textwrap.dedent("""
        import sys
        sys.modules["scipy"] = None  # any import of scipy now raises ImportError
        from spatial_firewalls.cli import main
        small = ["--trials", "2", "--window-size", "10"]
        runs = [
            ["sweep", "--axis", "lambda_f", "--start", "0", "--stop", "0.1",
             "--step", "0.05", "--out", "sweep.csv"] + small,
            ["critical", "--lambda-r", "0.5", "--search-step", "0.2",
             "--out", "critical.csv"] + small,
            ["bounds"],
            ["validate", "--face-samples", "50", "--blocking-trials", "100",
             "--coupling-realizations", "2", "--out", "validate.csv"],
            ["protected", "--out", "protected.csv"] + small,
        ]
        codes = [main(argv) for argv in runs]
        loaded = sorted(name for name, module in sys.modules.items()
                        if name.split(".")[0] == "scipy" and module is not None)
        print(codes, loaded)
        sys.exit(0 if codes == [0] * 5 and not loaded else 1)
    """)
    proc = _run_fresh(script, tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0] []"


def test_single_worker_commands_never_import_the_pool(tmp_path):
    """In a fresh interpreter, all five subcommands at tiny sizes and
    `--workers 1` exit 0 without forking; a sweep at `--workers 2` then
    forks its workers and writes the same CSV body, and no process-pool
    module (`concurrent.futures.process`, `multiprocessing`) is ever
    imported."""
    script = textwrap.dedent("""
        import os, sys
        from unittest import mock
        from spatial_firewalls.cli import main
        small = ["--trials", "2", "--window-size", "10"]
        sweep = ["sweep", "--axis", "lambda_f", "--start", "0", "--stop", "0.1",
                 "--step", "0.05"] + small
        runs = [
            sweep + ["--out", "sweep1.csv"],
            ["critical", "--lambda-r", "0.5", "--search-step", "0.2",
             "--out", "critical.csv"] + small,
            ["bounds"],
            ["validate", "--face-samples", "50", "--blocking-trials", "100",
             "--coupling-realizations", "2", "--out", "validate.csv"],
            ["protected", "--out", "protected.csv"] + small,
        ]
        with mock.patch.object(os, "fork", wraps=os.fork) as forks:
            codes = [main(argv + ["--workers", "1"]) for argv in runs]
            single = forks.call_count
            fanned = main(sweep + ["--out", "sweep2.csv", "--workers", "2"])
        # unittest.mock imports concurrent.futures through asyncio, but
        # neither process-pool module
        pool = [name for name in ("concurrent.futures.process", "multiprocessing")
                if name in sys.modules]
        print(codes, single, fanned, forks.call_count == min(2, len(os.sched_getaffinity(0))),
              pool)
    """)
    proc = _run_fresh(script, tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0] 0 0 True []"
    assert _body(tmp_path / "sweep2.csv") == _body(tmp_path / "sweep1.csv")


def test_output_buffered_before_the_fork_is_written_once(tmp_path):
    """Text that a fresh interpreter holds in its `sys.stdout` and
    `sys.stderr` buffers (both pipes, buffered: PYTHONUNBUFFERED unset)
    when a fan-out forks reaches each stream exactly once."""
    script = textwrap.dedent("""
        import sys
        import numpy as np
        from spatial_firewalls import percolation
        def trials(args):
            return np.arange(args[-2], args[-1])
        sys.stdout.write("before the fork\\n")
        sys.stderr.write("also before the fork\\n")
        print(percolation._run_chunked(trials, (), 6, 2).tolist())
    """)
    proc = _run_fresh(script, tmp_path, unset=("PYTHONUNBUFFERED",))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == ["before the fork", "[0, 1, 2, 3, 4, 5]"]
    assert proc.stderr.count("also before the fork") == 1

def test_validate_never_imports_numpy_ma(tmp_path):
    """In a fresh interpreter, a small `validate` exits 0 without importing
    `numpy.ma`, whose import costs every run 11-14 ms."""
    script = textwrap.dedent("""
        import sys
        from spatial_firewalls.cli import main
        code = main(["validate", "--face-samples", "50", "--blocking-trials", "100",
                     "--coupling-realizations", "3", "--out", "validate.csv"])
        print(code, "numpy.ma" in sys.modules)
    """)
    proc = _run_fresh(script, tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def _count_forks():
    """Patch that counts the `os.fork` calls, forking at each."""
    return mock.patch.object(os, "fork", wraps=os.fork)


def _assert_no_child():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# the workers a fan-out forks for 2 chunks: one per chunk, at most one per CPU
_FORKS = min(2, len(os.sched_getaffinity(0))) if hasattr(os, "sched_getaffinity") else 2


# fan-out workers; module-level, because a worker is pickled by reference
def _ranges(args):
    """The trial range of its chunk, as one row."""
    return np.array([args[-2:]])


def _trials(args):
    """The trial indices of its range."""
    return np.arange(args[-2], args[-1])


def _fails_at_trial_5(args):
    """`_trials`, but ValueError in the chunk that holds trial 5."""
    if args[-2] <= 5 < args[-1]:
        raise ValueError("trial 5 is bad")
    return _trials(args)


def _dies_at_trial_5(args):
    """`_trials`, but its process exits with status 7 in the chunk that
    holds trial 5."""
    if args[-2] <= 5 < args[-1]:
        os._exit(7)
    return _trials(args)


def _interrupts_the_parent(args):
    """Sends SIGINT to the parent, as Ctrl-C would, then waits to be ended."""
    os.kill(os.getppid(), signal.SIGINT)
    time.sleep(60)
    return _trials(args)


def test_one_trial_stays_in_process():
    """With one trial there is one chunk, so `workers=2` runs it in this
    process, without forking, and counts as `workers=1` does."""
    cfg = NetworkConfig(lambda_r=0.8, r_r=2.0, lambda_f=0.1, r_f=2.0,
                        window=Window.square(10.0))
    common = (cfg, cfg.lambda_f, (0.25, 0.5, 1.0))
    with mock.patch.object(os, "fork", side_effect=AssertionError("forked")):
        two = percolation._run_chunked(percolation._threshold_worker, common, 1, 2)
    one = percolation._run_chunked(percolation._threshold_worker, common, 1, 1)
    assert np.array_equal(two, one)


def test_other_platforms_run_the_chunks_in_process(monkeypatch):
    """Off Linux the chunks run in this process, in chunk order, with no
    fork, and give the counts of a fan-out."""
    cfg = NetworkConfig(lambda_r=0.8, r_r=2.0, lambda_f=0.1, r_f=2.0,
                        window=Window.square(10.0))
    common = (cfg, cfg.lambda_f, (0.25, 0.5, 1.0))
    fanned = percolation._run_chunked(percolation._threshold_worker, common, 6, 3)
    monkeypatch.setattr(sys, "platform", "darwin")
    with mock.patch.object(os, "fork", side_effect=AssertionError("forked")):
        assert percolation._run_chunked(_ranges, (), 7, 3).tolist() == [[0, 2], [2, 4], [4, 7]]
        inline = percolation._run_chunked(percolation._threshold_worker, common, 6, 3)
    assert np.array_equal(inline, fanned)
    assert np.array_equal(inline, percolation._run_chunked(
        percolation._threshold_worker, common, 6, 1))


# a command at --workers 2 over several axis points (critical: 2, sweep: 3,
# protected: 3), each point a fan-out of 4 trials
_FAN_OUTS = {
    "critical": ["critical", "--axis", "lambda_r", "--start", "1.5", "--stop", "2",
                 "--step", "0.5", "--window-size", "20", "--search-step", "0.05"],
    "sweep": ["sweep", "--lambda-f", "0.05", "--axis", "lambda_r", "--start", "0.8",
              "--stop", "1.6", "--step", "0.4", "--window-size", "20"],
    "protected": ["protected", "--lambda-r", "0.5", "--window-size", "20", "--axis",
                  "lambda_f", "--start", "0.05", "--stop", "0.15", "--step", "0.05"],
}


@pytest.mark.parametrize("command", sorted(_FAN_OUTS))
def test_axis_points_share_one_pool(command, tmp_path):
    """At `--workers 2` every axis point of a command fans out over one
    set of workers, forked once and reaped before `main` returns, and the
    body is `--workers 1`'s, which forks none."""
    bodies = []
    for workers in (1, 2):
        out = tmp_path / f"{workers}.csv"
        with _count_forks() as forks:
            assert main(_FAN_OUTS[command] + ["--trials", "4", "--seed", "5", "--workers",
                                              str(workers), "--out", str(out)]) == 0
        assert forks.call_count == (0 if workers == 1 else _FORKS)
        _assert_no_child()
        bodies.append(_body(out))
    assert bodies[0] == bodies[1]
    assert len(bodies[0]) == (3 if command == "critical" else 4)


def test_no_pool_worker_outlives_a_failed_command(tmp_path):
    """The workers are reaped on exit 1, a search exhausted at its first
    lambda_r, and when the command raises after its fan-outs."""
    exhausted = ["critical", "--axis", "lambda_r", "--start", "0.8", "--stop", "1.0",
                 "--step", "0.2", "--window-size", "40", "--trials", "5",
                 "--lambda-f-max", "0.004", "--search-step", "0.002", "--workers", "2",
                 "--out", str(tmp_path / "crit.csv")]
    with _count_forks() as forks:
        assert main(exhausted) == 1
    assert forks.call_count == _FORKS
    _assert_no_child()
    with _count_forks() as forks, \
            mock.patch.object(cli, "write_sweep_csv", side_effect=RuntimeError("boom")):
        with pytest.raises(RuntimeError, match="boom"):
            main(_FAN_OUTS["sweep"] + ["--trials", "4", "--workers", "2"])
    assert forks.call_count == _FORKS
    _assert_no_child()


def test_a_worker_exception_reaches_the_parent(monkeypatch, capsys):
    """A worker's exception is raised in the parent with its type and
    message, and the set stays in step: the block's next fan-out answers.
    A ValueError in a command's worker ends it with exit 1 and one `error:`
    line, and no child is left on any of these paths."""
    with pytest.raises(ValueError, match="trial 5 is bad"):
        percolation._run_chunked(_fails_at_trial_5, (), 8, 2)
    _assert_no_child()
    with percolation.SharedPool():
        with pytest.raises(ValueError, match="trial 5 is bad"):
            percolation._run_chunked(_fails_at_trial_5, (), 8, 2)
        assert percolation._run_chunked(_trials, (), 8, 2).tolist() == list(range(8))
    _assert_no_child()
    monkeypatch.setattr(percolation, "_threshold_worker", _fails_at_trial_5)
    assert main(_FAN_OUTS["sweep"] + ["--trials", "8", "--workers", "2"]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert errors == ["error: trial 5 is bad"]
    _assert_no_child()


def test_a_dead_worker_raises_and_leaves_no_child():
    """A worker that dies mid-chunk makes the parent raise RuntimeError
    naming its exit status, once every worker is reaped, in a block or not."""
    with pytest.raises(RuntimeError, match="exit status 7"):
        percolation._run_chunked(_dies_at_trial_5, (), 8, 2)
    _assert_no_child()
    with pytest.raises(RuntimeError, match="exit status 7"):
        with percolation.SharedPool():
            assert percolation._run_chunked(_trials, (), 8, 2).tolist() == list(range(8))
            percolation._run_chunked(_dies_at_trial_5, (), 8, 2)
    _assert_no_child()


def test_ctrl_c_ends_every_worker():
    """SIGINT in the parent while it waits (Ctrl-C) raises KeyboardInterrupt
    there, after its workers, still busy, are terminated and reaped. Each
    worker sends one, so a second SIGINT can arrive while the first is
    handled; in each of 20 rounds it neither delays the kill nor leaves
    SIGINT blocked or its handler replaced."""
    for _ in range(20):
        t0 = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            percolation._run_chunked(_interrupts_the_parent, (), 4, 2)
        assert time.monotonic() - t0 < 1
        _assert_no_child()
        assert signal.SIGINT not in signal.pthread_sigmask(signal.SIG_BLOCK, ())
        assert signal.getsignal(signal.SIGINT) is signal.default_int_handler


def test_pool_never_outnumbers_the_cpus(monkeypatch):
    """`workers` far above the CPU count forks one worker per CPU, counted
    by `os.sched_getaffinity`, while the trials still split into
    min(workers, trials) ranges. Outside a `SharedPool` each call forks and
    reaps its own set; inside one, the calls share a set, reaped when the
    block ends."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
    with _count_forks() as forks:
        out = percolation._run_chunked(_ranges, (), 5000, 5000)
        assert out.tolist() == [[t, t + 1] for t in range(5000)]
        assert forks.call_count == 3
        _assert_no_child()
        assert percolation._run_chunked(_ranges, (), 7, 2).tolist() == [[0, 3], [3, 7]]
        assert forks.call_count == 5
        _assert_no_child()
        with percolation.SharedPool():
            for _ in range(3):
                assert percolation._run_chunked(_trials, (), 8, 8).tolist() == list(range(8))
            assert forks.call_count == 8
            assert os.waitpid(-1, os.WNOHANG) == (0, 0)  # three workers, all alive
        _assert_no_child()
