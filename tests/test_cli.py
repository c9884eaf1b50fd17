"""End-to-end runs of every subcommand through the argparse entry point."""
import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
from concurrent.futures import Future, ProcessPoolExecutor
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


@pytest.mark.parametrize("argv", [
    ["protected", "--lambda-r", "0"],
    ["protected", "--axis", "lambda_r", "--start", "0", "--stop", "1", "--step", "0.5"],
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
    assert critical_grid(cfg, 1e-12, 1.0) == (1e-12, 1.0, 1)
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
    of a sweep or a critical search: exit 2, one error line, no trial run
    and no CSV written."""
    out = tmp_path / "out.csv"
    tiny = ["--r-r", "1e-9", "--r-f", "1e-9", "--lambda-r", "0.01", "--trials", "2",
            "--out", str(out)]
    with mock.patch.object(percolation, "_TrialState", side_effect=AssertionError):
        for argv in (["sweep", *tiny, *_AXIS],
                     ["critical", *tiny, "--lambda-f-max", "1", "--search-step", "0.5"],
                     ["sweep", "--r-f", "2", "--axis", "r_r", "--start", "1e-9",
                      "--stop", "1", "--step", "0.5", "--trials", "2", "--out", str(out)],
                     ["critical", "--r-f", "2", "--axis", "r_r", "--start", "1e-9",
                      "--stop", "1", "--step", "0.5", "--trials", "2",
                      "--lambda-f-max", "1", "--out", str(out)]):
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


def _run_fresh(script, cwd):
    """Run `script` in a fresh interpreter that imports this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
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
    `--workers 1` exit 0 without importing the process pool; a sweep at
    `--workers 2` then fans out and writes the same CSV body."""
    script = textwrap.dedent("""
        import sys
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
        codes = [main(argv + ["--workers", "1"]) for argv in runs]
        pool = [name for name in ("concurrent.futures.process", "multiprocessing")
                if name in sys.modules]
        fanned = main(sweep + ["--out", "sweep2.csv", "--workers", "2"])
        print(codes, pool, fanned, "multiprocessing" in sys.modules)
    """)
    proc = _run_fresh(script, tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0] [] 0 True"
    assert _body(tmp_path / "sweep2.csv") == _body(tmp_path / "sweep1.csv")


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


def test_one_trial_stays_in_process():
    """With one trial there is one chunk, so `workers=2` runs it in this
    process, without constructing a pool, and counts as `workers=1` does."""
    cfg = NetworkConfig(lambda_r=0.8, r_r=2.0, lambda_f=0.1, r_f=2.0,
                        window=Window.square(10.0))
    common = (cfg, cfg.lambda_f, (0.25, 0.5, 1.0))
    with mock.patch.object(ProcessPoolExecutor, "__init__",
                           side_effect=AssertionError("pool constructed")):
        two = percolation._run_chunked(percolation._threshold_worker, common, 1, 2)
    one = percolation._run_chunked(percolation._threshold_worker, common, 1, 1)
    assert np.array_equal(two, one)


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


def _count_pools():
    """Patch that counts the process pools constructed, constructing each."""
    return mock.patch.object(ProcessPoolExecutor, "__init__", autospec=True,
                             side_effect=ProcessPoolExecutor.__init__)


@pytest.mark.parametrize("command", sorted(_FAN_OUTS))
def test_axis_points_share_one_pool(command, tmp_path):
    """At `--workers 2` every axis point of a command fans out over one
    pool, whose workers are joined before `main` returns, and the body is
    `--workers 1`'s, which constructs none."""
    bodies = []
    for workers in (1, 2):
        out = tmp_path / f"{workers}.csv"
        with _count_pools() as made:
            assert main(_FAN_OUTS[command] + ["--trials", "4", "--seed", "5", "--workers",
                                              str(workers), "--out", str(out)]) == 0
        assert made.call_count == workers - 1
        assert multiprocessing.active_children() == []
        bodies.append(_body(out))
    assert bodies[0] == bodies[1]
    assert len(bodies[0]) == (3 if command == "critical" else 4)


def test_no_pool_worker_outlives_a_failed_command(tmp_path):
    """The pool is joined on exit 1, a search exhausted at its first
    lambda_r, and when the command raises after its fan-outs."""
    exhausted = ["critical", "--axis", "lambda_r", "--start", "0.8", "--stop", "1.0",
                 "--step", "0.2", "--window-size", "40", "--trials", "5",
                 "--lambda-f-max", "0.004", "--search-step", "0.002", "--workers", "2",
                 "--out", str(tmp_path / "crit.csv")]
    with _count_pools() as made:
        assert main(exhausted) == 1
    assert made.call_count == 1
    assert multiprocessing.active_children() == []
    with _count_pools() as made, \
            mock.patch.object(cli, "write_sweep_csv", side_effect=RuntimeError("boom")):
        with pytest.raises(RuntimeError, match="boom"):
            main(_FAN_OUTS["sweep"] + ["--trials", "4", "--workers", "2"])
    assert made.call_count == 1
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("affinity", [True, False])
def test_pool_never_outnumbers_the_cpus(affinity, monkeypatch):
    """`workers` far above the CPU count makes a pool of one process per
    CPU, counted by `os.sched_getaffinity` where it exists and by
    `os.cpu_count` elsewhere, while the trials still split into
    min(workers, trials) ranges. Outside a `SharedPool` each call makes and
    shuts down its own pool; inside one, the calls share a pool, shut down
    when the block ends."""
    sizes, ranges, shutdowns = [], [], []

    class InlinePool:
        """Stand-in for ProcessPoolExecutor that records its size, the trial
        ranges submitted and its shutdowns, and runs each range in this
        process: it starts nothing."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def submit(self, fn, args):
            ranges.append(args[-2:])
            future = Future()
            future.set_result(fn(args))
            return future

        def shutdown(self, cancel_futures=False):
            shutdowns.append(self)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
    if affinity:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)

    def worker(args):
        return np.arange(args[-2], args[-1])

    out = percolation._run_chunked(worker, (), 5000, 5000)
    assert out.tolist() == list(range(5000))
    assert ranges == [(t, t + 1) for t in range(5000)]
    assert (sizes, len(shutdowns)) == ([3], 1)
    percolation._run_chunked(worker, (), 7, 2)
    assert (sizes, len(shutdowns)) == ([3, 2], 2)
    with percolation.SharedPool():
        for _ in range(3):
            assert percolation._run_chunked(worker, (), 8, 8).tolist() == list(range(8))
        assert (sizes, len(shutdowns)) == ([3, 2, 3], 2)
    assert len(shutdowns) == 3
