"""End-to-end runs of every subcommand through the argparse entry point."""
import json

import pytest

from spatial_firewalls.bounds import protected_fraction
from spatial_firewalls.cli import main


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
