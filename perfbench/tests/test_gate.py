"""The correctness gate on CSV bodies."""
from workloads import WORKLOADS, check_body, csv_body, digest

SWEEP_HEADER = "lambda_r,r_r,lambda_f,r_f,window_size,trials,theta_hat,std_err,seed\n"


def _sweep(thetas):
    return SWEEP_HEADER + "".join(f"0.8,2.0,{0.005 * j!r},2.0,100.0,30,{t!r},0.0,1\n"
                                  for j, t in enumerate(thetas))


def test_metadata_lines_are_not_part_of_the_body():
    assert csv_body("# wall_time_s: 1.2\na,b\n1,2\n") == "a,b\n1,2\n"


def test_tampered_body_fails_the_digest():
    workload = WORKLOADS["sweep-lf"]
    body = _sweep([1.0 - j / 31 for j in range(31)])
    refs = {"sweep-lf": [digest(body)]}
    assert check_body(workload, 0, body, 0, refs) == []
    tampered = body.replace(",30,", ",31,", 1)
    assert any("digest" in e for e in check_body(workload, 0, tampered, 0, refs))
    # at another seed the reference does not apply, only the properties
    assert check_body(workload, 0, tampered, 4, refs) == []


def test_sweep_lf_theta_must_not_increase():
    thetas = [1.0 - j / 31 for j in range(31)]
    thetas[10] = 0.99
    errors = check_body(WORKLOADS["sweep-lf"], 0, _sweep(thetas), 4, {})
    assert errors == ["theta_hat increases along the lambda_f grid"]


def test_row_count_is_checked():
    assert check_body(WORKLOADS["sweep-lf"], 0, _sweep([0.5] * 30), 4, {}) \
        == ["30 rows, expected 31"]


def test_validate_is_pinned_at_every_seed():
    workload = WORKLOADS["checks"]
    body = "check_name,trials,violations,details\n" + "".join(
        f"c{i},10,0,ok\n" for i in range(7))
    refs = {"checks": [digest(body), None]}
    assert check_body(workload, 0, body, 9, refs) == []
    bad = body.replace("c3,10,0", "c3,10,1")
    errors = check_body(workload, 0, bad, 9, refs)
    assert "validator violations in ['c3']" in errors
    assert any("digest" in e for e in errors)
