"""Verdicts of the compare command on fixed inputs."""
import statistics

import pytest

from compare import check_comparable, compare_rows, quartiles, verdict

OLD = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.01, 9.99]


def test_quartiles_match_statistics():
    assert quartiles(OLD) == tuple(statistics.quantiles(OLD, n=4))


def test_clear_improvement_is_a_gain():
    assert verdict(OLD, [x * 0.8 for x in OLD], 0.1) == ("gain", 10, 10)


def test_higher_is_better_metrics_flip_the_sign():
    assert verdict(OLD, [x * 1.2 for x in OLD], 0.1, better="higher")[0] == "gain"
    assert verdict(OLD, [x * 1.2 for x in OLD], 0.1, better="lower")[0] == "regression"


def test_small_slowdown_within_the_bound_is_no_worse():
    assert verdict(OLD, [x * 1.02 for x in OLD], 0.1)[0] == "no worse"


def test_too_few_wins_is_not_a_gain():
    new = [x * 0.95 for x in OLD]
    new[0], new[1] = 11.0, 11.0
    assert verdict(OLD, new, 0.1) == ("no worse", 8, 10)


def test_spread_wider_than_the_bound_is_unresolved():
    old = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert verdict(old, list(reversed(old)), 0.1)[0] == "unresolved"


def test_rows_cover_each_workload_and_metric():
    old = {"runs": {"w": {"wall_s": OLD, "cpu_s": OLD}}}
    new = {"runs": {"w": {"wall_s": [x * 0.8 for x in OLD], "cpu_s": OLD}}}
    metrics = [{"name": "wall_s", "bound": 0.1, "better": "lower"},
               {"name": "cpu_s", "bound": 0.1, "better": "lower"}]
    rows = compare_rows(old, new, metrics)
    assert [(r["metric"], r["verdict"]) for r in rows] == [("wall_s", "gain"),
                                                           ("cpu_s", "no worse")]


def test_files_measured_differently_are_refused():
    base = {"run_seconds": 25, "seeds": list(range(10))}
    check_comparable(base, dict(base))
    with pytest.raises(ValueError, match="run_seconds"):
        check_comparable(base, dict(base, run_seconds=10))
    with pytest.raises(ValueError, match="seeds"):
        check_comparable(base, dict(base, seeds=list(range(1, 11))))
