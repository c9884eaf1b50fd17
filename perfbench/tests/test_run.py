"""Aggregation of repetitions into the reported metrics."""
import calibrate
import pytest
from run import _tail, end_to_end, per_layer
from workloads import WORKLOADS


def _rep(wall, calibration_s, traced=False):
    command = {"setup_s": 0.5, "wall_s": wall}
    return {"ok": True, "traced": traced, "commands": [command], "wall_s": wall,
            "cpu_s": wall, "rss_mb": 80.0, "calibration_s": calibration_s}


def test_times_are_scaled_to_the_reference_speed():
    ref = calibrate.REFERENCE_S
    # the second repetition ran while the machine was twice as slow
    reps = [_rep(2.0, ref), _rep(4.0, 2 * ref), _rep(2.0, ref), _rep(9.0, ref, traced=True)]
    scaled = end_to_end(reps)
    assert scaled["wall_s"] == 2.0 and scaled["cpu_s"] == 2.0
    assert scaled["setup_s"] == 0.5
    raw = end_to_end(reps, scaled=False)
    assert raw["wall_s"] == 2.0 and raw["setup_s"] == 0.5
    assert end_to_end(reps[:2], scaled=False)["wall_s"] == 3.0


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    assert _tail(samples) == (90.0, 90.0)
    assert _tail(samples[:30]) == (66.0, 20.0)
    assert _tail(samples[:10]) == (0.0, 0.0)


def _traced_rep(trials):
    spans = [["cli.main", 0.0, 4.0, None], ["network.query_pairs", 1.0, 2.0, 0]]
    trace = {"spans": spans, "counters": {"network.pairs": 7.0}, "trials": trials,
             "probes": len(trials), "redundant_probes": 0}
    command = {"trace": trace, "wall_s": 4.0, "t_first": 0.0, "t_end": 4.0}
    return {"ok": True, "traced": True, "commands": [command], "wall_s": 4.0,
            "cpu_s": 4.0, "calibration_s": calibrate.REFERENCE_S}


def test_per_layer_names_come_from_the_caller():
    plain = dict(_rep(4.0, calibrate.REFERENCE_S), csv_bytes=10)
    result = {"workload": WORKLOADS["sweep-lf"], "reps": [plain, _traced_rep([1.0] * 3)]}
    names = ["network.query_pairs.s", "network.query_pairs.calls", "network.pairs",
             "gone.s", "gone.calls", "gone_counter"]
    out, _ = per_layer(result, names)
    assert (out["network.query_pairs.s"], out["network.query_pairs.calls"]) == (1.0, 1)
    assert out["network.pairs"] == 7.0
    assert out["gone.s"] == out["gone.calls"] == out["gone_counter"] == 0.0


def test_trial_tail_is_over_distinct_trials():
    # 8 trials re-timed in 5 repetitions are 8 trials, too few for a tail
    plain = dict(_rep(4.0, calibrate.REFERENCE_S), csv_bytes=10)
    reps = [plain] + [_traced_rep([float(j) + 0.01 * k for j in range(8)]) for k in range(5)]
    out, _ = per_layer({"workload": WORKLOADS["sweep-lf"], "reps": reps}, [])
    assert out["percolation.trial.count"] == 8.0
    assert (out["percolation.trial.tail_pct"], out["percolation.trial.tail_s"]) == (0.0, 0.0)
    assert out["percolation.trial.p50_s"] == pytest.approx(3.52)
