"""Span accounting of the benchmark's tracer."""
import json
import subprocess
import sys
from types import SimpleNamespace

from conftest import BENCH
from tracer import Tracer, _instrument_trials, _patch, summarize, uncovered_share


def _ticking(*times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_time_subtracts_nested_calls():
    tracer = Tracer(clock=_ticking(0.0, 1.0, 3.0, 4.0, 7.0, 10.0))
    inner = tracer.wrap(lambda: None, "inner")

    def body():
        inner()
        inner()

    tracer.wrap(body, "outer")()
    rows = summarize(tracer.spans)
    assert rows["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 5.0}
    assert rows["inner"] == {"calls": 2, "total_s": 5.0, "self_s": 5.0}
    assert [s[3] for s in tracer.spans] == [None, 0, 0]


def test_self_time_counts_overlapping_children_once():
    spans = [["outer", 0.0, 10.0, None], ["a", 1.0, 5.0, 0], ["b", 3.0, 6.0, 0]]
    assert summarize(spans)["outer"]["self_s"] == 5.0


def test_span_closes_when_the_call_raises():
    tracer = Tracer(clock=_ticking(0.0, 2.0))

    def boom():
        raise ValueError("x")

    try:
        tracer.wrap(boom, "boom")()
    except ValueError:
        pass
    assert tracer.spans == [["boom", 0.0, 2.0, None]]


def test_uncovered_share_ignores_the_root_span():
    spans = [["cli.main", 0.0, 10.0, None], ["layer", 2.0, 6.0, 0],
             ["layer", 8.0, 12.0, 0]]
    assert abs(uncovered_share(spans, 0.0, 10.0) - 0.4) < 1e-12


def test_missing_name_reports_zero_calls():
    tracer = Tracer()
    _patch(tracer, SimpleNamespace(), "deleted_function", "gone")
    _instrument_trials(tracer, None)
    assert "gone" not in summarize(tracer.spans)


def test_redundant_probes_follow_monotonicity():
    class Trial:
        def __init__(self, p_star):
            self.p_star = p_star

        def spans_at(self, p):
            return p <= self.p_star

    tracer = Tracer()
    _instrument_trials(tracer, Trial)
    trial = Trial(0.55)
    # 0.9 is implied by 0.8 failing, 0.3 by 0.5 spanning
    for p in (0.5, 0.8, 0.9, 0.3, 0.6):
        trial.spans_at(p)
    assert (tracer.probes, tracer.redundant_probes, len(tracer.trials)) == (5, 2, 1)


def test_harness_records_layer_spans(tmp_path):
    record = tmp_path / "record.json"
    out = tmp_path / "out.csv"
    argv = ["sweep", "--lambda-r", "0.8", "--axis", "lambda_f", "--start", "0",
            "--stop", "0.1", "--step", "0.05", "--trials", "2", "--window-size", "30",
            "--out", str(out)]
    env = {"PYTHONPATH": str(BENCH.parent / "src")}
    subprocess.run([sys.executable, str(BENCH / "harness.py"), str(record), "1"] + argv,
                   check=True, env=env, cwd=tmp_path, capture_output=True, timeout=120)
    rec = json.loads(record.read_text())
    rows = summarize(rec["trace"]["spans"])
    assert rec["rc"] == 0 and rec["t_first"] < rec["t_end"]
    assert rows["cli.main"]["calls"] == 1
    assert rows["percolation.trial_state"]["calls"] == 2
    assert rows["percolation.spans_at"]["calls"] == 6
    assert rows["network.canonical_labels"]["calls"] == 6
    assert rec["trace"]["probes"] == 6
