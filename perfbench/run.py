#!/usr/bin/env python3
"""Benchmark of the spatial-firewalls command line, run from the repo root.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      One run: repeats the workload's commands, each in a fresh interpreter,
      for S seconds. Prints one JSON line with the end-to-end metrics of
      BENCHMARK.json (trace 0), or its per-layer metrics (trace 1: traced
      repetitions with workers = 1, alternated with untraced ones).
  python3 perfbench/run.py suite --out FILE [--workload NAME ...]
      Untraced runs of BENCHMARK.json's run_seconds at seeds 0..9 of every
      workload (seed 0 also checks the pinned digests), saved with the
      machine description; prints each metric's quartiles and spread.
  python3 perfbench/run.py compare OLD.json NEW.json
      One row per workload and end-to-end metric, with a verdict. Refuses
      files measured with other run lengths or seeds.
  python3 perfbench/run.py record
      Re-pins the seed-0 CSV digests in references.json. Only for a change
      that is meant to alter the numbers; say so where it lands.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
HARNESS = HERE / "harness.py"
REFERENCES = HERE / "references.json"
WORK = ROOT / ".perfbench_work"
RUN_LIMIT_S = 165  # a run, set-up included, must end within 180 s

sys.path.insert(0, str(HERE))
import calibrate  # noqa: E402
from compare import check_comparable, compare_rows, format_rows, quartiles, spread  # noqa: E402
from tracer import summarize, uncovered_share  # noqa: E402
from workloads import WORKLOADS, check_body, csv_body, digest  # noqa: E402

SUITE_SEEDS = list(range(10))  # the seeds of every suite file, so any two compare


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program to measure, bad spec)."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    return json.loads(path.read_text())


def machine() -> dict:
    """The machine a result file was measured on."""
    info = {"nproc": os.cpu_count(), "cpu_model": platform.processor() or None,
            "python": platform.python_version()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            info[f"l{level}"] = size
    for package in ("numpy", "scipy"):
        try:
            info[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            info[package] = None
    return info


# ------------------------------------------------------------------ one run

def _wait(proc: subprocess.Popen, deadline: float) -> bool:
    """Reap `proc`, killing its process group at `deadline`. False on timeout."""
    try:
        proc.wait(timeout=max(0.0, deadline - time.monotonic()))
        return True
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return False


def _spawn(argv: list[str], workdir: Path, deadline: float):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    with open(workdir / "stderr.txt", "w") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable] + argv, cwd=workdir, env=env,
                                stdout=subprocess.DEVNULL, stderr=err,
                                start_new_session=True)
        finished = _wait(proc, deadline)
    return t_spawn, proc.returncode, finished


def _run_command(workload, index, bench_seed, traced, workdir, deadline, references):
    """Run command `index` once; returns its measurements and its errors."""
    command = workload.commands[index]
    out, record = workdir / f"out{index}.csv", workdir / f"record{index}.json"
    for stale in (out, record):
        stale.unlink(missing_ok=True)
    argv = command.argv(bench_seed, str(out), 1 if traced else workload.workers)
    t_spawn, rc, finished = _spawn([str(HARNESS), str(record), "1" if traced else "0"] + argv,
                                workdir, deadline)
    result = {"argv": argv, "errors": []}
    if not finished:
        result["errors"].append("timed out")
        return result
    if rc != 0 or not record.is_file() or not out.is_file():
        tail = (workdir / "stderr.txt").read_text()[-400:]
        result["errors"].append(f"exit status {rc}: {tail.strip()}")
        return result
    rec = json.loads(record.read_text())
    text = out.read_text()
    result.update(body=csv_body(text), csv_bytes=len(text.encode()),
                  setup_s=rec["t_first"] - t_spawn, wall_s=rec["t_end"] - rec["t_first"],
                  cpu_s=rec["cpu_s"], rss_mb=rec["peak_rss_mb"],
                  t_first=rec["t_first"], t_end=rec["t_end"], trace=rec.get("trace"))
    result["errors"] = check_body(workload, index, result["body"], bench_seed, references)
    return result


def _run_rep(workload, bench_seed, traced, workdir, deadline, references, first_bodies):
    """One repetition: every command of the workload, in order."""
    commands = [_run_command(workload, i, bench_seed, traced, workdir, deadline, references)
                for i in range(len(workload.commands))]
    for i, c in enumerate(commands):
        if "body" in c:
            first = first_bodies.setdefault(i, c["body"])
            if c["body"] != first:
                c["errors"].append("CSV body differs from this run's first repetition")
    ok = all(not c["errors"] for c in commands)
    rep = {"traced": traced, "commands": commands, "ok": ok}
    if ok:
        rep.update(wall_s=sum(c["wall_s"] for c in commands),
                   cpu_s=sum(c["cpu_s"] for c in commands),
                   rss_mb=max(c["rss_mb"] for c in commands),
                   csv_bytes=sum(c["csv_bytes"] for c in commands))
    return rep


def measure(name: str, bench_seed: int, seconds: float, trace: bool,
            references: dict) -> dict:
    """Repeat workload `name` for `seconds`; returns its repetitions."""
    workload = WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    deadline = time.monotonic() + RUN_LIMIT_S
    reps: list[dict] = []
    first_bodies: dict[int, str] = {}
    try:
        # fills the file cache and the bytecode cache, which users pay once
        _spawn(["-c", "import spatial_firewalls.cli"], workdir, deadline)
        calibrate.seconds()
        t0 = time.monotonic()
        before = calibrate.seconds()
        while not reps or time.monotonic() - t0 < seconds:
            for traced in ((False, True) if trace else (False,)):
                rep = _run_rep(workload, bench_seed, traced, workdir, deadline,
                               references, first_bodies)
                after = calibrate.seconds()
                rep["calibration_s"] = (before + after) / 2
                before = after
                reps.append(rep)
                for c in rep["commands"]:
                    for e in c["errors"]:
                        _stderr(f"{name} seed {bench_seed}: {c['argv'][0]}: {e}")
            if not all(r["ok"] for r in reps):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    return {"workload": workload, "reps": reps}


def _stderr(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def end_to_end(reps: list[dict], scaled: bool = True) -> dict:
    """Medians over the untraced repetitions. With `scaled`, each
    repetition's times are in seconds at the reference speed: multiplied by
    calibrate.REFERENCE_S over the reference task's time around it."""
    good = [r for r in reps if r["ok"] and not r["traced"]]

    def speed(rep):
        return calibrate.REFERENCE_S / rep["calibration_s"] if scaled else 1.0

    setups = [c["setup_s"] * speed(r) for r in good for c in r["commands"]]
    return {"wall_s": statistics.median(r["wall_s"] * speed(r) for r in good),
            "cpu_s": statistics.median(r["cpu_s"] * speed(r) for r in good),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in good)}


def _tail(samples: list[float]) -> tuple[float, float]:
    """(highest whole percentile with at least 10 samples beyond it, its value),
    or (0, 0) when there are too few samples for one."""
    n = len(samples)
    if n <= 10:
        return 0.0, 0.0
    pct = (100 * (n - 10)) // n
    ranked = sorted(samples)
    return float(pct), ranked[max(0, -(-pct * n // 100) - 1)]


def per_layer(result: dict, names: list[str]) -> tuple[dict, dict]:
    """Per-layer metrics `names` (medians over traced repetitions) and the
    span table of the first traced repetition.

    A name ending in `.s` or `.calls` is the self time or call count of the
    span before it; a name not computed here is a tracer counter. A span or
    counter the trace lacks reads 0.
    """
    workload, reps = result["workload"], result["reps"]
    plain = [r for r in reps if r["ok"] and not r["traced"]]
    traced = [r for r in reps if r["ok"] and r["traced"]]
    spans = {n.rsplit(".", 1)[0] for n in names if n.endswith((".s", ".calls"))}
    per_rep = []
    # seconds of each distinct trial (command, order of construction) per
    # repetition: the traced runs have one worker, so the order is fixed
    trial_times: dict[tuple[int, int], list[float]] = {}
    table: dict[str, dict] = {}  # span table of the first traced repetition
    for rep in traced:
        values: dict[str, float] = defaultdict(float)
        probes = redundant = uncovered = 0.0
        rep_trials = 0
        for i, c in enumerate(rep["commands"]):
            tr = c["trace"]
            rows = summarize(tr["spans"])
            if rep is traced[0]:
                for span, row in rows.items():
                    merged = table.setdefault(span, dict.fromkeys(row, 0))
                    for k, v in row.items():
                        merged[k] += v
            for span in spans & rows.keys():
                values[f"{span}.s"] += rows[span]["self_s"]
                values[f"{span}.calls"] += rows[span]["calls"]
            for counter, v in tr["counters"].items():
                values[counter] += v
            values["cli.main.self_s"] += rows.get("cli.main", {}).get("self_s", 0.0)
            probes += tr["probes"]
            redundant += tr["redundant_probes"]
            for j, seconds in enumerate(tr["trials"]):
                trial_times.setdefault((i, j), []).append(seconds)
            rep_trials += len(tr["trials"])
            uncovered += c["wall_s"] * uncovered_share(tr["spans"], c["t_first"], c["t_end"])
        values["percolation.redundant_probe_share"] = redundant / probes if probes else 0.0
        values["percolation.probes_per_trial"] = probes / rep_trials if rep_trials else 0.0
        values["trace.untraced_share"] = uncovered / rep["wall_s"]
        values["trace.wall_s"] = rep["wall_s"]
        values["trace.cpu_s"] = rep["cpu_s"]
        per_rep.append(values)
    out = {n: statistics.median(v.get(n, 0.0) for v in per_rep) for n in names}
    # a straggler is a slow trial, not a slow re-timing of one, so the
    # percentiles are over distinct trials, each at its median over repetitions
    trials = [statistics.median(v) for v in trial_times.values()]
    pct, tail = _tail(trials)
    out["percolation.trial.p50_s"] = statistics.median(trials) if trials else 0.0
    out["percolation.trial.tail_s"] = tail
    out["percolation.trial.tail_pct"] = pct
    out["percolation.trial.count"] = float(len(trials))
    # CPU, not wall: the traced run has one worker, so on a pooled workload
    # its wall time is not comparable with the untraced one
    out["trace.overhead_s"] = (statistics.median(v["trace.cpu_s"] for v in per_rep)
                               - statistics.median(r["cpu_s"] for r in plain))
    out["percolation.pool_efficiency"] = statistics.median(
        r["cpu_s"] / (workload.workers * r["wall_s"]) for r in plain)
    out["cli.csv_bytes"] = statistics.median(r["csv_bytes"] for r in plain)
    for metric, value in end_to_end(reps, scaled=False).items():
        out[f"raw.{metric}"] = value
    out["calibration_s"] = statistics.median(r["calibration_s"] for r in reps)
    return out, table


def _result_line(spec: dict, result: dict, trace: bool) -> dict:
    reps = result["reps"]
    attempted = sum(len(r["commands"]) for r in reps)
    failed = sum(1 for r in reps for c in r["commands"] if c["errors"])
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": {}}
    ok = {r["traced"] for r in reps if r["ok"]}
    if not ok >= ({False, True} if trace else {False}):
        return line  # no repetition left to measure
    if trace:
        declared = spec["per_layer"]
        values, table = per_layer(result, [m["name"] for m in declared])
        values["error_rate"] = failed / attempted
        _stderr(format_table(table))
    else:
        values = end_to_end(reps)
        declared = spec["end_to_end"]
    line["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in declared}
    return line


def format_table(table: dict) -> str:
    lines = [f"{'span':<42} {'calls':>7} {'total_s':>9} {'self_s':>9}"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"{name:<42} {row['calls']:>7} {row['total_s']:>9.4f} {row['self_s']:>9.4f}")
    return "\n".join(lines)


# ---------------------------------------------------------------- commands

def _require_program() -> None:
    if not (SRC / "spatial_firewalls" / "cli.py").is_file():
        raise BenchError(f"no spatial_firewalls package under {SRC}")


def _references() -> dict:
    return json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}


def cmd_run(args) -> int:
    spec = load_spec()
    _require_program()
    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    _stderr(json.dumps({"machine": machine()}))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), _references())
    line = _result_line(spec, result, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def cmd_suite(args) -> int:
    spec = load_spec()
    _require_program()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    references = _references()
    saved = {"machine": machine(), "run_seconds": seconds, "seeds": SUITE_SEEDS,
             "runs": {n: {} for n in names}, "raw": {n: {} for n in names},
             "attempted": {n: 0 for n in names}, "failed": {n: 0 for n in names}}
    for seed in SUITE_SEEDS:
        for name in names:
            result = measure(name, seed, seconds, False, references)
            line = _result_line(spec, result, False)
            saved["attempted"][name] += line["attempted"]
            saved["failed"][name] += line["failed"]
            for metric, v in line["metrics"].items():
                saved["runs"][name].setdefault(metric, []).append(v["value"])
            if line["metrics"]:
                for metric, v in end_to_end(result["reps"], scaled=False).items():
                    saved["raw"][name].setdefault(metric, []).append(v)
            _stderr(f"seed {seed} {name}: " + " ".join(
                f"{m}={v['value']:.4g}" for m, v in line["metrics"].items())
                + ("" if line["correct"] else f" FAILED {line['failed']}/{line['attempted']}"))
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(saved, indent=1) + "\n")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name in names:
        for metric, values in saved["runs"][name].items():
            q1, med, q3 = quartiles(values)
            print(f"{name:<15} {metric:<12} n={len(values):<3} q1={q1:.4g} median={med:.4g} "
                  f"q3={q3:.4g} spread={spread(values):.3f} bound={bounds[metric]}")
    return 0 if not any(saved["failed"].values()) else 1


def cmd_compare(args) -> int:
    spec = load_spec()
    old = json.loads(Path(args.old).read_text())
    new = json.loads(Path(args.new).read_text())
    try:
        check_comparable(old, new)
    except ValueError as exc:
        raise BenchError(str(exc)) from None
    for label, side in (("old", old), ("new", new)):
        m = side.get("machine", {})
        print(f"{label}: {m.get('cpu_model')} nproc={m.get('nproc')} L2={m.get('l2')} "
              f"L3={m.get('l3')} python={m.get('python')} numpy={m.get('numpy')} "
              f"scipy={m.get('scipy')} seeds={side.get('seeds')}")
    rows = compare_rows(old, new, spec["end_to_end"])
    print(format_rows(rows))
    return 0


def cmd_record(args) -> int:
    _require_program()
    references = {}
    for name in WORKLOADS:
        result = measure(name, 0, 0, False, {})
        rep = result["reps"][0]
        problems = [e for c in rep["commands"] for e in c["errors"]
                    if e != "no reference digest recorded"]
        if problems:
            raise BenchError(f"{name}: {problems}")
        references[name] = [digest(c["body"]) for c in rep["commands"]]
        _stderr(f"{name}: {references[name]}")
    REFERENCES.write_text(json.dumps(references, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] and argv[0] in ("suite", "compare", "record"):
        parser = argparse.ArgumentParser(prog="perfbench/run.py")
        sub = parser.add_subparsers(dest="cmd", required=True)
        p = sub.add_parser("suite")
        p.add_argument("--out", required=True)
        p.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
        p = sub.add_parser("compare")
        p.add_argument("old")
        p.add_argument("new")
        sub.add_parser("record")
        args = parser.parse_args(argv)
        handler = {"suite": cmd_suite, "compare": cmd_compare, "record": cmd_record}[args.cmd]
    else:
        parser = argparse.ArgumentParser(prog="perfbench/run.py")
        parser.add_argument("--workload", required=True)
        parser.add_argument("--seed", type=int, required=True)
        parser.add_argument("--seconds", type=float, required=True)
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
        args = parser.parse_args(argv)
        if args.seed < 0:
            parser.error("--seed must be >= 0")
        handler = cmd_run
    try:
        return handler(args)
    except BenchError as exc:
        _stderr(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
