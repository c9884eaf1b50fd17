"""Batch experiment runner.

Subcommands: sweep, critical, bounds, validate, protected. An experiment is
described by an ExperimentSpec, assembled from an optional JSON config file
with command-line flags taking precedence. Progress goes to stderr; stdout
carries machine-readable output only. CSV files start with '#'-prefixed
metadata lines (tool version, spec echo, timing); the body below them is
byte-identical across reruns with the same spec and seed, for any worker
count.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from itertools import islice
from typing import Optional

from . import __version__
from .bounds import LambdaC1, critical_intensity_upper_bound, dependency_counts, \
    evaluate_all, protected_fraction, subcritical_sufficient_intensity
from .lattice import blocking_counterexample_search, check_coupling_lattice, \
    closed_face_mc_frequency, count_dependent_edges_bruteforce, \
    independence_offsets, verify_open_edge_coupling, write_validator_csv
from .bounds import closed_face_probability
from .network import NetworkConfig, check_sample_means
from .percolation import MAX_GRID_POINTS, NoDevicesError, SearchExhaustedError, \
    build_isg, check_cell_grid, critical_grid, estimate_percolation_probability, \
    SharedPool, find_critical_firewall_intensity, sweep_lambda_f, \
    sweep_protected_fraction, write_critical_csv, write_sweep_csv
from .spatial import Window, open_csv, trial_seed

__all__ = ["AxisSpec", "ExperimentSpec", "run", "main"]

_COMMANDS = ("sweep", "critical", "bounds", "validate", "protected")
_NUMERIC_PARAMS = ("lambda_r", "lambda_f", "r_r", "r_f")
_FIELD_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


def _check_types(spec) -> None:
    """Raise SpecError for a field whose value does not have its annotated
    type. A float field also takes an int; a bool passes as neither. None
    passes where the annotation is Optional."""
    for f in fields(spec):
        value = getattr(spec, f.name)
        kind = f.type.removeprefix("Optional[").removesuffix("]")
        if kind not in _FIELD_TYPES or (value is None and kind != f.type):
            continue
        if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[kind]):
            raise SpecError(f"{f.name} must be of type {kind}, got {value!r}")


@dataclass
class AxisSpec:
    """Inclusive sweep axis over one numeric model parameter."""

    param: str
    start: float
    stop: float
    step: float

    def validate(self):
        _check_types(self)
        if self.param not in _NUMERIC_PARAMS:
            raise SpecError(f"axis.param must be one of {_NUMERIC_PARAMS}, "
                            f"got {self.param!r}")
        if not all(math.isfinite(v) for v in (self.start, self.stop, self.step)):
            raise SpecError("axis.start, axis.stop and axis.step must be finite")
        if not (self.step > 0):
            raise SpecError("axis.step must be > 0")
        if self.stop < self.start:
            raise SpecError("axis.stop must be >= axis.start")
        if not self.size() <= MAX_GRID_POINTS:
            raise SpecError(f"the axis has more than {MAX_GRID_POINTS} points; "
                            "raise axis.step")

    def size(self) -> float:
        """Number of axis points, inf when (stop - start) / step overflows."""
        ratio = (self.stop - self.start) / self.step + 1e-9
        return int(ratio) + 1 if math.isfinite(ratio) else math.inf

    def values(self) -> list[float]:
        return [self.start + k * self.step for k in range(self.size())]


@dataclass
class ExperimentSpec:
    """Everything needed to run one batch experiment."""

    command: str
    lambda_r: float = 0.8
    r_r: float = 2.0
    lambda_f: float = 0.0
    r_f: float = 2.0
    window_size: float = 100.0
    firewall_margin: float = 0.0
    master_seed: int = 0
    trials: int = 100
    epsilon: float = 0.02
    workers: int = 1
    lc1: str = "1.44"
    out: Optional[str] = None
    axis: Optional[AxisSpec] = None
    # critical-search controls
    lambda_f_max: Optional[float] = None
    search_step: Optional[float] = None
    # validate-suite sizes
    face_samples: int = 2000
    blocking_trials: int = 100000
    coupling_realizations: int = 100

    def validate(self):
        """Raise SpecError unless every field is well typed and every
        network configuration the spec describes, one per axis point, is
        valid."""
        _check_types(self)
        if self.command not in _COMMANDS:
            raise SpecError(f"command must be one of {_COMMANDS}, got {self.command!r}")
        for name in ("trials", "workers", "face_samples", "blocking_trials",
                     "coupling_realizations"):
            if getattr(self, name) < 1:
                raise SpecError(f"{name} must be >= 1")
        if not (0 < self.epsilon < 1):
            raise SpecError("epsilon must be in (0, 1)")
        if not (self.window_size > 0):
            raise SpecError("window_size must be > 0")
        for name in ("lambda_f_max", "search_step"):
            value = getattr(self, name)
            if value is not None and not (value > 0 and math.isfinite(value)):
                raise SpecError(f"{name} must be finite and > 0")
        if self.axis is not None:
            self.axis.validate()
        try:
            LambdaC1.parse(self.lc1)
        except ValueError as exc:
            raise SpecError(f"lc1: {exc}") from exc
        try:
            cfg = self.network_config()
            configs = [cfg] + [replace(cfg, **{self.axis.param: v})
                               for v in (self.axis.values() if self.axis else ())]
            for c in configs if self.command in ("sweep", "critical") else ():
                check_cell_grid(c)
            if self.command == "bounds":
                dependency_counts(cfg.r_f, cfg.r_r)
            # each axis point samples its own world (a critical search's pool
            # at its ceiling); an axis overrides the base configuration
            sampled = configs[1:] or configs
            for c in sampled if self.command in ("sweep", "critical", "protected") else ():
                pool = c.lambda_f
                if self.command == "critical":
                    _, step, grid_n = critical_grid(c, self.lambda_f_max, self.search_step)
                    pool = grid_n * (step / 8.0)
                check_sample_means(c, pool)
            # the coupling suite's worlds repeat after its 20 intensity pairs
            coupling = _coupling_configs(self) if self.command == "validate" else ()
            for _, c in islice(coupling, min(20, self.coupling_realizations)):
                check_cell_grid(c)
                check_sample_means(c, c.lambda_f)
                check_coupling_lattice(c)
        except ValueError as exc:
            raise SpecError(str(exc)) from exc
        if self.command == "protected" and any(c.lambda_r <= 0 for c in configs):
            raise SpecError("lambda_r must be > 0 for protected, at every axis point")

    def network_config(self) -> NetworkConfig:
        return NetworkConfig(lambda_r=self.lambda_r, r_r=self.r_r,
                             lambda_f=self.lambda_f, r_f=self.r_f,
                             window=Window.square(self.window_size),
                             master_seed=self.master_seed,
                             firewall_margin=self.firewall_margin)

    def lc1_value(self) -> LambdaC1:
        return LambdaC1.parse(self.lc1)

    def to_dict(self) -> dict:
        d = asdict(self)
        if self.axis is None:
            d.pop("axis")
        return d


class SpecError(ValueError):
    """Malformed experiment description."""


def spec_from_dict(data: dict) -> ExperimentSpec:
    data = dict(data)
    axis = data.pop("axis", None)
    known = {f.name for f in ExperimentSpec.__dataclass_fields__.values()}
    for key in data:
        if key not in known:
            raise SpecError(f"unknown config field {key!r}")
    if "command" not in data:
        raise SpecError("config is missing the 'command' field")
    spec = ExperimentSpec(**data)
    if axis is not None:
        try:
            spec.axis = AxisSpec(**axis)
        except TypeError as exc:
            raise SpecError(f"axis: {exc}") from exc
    return spec


def load_spec(path) -> ExperimentSpec:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise SpecError(f"{path}: top-level JSON value must be an object")
    return spec_from_dict(data)


def _progress(msg: str):
    print(msg, file=sys.stderr, flush=True)


def _meta_lines(spec: ExperimentSpec, wall_s: float) -> list[str]:
    return [f"tool: spatial-firewalls {__version__}",
            "spec: " + json.dumps(spec.to_dict(), sort_keys=True),
            f"wall_time_s: {wall_s:.3f}"]


def _emit(spec: ExperimentSpec, writer, rows_desc: str, t0: float) -> None:
    """Write the metadata lines, then the CSV through `writer(file_handle)`,
    to out or stdout."""
    meta = _meta_lines(spec, time.perf_counter() - t0)
    with open_csv(spec.out or sys.stdout, meta) as fh:
        writer(fh)
    if spec.out:
        print(json.dumps({"command": spec.command, "out": spec.out,
                          "rows": rows_desc}))


def _run_sweep(spec: ExperimentSpec) -> int:
    if spec.axis is None:
        raise SpecError("sweep requires an axis")
    t0 = time.perf_counter()
    cfg = spec.network_config()
    values = spec.axis.values()
    _progress(f"sweep over {spec.axis.param}: {len(values)} points, "
              f"{spec.trials} trials each")
    if spec.axis.param == "lambda_f":
        estimates = sweep_lambda_f(cfg, values, spec.trials, workers=spec.workers)
    else:
        estimates = []
        for v in values:
            estimates.append(estimate_percolation_probability(
                replace(cfg, **{spec.axis.param: v}), spec.trials,
                workers=spec.workers))
            _progress(f"  {spec.axis.param}={v:g} theta_hat="
                      f"{estimates[-1].theta_hat:.3f}")
    _emit(spec, lambda fh: write_sweep_csv(estimates, fh), str(len(estimates)), t0)
    return 0


def _run_critical(spec: ExperimentSpec) -> int:
    t0 = time.perf_counter()
    cfg = spec.network_config()
    lam_rs = spec.axis.values() if spec.axis else [spec.lambda_r]
    if spec.axis and spec.axis.param != "lambda_r":
        raise SpecError("critical sweeps over lambda_r only")
    bounds_meta = []
    for lc1 in (LambdaC1.approximation(), LambdaC1.upper()):
        ub = critical_intensity_upper_bound(spec.r_r, spec.r_f, lc1)
        bounds_meta.append(f"critical_upper_bound lc1={lc1.value}: {ub!r}")
    rows = []
    exhausted = None
    for lr in lam_rs:
        _progress(f"critical search at lambda_r={lr:g}")
        try:
            res = find_critical_firewall_intensity(
                replace(cfg, lambda_r=lr),
                lambda_f_max=spec.lambda_f_max, step=spec.search_step,
                trials=spec.trials, epsilon=spec.epsilon, workers=spec.workers)
        except SearchExhaustedError as exc:
            exhausted = (lr, exc)
            break
        rows.append((lr, res))
        _progress(f"  lambda_f_critical={res.lambda_f_critical:.5f}")

    _emit(spec, lambda fh: write_critical_csv(rows, fh, bounds_meta),
          str(len(rows)), t0)
    if exhausted:
        lr, exc = exhausted
        print(f"error: search exhausted at lambda_r={lr:g}: {exc}",
              file=sys.stderr)
        return 1
    return 0


def _run_bounds(spec: ExperimentSpec, table: bool) -> int:
    report = evaluate_all(spec.network_config(), spec.lc1_value())
    payload = report.to_json()
    if spec.out:
        with open(spec.out, "w") as fh:
            fh.write(payload + "\n")
        print(json.dumps({"command": "bounds", "out": spec.out}))
    if table:
        data = report.to_dict()
        width = max(len(k) for k in data)
        for key in sorted(data):
            print(f"{key:<{width}}  {data[key]}")
    elif not spec.out:
        print(payload)
    return 0


def _coupling_configs(spec: ExperimentSpec):
    """Sub- and super-critical parameter mix for the open-edge coupling suite."""
    base = subcritical_sufficient_intensity(spec.r_r)
    lam_fs = [0.0, 0.25 * base, 0.5 * base, 1.0 * base, 1.25 * base]
    lam_rs = [0.3, 0.8, 1.5, 3.0]
    k = 0
    while True:
        for lr in lam_rs:
            for lf in lam_fs:
                yield k, NetworkConfig(lambda_r=lr, r_r=spec.r_r, lambda_f=lf,
                                       r_f=spec.r_f,
                                       window=Window.square(min(spec.window_size, 50.0)),
                                       master_seed=spec.master_seed)
                k += 1


def _run_validate(spec: ExperimentSpec) -> int:
    t0 = time.perf_counter()
    rows = []

    base = subcritical_sufficient_intensity(spec.r_r)
    for mult in (0.5, 1.0, 2.0):
        lam = mult * base
        freq = closed_face_mc_frequency(lam, spec.r_r, spec.face_samples,
                                        trial_seed(spec.master_seed, int(mult * 100)))
        p = closed_face_probability(lam, spec.r_r)
        se = (p * (1 - p) / spec.face_samples) ** 0.5
        bad = int(abs(freq - p) > 3 * se)
        rows.append((f"closed_face_mc_x{mult:g}", spec.face_samples, bad,
                     f"freq={freq:.4f} formula={p:.4f} se={se:.4f}"))
        _progress(f"closed-face MC x{mult:g}: freq={freq:.4f} vs {p:.4f}")

    cex = blocking_counterexample_search(spec.r_r, spec.blocking_trials,
                                         trial_seed(spec.master_seed, 1001))
    rows.append(("hex_blocking_search", spec.blocking_trials,
                 0 if cex is None else 1,
                 "none" if cex is None else f"pair at {cex.p} / {cex.q}"))
    _progress(f"blocking search: {'clean' if cex is None else 'counterexample!'}")

    violations = 0
    open_edges = 0
    gen = _coupling_configs(spec)
    for _ in range(spec.coupling_realizations):
        k, cfg = next(gen)
        realization = build_isg(cfg, trial_seed(spec.master_seed, 2000 + k))
        check = verify_open_edge_coupling(realization, detail=True)
        violations += check.violations
        open_edges += check.open_edges
    rows.append(("open_edge_coupling", spec.coupling_realizations, violations,
                 f"sub+super-critical mix; {open_edges} open edges"))
    _progress(f"open-edge coupling: {violations} violations over "
              f"{open_edges} open edges")

    mismatches = 0
    for a in range(2, 9):
        for b in range(2, 9):
            formula = 8 * a * b - 2 * a - 6 * b + 1
            if count_dependent_edges_bruteforce(a, b) != formula:
                mismatches += 1
    rows.append(("dependent_edge_count", 49, mismatches, "a,b in [2,8]^2"))

    s = spec.r_r / 5 ** 0.5
    dx, dy = independence_offsets(spec.r_f, s)
    rows.append(("independence_offsets", 1, 0, f"dx={dx:.4f} dy={dy:.4f}"))

    _emit(spec, lambda fh: write_validator_csv(rows, fh), str(len(rows)), t0)
    total = sum(r[2] for r in rows)
    if total:
        print(f"error: {total} validator violations", file=sys.stderr)
        return 1
    return 0


def _run_protected(spec: ExperimentSpec) -> int:
    t0 = time.perf_counter()
    cfg = spec.network_config()
    # (lambda_f, r_f values): one r_f sweep per lambda_f shares its worlds
    if spec.axis is None:
        groups = [(spec.lambda_f, [spec.r_f])]
    elif spec.axis.param == "lambda_f":
        groups = [(v, [spec.r_f]) for v in spec.axis.values()]
    elif spec.axis.param == "r_f":
        groups = [(spec.lambda_f, spec.axis.values())]
    else:
        raise SpecError("protected sweeps over lambda_f or r_f only")
    results = []
    for lf, rfs in groups:
        estimates = sweep_protected_fraction(replace(cfg, lambda_f=lf), rfs,
                                             spec.trials, workers=spec.workers)
        for rf, est in zip(rfs, estimates):
            results.append((lf, rf, est, protected_fraction(lf, rf)))
            _progress(f"protected lambda_f={lf:g} r_f={rf:g}: "
                      f"{est.mean_fraction:.4f} vs formula {results[-1][3]:.4f}")

    def writer(fh):
        fh.write("lambda_f,r_f,trials,mean_fraction,std_err,formula_fraction\n")
        for lf, rf, est, formula in results:
            fh.write(f"{lf!r},{rf!r},{est.trials_used + est.trials_skipped},"
                     f"{est.mean_fraction!r},{est.std_err!r},{formula!r}\n")

    _emit(spec, writer, str(len(results)), t0)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spatial-firewalls",
        description="Monte Carlo percolation experiments for device networks "
                    "protected by spatial firewalls")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
            ("sweep", "percolation probability over a parameter grid"),
            ("critical", "critical firewall intensity per device intensity"),
            ("bounds", "closed-form bounds report"),
            ("validate", "lattice-coupling validator suite"),
            ("protected", "empirical vs closed-form protected fraction")):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", help="JSON file mirroring ExperimentSpec fields")
        p.add_argument("--seed", type=int, dest="master_seed")
        p.add_argument("--trials", type=int)
        p.add_argument("--epsilon", type=float)
        p.add_argument("--out")
        p.add_argument("--lc1", help="1.44 | 3.37 | 0.768 | custom float")
        p.add_argument("--workers", type=int)
        p.add_argument("--lambda-r", type=float, dest="lambda_r")
        p.add_argument("--r-r", type=float, dest="r_r")
        p.add_argument("--lambda-f", type=float, dest="lambda_f")
        p.add_argument("--r-f", type=float, dest="r_f")
        p.add_argument("--window-size", type=float, dest="window_size")
        p.add_argument("--margin", type=float, dest="firewall_margin")
        p.add_argument("--axis", dest="axis_param")
        p.add_argument("--start", type=float, dest="axis_start")
        p.add_argument("--stop", type=float, dest="axis_stop")
        p.add_argument("--step", type=float, dest="axis_step")
        if name == "critical":
            p.add_argument("--lambda-f-max", type=float, dest="lambda_f_max")
            p.add_argument("--search-step", type=float, dest="search_step")
        if name == "bounds":
            p.add_argument("--table", action="store_true")
        if name == "validate":
            p.add_argument("--face-samples", type=int, dest="face_samples")
            p.add_argument("--blocking-trials", type=int, dest="blocking_trials")
            p.add_argument("--coupling-realizations", type=int,
                           dest="coupling_realizations")
    return parser


def _assemble_spec(args) -> ExperimentSpec:
    if args.config:
        spec = load_spec(args.config)
        if spec.command != args.command:
            raise SpecError(f"config command {spec.command!r} does not match "
                            f"subcommand {args.command!r}")
    else:
        spec = ExperimentSpec(command=args.command)
    for name in ("master_seed", "trials", "epsilon", "out", "lc1", "workers",
                 "lambda_r", "r_r", "lambda_f", "r_f", "window_size",
                 "firewall_margin", "lambda_f_max", "search_step",
                 "face_samples", "blocking_trials", "coupling_realizations"):
        value = getattr(args, name, None)
        if value is not None:
            setattr(spec, name, value)
    axis_flags = {k: getattr(args, f"axis_{k}", None)
                  for k in ("param", "start", "stop", "step")}
    if any(v is not None for v in axis_flags.values()):
        if spec.axis is None:
            missing = [k for k, v in axis_flags.items() if v is None]
            if missing:
                raise SpecError(f"axis flags incomplete, missing {missing}")
            spec.axis = AxisSpec(**axis_flags)
        else:
            for k, v in axis_flags.items():
                if v is not None:
                    setattr(spec.axis, k, v)
    return spec


def run(spec: ExperimentSpec, table: bool = False) -> int:
    """Validate the spec, then execute the experiment; returns a process exit
    status. The one validation of a command-line run happens here. All the
    command's fan-outs share one process pool, whose workers are joined
    before this returns or raises."""
    spec.validate()
    with SharedPool():
        if spec.command == "sweep":
            return _run_sweep(spec)
        if spec.command == "critical":
            return _run_critical(spec)
        if spec.command == "bounds":
            return _run_bounds(spec, table)
        if spec.command == "validate":
            return _run_validate(spec)
        return _run_protected(spec)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        spec = _assemble_spec(args)
        return run(spec, table=getattr(args, "table", False))
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError, NoDevicesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
