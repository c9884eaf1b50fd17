"""Poisson point process sampling, seed splitting, and CSV output.

Point sets live on rectangular windows. All sampling is a pure function of
(parameters, seed): per-trial and per-stream seeds are derived from a master
seed with a counter-based splitting scheme, so results never depend on
execution order or parallelism.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Window",
    "PointSet",
    "split_seed",
    "trial_seed",
    "sample_ppp",
    "write_csv",
]


@dataclass(frozen=True)
class Window:
    """Axis-aligned rectangle in meters."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        for v in (self.x_min, self.y_min, self.x_max, self.y_max):
            if not math.isfinite(v):
                raise ValueError("window coordinates must be finite")
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ValueError("degenerate window: need x_max > x_min and y_max > y_min")

    @classmethod
    def square(cls, size: float) -> "Window":
        """The square [0, size] x [0, size]."""
        return cls(0.0, 0.0, float(size), float(size))

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    def expand(self, margin: float) -> "Window":
        """Window grown by `margin` on all four sides."""
        if margin < 0:
            raise ValueError("margin must be >= 0")
        if margin == 0:
            return self
        return Window(self.x_min - margin, self.y_min - margin,
                      self.x_max + margin, self.y_max + margin)

    def contains(self, xy: np.ndarray) -> np.ndarray:
        """Boolean mask of points inside the closed rectangle."""
        xy = np.atleast_2d(xy)
        return ((xy[:, 0] >= self.x_min) & (xy[:, 0] <= self.x_max)
                & (xy[:, 1] >= self.y_min) & (xy[:, 1] <= self.y_max))


@dataclass(frozen=True)
class PointSet:
    """One realization of a planar point process on a window.

    `points` is an immutable (n, 2) float array; the row order is the sampling
    order and is the stable index space used everywhere downstream.
    """

    points: np.ndarray
    window: Window

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64).reshape(-1, 2)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if pts.size and not self.window.contains(pts).all():
            raise ValueError("points fall outside the window")

    @classmethod
    def _drawn(cls, xy: np.ndarray, window: Window) -> "PointSet":
        """The points of the (2, n) float columns `xy`, drawn inside `window`,
        with no window test. `points` is then a view of `xy`, so `points.T`
        gives the columns back without a copy."""
        self = object.__new__(cls)
        xy.setflags(write=False)
        object.__setattr__(self, "points", xy.T)
        object.__setattr__(self, "window", window)
        return self

    @property
    def n(self) -> int:
        return len(self.points)


@functools.lru_cache(maxsize=1 << 12)
def split_seed(seed: int, *key: int) -> int:
    """Derive a child seed from (seed, key) with a counter-based mixer.

    Identical inputs give identical outputs on every platform, which makes
    per-trial streams reproducible under any scheduling of the trials. The
    result is cached: a sweep over lambda_r derives the same trial and
    stream seeds at every axis point.
    """
    if seed < 0:
        raise ValueError("seed must be non-negative")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


def trial_seed(master_seed: int, trial: int) -> int:
    """Seed for trial number `trial` under `master_seed`."""
    return split_seed(master_seed, trial)


def sample_ppp(intensity: float, window: Window, seed: int) -> PointSet:
    """Sample a homogeneous Poisson point process on `window`.

    The count is Poisson(intensity * area) and coordinates are i.i.d. uniform,
    all x, then all y. Deterministic given (intensity, window, seed). NumPy
    draws each coordinate in [low, high] (high only by rounding), so every
    point lies in the closed window and is not tested again.
    """
    if not math.isfinite(intensity) or intensity < 0:
        raise ValueError(f"intensity must be finite and >= 0, got {intensity}")
    rng = np.random.default_rng(seed)
    count = int(rng.poisson(intensity * window.area))
    xs = rng.uniform(window.x_min, window.x_max, size=count)
    ys = rng.uniform(window.y_min, window.y_max, size=count)
    return PointSet._drawn(np.stack([xs, ys]), window)


def write_csv(path_or_file, header: str, rows, header_lines=()) -> None:
    """Write a CSV: each header line as a `# ` comment, the `header` line
    of column names, then one line per row of `rows`. Each value is written
    by `str`: a string as it is, a float as its shortest round-trip repr.

    `path_or_file` is a path, opened here and closed, or an open handle,
    which stays open.
    """
    lines = [f"# {line}" for line in header_lines] + [header]
    lines += [",".join(map(str, row)) for row in rows]
    text = "".join(line + "\n" for line in lines)
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    else:
        with open(path_or_file, "w") as fh:
            fh.write(text)
