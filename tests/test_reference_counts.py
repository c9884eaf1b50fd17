"""`_threshold_worker`'s count of every trial held to the independent
reference `oracles.threshold_counts` on the benchmark's own worlds (100 m
windows, 8-20 k devices): its specs with lambda_r <= 2, at benchmark seed
0, in one chunk and in 2-trial chunks. In one chunk the later trials of a
grid of many points scan under the ceiling of two counts and finish the
scan above it (`_TrialState._complete`); in 2-trial chunks neither
happens."""
from unittest import mock

import numpy as np
import pytest
from oracles import threshold_counts

from spatial_firewalls.cli import AxisSpec
from spatial_firewalls.network import NetworkConfig
from spatial_firewalls.percolation import _threshold_worker, _TrialState, critical_grid
from spatial_firewalls.spatial import Window


def _config(lambda_r, lambda_f, seed):
    return NetworkConfig(lambda_r=lambda_r, r_r=2.0, lambda_f=lambda_f, r_f=2.0,
                         window=Window.square(100.0), master_seed=seed)


def _sweep_lf():
    """`sweep --lambda-r 0.8 --axis lambda_f --start 0 --stop 0.15 --step
    0.005 --trials 30 --seed 1`, as `sweep_lambda_f` thins it."""
    values = AxisSpec("lambda_f", 0.0, 0.15, 0.005).values()
    pool = max(values)
    return _config(0.8, 0.0, 1), pool, tuple(sorted({v / pool for v in values})), 30


def _critical_dense():
    """The lambda_r = 2 point of `critical --axis lambda_r --start 2 --stop 7
    --step 5 --search-step 0.02 --trials 4 --seed 0`, as
    `find_critical_firewall_intensity` grids it."""
    cfg = _config(2.0, 0.0, 0)
    ceiling, _, grid_n = critical_grid(cfg, None, 0.02)
    return cfg, ceiling, tuple(j / grid_n for j in range(grid_n + 1)), 4


def _sweep_lr():
    """The lambda_r = 2 point of `sweep --lambda-f 0.05 --axis lambda_r
    --start 0.4 --stop 2.0 --step 0.2 --trials 12 --seed 2`: one probe per
    trial, at p = 1, which the spanning certificates answer."""
    return _config(2.0, 0.05, 2), 0.05, (1.0,), 12


@pytest.mark.parametrize("spec", [_sweep_lf, _critical_dense, _sweep_lr],
                         ids=["sweep-lf", "critical-dense", "sweep-lr"])
def test_worker_counts_match_the_reference_at_benchmark_scale(spec):
    cfg, pool, grid, trials = spec()
    want = threshold_counts(cfg, pool, grid, 0, trials).tolist()
    complete = _TrialState._complete
    with mock.patch.object(_TrialState, "_complete", autospec=True,
                           side_effect=complete) as completed:
        whole = _threshold_worker((cfg, pool, grid, 0, trials))
    pairs = [_threshold_worker((cfg, pool, grid, t, min(t + 2, trials)))
             for t in range(0, trials, 2)]
    assert whole.tolist() == want
    assert np.concatenate(pairs).tolist() == want
    assert completed.called == (len(grid) > 1)
