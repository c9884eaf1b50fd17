"""Continuum-percolation toolkit for malware containment in device networks
protected by randomly deployed spatial firewalls.

Devices and firewalls are Poisson point processes on a window; devices link
within a D2D range, firewalls protect everything within their secured-zone
radius, and epidemic risk is read off the percolation behaviour of the graph
restricted to unprotected devices.
"""

__version__ = "0.1.0"

from .spatial import Window, PointSet, split_seed, trial_seed, sample_ppp
from .network import (NetworkConfig, Classification, IsgGraph, Realization,
                      classify_devices, build_rgg, build_isg,
                      save_realization_csv)
from .percolation import (PercolationEstimate, CriticalSearchResult,
                          ProtectedFractionEstimate, SearchExhaustedError,
                          NoDevicesError, detect_spanning,
                          estimate_percolation_probability, sweep_lambda_f,
                          find_critical_firewall_intensity,
                          estimate_protected_fraction, sweep_protected_fraction,
                          write_sweep_csv, write_critical_csv)
from .bounds import (LambdaC1, DependencyGeometry, SupercriticalBound,
                     BoundsReport, device_percolation_threshold,
                     subcritical_sufficient_intensity, closed_face_probability,
                     dependency_counts, supercritical_sufficient_bound,
                     critical_intensity_upper_bound, safe_d2d_range,
                     protected_fraction, critical_protected_fraction,
                     classify_regime, evaluate_all)
from .lattice import (HexFace, SquareEdge, BlockingCounterexample,
                      PocketSurvey, OpenEdgeCheck, hex_face_closed,
                      closed_face_mc_frequency, blocking_counterexample_search,
                      pocket_pair_survey, square_edge_open,
                      verify_open_edge_coupling,
                      count_dependent_edges_bruteforce, independence_offsets)
