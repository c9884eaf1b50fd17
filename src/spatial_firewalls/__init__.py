"""Continuum-percolation toolkit for malware containment in device networks
protected by randomly deployed spatial firewalls.

Devices and firewalls are Poisson point processes on a window; devices link
within a D2D range, firewalls protect everything within their secured-zone
radius, and epidemic risk is read off the percolation behaviour of the graph
restricted to unprotected devices.
"""

__version__ = "0.1.0"

from .spatial import Window, trial_seed
from .network import NetworkConfig
from .percolation import (build_isg, estimate_percolation_probability, sweep_lambda_f,
                          find_critical_firewall_intensity,
                          estimate_protected_fraction, write_sweep_csv,
                          write_critical_csv)
from .bounds import (LambdaC1, subcritical_sufficient_intensity,
                     closed_face_probability, critical_intensity_upper_bound,
                     protected_fraction, critical_protected_fraction,
                     evaluate_all)
from .lattice import (closed_face_mc_frequency, blocking_counterexample_search,
                      pocket_pair_survey, verify_open_edge_coupling,
                      count_dependent_edges_bruteforce)
