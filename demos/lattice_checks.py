"""Numerical spot checks of the lattice couplings.

Three validators: the closed-face occupancy probability against Monte Carlo,
the face-blocking property (no susceptible pair within D2D range may cross a
closed face), and the open-edge local-cluster property (devices in an open
edge's two squares are susceptible, mutually in range, and share one ISG
component).
"""
import math

from spatial_firewalls import (NetworkConfig, Window,
                               blocking_counterexample_search, build_isg,
                               closed_face_mc_frequency,
                               closed_face_probability,
                               count_dependent_edges_bruteforce,
                               pocket_pair_survey,
                               subcritical_sufficient_intensity, trial_seed,
                               verify_open_edge_coupling)

R_R = 2.0
base = subcritical_sufficient_intensity(R_R)
print(f"face-closure threshold intensity: {base:.4f}/m^2\n")

print("closed-face probability, Monte Carlo vs closed form:")
for k, mult in enumerate((0.5, 1.0, 2.0)):
    lam = mult * base
    freq = closed_face_mc_frequency(lam, R_R, samples=2000, seed=40 + k)
    p = closed_face_probability(lam, R_R)
    se = math.sqrt(p * (1 - p) / 2000)
    print(f"  lambda_f={lam:.3f}: mc={freq:.4f} formula={p:.4f} "
          f"({abs(freq - p) / se:.1f} s.e.)")

cex = blocking_counterexample_search(R_R, 100000, seed=11)
survey = pocket_pair_survey(R_R, 100000, seed=11)
print(f"\nface blocking over 100000 placements: "
      f"crossing counterexample = {cex}")
print(f"  (uncovered same-pocket pairs seen: {survey.same_sector_pairs}; "
      "they sit in one boundary pocket and cannot carry an infection across)")

violations = 0
for k, (lam_r, mult) in enumerate([(0.5, 0.2), (0.9, 0.5), (1.5, 0.9),
                                   (2.5, 0.0), (0.8, 1.2)]):
    cfg = NetworkConfig(lambda_r=lam_r, r_r=R_R, lambda_f=mult * base, r_f=R_R,
                        window=Window.square(50.0), master_seed=2)
    violations += verify_open_edge_coupling(build_isg(cfg, trial_seed(2, k))).violations
print(f"\nopen-edge coupling over 5 mixed realizations: {violations} violations")

n_43 = count_dependent_edges_bruteforce(4, 3)
print(f"\ndependent-edge enumeration, region a=4 b=3: {n_43} "
      f"(closed form {8 * 4 * 3 - 2 * 4 - 6 * 3 + 1})")
