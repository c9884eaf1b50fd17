"""Critical firewall intensity versus device intensity.

For each device intensity the search estimates the spanning probability on
a grid of firewall intensities and reports the first value whose estimate
is at most epsilon.
The curve rises with device density but saturates under the closed-form
ceiling lc1 / (4 r_f^2 - r_r^2), shown for both the usable approximation of
the unit-range critical intensity and its proven upper bound.
"""
from spatial_firewalls import (LambdaC1, NetworkConfig, Window,
                               critical_intensity_upper_bound,
                               find_critical_firewall_intensity,
                               write_critical_csv)

R_R = R_F = 2.0
window = Window.square(100.0)
device_intensities = [0.3, 0.4, 0.8, 1.4, 2.0, 3.0]

ceiling_144 = critical_intensity_upper_bound(R_R, R_F, LambdaC1.approximation())
ceiling_337 = critical_intensity_upper_bound(R_R, R_F, LambdaC1.upper())
print(f"closed-form ceilings: {ceiling_144:.3f} (lc1=1.44), "
      f"{ceiling_337:.3f} (lc1=3.37)\n")

rows = []
print(f"{'lambda_r':>9}  {'lambda_f_critical':>17}")
for lam_r in device_intensities:
    cfg = NetworkConfig(lambda_r=lam_r, r_r=R_R, lambda_f=0.0, r_f=R_F,
                        window=window, master_seed=1)
    res = find_critical_firewall_intensity(cfg, step=0.02, trials=40,
                                           epsilon=0.02)
    rows.append((lam_r, res))
    print(f"{lam_r:9.2f}  {res.lambda_f_critical:17.4f}")

assert all(res.lambda_f_critical <= ceiling_144 + 0.01 for _, res in rows)
print("\nevery simulated value sits below the closed-form ceiling")

write_critical_csv(rows, "critical_intensity.csv",
                   header_lines=[f"ceiling lc1=1.44: {ceiling_144!r}",
                                 f"ceiling lc1=3.37: {ceiling_337!r}"])
print("wrote critical_intensity.csv")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    xs = [lr for lr, _ in rows]
    ys = [res.lambda_f_critical for _, res in rows]
    plt.plot(xs, ys, "o-", label="simulated critical intensity")
    plt.axhline(ceiling_144, color="m", label="ceiling, lc1=1.44")
    plt.axhline(ceiling_337, color="r", ls="--", label="ceiling, lc1=3.37")
    plt.xlabel("device intensity (per m$^2$)")
    plt.ylabel("critical firewall intensity (per m$^2$)")
    plt.legend()
    plt.tight_layout()
    plt.savefig("critical_intensity.png", dpi=150)
    print("wrote critical_intensity.png")
except ImportError:
    pass
