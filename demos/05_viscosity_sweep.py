"""The vanishing-viscosity measurement at desk scale.

Away from the shock ray the viscous solutions converge to the inviscid
jump as the viscosity strength shrinks: the wave-tail error decays like
exp(-c/alpha), and full PDE runs track it down to the scheme floor.
"""

import numpy as np

from viscoshock import (OmegaSpec, PressureLaw, alpha_sweep, build_shock)

law = PressureLaw(gamma=2.0)
shock = build_shock(1.2, 1.0, 0.0, law)
omega = OmegaSpec(h=1.0, t_final=2.0, x_samples=801, t_samples=5)

sweep = alpha_sweep(shock, law, [0.4, 0.2, 0.1, 0.05], omega,
                    include_full=True)

print("alpha    E_tail        E_full        capped")
for a, ep, full in zip(sweep.alphas, sweep.e_profile, sweep.full):
    print(f"{a:5.2f}   {ep:.6e}  {full.error:.6e}  {full.capped}")

print(f"\nexponential fit: E ~ {sweep.big_c_fit:.4f} * exp(-{sweep.c_fit:.4f}"
      f" / alpha),  r^2 = {sweep.r_squared:.5f}")
print("strictly decreasing tail error:", sweep.monotone_flag)
print("volume window held on all runs:", sweep.window_ok)

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    inv = 1.0 / np.array(sweep.alphas)
    fig, ax = plt.subplots(figsize=(4.6, 3.4))
    ax.semilogy(inv, sweep.e_profile, "o-", label="wave-tail error")
    ax.semilogy(inv, sweep.e_full, "s--", label="full-solution error")
    ax.set_xlabel("1 / alpha")
    ax.set_ylabel("sup error off the shock ray")
    ax.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig("sweep.png", dpi=120)
    print("wrote sweep.png")
except ImportError:
    pass
