"""Compute viscous traveling-wave profiles and check their structure.

The smooth wave replaces the jump at positive viscosity strength; its
tails decay exponentially with rate proportional to strength/viscosity,
so smaller viscosity means a sharper wave.
"""

import numpy as np

from viscoshock import (PressureLaw, build_shock, compute_profile,
                        profile_residual, verify_profile_properties)

law = PressureLaw(gamma=2.0)
shock = build_shock(1.2, 1.0, 0.0, law)

for alpha in (0.4, 0.2, 0.1):
    prof = compute_profile(shock, alpha, law)
    rep = verify_profile_properties(prof, h_probe=0.0)
    print(f"alpha={alpha:4.2f}  rates ({prof.lambda_minus:+.3f}, "
          f"{prof.lambda_plus:+.3f})  fitted ({rep.fitted_rate_left:+.3f}, "
          f"{rep.fitted_rate_right:+.3f})  residual={profile_residual(prof):.2e}")

prof = compute_profile(shock, 0.1, law)
print("\nV(0), the midpoint of the end states =", prof.eval_V(0.0))
print("monotone:", bool(np.all(np.diff(prof.V) < 0)))
print("grid ends:", prof.xi_grid[0], prof.xi_grid[-1])

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(1, 2, figsize=(9, 3.2))
    for alpha in (0.4, 0.2, 0.1, 0.05):
        p = compute_profile(shock, alpha, law)
        xi = np.linspace(-12, 12, 1200)
        ax[0].plot(xi, p.eval_V(xi), label=f"alpha={alpha}")
        ax[1].semilogy(xi, np.abs(p.eval_V(xi) - shock.v_plus) + 1e-18)
    ax[0].set_xlabel("xi")
    ax[0].set_ylabel("V")
    ax[0].legend(fontsize=8)
    ax[1].set_xlabel("xi")
    ax[1].set_ylabel("|V - v_plus|")
    fig.tight_layout()
    fig.savefig("profiles.png", dpi=120)
    print("wrote profiles.png")
except ImportError:
    pass
