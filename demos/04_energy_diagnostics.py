"""Energy bookkeeping: prepared data sits at the truncation floor, an
injected wiggle dissipates.

The diagnostics integrate the deviation fields from the left boundary
and track Sobolev norms of those antiderivatives: the peak squared H2
norm, time-accumulated dissipation, and the quadratic remainder of the
linearised momentum balance.
"""

from dataclasses import replace

import numpy as np

from viscoshock import (EnergyReport, Grid1D, PressureLaw, build_shock,
                        compute_profile, energy_snapshot, init_state,
                        longtime_decay_check, run)

law = PressureLaw(gamma=2.0)
shock = build_shock(1.2, 1.0, 0.0, law)
profile = compute_profile(shock, 0.1, law, tol=1e-12)
grid = Grid1D(y_min=-70.0, y_max=52.0, n_cells=1600)


def energy_run(amp):
    state = init_state(profile, grid)
    if amp > 0.0:
        # antisymmetric wiggle: zero net mass and momentum, so nothing
        # is locked into a wave shift and everything can dissipate
        z = (grid.interfaces() - 25.0) / 2.0
        u = state.u + amp * np.sqrt(2 * np.e) * z * np.exp(-z * z)
        u.setflags(write=False)
        state = replace(state, u=u, bc_u=(float(u[0]), float(u[-1])))
    report = EnergyReport()
    energy_snapshot(state, profile, report)
    run(state, 10.0,
        observer=lambda s: energy_snapshot(s, profile, report),
        observe_every=0.5)
    return report


prepared = energy_run(0.0)
print("prepared data: peak squared H2 norm =",
      f"{max(prepared.peak_h2_sq):.3e} (pure truncation error)")

bump = energy_run(1e-3 * shock.delta)
print("\ninjected wiggle, amplitude 1e-3 * strength:")
print("  tau    grad energy   peak H2^2    remainder max")
for i in range(0, len(bump.tau_series), 4):
    print(f"  {bump.tau_series[i]:5.2f}  {bump.grad_sq_series[i]:.4e}"
          f"   {bump.peak_h2_sq[i]:.4e}   {bump.remainder_max[i]:.2e}")
g = bump.grad_sq_series
print(f"\ngradient energy: final / max = {g[-1] / max(g):.3f}")
print("decay verdict:", longtime_decay_check(bump, tau_min=5.0))
print("dissipation accumulators nondecreasing:",
      all(b >= a for a, b in zip(bump.diss_psi, bump.diss_psi[1:])))
