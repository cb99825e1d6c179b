"""Evolve profile-prepared data and watch the wave travel unchanged.

The traveling wave is an exact solution of the stretched-frame
system, so the only deviation the solver produces is truncation error;
refining the grid shrinks it at second order.
"""

import numpy as np

from viscoshock import (Grid1D, PressureLaw, build_shock, compute_profile,
                        init_state, rescaled_profile_eval, run,
                        step_flux_balance, step)

law = PressureLaw(gamma=2.0)
shock = build_shock(1.2, 1.0, 0.0, law)
profile = compute_profile(shock, 0.1, law, tol=1e-12)

print("grid refinement, error against the exact traveling wave at tau=5:")
prev = None
for n in (400, 800, 1600):
    grid = Grid1D(y_min=-65.0, y_max=55.0, n_cells=n)
    state = init_state(profile, grid)
    final, record = run(state, 5.0)
    v_ref, _ = rescaled_profile_eval(profile, grid.centers(), final.tau)
    err = float(np.max(np.abs(final.v - v_ref)))
    ratio = "" if prev is None else f"  ratio {prev / err:.2f}"
    print(f"  n={n:5d}  steps={record.n_steps:5d}  sup|v err|={err:.3e}{ratio}")
    prev = err

# conservation bookkeeping telescopes to the boundary fluxes exactly
grid = Grid1D(y_min=-65.0, y_max=55.0, n_cells=800)
state = init_state(profile, grid)
nxt = step(state, 0.01)
dm, fm, dp, fp = step_flux_balance(state, nxt)
print(f"\nmass change {dm:.6e} vs boundary flux {fm:.6e}")
print(f"momentum change {dp:.6e} vs boundary flux {fp:.6e}")
print(f"volume window during the run: [{record.v_min:.4f}, {record.v_max:.4f}]")
