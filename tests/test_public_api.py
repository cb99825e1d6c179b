import importlib
import subprocess
import sys
from dataclasses import fields

import pytest

import viscoshock

MODULES = ("errors", "euler_waves", "shock_profile", "lagrangian_solver",
           "energy_diagnostics", "convergence_harness")


def test_package_exports_module_names():
    # one list of public names per module; the package adds none
    names = [name for mod in MODULES
             for name in importlib.import_module(f"viscoshock.{mod}").__all__]
    assert viscoshock.__all__ == names
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(viscoshock, name) is not None


def test_removed_names_are_gone():
    for name in ("dd_pressure", "reduced_rhs", "residual_on_samples",
                 "omega_positions", "init_constant", "sobolev_triple",
                 "sobolev_norms", "quadratic_remainder", "RemainderSample"):
        assert name not in viscoshock.__all__
        assert not hasattr(viscoshock, name)


def test_removed_parameters_are_gone(shock, law, profile):
    state = viscoshock.init_state(profile,
                                  viscoshock.Grid1D(-70.0, 52.0, 400))
    with pytest.raises(TypeError, match="observe_at"):
        viscoshock.run(state, 1.0, observer=lambda s: None,
                       observe_at=[0.5])
    omega = viscoshock.OmegaSpec(h=1.0, t_final=2.0)
    with pytest.raises(TypeError, match="profile"):
        viscoshock.profile_only_error(shock, 0.1, law, omega,
                                      profile=profile)
    names = {f.name for f in fields(viscoshock.FullErrorResult)}
    assert not names & {"v_min", "v_max"}


def test_import_loads_only_scipy_linalg():
    # the wave is a quadrature of its own with a cubic of its own, and
    # the stepper needs only LAPACK's dptsv: scipy.interpolate alone, with
    # optimize, sparse, spatial and special behind it, added about 0.2 s
    # and 20 MB to every start (on a 2-core Intel Xeon)
    code = ("import sys, viscoshock; print(sorted(n for n, m in "
            "sys.modules.items() if n.startswith('scipy.') and n.count('.') "
            "== 1 and not n.startswith('scipy._') and hasattr(m, '__path__')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['scipy.linalg']"
