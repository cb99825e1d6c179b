import importlib

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
