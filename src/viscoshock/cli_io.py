"""Flat-file configuration, deterministic emission and the subcommands.

Config files are flat ``key = value`` lines with ``#`` comments; unknown
keys are hard errors so typos cannot silently fall back to defaults.
All emitted files are byte-reproducible: reals carry 17 significant
digits (lossless double round trip), line endings are LF, JSON keys are
sorted.  Nothing in the package consumes randomness.

Exit codes: 0 success, 1 validation error, 2 numerical failure,
3 I/O error.
"""

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import convergence_harness as ch
from . import energy_diagnostics as ed
from . import euler_waves as ew
from . import lagrangian_solver as ls
from . import shock_profile as sp
from .errors import NumericalError, ValidationError

__all__ = [
    "RunConfig",
    "parse_config",
    "load_config",
    "emit_csv",
    "emit_json",
    "main",
]


# ---------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class RunConfig:
    """Typed union of every key the subcommands understand."""

    gamma: float = 2.0
    v_minus: float = 1.2
    v_plus: float = 1.0
    u_minus: float = 0.0
    alpha: float = 0.1
    tol: float = 1e-10
    n: int = 4001
    y_min: float = -70.0
    y_max: float = 52.0
    n_cells: int = 1600
    cfl: float = ls._CFL
    tau_end: float = 8.0
    observe_every: float = 0.25
    inject_amplitude: float = 0.0
    inject_center: float = 25.0
    inject_width: float = 2.0
    h: float = 1.0
    t_final: float = 2.0
    x_samples: int = ch.OmegaSpec.x_samples
    t_samples: int = ch.OmegaSpec.t_samples
    alphas: tuple = (0.4, 0.2, 0.1, 0.05)
    cells_per_width: float = ch.SolverSizing.cells_per_width


def _parse_float_list(text):
    parts = text.replace(",", " ").split()
    if not parts:
        raise ValueError("empty list")
    return tuple(float(p) for p in parts)


_PARSERS = {float: float, int: int, tuple: _parse_float_list}

# keys no library call sees
_CONFIG_RULES = {
    "inject_amplitude": (lambda v: 0.0 <= v < np.inf,
                         "must be finite and >= 0"),
    "inject_center": (np.isfinite, "must be finite"),
    "inject_width": (lambda v: 0.0 < v < np.inf,
                     "must be positive and finite"),
}


def parse_config(text: str) -> RunConfig:
    """Parse ``key = value`` text, checked by the library calls using it."""
    types = {f.name: f.type for f in fields(RunConfig)}
    defaults = RunConfig()
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in types:
            raise ValidationError(f"unknown key: {key}")
        if key in values:
            raise ValidationError(f"duplicate key: {key}")
        ftype = type(getattr(defaults, key))
        try:
            values[key] = _PARSERS[ftype](val)
        except ValueError as exc:
            raise ValidationError(
                f"key {key}: cannot parse {val!r} ({exc})") from exc

    cfg = RunConfig(**values)
    for key, (ok, msg) in _CONFIG_RULES.items():
        if not ok(getattr(cfg, key)):
            raise ValidationError(f"key {key}: {msg}")
    try:
        _, shock = _law_and_shock(cfg)
        sp._check_profile_args(cfg.alpha, cfg.tol, cfg.n, shock)
        ls.Grid1D(y_min=cfg.y_min, y_max=cfg.y_max, n_cells=cfg.n_cells)
        ls._check_run_args(cfg.cfl, 0.0, cfg.tau_end, cfg.observe_every)
        _sweep_specs(cfg)
        ch._check_alphas(cfg.alphas)
    except ValidationError as exc:
        key, _, reason = str(exc).partition(" ")  # messages open with it
        raise ValidationError(f"key {key}: {reason}") from exc
    return cfg


def load_config(path) -> RunConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# deterministic emission

def _fmt(value) -> str:
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


_REALS = (float, np.float64)


def emit_csv(rows, schema, path):
    """Write rows under a header with lossless real formatting.

    ``rows`` is a 2-D array; a table with mixed cell types has dtype
    ``object``.  The table is checked before the file is opened, then
    formatted by one ``%`` operation: reals as ``%.17g``, every other
    cell through ``_fmt``.
    """
    schema = list(schema)
    if not schema:
        raise ValidationError("schema must name at least one column")
    if not isinstance(rows, np.ndarray):
        raise ValidationError(
            f"rows must be a 2-D array, got a {type(rows).__name__}")
    if rows.ndim != 2:
        raise ValidationError(f"rows must be a 2-D array, got {rows.ndim}-D")
    if len(rows) and rows.shape[1] != len(schema):
        raise ValidationError(
            f"row 0 has {rows.shape[1]} fields, schema has {len(schema)}")
    cells = [x if type(x) in _REALS else _fmt(x)
             for x in rows.ravel().tolist()]
    # spec and separator slots alternate; a row's last separator ends it
    template = [","] * (2 * len(cells))
    template[::2] = ["%.17g" if type(x) in _REALS else "%s" for x in cells]
    template[2 * len(schema) - 1::2 * len(schema)] = (
        ["\n"] * (len(cells) // len(schema)))
    body = "".join(template) % tuple(cells)
    Path(path).write_text(",".join(schema) + "\n" + body, encoding="utf-8",
                          newline="\n")


def emit_json(summary, path):
    """Write a JSON object with sorted keys and a trailing newline."""
    Path(path).write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n",
        encoding="utf-8", newline="\n")


# ---------------------------------------------------------------------------
# shared builders

def _law_and_shock(x):
    # x is a RunConfig or parsed arguments with the same field names
    law = ew.PressureLaw(gamma=x.gamma)
    shock = ew.build_shock(x.v_minus, x.v_plus, x.u_minus, law)
    return law, shock


def _profile(x):
    # x as above
    law, shock = _law_and_shock(x)
    return sp.compute_profile(shock, x.alpha, law, tol=x.tol, n=x.n)


def _sweep_specs(cfg: RunConfig):
    return (ch.OmegaSpec(cfg.h, cfg.t_final, cfg.x_samples, cfg.t_samples),
            ch.SolverSizing(cfg.cells_per_width))


def _shock_payload(law, shock):
    # in the order the shock subcommand prints it
    r1, r2 = ew.rh_residuals(shock, law)
    lax = ew.check_lax(shock, law)
    return {
        "s": shock.s, "u_plus": shock.u_plus, "delta": shock.delta,
        "lambda1_minus": lax.lambda_minus, "lambda1_plus": lax.lambda_plus,
        "rh_residual_mass": r1, "rh_residual_momentum": r2,
        "lax_satisfied": lax.satisfied,
    }


def _initial_state(cfg: RunConfig, profile):
    grid = ls.Grid1D(y_min=cfg.y_min, y_max=cfg.y_max, n_cells=cfg.n_cells)
    state = ls.init_state(profile, grid)
    if cfg.inject_amplitude > 0.0:
        z = (grid.interfaces() - cfg.inject_center) / cfg.inject_width
        bump = cfg.inject_amplitude * np.sqrt(2.0 * np.e) * z * np.exp(-z * z)
        u = state.u + bump
        u.setflags(write=False)
        state = replace(state, u=u, bc_u=(float(u[0]), float(u[-1])))
    return state


def _run(cfg: RunConfig, state, observer):
    return ls.run(state, cfg.tau_end, observer=observer,
                  observe_every=cfg.observe_every, cfl=cfg.cfl)


# ---------------------------------------------------------------------------
# subcommands

def cmd_shock(args) -> int:
    payload = _shock_payload(*_law_and_shock(args))
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for key, value in payload.items():
            print(f"{key:22s} {_fmt(value)}")
    return 0


def _write_profile(profile, out: Path):
    # the CSV and its JSON sidecar; returns the sidecar path, the
    # residual and the property report
    shock = profile.shock
    residual = sp.profile_residual(profile)
    report = sp.verify_profile_properties(profile, h_probe=0.0)
    dv = profile.eval_dV(profile.xi_grid)
    emit_csv(np.column_stack([profile.xi_grid, profile.V, profile.U, dv]),
             ["xi", "V", "U", "dV_dxi"], out)
    sidecar = out.with_suffix(".json") if out.suffix == ".csv" \
        else Path(str(out) + ".json")
    emit_json({
        "s": shock.s, "delta": shock.delta, "u_plus": shock.u_plus,
        "alpha": profile.alpha, "gamma": profile.law.gamma,
        "lambda_minus": profile.lambda_minus,
        "lambda_plus": profile.lambda_plus,
        "residual": residual,
        "properties": asdict(report),
    }, sidecar)
    return sidecar, residual, report


def cmd_profile(args) -> int:
    out = Path(args.out)
    sidecar, _, _ = _write_profile(_profile(args), out)
    print(f"wrote {out} and {sidecar}")
    return 0


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    profile = _profile(cfg)
    state = _initial_state(cfg, profile)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    yc = state.grid.centers()
    observations = []

    def observer(snap):
        idx = len(observations)
        u_c = 0.5 * (snap.u[1:] + snap.u[:-1])
        emit_csv(np.column_stack([yc, snap.v, u_c]), ["y", "v", "u"],
                 out_dir / f"obs_{idx:04d}.csv")
        observations.append(snap.tau)

    t0 = time.perf_counter()
    final, record = _run(cfg, state, observer)
    wallclock = time.perf_counter() - t0

    dev = ed.perturbation(final, profile)
    emit_json({"wallclock_s": wallclock}, out_dir / "timing.json")
    emit_json({
        "steps": record.n_steps,
        "tau_end": final.tau,
        "observations": observations,
        "final_sup_dv": float(np.max(np.abs(dev.phi))),
        "final_sup_du": float(np.max(np.abs(dev.psi))),
        "v_min": record.v_min, "v_max": record.v_max,
        "positivity_window_ok": record.volume_window_ok(
            profile.shock.v_plus),
    }, out_dir / "summary.json")
    print(f"wrote {len(observations)} observations to {out_dir}")
    return 0


_ENERGY_COLUMNS = ["tau", "N", "l2", "h1", "h2", "diss_weighted",
                   "diss_phi", "diss_psi", "grad_norm", "q_max", "q_margin"]


def _energy_rows(report: ed.EnergyReport):
    return np.column_stack([
        report.tau_series, report.peak_h2_sq, report.l2_sq_series,
        report.h1_sq_series, report.h2_sq_series, report.diss_weighted,
        report.diss_phi, report.diss_psi, report.grad_sq_series,
        report.remainder_max, report.remainder_margin])


def cmd_energy(args) -> int:
    cfg = load_config(args.config)
    profile = _profile(cfg)
    state = _initial_state(cfg, profile)
    report = ed.EnergyReport()
    ed.energy_snapshot(state, profile, report)
    _run(cfg, state, lambda snap: ed.energy_snapshot(snap, profile, report))
    emit_csv(_energy_rows(report), _ENERGY_COLUMNS, args.out)
    print(f"wrote {len(report.tau_series)} rows to {args.out}")
    return 0


def _write_sweep(cfg: RunConfig, include_full, out_dir: Path):
    # sweep.csv and fit_summary.json; returns the sweep
    law, shock = _law_and_shock(cfg)
    omega, sizing = _sweep_specs(cfg)
    result = ch.alpha_sweep(shock, law, cfg.alphas, omega,
                            include_full=include_full, sizing=sizing)
    out_dir.mkdir(parents=True, exist_ok=True)
    capped = [f is not None and f.capped for f in result.full]
    emit_csv(np.array(list(zip(result.alphas, result.e_profile,
                               result.e_full, capped)), dtype=object),
             ["alpha", "E_profile", "E_full", "capped"],
             out_dir / "sweep.csv")
    emit_json({
        "c_fit": result.c_fit,
        "C_fit": result.big_c_fit,
        "r_squared": result.r_squared,
        "monotone_flag": result.monotone_flag,
        "volume_window_ok": result.window_ok,
        "time_window": [cfg.h, cfg.t_final],
        "note": ("sup errors are measured on the finite time window "
                 "[h, t_final] only"),
        "failures": {str(k): v for k, v in result.failures.items()},
    }, out_dir / "fit_summary.json")
    return result


def cmd_converge(args) -> int:
    out_dir = Path(args.out)
    _write_sweep(load_config(args.config), not args.profile_only, out_dir)
    print(f"wrote sweep results to {out_dir}")
    return 0


# the battery's one fixed run: the default shock at alpha 0.1
_SELFTEST = RunConfig(n=2001, n_cells=600, tau_end=2.0, x_samples=401,
                      t_samples=3, alphas=(0.4, 0.2, 0.1))


def cmd_selftest(args) -> int:
    cfg = _SELFTEST
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    checks = []

    def check(name, ok):
        checks.append((name, bool(ok)))
        print(f"[{'ok' if ok else 'FAIL'}] {name}")

    payload = _shock_payload(*_law_and_shock(cfg))
    check("jump relations close",
          abs(payload["rh_residual_mass"]) <= 1e-12
          and abs(payload["rh_residual_momentum"]) <= 1e-12)
    check("admissibility", payload["lax_satisfied"])
    emit_json(payload, out_dir / "shock.json")

    profile = _profile(cfg)
    _, residual, report = _write_profile(profile, out_dir / "profile.csv")
    check("profile bounds and monotonicity",
          report.bounds_ok and report.monotone_ok and report.du_negative_ok)
    check("profile tail rates", report.rates_ok)
    check("profile residual small", residual < 1e-4)

    state = _initial_state(cfg, profile)
    nxt = ls.step(state, 0.02)
    dm, fm, dp, fp = ls.step_flux_balance(state, nxt)
    mass_ok = abs(dm - fm) <= 1e-12 * max(1.0, abs(dm))
    mom_ok = abs(dp - fp) <= 1e-12 * max(1.0, abs(dp))
    check("conservation telescoping", mass_ok and mom_ok)
    final, record = _run(cfg, nxt, None)
    window_ok = record.volume_window_ok(profile.shock.v_plus)
    check("volume window", window_ok)
    emit_json({"mass_gap": dm - fm, "momentum_gap": dp - fp,
               "steps": record.n_steps + 1, "v_min": record.v_min,
               "v_max": record.v_max, "volume_window_ok": window_ok},
              out_dir / "conservation.json")

    rep = ed.EnergyReport()
    ed.energy_snapshot(state, profile, rep)
    ed.energy_snapshot(final, profile, rep)
    check("prepared data starts at zero", rep.peak_h2_sq[0] == 0.0)
    emit_csv(_energy_rows(rep), _ENERGY_COLUMNS, out_dir / "energy.csv")

    sweep = _write_sweep(cfg, include_full=False, out_dir=out_dir)
    check("tail error monotone in viscosity", sweep.monotone_flag)
    check("tail error fit", sweep.r_squared >= 0.99)

    failed = [name for name, ok in checks if not ok]
    if failed:
        raise NumericalError("selftest failures: " + ", ".join(failed))
    print(f"selftest passed ({len(checks)} checks), outputs in {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# entry point

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="viscoshock",
        description=("Viscous shock profiles, stretched-frame runs and "
                     "small-viscosity convergence measurements for 1-D "
                     "Lagrangian gas dynamics"))
    sub = parser.add_subparsers(dest="command", required=True)
    states = argparse.ArgumentParser(add_help=False)
    states.add_argument("--gamma", type=float, default=RunConfig.gamma)
    states.add_argument("--v-minus", type=float, required=True)
    states.add_argument("--v-plus", type=float, required=True)
    states.add_argument("--u-minus", type=float, default=RunConfig.u_minus)

    p = sub.add_parser("shock", parents=[states],
                       help="inviscid jump states and speed")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_shock)

    p = sub.add_parser("profile", parents=[states],
                       help="compute a traveling-wave profile")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n", type=int, default=RunConfig.n)
    p.add_argument("--tol", type=float, default=RunConfig.tol)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("solve", help="evolve profile-prepared data")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="solve_out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("energy", help="energy diagnostics time series")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("converge", help="small-viscosity error sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--profile-only", action="store_true")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("selftest", help="run the invariant battery")
    p.add_argument("--out", default="selftest_out")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
