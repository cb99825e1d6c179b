import inspect
import json
import math
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from viscoshock import (Grid1D, OmegaSpec, SolverSizing, ValidationError,
                        convergence_harness, full_error, run, shock_profile)
from viscoshock.cli_io import (RunConfig, _fmt, _law_and_shock, emit_csv,
                               emit_json, load_config, main, parse_config)

MINIMAL = "gamma = 2.0\nv_minus = 1.2\nv_plus = 1.0\n"


def test_parse_minimal_config():
    cfg = parse_config(MINIMAL)
    assert cfg.gamma == 2.0
    assert cfg.v_minus == 1.2
    assert cfg.alpha == RunConfig().alpha   # default filled in


def test_parse_comments_and_lists():
    cfg = parse_config("# full line comment\n"
                       "alphas = 0.4, 0.2, 0.1  # trailing comment\n"
                       "n_cells = 800\n"
                       "inject_amplitude = 1e-4\n")
    assert cfg.alphas == (0.4, 0.2, 0.1)
    assert cfg.n_cells == 800
    assert cfg.inject_amplitude == 1e-4


def test_unknown_key_is_hard_error():
    with pytest.raises(ValidationError, match="unknown key: gamm"):
        parse_config("gamm = 2.0\n")


def test_removed_keys_are_unknown():
    for line in ("jobs = 2", "deterministic = true", "span = 0",
                 "tau_max = 200", "margin_efolds = 20"):
        with pytest.raises(ValidationError, match="unknown key"):
            parse_config(MINIMAL + line + "\n")


@pytest.mark.filterwarnings("error")
def test_overflowing_jump_refused_by_key():
    with pytest.raises(ValidationError, match="^key v_plus: "):
        parse_config("v_plus = 1e-200\n")


@pytest.mark.filterwarnings("error")
def test_overflowing_velocity_refused_by_key():
    with pytest.raises(ValidationError, match="^key u_minus: "):
        parse_config("v_minus = 1.7e308\nv_plus = 1e-154\n"
                     "u_minus = -1e308\n")


def test_shock_ordering_cited():
    with pytest.raises(ValidationError, match="v_minus > v_plus"):
        parse_config("v_minus = 1.2\nv_plus = 1.5\n")


def test_bad_value_names_key():
    with pytest.raises(ValidationError, match="key gamma"):
        parse_config("gamma = banana\n")
    with pytest.raises(ValidationError, match="key cfl"):
        parse_config(MINIMAL + "cfl = 2.0\n")
    with pytest.raises(ValidationError, match="key alphas"):
        parse_config(MINIMAL + "alphas = 0.1 0.2\n")
    # delta = 0.2, v_minus = 1.2: compute_profile's tol*v_minus < delta/4
    # rule, checked at parse
    with pytest.raises(ValidationError,
                       match=r"^key tol: .*delta/\(4\*v_minus\) = 0\.0416667"
                             r".*v_minus - v_plus"):
        parse_config(MINIMAL + "tol = 0.06\n")
    # below the floor the wave is too narrow for double precision
    with pytest.raises(ValidationError,
                       match=r"^key alpha: 1e-200 is too small"):
        parse_config(MINIMAL + "alpha = 1e-200\n")


def test_alphas_need_three_values():
    # alpha_sweep refuses fewer than 3 entries; the config names the key
    with pytest.raises(ValidationError, match="key alphas"):
        parse_config(MINIMAL + "alphas = 0.2 0.1\n")
    assert parse_config(MINIMAL + "alphas = 0.3 0.2 0.1\n").alphas == (
        0.3, 0.2, 0.1)


def test_line_without_equals_rejected():
    with pytest.raises(ValidationError,
                       match=r"^line 2: expected 'key = value'$"):
        parse_config("gamma = 2.0\nv_minus 1.2\n")


def test_empty_alphas_rejected():
    with pytest.raises(ValidationError,
                       match=r"^key alphas: cannot parse '' \(empty list\)$"):
        parse_config(MINIMAL + "alphas =\n")


def test_duplicate_key_rejected():
    with pytest.raises(ValidationError, match="duplicate"):
        parse_config("gamma = 2.0\ngamma = 3.0\n")


def test_emit_csv_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv(np.empty((0, 2)), ["a", "b"], path)
    assert path.read_bytes() == b"a,b\n"


def test_emit_csv_roundtrip(tmp_path):
    path = tmp_path / "vals.csv"
    emit_csv(np.array([(0.1, 1, True)], dtype=object), ["x", "n", "flag"],
             path)
    text = path.read_text()
    cell = text.splitlines()[1].split(",")[0]
    assert float(cell) == 0.1
    assert "true" in text


def test_emit_csv_schema_mismatch(tmp_path):
    # the table is checked before the file is opened
    path = tmp_path / "bad.csv"
    for rows, schema, message in [
            (np.ones((1, 1)), ["a", "b"], "row 0 has 1 fields, schema has 2"),
            (np.zeros((4, 2)), ["a", "b", "c"],
             "row 0 has 2 fields, schema has 3")]:
        with pytest.raises(ValidationError, match=f"^{message}$"):
            emit_csv(rows, schema, path)
        assert not path.exists()


@pytest.mark.parametrize("rows, schema, name", [
    (np.arange(3.0), ["a"], "rows"),
    ([1.0, 2.0], ["a"], "rows"),
    ([np.array(1.0)], ["a"], "rows"),
    (np.float64(1.0), ["a"], "rows"),
    ([], [], "schema"),
    ((row for row in [(1.0,)]), ["a"], "rows"),
])
def test_emit_csv_refusal_names_argument(tmp_path, rows, schema, name):
    path = tmp_path / "bad.csv"
    with pytest.raises(ValidationError, match=f"^{name} "):
        emit_csv(rows, schema, path)
    assert not path.exists()


def _per_cell_csv(rows, schema):
    # the per-cell rendering emit_csv replaced, kept as its byte reference
    lines = [",".join(schema)]
    lines += [",".join(_fmt(x) for x in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


EDGE_REALS = [math.nan, math.inf, -math.inf, -0.0, 5e-324,
              1.7976931348623157e308, -1.7976931348623157e308]
REALS = st.one_of(st.sampled_from(EDGE_REALS), st.floats())
CELLS = st.one_of(
    REALS, REALS.map(np.float64), st.floats(width=32).map(np.float32),
    st.booleans(), st.booleans().map(np.bool_), st.integers(),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.text(alphabet="ab%s,.", max_size=4))


def _schema(width):
    # a '%' in a column name must reach the header untouched
    return [f"c{j}%s" for j in range(width)]


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "t.csv"


@settings(max_examples=80, derandomize=True, deadline=None)
@given(table=hnp.arrays(np.float64, st.tuples(st.integers(0, 8),
                                              st.integers(1, 6)),
                        elements=REALS))
def test_emit_csv_array_bytes_match_per_cell(csv_path, table):
    schema = _schema(table.shape[1])
    emit_csv(table, schema, csv_path)
    assert csv_path.read_bytes() == _per_cell_csv(table, schema)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(rows=st.integers(1, 5).flatmap(lambda m: st.lists(
    st.lists(CELLS, min_size=m, max_size=m), min_size=1, max_size=6)))
def test_emit_csv_mixed_bytes_match_per_cell(csv_path, rows):
    schema = _schema(len(rows[0]))
    emit_csv(np.array(rows, dtype=object), schema, csv_path)
    assert csv_path.read_bytes() == _per_cell_csv(rows, schema)


def test_emit_json_stable(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    emit_json({"b": 1.5, "a": [1, 2]}, p1)
    emit_json({"a": [1, 2], "b": 1.5}, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert json.loads(p1.read_text()) == {"a": [1, 2], "b": 1.5}


def test_rerun_byte_identical(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MINIMAL + "n_cells = 200\ntau_end = 0.5\n"
                   "y_min = -70\ny_max = 52\nobserve_every = 0.5\n")
    out1, out2 = tmp_path / "e1.csv", tmp_path / "e2.csv"
    assert main(["energy", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["energy", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_solve_rerun_identical_apart_from_timing(tmp_path):
    # the wall clock lives in timing.json, so every other file repeats
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MINIMAL + "n_cells = 200\ntau_end = 0.5\n"
                   "y_min = -70\ny_max = 52\nobserve_every = 0.25\n")
    trees = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        timing = json.loads((out / "timing.json").read_text())
        assert list(timing) == ["wallclock_s"]
        trees.append({p.name: p.read_bytes() for p in sorted(out.iterdir())
                      if p.name != "timing.json"})
    assert sorted(trees[0]) == ["obs_0000.csv", "obs_0001.csv",
                                "summary.json"]
    assert trees[0] == trees[1]
    assert b"wallclock" not in trees[0]["summary.json"]


def test_solve_and_energy_at_the_start_time(tmp_path):
    # tau_end = 0 takes no step, and its one stop is still observed
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MINIMAL + "n_cells = 200\ntau_end = 0\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "obs_0000.csv", "summary.json", "timing.json"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["observations"] == [0.0] and summary["steps"] == 0
    energy = tmp_path / "energy.csv"
    assert main(["energy", "--config", str(cfg), "--out", str(energy)]) == 0
    rows = energy.read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["0", "0"]


def test_readme_config_block_is_the_default_config():
    # the README lists every key at its default value
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("### Config files", 1)[1].split("```")[1]
    keys = [line.split("=", 1)[0].strip() for line in block.splitlines()
            if "=" in line.split("#", 1)[0]]
    assert sorted(keys) == sorted(f.name for f in fields(RunConfig))
    assert len(keys) == 22
    assert parse_config(block) == RunConfig()


def test_one_default_cfl(shock, law, monkeypatch):
    # run, the config and the README step at one cfl, and the sweep steps
    # at run's default; the README's config block is RunConfig() by the
    # test above
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    cfl = inspect.signature(run).parameters["cfl"].default
    assert RunConfig().cfl == cfl
    assert f"defaults to {cfl}." in readme
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return run(*args, **kwargs)

    monkeypatch.setattr(convergence_harness, "run", spy)
    full_error(shock, 0.4, law, OmegaSpec(1.0, 2.0, 201, 3))
    assert calls and not any("cfl" in kwargs for kwargs in calls)


def test_selftest_failure_exits_2(tmp_path, capsys, monkeypatch):
    # a failing check is printed, named in the error and exits 2
    monkeypatch.setattr(shock_profile, "profile_residual", lambda p: 1.0)
    assert main(["selftest", "--out", str(tmp_path / "selftest")]) == 2
    out, err = capsys.readouterr()
    assert "[FAIL] profile residual small" in out.splitlines()
    assert "selftest failures: profile residual small" in err


def test_selftest_writes_through_subcommand_writers(tmp_path):
    # selftest's profile and sweep files are those of profile and of
    # converge --profile-only on the battery's fixed run
    cfg = tmp_path / "selftest.cfg"
    cfg.write_text("n = 2001\nn_cells = 600\ntau_end = 2.0\n"
                   "x_samples = 401\nt_samples = 3\nalphas = 0.4 0.2 0.1\n")
    battery, subs = tmp_path / "selftest", tmp_path / "subs"
    assert main(["selftest", "--out", str(battery)]) == 0
    assert main(["converge", "--config", str(cfg), "--out", str(subs),
                 "--profile-only"]) == 0
    assert main(["profile", "--v-minus", "1.2", "--v-plus", "1.0",
                 "--alpha", "0.1", "--n", "2001",
                 "--out", str(subs / "profile.csv")]) == 0
    assert sorted(p.name for p in battery.iterdir()) == [
        "conservation.json", "energy.csv", "fit_summary.json",
        "profile.csv", "profile.json", "shock.json", "sweep.csv"]
    for name in ("profile.csv", "profile.json", "sweep.csv",
                 "fit_summary.json"):
        assert (battery / name).read_bytes() == (subs / name).read_bytes()


def test_cli_shock_exit_codes(capsys):
    assert main(["shock", "--v-minus", "1.2", "--v-plus", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "lax_satisfied" in out
    # validation failure -> exit 1
    assert main(["shock", "--v-minus", "1.0", "--v-plus", "1.2"]) == 1


def test_cli_shock_json(capsys):
    assert main(["shock", "--v-minus", "1.2", "--v-plus", "1.0",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lax_satisfied"] is True
    assert payload["s"] == pytest.approx(-1.236034, abs=1e-6)


def test_cli_profile_writes_pair(tmp_path, capsys):
    out = tmp_path / "prof.csv"
    assert main(["profile", "--v-minus", "1.2", "--v-plus", "1.0",
                 "--alpha", "0.1", "--n", "1001", "--out", str(out)]) == 0
    sidecar = tmp_path / "prof.json"
    assert out.exists() and sidecar.exists()
    meta = json.loads(sidecar.read_text())
    assert meta["properties"]["all_ok"] is True
    header = out.read_text().splitlines()[0]
    assert header == "xi,V,U,dV_dxi"


def test_cli_profile_sidecar_without_csv_suffix(tmp_path):
    # an --out not ending in .csv gets .json appended for its sidecar
    out = tmp_path / "prof.txt"
    assert main(["profile", "--v-minus", "1.2", "--v-plus", "1.0",
                 "--alpha", "0.1", "--n", "1001", "--out", str(out)]) == 0
    sidecar = tmp_path / "prof.txt.json"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "prof.txt", "prof.txt.json"]
    assert sorted(json.loads(sidecar.read_text())) == [
        "alpha", "delta", "gamma", "lambda_minus", "lambda_plus",
        "properties", "residual", "s", "u_plus"]


def test_cli_numerical_failure_exit_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    # a narrow bump of amplitude 20 squeezes a volume below zero
    cfg.write_text(MINIMAL + "n_cells = 200\ntau_end = 0.5\n"
                   "y_min = -70\ny_max = 52\ninject_amplitude = 20\n"
                   "inject_width = 0.5\n")
    out = tmp_path / "x.csv"
    assert main(["energy", "--config", str(cfg), "--out", str(out)]) == 2


def test_cli_io_failure_exit_3(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MINIMAL + "n_cells = 200\ntau_end = 0.2\n"
                   "y_min = -70\ny_max = 52\n")
    missing = tmp_path / "no" / "such" / "dir" / "out.csv"
    assert main(["energy", "--config", str(cfg), "--out", str(missing)]) == 3


def test_cli_validation_before_output(tmp_path):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("gamm = 2.0\n")
    out = tmp_path / "should_not_exist.csv"
    assert main(["energy", "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()


def test_load_config_roundtrip(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text(MINIMAL)
    assert load_config(p).v_minus == 1.2


# One out-of-range value per key besides NaN and +-inf.  u_minus and
# inject_center accept every finite value, and y_max is bounded only by
# y_min, whose rule names y_min (the y_min = 60 case).
OUT_OF_RANGE = {
    "gamma": "0.5", "v_minus": "0.5", "v_plus": "0", "u_minus": None,
    "alpha": "0", "tol": "0", "n": "32", "y_min": "60",
    "y_max": None, "n_cells": "15", "cfl": "1", "tau_end": "-1",
    "observe_every": "0", "inject_amplitude": "-1",
    "inject_center": None, "inject_width": "0", "h": "0", "t_final": "0.5",
    "x_samples": "1", "t_samples": "1", "alphas": "0.1 0.2 0.3",
    "cells_per_width": "19",
}
README_VALID = {("observe_every", "inf")}


@pytest.mark.parametrize("key", [f.name for f in fields(RunConfig)])
def test_every_key_refused_by_name(key):
    bad = ["nan", "inf", "-inf"]
    if OUT_OF_RANGE[key] is not None:
        bad.append(OUT_OF_RANGE[key])
    for val in bad:
        text = f"{key} = {val}\n"
        if (key, val) in README_VALID:
            assert getattr(parse_config(text), key) == float(val)
            continue
        with pytest.raises(ValidationError, match=f"^key {key}: "):
            parse_config(text)


FLOAT_KEYS = [f.name for f in fields(RunConfig)
              if isinstance(getattr(RunConfig, f.name), float)]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(key=st.sampled_from(FLOAT_KEYS), value=st.floats())
def test_config_refuses_by_name_or_builds(key, value):
    # a refusal names the key (an ordering rule may open with its partner,
    # as in "key t_final: must be finite and exceed h"); an accepted
    # config builds every library object the subcommands build from it
    try:
        cfg = parse_config(f"{key} = {value!r}\n")
    except ValidationError as exc:
        assert re.match(rf"key \w+: .*\b{key}\b|key {key}: ", str(exc))
        return
    _law_and_shock(cfg)
    Grid1D(y_min=cfg.y_min, y_max=cfg.y_max, n_cells=cfg.n_cells)
    OmegaSpec(h=cfg.h, t_final=cfg.t_final, x_samples=cfg.x_samples,
              t_samples=cfg.t_samples)
    SolverSizing(cells_per_width=cfg.cells_per_width)


def _cli(*argv):
    # a subprocess with a timeout, so a hang fails the test instead of
    # stalling the suite; a numpy RuntimeWarning is an error there too
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           "-m", "viscoshock.cli_io", *argv],
                          capture_output=True, text=True, timeout=60)


def test_cli_solve_infinite_tau_end_exits_1(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MINIMAL + "tau_end = inf\n")
    out = tmp_path / "out"
    proc = _cli("solve", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 1, proc.stderr
    assert "key tau_end" in proc.stderr
    assert not (out / "summary.json").exists()


def test_cli_converge_infinite_cells_per_width_exits_1(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MINIMAL + "cells_per_width = inf\n")
    proc = _cli("converge", "--config", str(cfg), "--out",
                str(tmp_path / "out"))
    assert proc.returncode == 1, proc.stderr
    assert "key cells_per_width" in proc.stderr


def test_cli_converge_full_errors_are_finite_and_deterministic(tmp_path):
    # no other test runs converge's full-solution path through the CLI
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MINIMAL + "alphas = 0.4 0.2 0.1\nx_samples = 201\n"
                   "t_samples = 3\n")
    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        proc = _cli("converge", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        runs.append([(out / f).read_bytes()
                     for f in ("sweep.csv", "fit_summary.json")])
    assert runs[0] == runs[1]
    rows = [line.split(",") for line in runs[0][0].decode().splitlines()]
    assert rows[0] == ["alpha", "E_profile", "E_full", "capped"]
    assert len(rows) == 4
    assert all(math.isfinite(float(row[2])) for row in rows[1:])
