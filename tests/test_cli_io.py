import json

import pytest

from viscoshock import ValidationError
from viscoshock.cli_io import (RunConfig, emit_csv, emit_json, load_config,
                               main, parse_config)

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
    for line in ("jobs = 2", "deterministic = true"):
        with pytest.raises(ValidationError, match="unknown key"):
            parse_config(MINIMAL + line + "\n")


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


def test_alphas_need_three_values():
    # alpha_sweep refuses fewer than 3 entries; the config names the key
    with pytest.raises(ValidationError, match="key alphas"):
        parse_config(MINIMAL + "alphas = 0.2 0.1\n")
    assert parse_config(MINIMAL + "alphas = 0.3 0.2 0.1\n").alphas == (
        0.3, 0.2, 0.1)


def test_duplicate_key_rejected():
    with pytest.raises(ValidationError, match="duplicate"):
        parse_config("gamma = 2.0\ngamma = 3.0\n")


def test_emit_csv_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], ["a", "b"], path)
    assert path.read_bytes() == b"a,b\n"


def test_emit_csv_roundtrip(tmp_path):
    path = tmp_path / "vals.csv"
    emit_csv([(0.1, 1, True)], ["x", "n", "flag"], path)
    text = path.read_text()
    cell = text.splitlines()[1].split(",")[0]
    assert float(cell) == 0.1
    assert "true" in text


def test_emit_csv_schema_mismatch(tmp_path):
    with pytest.raises(ValidationError):
        emit_csv([(1.0,)], ["a", "b"], tmp_path / "bad.csv")


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


def test_cli_numerical_failure_exit_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    # step cap far below the hard floor forces a numerical abort
    cfg.write_text(MINIMAL + "n_cells = 200\ntau_end = 0.5\n"
                   "y_min = -70\ny_max = 52\ndy2_step_factor = 1e-16\n")
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
