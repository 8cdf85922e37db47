"""The cell-diff and golden-set helpers of ``tests/golden.py`` on small
hand-made tables."""

import json

import pytest

from golden import (
    GOLDEN_ECDFS,
    GOLDEN_TABLES,
    OPENBLAS_CORENAMES,
    check_golden,
    diff_dirs,
    main,
    openblas_core,
    write_golden,
)

TABLE = (
    "scenario,method,mean_loss,std_loss,n_test,best_params,error\n"
    'ltv,cosmic,0.5,0.25,10,"{""lam"": 0.001}",\n'
    'nl,cosmic,2.0,1.0,10,"{""lam"": 0.01}",\n'
)


def write_dirs(tmp_path, old, new, name="table1.csv"):
    for side, text in (("old", old), ("new", new)):
        (tmp_path / side).mkdir()
        (tmp_path / side / name).write_text(text)
    return tmp_path / "old", tmp_path / "new"


def test_identical_tables(tmp_path):
    assert diff_dirs(*write_dirs(tmp_path, TABLE, TABLE)) == ["table1.csv: byte-identical"]


def test_numeric_change_names_column_and_row(tmp_path):
    report = diff_dirs(*write_dirs(tmp_path, TABLE, TABLE.replace("0.5,0.25", "0.5000001,0.25")))
    assert "  rows added: none" in report
    assert "  changed best_params/unstable/error cells: none" in report
    assert "    mean_loss: 2e-07 (ltv/cosmic) | 5e-08" in report
    assert "    std_loss: 0 | 0" in report


def test_rows_and_flag_cells(tmp_path):
    new = TABLE.replace('"{""lam"": 0.01}",', '"{""lam"": 0.1}",') + "nld,cosmic,,,10,{},failed\n"
    report = diff_dirs(*write_dirs(tmp_path, TABLE, new))
    assert "table1.csv: 2 -> 3 rows, not byte-identical" in report
    assert "  rows added: nld/cosmic" in report
    assert "  changed best_params/unstable/error cells: 1" in report
    assert """    nl/cosmic best_params: '{"lam": 0.01}' -> '{"lam": 0.1}'""" in report


def test_repeated_keys_match_by_order(tmp_path):
    old = "method,value,fraction\ncosmic,1.0,0.5\ncosmic,2.0,1.0\n"
    report = diff_dirs(*write_dirs(tmp_path, old, old.replace("2.0,", "3.0,"), "ecdf_ltv.csv"))
    assert "    value: 0.5 (cosmic#1) | 0.5" in report


def test_usage(tmp_path, capsys):
    assert main([str(tmp_path)]) == 2
    assert "OLD_DIR NEW_DIR" in capsys.readouterr().err


ECDF = "method,value,fraction\ncosmic,0.1,0.5\ncosmic,0.2,1.0\nlti,0.3,1.0\n"


def fake_run(tmp_path, master_seed=7):
    run = tmp_path / "run"
    run.mkdir()
    (run / "manifest.json").write_text(json.dumps({"suite": "all", "config": {"master_seed": master_seed}}))
    for name in GOLDEN_TABLES:
        (run / name).write_text(TABLE)
    for name in GOLDEN_ECDFS:
        (run / name).write_text(ECDF)
    return run


def test_golden_round_trip(tmp_path):
    run = fake_run(tmp_path)
    write_golden(run, tmp_path / "golden")
    summary = json.loads((tmp_path / "golden" / "golden.json").read_text())["ecdf"]["ecdf_ltv.csv"]
    assert summary["rows"] == 3
    assert summary["quantiles"] == {"cosmic": ["0.1", "0.2", "0.2", "0.2"], "lti": ["0.3"] * 4}
    assert check_golden([run], tmp_path / "golden") == []


def test_golden_names_every_difference(tmp_path):
    run = fake_run(tmp_path)
    write_golden(run, tmp_path / "golden")
    meta = tmp_path / "golden" / "golden.json"
    meta.write_text(meta.read_text().replace('"numpy": "', '"numpy": "0.0+'))
    (run / "ecdf_nl.csv").write_text(ECDF.replace("0.2,", "0.25,"))
    (run / "table2.csv").write_text(TABLE.replace("0.25,", "0.5,"))
    (run / "lambda_sweep.csv").unlink()
    lines = check_golden([run], tmp_path / "golden")
    assert lines[0].startswith("toolchain: numpy 0.0+")
    assert "table2.csv: 2 -> 2 rows, not byte-identical" in lines
    assert "lambda_sweep.csv: missing from the run" in lines
    assert "ecdf_nl.csv: sha256 differs, 3 -> 3 rows" in lines
    assert any(line.startswith("  cosmic quantiles") for line in lines)
    assert not any(line.startswith(("table1", "ecdf_ltv")) for line in lines)


def test_golden_names_another_openblas_core(tmp_path, monkeypatch):
    # the same versions on another core may round differently
    run = fake_run(tmp_path)
    write_golden(run, tmp_path / "golden")
    cores = {package: openblas_core(package) for package in ("numpy", "scipy")}
    monkeypatch.setattr("golden.openblas_core", lambda package: f"{cores[package]}+other")
    assert check_golden([run], tmp_path / "golden") == [
        f"toolchain: openblas_core_{package} {core} -> {core}+other"
        for package, core in cores.items()
    ]


def test_openblas_core_without_its_symbol_is_null(monkeypatch):
    monkeypatch.setitem(OPENBLAS_CORENAMES, "numpy", "no_such_symbol")
    assert openblas_core("numpy") is None


@pytest.mark.parametrize("fault", ["ecdf_nld.csv", "table2.csv", "manifest.json", "seed"])
def test_update_from_an_incomplete_run_writes_nothing(tmp_path, capsys, monkeypatch, fault):
    golden = tmp_path / "golden"
    golden.mkdir()
    (golden / "table1.csv").write_text("old\n")
    monkeypatch.setattr("golden.GOLDEN_DIR", golden)
    run = fake_run(tmp_path, master_seed=8 if fault == "seed" else 7)
    if fault != "seed":
        (run / fault).unlink()
    assert main(["--update", str(run)]) == 2
    err = capsys.readouterr().err
    assert (fault if fault != "seed" else "master_seed 8") in err
    assert [p.name for p in golden.iterdir()] == ["table1.csv"]
    assert (golden / "table1.csv").read_text() == "old\n"


def test_update_from_a_complete_run(tmp_path, monkeypatch):
    monkeypatch.setattr("golden.GOLDEN_DIR", tmp_path / "golden")
    run = fake_run(tmp_path)
    assert main(["--update", str(run)]) == 0
    assert check_golden([run], tmp_path / "golden") == []
