"""Every reader of a package file against a corpus of malformed files.

Each library reader must raise ``DataFormatError`` naming the file; each CLI
reader must exit 2 with a one-line ``ltvbench <stage>: error:`` diagnostic.
The JSON corpus runs against every reader of a JSON file, the trajectory-CSV
corpus against every reader of a dataset.
"""

import csv
import json
import math

import numpy as np
import pytest

from conftest import read_gains
from ltvbench.cli import main
from ltvbench.control import GainSchedule, save_gains
from ltvbench.datagen import MANIFEST_NAME, Dataset, Split, load_dataset, save_dataset
from ltvbench.dynamics import Trajectory, load_scenario, save_scenario, scenario
from ltvbench.exceptions import DataFormatError
from ltvbench.files import write_json, write_table
from ltvbench.models import LtvModel, load_model, save_model


def _scenario_file(d):
    save_scenario(scenario("mixed-reconfig"), d / "plant.json")
    return d / "plant.json"


def _model_file(d):
    model = LtvModel(A=np.full((3, 2, 2), 0.5), B=np.ones((3, 2, 1)), dt=0.1)
    save_model(model, d / "model.json")
    return d / "model.json"


def _gains_file(d):
    save_gains(GainSchedule(K=np.ones((3, 1, 2)), u_ff=np.zeros((3, 1))), d / "gains.json")
    return d / "gains.json"


def _dataset_dir(d):
    traj = Trajectory(times=[0.0, 0.1, 0.2], states=np.ones((3, 2)), inputs=[[1.0], [2.0]])
    ds = Dataset(split=Split.TEST, trajectories=[traj], scenario=scenario("ltv"))
    save_dataset(ds, d / "data")
    return d / "data" / MANIFEST_NAME


def _ref_file(d):
    write_json(d / "ref.json", {"segments": [{"t": 0.0, "z": 1.0}, {"t": 2.0, "z": -1.0}]})
    return d / "ref.json"


def _cli(*argv):
    def read(path):
        out = str(path.parent / "out.csv")
        return main([a.format(path=path, dir=path.parent, out=out) for a in argv])

    read.stage = argv[0]
    return read


# name: (writes a good file and returns its path, reads that path,
#        a required key, a wrong-typed value for some field, has a format tag);
# a CLI reader returns the exit code and names its subcommand in ``stage``.
READERS = {
    "scenario": (_scenario_file, load_scenario, "kind", ("mass", "heavy"), False),
    "model": (_model_file, load_model, "A", ("dt", "fast"), True),
    "gains": (_gains_file, read_gains, "K", ("u_ff", [[1.0, 2.0]]), True),
    "dataset": (
        _dataset_dir, lambda path: load_dataset(path.parent), "scenario_file",
        ("trajectories", 5), True,
    ),
    "control-ref": (
        _ref_file,
        _cli("control", "--model", "linearization", "--scenario", "ltv",
             "--ref", "{path}", "--seed", "1", "--out", "{out}"),
        "segments", ("segments", [5]), False,
    ),
    "control-model": (
        _model_file,
        _cli("control", "--model", "{path}", "--scenario", "ltv",
             "--seed", "1", "--out", "{out}"),
        "A", ("dt", "fast"), True,
    ),
    "control-scenario": (
        _scenario_file,
        _cli("control", "--model", "linearization", "--scenario", "{path}",
             "--seed", "1", "--out", "{out}"),
        "kind", ("mass", "heavy"), False,
    ),
    "identify-data": (
        _dataset_dir,
        _cli("identify", "--method", "lti", "--data", "{dir}", "--out", "{out}"),
        "scenario_file", ("trajectories", 5), True,
    ),
}


def _edit(change):
    def apply(path, key, wrong):
        payload = json.loads(path.read_text())
        change(payload, key, wrong)
        path.write_text(json.dumps(payload))

    return apply


CASES = {
    "missing-file": lambda path, key, wrong: path.unlink(),
    "bad-json": lambda path, key, wrong: path.write_text("{not json"),
    "list": lambda path, key, wrong: path.write_text("[1, 2, 3]"),
    "string": lambda path, key, wrong: path.write_text('"ltv-model/1"'),
    "null": lambda path, key, wrong: path.write_text("null"),
    "missing-key": _edit(lambda payload, key, wrong: payload.pop(key)),
    "wrong-type": _edit(lambda payload, key, wrong: payload.update([wrong])),
    "wrong-format": _edit(lambda payload, key, wrong: payload.update(format="bogus/0")),
}


def _assert_typed(read, path, broken, capsys):
    """``read(path)`` fails on the file ``broken`` with a typed error naming it."""
    stage = getattr(read, "stage", None)
    if stage is not None:
        assert read(path) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"ltvbench {stage}: error:")
        assert broken.name in err
    else:
        with pytest.raises(DataFormatError, match=broken.name):
            read(path)


@pytest.mark.parametrize(
    "reader, case",
    [
        (reader, case)
        for reader, spec in READERS.items()
        for case in CASES
        if case != "wrong-format" or spec[4]
    ],
)
def test_malformed_file_is_typed(tmp_path, capsys, reader, case):
    write_good, read, key, wrong, _ = READERS[reader]
    path = write_good(tmp_path)
    if getattr(read, "stage", None) is None:
        read(path)   # the good file loads
    CASES[case](path, key, wrong)
    _assert_typed(read, path, path, capsys)


@pytest.mark.parametrize(
    "segment", [{"t": 2.0, "z": math.nan}, {"t": math.nan, "z": -1.0}, {"t": 2.0, "z": math.inf}]
)
def test_non_finite_reference_is_malformed(tmp_path, capsys, segment):
    # json writes and reads NaN and Infinity; the spec, not the parser, rejects them
    path = _ref_file(tmp_path)
    payload = json.loads(path.read_text())
    payload["segments"][1] = segment
    path.write_text(json.dumps(payload))
    read = READERS["control-ref"][1]
    assert read(path) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"ltvbench control: error: malformed reference spec {path}")
    assert "must be finite" in err
    assert not (tmp_path / "out.csv").exists()


# The rows of the trajectory CSV that ``_dataset_dir`` writes.
GOOD_CSV = ["t,x1,x2,u", "0.0,1.0,1.0,1.0", "0.1,1.0,1.0,2.0", "0.2,1.0,1.0,"]


def _rows(*edits):
    """Write ``GOOD_CSV`` with the rows at the given indices replaced
    (``None`` drops everything from that row on)."""
    def apply(path):
        rows = list(GOOD_CSV)
        for i, row in edits:
            rows[i:] = [] if row is None else [row] + rows[i + 1 :]
        path.write_bytes("".join(r + "\r\n" for r in rows).encode())

    return apply


def _replace_with_directory(path):
    path.unlink()
    path.mkdir()


CSV_CASES = {
    "missing-file": lambda path: path.unlink(),
    "directory": _replace_with_directory,
    "non-utf8": lambda path: path.write_bytes(path.read_bytes().replace(b"2.0", b"2\xff0")),
    "bad-float": _rows((2, "0.1,1.0,one,2.0")),
    "short-row": _rows((1, "0.0,1.0,1.0")),
    "extra-cell": _rows((1, "0.0,1.0,1.0,1.0,7.0")),
    "extra-column": _rows((1, "0.0,1.0,1.0,1.0,7.0"), (2, "0.1,1.0,1.0,2.0,7.0")),
    "middle-row-without-input": _rows((2, "0.1,1.0,1.0,")),
    "input-on-final-row": _rows((3, "0.2,1.0,1.0,3.0")),
    "no-x-columns": _rows((0, "t,y1,y2,u")),
    "misordered-header": _rows((0, "t,x1,u,x2")),
    "header-only": _rows((1, None)),
    # numpy parses these; a fit would fail on them deep inside, so reading rejects them
    "nan-state": _rows((1, "0.0,nan,1.0,1.0")),
    "inf-final-state": _rows((3, "0.2,1.0,inf,")),
    "nan-input": _rows((2, "0.1,1.0,1.0,nan")),
    "inf-input": _rows((1, "0.0,1.0,1.0,-inf")),
}
DATASET_READERS = ("dataset", "identify-data")


@pytest.mark.parametrize(
    "reader, case", [(reader, case) for reader in DATASET_READERS for case in CSV_CASES]
)
def test_malformed_trajectory_csv_is_typed(tmp_path, capsys, reader, case):
    write_good, read = READERS[reader][:2]
    manifest = write_good(tmp_path)
    csv_path = manifest.parent / "traj_0000.csv"
    assert csv_path.read_bytes() == "".join(r + "\r\n" for r in GOOD_CSV).encode()
    CSV_CASES[case](csv_path)
    _assert_typed(read, manifest, csv_path, capsys)


def test_good_reference_file_runs(tmp_path):
    assert READERS["control-ref"][1](_ref_file(tmp_path)) == 0


def test_write_json_layout(tmp_path):
    write_json(tmp_path / "f.json", {"b": np.float64(0.1), "a": (np.arange(2), np.bool_(True))})
    assert (tmp_path / "f.json").read_text() == (
        '{\n "a": [\n  [\n   0,\n   1\n  ],\n  true\n ],\n "b": 0.1\n}\n'
    )


def test_write_table_cells_read_back(tmp_path):
    rows = [({"lam": 0.001}, 0.1, None, True), ({"a": "x,\"y\""}, None, "bad, \"quoted\"", False)]
    write_table(tmp_path / "t.csv", ["params", "loss", "error", "flag"], rows)
    with open(tmp_path / "t.csv", newline="") as fh:
        back = list(csv.DictReader(fh))
    assert [json.loads(r["params"]) for r in back] == [rows[0][0], rows[1][0]]
    assert [r["loss"] for r in back] == ["0.1", ""]
    assert [r["error"] for r in back] == ["", "bad, \"quoted\""]
    assert [r["flag"] for r in back] == ["true", "false"]


def test_non_finite_training_cell_fails_at_load_not_in_the_fit(tmp_path, capsys):
    # a nan state cell once reached cosmic's excitation check and failed
    # there as numpy's "SVD did not converge"
    data = tmp_path / "d"
    assert main(["dataset", "--scenario", "ltv", "--seed", "7", "--out", str(data),
                 "--l-train", "5", "--l-val", "3", "--l-test", "3"]) == 0
    csv_path = data / "train" / "traj_0002.csv"
    lines = csv_path.read_text().splitlines()
    cells = lines[40].split(",")
    cells[1] = "nan"
    lines[40] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match="traj_0002.csv holds a non-finite cell"):
        load_dataset(data / "train")
    capsys.readouterr()
    code = main(["identify", "--method", "cosmic", "--data", str(data / "train"),
                 "--out", str(tmp_path / "m.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("ltvbench identify: error:") and "traj_0002.csv" in err
    assert not (tmp_path / "m.json").exists()
