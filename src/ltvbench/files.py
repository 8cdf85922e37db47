"""How the package reads, checks and writes its JSON files, CSV tables and
trajectory CSVs.

A missing or malformed file raises :class:`DataFormatError` naming it:
:func:`read_json` checks the file, its top-level object and ``format`` tag,
:func:`field_errors` covers a loader's checks on the fields, and
:func:`read_trajectory_csv` checks every row of a trajectory.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .exceptions import DataFormatError


def read_json(path, what: str, fmt: str | None = None) -> dict:
    """The JSON object in ``path``; ``what`` names the kind of file in errors.

    With ``fmt`` given, the object's ``format`` tag must equal it.
    """
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"{what} not found: {path}")
    try:
        payload = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"cannot parse {what} {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataFormatError(f"{what} {path} does not hold a JSON object")
    if fmt is not None and payload.get("format") != fmt:
        raise DataFormatError(
            f"unexpected format tag {payload.get('format')!r} in {what} {path}; "
            f"expected {fmt!r}"
        )
    return payload


@contextmanager
def field_errors(path, what: str):
    """Report a missing or wrong-typed field of ``path`` as :class:`DataFormatError`."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"malformed {what} {path}: {exc!r}") from exc


def _plain(obj):
    """Convert numpy scalars/arrays to builtin types for JSON output."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def write_json(path, payload: dict) -> None:
    """Write ``payload`` with sorted keys, floats at full precision."""
    Path(path).write_text(json.dumps(_plain(payload), indent=1, sort_keys=True) + "\n")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True)
    return str(value)


def write_table(path, header, rows) -> None:
    """Write a CSV table; floats are written with ``repr`` and dicts as JSON."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def _trajectory_header(p: int, q: int) -> list:
    return ["t", *(f"x{i + 1}" for i in range(p))] + (
        ["u"] if q == 1 else [f"u{i + 1}" for i in range(q)]
    )


def write_trajectory_csv(path, times, states, inputs) -> None:
    """Write one trajectory as CSV: a ``t,x1..xp,u`` header, then one row per
    time with ``repr`` floats and CRLF line ends.

    ``states`` has one row more than ``inputs``, so the input cells of the
    final row are empty.  With ``q > 1`` inputs the columns are ``u1..uq``.
    The whole file is formatted as one string.
    """
    n, q = inputs.shape
    p = states.shape[1]
    rows = np.column_stack([times[:n], states[:n], inputs])
    row = ",".join(["%r"] * (1 + p + q)) + "\r\n"
    final = ",".join(["%r"] * (1 + p)) + "," * q + "\r\n"
    body = (row * n + final) % (*rows.ravel().tolist(), float(times[n]), *states[n].tolist())
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_trajectory_header(p, q)) + "\r\n" + body)


def _parse_rows(lines, ncol: int) -> np.ndarray:
    rows = np.loadtxt(lines, dtype=np.float64, delimiter=",", comments=None, ndmin=2)
    if rows.shape[1] != ncol:
        raise ValueError(f"rows hold {rows.shape[1]} cells, the header names {ncol}")
    return rows


def read_trajectory_csv(path) -> tuple:
    """The ``(times, states, inputs)`` arrays of a file from
    :func:`write_trajectory_csv`.

    Line ends may be CRLF or LF and blank lines are skipped.  Every other
    row must hold one float per header column, except the final row, whose
    input cells must be empty.  The file is read whole and its rows before
    the final one are parsed by one ``np.loadtxt``.
    """
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"trajectory file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            header, *lines = fh.read().split("\n")
        header = header.split(",")
        p = sum(1 for name in header if name.startswith("x"))
        q = len(header) - 1 - p
        if p < 1 or q < 1 or header != _trajectory_header(p, q):
            raise DataFormatError(f"unrecognized trajectory header in {path}: {header}")
        lines = [line for line in lines if line]
        if not lines:
            raise DataFormatError(f"trajectory file {path} has a header but no rows")
        last = lines.pop()
        head, *empty = last.rsplit(",", q)
        if len(empty) != q or any(cell.strip() for cell in empty):
            raise DataFormatError(
                f"final row of {path} must end in {q} empty input cell(s): {last!r}"
            )
        body = _parse_rows(lines, 1 + p + q) if lines else np.empty((0, 1 + p + q))
        final = _parse_rows([head], 1 + p)[0]
    except (OSError, ValueError) as exc:   # UnicodeDecodeError is a ValueError
        raise DataFormatError(f"cannot parse trajectory file {path}: {exc}") from exc
    times = np.append(body[:, 0], final[0])
    states = np.vstack([body[:, 1 : 1 + p], final[1:]])
    return times, states, np.ascontiguousarray(body[:, 1 + p :])
