"""How the package reads, checks and writes its JSON files and CSV tables.

A missing or malformed file raises :class:`DataFormatError` naming it:
:func:`read_json` checks the file, its top-level object and ``format`` tag,
and :func:`field_errors` covers a loader's checks on the fields.
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
