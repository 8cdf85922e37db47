"""Cell diff of two benchmark output directories, and the golden artifacts.

    PYTHONPATH=src python tests/golden.py OLD_DIR NEW_DIR
    PYTHONPATH=src python tests/golden.py --check RUN_DIR
    PYTHONPATH=src python tests/golden.py --update RUN_DIR

(It needs only numpy and ``ltvbench.toolchain``, which probes the toolchain.)

For every CSV table in either directory (``table1.csv``, ``table2.csv``,
``lambda_sweep.csv``, the ``ecdf_*.csv`` files) it reports whether the file is
byte-identical, the rows added or removed, every changed ``best_params``,
``unstable`` or ``error`` cell, and for each numeric column the largest change
relative to the cell (with the row where it occurs) and the largest change
relative to the column's largest magnitude; the second is the one that
means something for values at rounding level, such as small ECDF residuals.  Rows are matched by their text
cells (e.g. scenario and method) and, where those repeat, by their order.
The report goes to stdout; the exit code is 0 unless the arguments are bad
(2).

``tests/golden/`` holds the artifacts of ``--suite all`` at master seed 7:
``table1.csv``, ``table2.csv`` and ``lambda_sweep.csv`` in full, and in
``golden.json`` the toolchain that wrote them (versions and OpenBLAS cores)
plus, for each ``ecdf_*.csv`` (~550 kB each), its SHA-256, row count and a
few quantiles per method.
:func:`check_golden` compares a fresh run with them; ``--check`` prints its
lines for RUN_DIR and exits 1 when there are any, 0 when there are none.
``--update`` rewrites them from RUN_DIR, for a change that moves cells on
purpose.  RUN_DIR must
hold all eight artifacts and the ``manifest.json`` of a run at master seed 7,
as one ``ltvbench bench --suite all --seed 7 --out RUN_DIR`` writes them (or,
from a checkout, ``PYTHONPATH=src python -m ltvbench bench ...``); otherwise
nothing is written and the exit code is 2.
"""

import csv
import hashlib
import json
import math
import os
import shutil
import sys
from collections import Counter
from pathlib import Path

from ltvbench.toolchain import toolchain

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_TABLES = ("table1.csv", "table2.csv", "lambda_sweep.csv")
GOLDEN_ECDFS = tuple(
    f"ecdf_{name}.csv" for name in ("ltv", "nl", "nld", "inst_reconfig", "mixed_reconfig")
)
# ECDF fractions at which golden.json keeps each method's residual value
ECDF_QUANTILES = (0.5, 0.9, 0.99, 1.0)

# cells compared as text: a change in any of them is listed cell by cell
FLAG_COLUMNS = ("best_params", "unstable", "error")


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def read_rows(path: Path) -> tuple:
    """(header, key columns, {key: row}); rows are keyed by their text cells
    and, where those repeat, by their order."""
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    text = [
        j for j, name in enumerate(header)
        if name not in FLAG_COLUMNS and any(row[j] and _number(row[j]) is None for row in rows)
    ]
    seen = Counter()
    keyed = {}
    for row in rows:
        label = tuple(row[j] for j in text)
        keyed[label + (seen[label],)] = row
        seen[label] += 1
    return header, text, keyed


def _label(key: tuple) -> str:
    *text, index = key
    return "/".join(text) + (f"#{index}" if index or not text else "")


def relative_change(old: str, new: str) -> float:
    """|new - old| / |old| for two numeric cells; 0 when the text is equal."""
    if old == new:
        return 0.0
    a, b = _number(old), _number(new)
    if a is None or b is None:
        return float("inf")
    if a == b:
        return 0.0
    return abs(b - a) / abs(a) if a != 0 else float("inf")


def diff_table(old_path: Path, new_path: Path) -> list:
    """Report lines for one table present in both directories."""
    if old_path.read_bytes() == new_path.read_bytes():
        return [f"{old_path.name}: byte-identical"]
    old_header, text, old_rows = read_rows(old_path)
    new_header, _, new_rows = read_rows(new_path)
    if old_header != new_header:
        return [f"{old_path.name}: header changed: {old_header} -> {new_header}"]
    lines = [f"{old_path.name}: {len(old_rows)} -> {len(new_rows)} rows, not byte-identical"]
    added = [_label(k) for k in new_rows if k not in old_rows]
    removed = [_label(k) for k in old_rows if k not in new_rows]
    lines.append(f"  rows added: {', '.join(added) or 'none'}")
    lines.append(f"  rows removed: {', '.join(removed) or 'none'}")
    common = [k for k in old_rows if k in new_rows]
    flags = [
        f"{_label(k)} {name}: {old_rows[k][j]!r} -> {new_rows[k][j]!r}"
        for k in common
        for j, name in enumerate(old_header)
        if name in FLAG_COLUMNS and old_rows[k][j] != new_rows[k][j]
    ]
    lines.append(f"  changed {'/'.join(FLAG_COLUMNS)} cells: {len(flags) or 'none'}")
    lines.extend(f"    {flag}" for flag in flags)
    lines.append("  max change per numeric column, relative to the cell | to the column's max |x|:")
    for j, name in enumerate(old_header):
        if name in FLAG_COLUMNS or j in text:
            continue
        changes = [(relative_change(old_rows[k][j], new_rows[k][j]), k) for k in common]
        worst, where = max(changes, key=lambda c: c[0], default=(0.0, None))
        at = f" ({_label(where)})" if worst > 0 else ""
        lines.append(f"    {name}: {worst:.3g}{at} | {_column_change(old_rows, new_rows, common, j):.3g}")
    return lines


def _column_change(old_rows, new_rows, common, j) -> float:
    """max |new - old| over the column's numeric cells, over max |old|."""
    pairs = [(_number(old_rows[k][j]), _number(new_rows[k][j])) for k in common]
    pairs = [(a, b) for a, b in pairs if a is not None and b is not None]
    scale = max((abs(a) for a, _ in pairs), default=0.0)
    delta = max((abs(b - a) for a, b in pairs), default=0.0)
    return delta / scale if scale else (0.0 if delta == 0 else float("inf"))


def diff_dirs(old_dir, new_dir) -> list:
    """Report lines for every CSV table in either directory."""
    old_dir, new_dir = Path(old_dir), Path(new_dir)
    names = sorted({p.name for d in (old_dir, new_dir) for p in d.glob("*.csv")})
    lines = []
    for name in names:
        old_path, new_path = old_dir / name, new_dir / name
        if not new_path.exists():
            lines.append(f"{name}: only in {old_dir}")
        elif not old_path.exists():
            lines.append(f"{name}: only in {new_dir}")
        else:
            lines.extend(diff_table(old_path, new_path))
    return lines


def ecdf_summary(path: Path) -> dict:
    """SHA-256, row count and per-method quantile cells (as written) of one ECDF file."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    values = {}
    for row in rows:
        values.setdefault(row["method"], []).append(row["value"])
    return {
        "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
        "rows": len(rows),
        "quantiles": {
            method: [cells[math.ceil(q * len(cells)) - 1] for q in ECDF_QUANTILES]
            for method, cells in sorted(values.items())
        },
    }


def _find(name: str, run_dirs) -> Path | None:
    return next((Path(d) / name for d in run_dirs if (Path(d) / name).exists()), None)


def check_golden(run_dirs, golden_dir=GOLDEN_DIR) -> list:
    """Lines naming every difference between a fresh run and the golden set.

    ``run_dirs`` is a list of directories that together hold the eight
    artifacts; one directory alone (a ``str`` or a path) raises
    ``TypeError``.  An empty list means all are byte-identical on the golden
    toolchain; a different toolchain is itself a difference, named with its
    versions or OpenBLAS cores (``None`` for a key that only one side has).
    """
    if isinstance(run_dirs, (str, os.PathLike)):
        raise TypeError(f"run_dirs must be a list of directories, got {run_dirs!r}; pass [run_dir]")
    golden = json.loads((Path(golden_dir) / "golden.json").read_text())
    old, new = golden["toolchain"], toolchain()
    lines = [
        f"toolchain: {tool} {old.get(tool)} -> {new.get(tool)}"
        for tool in sorted(old.keys() | new.keys())
        if old.get(tool) != new.get(tool)
    ]
    for name in GOLDEN_TABLES + GOLDEN_ECDFS:
        path = _find(name, run_dirs)
        if path is None:
            lines.append(f"{name}: missing from the run")
        elif name in GOLDEN_TABLES:
            report = diff_table(Path(golden_dir) / name, path)
            if report != [f"{name}: byte-identical"]:
                lines.extend(report)
        else:
            want, got = golden["ecdf"][name], ecdf_summary(path)
            if got["sha256"] != want["sha256"]:
                lines.append(f"{name}: sha256 differs, {want['rows']} -> {got['rows']} rows")
                lines.extend(
                    f"  {method} quantiles {ECDF_QUANTILES}: {cells} -> {got['quantiles'].get(method)}"
                    for method, cells in want["quantiles"].items()
                    if got["quantiles"].get(method) != cells
                )
    return lines


def _update_problems(run_dir) -> list:
    """Lines naming why ``run_dir`` cannot replace the golden set: a missing
    artifact, or a manifest that is absent or not at master seed 7."""
    run_dir = Path(run_dir)
    lines = [
        f"{name}: missing from {run_dir}"
        for name in GOLDEN_TABLES + GOLDEN_ECDFS
        if not (run_dir / name).is_file()
    ]
    manifest = run_dir / "manifest.json"
    try:
        seed = json.loads(manifest.read_text())["config"]["master_seed"]
    except (OSError, ValueError, KeyError, TypeError):
        lines.append(f"{manifest}: missing, or no config.master_seed in it")
    else:
        if seed != 7:
            lines.append(f"{manifest}: master_seed {seed!r}, the golden set is at 7")
    return lines


def write_golden(run_dir, golden_dir=GOLDEN_DIR) -> None:
    """Rewrite the golden set from a run directory holding all eight artifacts
    and the ``manifest.json`` of a run at master seed 7.

    Raises ValueError naming every problem of :func:`_update_problems`, before
    anything is written.
    """
    run_dir, golden_dir = Path(run_dir), Path(golden_dir)
    problems = _update_problems(run_dir)
    if problems:
        raise ValueError("\n".join(problems))
    payload = {
        "master_seed": 7,
        "toolchain": toolchain(),
        "ecdf": {name: ecdf_summary(run_dir / name) for name in GOLDEN_ECDFS},
    }
    golden_dir.mkdir(parents=True, exist_ok=True)
    for name in GOLDEN_TABLES:
        shutil.copyfile(run_dir / name, golden_dir / name)
    (golden_dir / "golden.json").write_text(json.dumps(payload, indent=2) + "\n")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 2 and args[0] == "--update" and Path(args[1]).is_dir():
        try:
            write_golden(args[1], GOLDEN_DIR)
        except ValueError as exc:
            print(f"golden set not updated:\n{exc}", file=sys.stderr)
            return 2
        return 0
    if len(args) == 2 and args[0] == "--check" and Path(args[1]).is_dir():
        differences = check_golden([args[1]], GOLDEN_DIR)
        for line in differences:
            print(line)
        return 1 if differences else 0
    if len(args) != 2 or not all(Path(a).is_dir() for a in args):
        print(
            "usage: python tests/golden.py OLD_DIR NEW_DIR\n"
            "       python tests/golden.py --check RUN_DIR\n"
            "       python tests/golden.py --update RUN_DIR",
            file=sys.stderr,
        )
        return 2
    print("\n".join(diff_dirs(*args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
