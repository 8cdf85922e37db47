"""Cell diff of two benchmark output directories.

    python tests/golden.py OLD_DIR NEW_DIR

For every CSV table in either directory (``table1.csv``, ``table2.csv``,
``lambda_sweep.csv``, the ``ecdf_*.csv`` files) it reports whether the file is
byte-identical, the rows added or removed, every changed ``best_params``,
``unstable`` or ``error`` cell, and for each numeric column the largest change
relative to the cell (with the row where it occurs) and the largest change
relative to the column's largest magnitude; the second is the one that
means something for values at rounding level, such as small ECDF residuals.  Rows are matched by their text
cells (e.g. scenario and method) and, where those repeat, by their order.
The report goes to stdout; the exit code is 0 unless the arguments are bad.
"""

import csv
import sys
from collections import Counter
from pathlib import Path

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


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(Path(a).is_dir() for a in args):
        print("usage: python tests/golden.py OLD_DIR NEW_DIR", file=sys.stderr)
        return 2
    print("\n".join(diff_dirs(*args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
