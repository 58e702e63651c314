#!/usr/bin/env python3
"""Compare two report directories written by ``berglab --out``, file by file.

JSON reports are compared as parsed values without their top-level
``timestamp``; an int and a float of equal value count as different, since
their text differs.  CSV reports are compared as text.  For each file that
differs the script prints the first differing key (a JSON path such as
``result.boundedness[0].sup``, or a CSV line and column) and the largest
relative change |a - b| / max(|a|, |b|) over the numbers found at the same
place on both sides.  Rounding noise in a value near zero can make that
change O(1), so the same line also gives the largest scaled change
|a - b| / max|x|, x over every number in the two files, with its key.  It
exits 1 on any difference, a file present on one side only included, and 0
when every file matches.  It exits 2, with one line on stderr, on a wrong
argument count, on a path that is no directory (missing, or a file) and on
two directories with no file between them, which would match vacuously.

Usage:
    python3 scripts/diff_reports.py reports_a reports_b
"""

import csv
import json
import math
import sys
from pathlib import Path

_MISSING = object()


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _numbers(value):
    """Every number in a parsed JSON value."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for v in value:
            yield from _numbers(v)
    elif _is_number(value):
        yield value


def _json_diffs(a, b, path):
    """(path, a, b) for each leaf at which the two JSON values differ, keys in sorted order."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            yield from _json_diffs(a.get(key, _MISSING), b.get(key, _MISSING),
                                   f"{path}.{key}" if path else key)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _json_diffs(x, y, f"{path}[{i}]")
    elif type(a) is not type(b) or a != b:
        yield path, a, b


def _csv_diffs(a: str, b: str):
    rows_a, rows_b = list(csv.reader(a.splitlines())), list(csv.reader(b.splitlines()))
    header = rows_a[0] if rows_a else []
    for line in range(max(len(rows_a), len(rows_b))):
        ra = rows_a[line] if line < len(rows_a) else []
        rb = rows_b[line] if line < len(rows_b) else []
        for col in range(max(len(ra), len(rb))):
            x = ra[col] if col < len(ra) else _MISSING
            y = rb[col] if col < len(rb) else _MISSING
            if x != y:
                name = header[col] if col < len(header) else col
                yield f"line {line + 1}, column {name}", _as_number(x), _as_number(y)


def _as_number(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return text


def _relative_change(a, b) -> float:
    if not (_is_number(a) and _is_number(b)):
        return 0.0
    if a == b:
        return 0.0
    if math.isnan(a) or math.isnan(b):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _scaled_change(a, b, scale: float) -> float:
    """|a - b| / scale, scale the largest finite |x| in the two files (so at least |a|, |b|)."""
    if not (_is_number(a) and _is_number(b)) or a == b:
        return 0.0
    change = abs(a - b)
    return change / scale if math.isfinite(change) else math.inf


def compare(path_a: Path, path_b: Path):
    """The differing leaves of two report files, in report order, and the largest finite
    magnitude of a number in either; a file that is not JSON is read as CSV."""
    raw_a, raw_b = path_a.read_bytes(), path_b.read_bytes()
    if path_a.suffix == ".json":
        a, b = json.loads(raw_a), json.loads(raw_b)
        for report in (a, b):
            if isinstance(report, dict):
                report.pop("timestamp", None)
        diffs, numbers = list(_json_diffs(a, b, "")), [*_numbers(a), *_numbers(b)]
    elif raw_a == raw_b:
        return [], 0.0
    else:
        texts = raw_a.decode(), raw_b.decode()
        # texts that differ only in line endings or quoting have equal cells
        diffs = list(_csv_diffs(*texts)) or [("the text (equal cells)", None, None)]
        numbers = [x for t in texts for row in csv.reader(t.splitlines())
                   for x in map(_as_number, row) if _is_number(x)]
    return diffs, max((abs(x) for x in numbers if math.isfinite(x)), default=0.0)


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    dir_a, dir_b = (Path(p) for p in argv)
    for d in (dir_a, dir_b):
        if not d.is_dir():
            print(f"{d}: no such directory", file=sys.stderr)
            return 2
    names = sorted({p.name for d in (dir_a, dir_b) for p in d.iterdir() if p.is_file()})
    if not names:
        print(f"{dir_a}, {dir_b}: no report files to compare", file=sys.stderr)
        return 2
    differing = 0
    for name in names:
        a, b = dir_a / name, dir_b / name
        if not (a.exists() and b.exists()):
            print(f"{name}: only in {dir_a if a.exists() else dir_b}")
            differing += 1
            continue
        diffs, scale = compare(a, b)
        if not diffs:
            continue
        differing += 1
        key = diffs[0][0]
        rel, where = max((_relative_change(x, y), k) for k, x, y in diffs)
        change = f"{rel:.3g} at {where}" if rel > 0 else "none (no number changed)"
        scaled, at = max((_scaled_change(x, y, scale), k) for k, x, y in diffs)
        if scaled > 0:
            change += f"; largest change scaled by max|x| = {scale:.3g}: {scaled:.3g} at {at}"
        print(f"{name}: {len(diffs)} differences, first at {key}; "
              f"largest relative change {change}")
    if differing:
        print(f"{differing} of {len(names)} files differ")
        return 1
    print(f"{len(names)} files identical (JSON without timestamp)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
