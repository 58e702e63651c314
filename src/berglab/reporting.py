"""Report emission: deterministic JSON and CSV with atomic writes.

Results are dataclasses, and `jsonable` is the one encoder of every report: it
writes a dataclass field by field, arrays as lists and every complex number,
points included, as {re, im} (a bidisc point is a list of two).  JSON payloads
sort keys, so identical configs and seeds reproduce byte-identical files
except for the timestamp field.  JSON is encoded in chunks straight into the
file, so a report never exists whole as one string.  Files are staged to a
temporary sibling and renamed into place, so a failed run never leaves partial
reports.
"""

from __future__ import annotations

import csv
import dataclasses
import datetime as _dt
import itertools
import json
import os
import tempfile
from typing import Iterable, Optional, Sequence

import numpy as np

TOOL_NAME = "berglab"

# Neutral identifiers for the mathematical statements a report exercises.
CLAIMS = {
    "axioms": "structural identities of the model spaces (kernel, involution, metric, measures)",
    "schur-test": "matrix-weighted Schur domination of the discretized operator norm",
    "kernel-power-integrals": "uniform-in-z bounds on normalized kernel-power integrals",
    "toeplitz-calculus": "Toeplitz assembly, contraction bound, and involutive covariance",
    "rank-one-factorization": "rank-one operators as sums of Toeplitz products through a point mass",
    "berezin-transform": "operator-valued kernel-state expectations and their boundary decay",
    "boundedness-integrals": "sup-z L^p integral tests sufficient for operator boundedness",
    "essential-norm": "lower profile of the essential norm via conjugated probes",
    "covering": "bounded-overlap metric covering with cells of diameter at most 4r",
    "localization": "approximation of an operator by its covering localization",
}


def jsonable(obj):
    """Recursively convert results to plain JSON types; a dataclass instance becomes
    {field: value} over its fields."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist() if obj.dtype.kind in "biu" or obj.dtype == np.float64 else jsonable(obj.tolist())
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _atomic_write(path: str, chunks: Iterable[str]) -> None:
    """Write the chunks to a temporary sibling and rename it to path; if anything fails,
    the temporary file and the directories made for it are removed."""
    directory = os.path.dirname(os.path.abspath(path))
    made, parent = [], directory   # made: the missing directories, innermost first
    while not os.path.isdir(parent):
        made.append(parent)
        parent = os.path.dirname(parent)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            chunks = iter(chunks)
            while batch := list(itertools.islice(chunks, 4096)):   # one write per chunk is slower
                fh.write("".join(batch))
        # mkstemp creates the file 0600; give the report the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        for d in made:
            os.rmdir(d)
        raise


def write_json_atomic(path: str, payload: dict) -> None:
    """Strict JSON, streamed chunk by chunk into the temporary file (the text of json.dumps
    with the same options, never held whole): a NaN or infinity raises ValueError and
    leaves no file behind."""
    encoder = json.JSONEncoder(sort_keys=True, indent=2, allow_nan=False)
    _atomic_write(path, itertools.chain(encoder.iterencode(jsonable(payload)), ["\n"]))


def write_csv_atomic(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    import io

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v is None else v for v in row])
    _atomic_write(path, [buf.getvalue()])


def tool_version() -> str:
    from . import __version__

    return __version__


def report_envelope(command: str, claim_id: str, config_echo: dict, seed: int,
                    payload: dict, timestamp: Optional[str] = None) -> dict:
    if claim_id not in CLAIMS:
        raise KeyError(f"unknown claim id {claim_id!r}")
    if timestamp is None:
        timestamp = _dt.datetime.now(_dt.timezone.utc).isoformat()
    return {
        "tool": TOOL_NAME,
        "version": tool_version(),
        "command": command,
        "claim": {"id": claim_id, "statement": CLAIMS[claim_id]},
        "seed": seed,
        "config": config_echo,
        "timestamp": timestamp,
        "result": payload,
    }
