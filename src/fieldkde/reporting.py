"""Byte-stable report serialisation and run manifests.

JSON output uses sorted keys and 17-significant-digit floats, so a report
serialises to identical bytes on every run and every float round-trips to
the same value.  A CSV table is a dict of columns, written in chunks with
the same float format and an empty cell for None or a non-finite float;
schemas are versioned via ``SCHEMA_VERSION`` and documented in the README.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

__all__ = [
    "SCHEMA_VERSION",
    "float_repr",
    "canonical_json",
    "write_report",
    "write_csv",
    "table_columns",
    "RunManifest",
]

SCHEMA_VERSION = 1
# rows formatted and written at a time, so the text a table holds in memory stays bounded
CSV_CHUNK_ROWS = 1024


def float_repr(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("reports must contain finite numbers only")
    return _cell(float(x))


def _emit(obj, out: list) -> None:
    """Append the JSON of ``obj`` to ``out``: a dataclass instance as the dict of its fields, numpy values as Python's.

    Dict keys are turned into strings with ``str`` and sorted.
    """
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"')
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(float_repr(float(obj)))
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, v in enumerate(obj.tolist() if isinstance(obj, np.ndarray) else obj):
            if i:
                out.append(",")
            _emit(v, out)
        out.append("]")
    elif isinstance(obj, dict) or (is_dataclass(obj) and not isinstance(obj, type)):
        items = obj.items() if isinstance(obj, dict) else ((f.name, getattr(obj, f.name)) for f in fields(obj))
        named = {str(k): v for k, v in items}
        out.append("{")
        for i, k in enumerate(sorted(named)):
            if i:
                out.append(",")
            _emit(k, out)
            out.append(":")
            _emit(named[k], out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialise {type(obj)!r}")


def canonical_json(obj) -> bytes:
    """Deterministic JSON bytes: sorted keys, '.17g' floats, trailing newline."""
    out: list[str] = []
    _emit(obj, out)
    return ("".join(out) + "\n").encode("utf-8")


def write_report(obj, path) -> str:
    data = canonical_json(obj)
    with open(path, "wb") as fh:
        fh.write(data)
    return str(path)


def _cell(v) -> str:
    """``v`` as a CSV cell, empty for None and a non-finite float; a finite float is also its JSON."""
    if type(v) is float:  # most cells, so tried first
        return format(v, ".1f" if v.is_integer() and abs(v) < 1e16 else ".17g") if math.isfinite(v) else ""
    if type(v) is int:
        return str(v)
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return _cell(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if v is None:
        return ""
    s = str(v)
    if any(c in s for c in ",\"\n"):
        s = '"' + s.replace('"', '""') + '"'
    return s


def table_columns(rows, names=None) -> dict:
    """A table held as row dicts as the dict of its columns ``names``, in that order; a missing value is None.

    ``names`` defaults to the first row's keys, so rows built in CSV order state their columns once.
    """
    return {name: [row.get(name) for row in rows] for name in (rows[0] if names is None else names)}


def write_csv(columns, path) -> str:
    """A dict of equally long columns to CSV: a header of its keys in order, then one line per row."""
    count = len(next(iter(columns.values())))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, count, CSV_CHUNK_ROWS):
            chunks = (col[start:start + CSV_CHUNK_ROWS] for col in columns.values())
            cells = [map(_cell, c.tolist() if isinstance(c, np.ndarray) else c) for c in chunks]
            fh.write("".join(",".join(row) + "\n" for row in zip(*cells)))
    return str(path)


@dataclass
class RunManifest:
    """Enough to re-create every artifact of one CLI invocation bit-for-bit."""

    subcommand: str
    config: dict | None  # None until the config has loaded
    master_seed: int | None
    tool_version: str
    started: str
    plan: object = None  # the run plan, once made
    finished: str = ""
    status: str = "running"
    error: str | None = None
    outputs: list = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def write(self, path) -> str:
        # timestamps live only here, never in reports, so reports stay
        # byte-identical across reruns
        self.finished = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        return write_report(self, path)
