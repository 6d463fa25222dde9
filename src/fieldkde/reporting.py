"""Byte-stable report serialisation and run manifests.

JSON output uses sorted keys, 17-significant-digit floats and strings
escaped as JSON requires, so a report serialises to identical bytes on
every run, loads with a strict parser, and every float round-trips to the
same value.  A CSV table is a dict of columns, written in chunks with
the same float format and an empty cell for None or a non-finite float;
schemas are versioned via ``SCHEMA_VERSION`` and documented in the README.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields, is_dataclass
from json.encoder import encode_basestring

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
    """A finite float as reports write it, by ``_cell``'s rule; a NaN or an infinity raises ``ValueError``."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("reports must contain finite numbers only")
    return format(x, ".1f" if x.is_integer() and abs(x) < 1e16 else ".17g")


# a str dict key -> its escaped '"key":' prefix; reports reuse a few hundred keys, and the bound keeps the
# cache small whatever a caller serialises
_KEY_PREFIX: dict = {}
_KEY_PREFIX_MAX = 4096


def _key(k: str) -> str:
    prefix = encode_basestring(k) + ":"
    if len(_KEY_PREFIX) < _KEY_PREFIX_MAX:
        _KEY_PREFIX[k] = prefix
    return prefix


def _items(items) -> str:
    return "[" + ",".join(map(_json, items)) + "]"


def _dict(d: dict) -> str:
    """Keys turned into strings with ``str``, then sorted."""
    if set(map(type, d)) - {str}:
        d = {str(k): v for k, v in d.items()}
    return "{" + ",".join([(_KEY_PREFIX.get(k) or _key(k)) + _json(d[k]) for k in sorted(d)]) + "}"


def _other(obj) -> str:
    """The JSON of a value whose type ``_EMIT`` lacks: numpy values as Python's, a dataclass instance as the
    dict of its fields, and subclasses of the JSON types as their base."""
    if isinstance(obj, str):
        return encode_basestring(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return float_repr(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        return _items(obj.tolist() if isinstance(obj, np.ndarray) else obj)
    if isinstance(obj, dict):
        return _dict(obj)
    if is_dataclass(obj) and not isinstance(obj, type):
        return _dict({f.name: getattr(obj, f.name) for f in fields(obj)})
    raise TypeError(f"cannot serialise {type(obj)!r}")


# exact type -> its JSON.  Strings go through json's C escaper: quotes, backslashes and every U+0000-U+001F
# character escaped, the rest as it is
_EMIT = {
    float: float_repr,
    str: encode_basestring,
    dict: _dict,
    list: _items,
    tuple: _items,
    int: int.__repr__,
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "null",
}


def _json(obj) -> str:
    return _EMIT.get(type(obj), _other)(obj)


def canonical_json(obj) -> bytes:
    """Deterministic JSON bytes: sorted keys, '.17g' floats, trailing newline."""
    return (_json(obj) + "\n").encode("utf-8")


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
