"""The canonical JSON walk as it was before it dispatched on exact types.

The tests' reference for ``reporting.canonical_json``: one recursive walk
through an ``isinstance`` chain, one ``out.append`` per token, floats by
``float_repr`` and strings escaped for quotes, backslashes and newlines
alone.  On every value without another U+0000-U+001F character the
package's bytes must be these; a NaN or an infinity raises ``ValueError``
and a value JSON has no form for raises ``TypeError`` in both.
"""

from __future__ import annotations

import math
from dataclasses import fields, is_dataclass

import numpy as np

__all__ = ["canonical_json"]


def _float_repr(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("reports must contain finite numbers only")
    return format(x, ".1f" if x.is_integer() and abs(x) < 1e16 else ".17g")


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
        out.append(_float_repr(float(obj)))
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
