"""Deterministic JSON/CSV emission helpers for the command-line interface.

Complex numbers serialize as [re, im] pairs, matrices row-major as nested
lists, dataclass-like objects as plain dicts.  Output is stable across runs:
keys are sorted and nothing time- or path-dependent is ever included.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
from enum import Enum

import numpy as np

__all__ = ["to_jsonable", "dumps", "write_csv"]


def to_jsonable(obj):
    """Recursively convert to JSON-encodable structures."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return float(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.complexfloating):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.ndarray):
        return [to_jsonable(row) for row in obj.tolist()] if obj.ndim > 1 \
            else [to_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, Enum):
        return obj.value
    if dataclasses.is_dataclass(obj):
        return {f.name: to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(payload: dict) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline.

    Raises ValueError when the payload holds a NaN or an infinity, which
    JSON cannot represent.
    """
    try:
        text = json.dumps(to_jsonable(payload), sort_keys=True, indent=2,
                          allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"result is not finite ({exc})") from None
    return text + "\n"


def write_csv(header: list[str], rows: list[tuple]) -> str:
    """Minimal deterministic CSV (numbers via repr, no quoting needed);
    raises ValueError on a NaN or an infinity, as dumps does."""
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        if any(isinstance(x, float) and not math.isfinite(x) for x in row):
            raise ValueError(f"result is not finite (row {row!r})")
        buf.write(",".join(repr(x) if isinstance(x, float) else str(x)
                           for x in row) + "\n")
    return buf.getvalue()
