"""JSON helpers for exact rationals.

Integers stay plain JSON numbers; everything else crosses the boundary as a
"p/q" string so nothing is ever rounded.  Floats are rejected on input.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .errors import InvalidInput


def load_json(path):
    """The JSON document in the file; InvalidInput for bytes that are not one."""
    try:
        return json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:
        raise InvalidInput(f"{path}: invalid JSON ({exc})") from exc


def fraction_to_json(x) -> int | str:
    f = Fraction(x)
    if f.denominator == 1:
        return int(f)
    return f"{f.numerator}/{f.denominator}"


def fraction_from_json(value) -> Fraction:
    if isinstance(value, bool):
        raise InvalidInput(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInput(f"bad rational literal {value!r}") from exc
    raise InvalidInput(f"rationals must be integers or 'p/q' strings, got {value!r}")


def point_to_json(point) -> list:
    return [fraction_to_json(c) for c in point]
