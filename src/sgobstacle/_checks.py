"""The one rule for numbers and for keys in configs and solver settings.

JSON numbers and numpy scalars count.  A bool or a string is never a
number, and a float is never truncated to an integer, so ``8.0``, ``8.9``,
``"8"`` and ``true`` are all refused where an integer is wanted.  A config
object takes only the keys its section knows, so a typo is an error and
never a silent default.  The checks raise ValueError naming ``what`` and
quoting the value through ``shown``, which keeps a message short whatever
the config holds.
"""

from __future__ import annotations

import math

import numpy as np

SHOWN_CHARS = 40


def shown(value) -> str:
    """``repr(value)``, cut to ``SHOWN_CHARS`` characters with an ellipsis."""
    text = repr(value)
    return text if len(text) <= SHOWN_CHARS else text[:SHOWN_CHARS - 3] + "..."


def number(value, what: str) -> float:
    """``value`` as a finite float."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        try:
            out = float(value)
        except OverflowError:
            out = math.inf
        if math.isfinite(out):
            return out
    raise ValueError(f"{what} must be a finite number, got {shown(value)}")


def integer(value, what: str, lo: int = 0, hi: int | None = None) -> int:
    """``value`` as an int in ``lo..hi`` (no upper end if ``hi`` is None)."""
    if (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and lo <= value and (hi is None or value <= hi)):
        return int(value)
    span = f">= {lo}" if hi is None else f"in {lo}..{hi}"
    raise ValueError(f"{what} must be an integer {span}, got {shown(value)}")


def known_keys(mapping: dict, known, what: str) -> dict:
    """``mapping``, after checking that each of its keys is in ``known``."""
    unknown = [f"unknown {what} key {shown(key)}" for key in mapping if key not in known]
    if unknown:
        raise ValueError("; ".join(unknown))
    return mapping
