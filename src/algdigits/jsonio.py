"""Canonical JSON output: sorted keys, fixed separators, exact values.

Integers outside the IEEE-754 exact range become decimal strings so a
float-based JSON reader cannot silently corrupt them; Fractions become
"p/q" strings unless integral.  Two runs that compute the same result
therefore serialize to identical bytes.
"""

import json
import sys
from fractions import Fraction

from .errors import ResourceCapError

_EXACT_INT = 2**53


def _decimal(n: int) -> str:
    """str(n), or ResourceCapError naming Python's int-to-str limit."""
    try:
        return str(n)
    except ValueError:
        raise ResourceCapError(
            f"an output integer of {n.bit_length()} bits exceeds the limit "
            f"of {sys.get_int_max_str_digits()} decimal digits for "
            f"int-to-str conversion") from None


def encode_value(value):
    """Recursively rewrite a result object into plain JSON types."""
    if value is None or isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value if abs(value) < _EXACT_INT else _decimal(value)
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return encode_value(int(value))
        return f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"
    if isinstance(value, float) or isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {str(k): encode_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    return str(value)


def canonical_dumps(payload) -> str:
    return json.dumps(encode_value(payload), sort_keys=True, indent=2)
