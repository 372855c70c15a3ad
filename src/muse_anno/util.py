"""Small shared helpers: decimal lexical forms and canonical JSON.

Numbers are carried as :class:`decimal.Decimal` throughout so that values
survive parsing and re-serialization with their source spelling intact
(``0.459`` stays ``0.459``, ``1.0`` keeps its trailing zero).  Equality in
tests compares these lexical strings, never binary floats; a float view is
always available via ``float(value)``.
"""

from __future__ import annotations

import json
from decimal import Decimal, InvalidOperation

from .errors import TypeMismatch


def as_decimal(value: Decimal | int | str | float) -> Decimal:
    """Coerce to Decimal. Floats go through repr() so 0.459 means '0.459'."""
    if isinstance(value, Decimal):
        return value
    if isinstance(value, float):
        return Decimal(repr(value))
    try:
        return Decimal(value)
    except InvalidOperation as exc:
        raise ValueError(f"not a decimal: {value!r}") from exc


def decimal_lexical(value: Decimal) -> str:
    """Fixed-point lexical form of a decimal (never exponent notation)."""
    return format(value, "f")


def integer_lexical(value: Decimal) -> str:
    """Lexical form of an integral decimal, without a fraction part."""
    return str(int(value))


def line_column(text: str, at: int) -> tuple[int, int]:
    """1-based line and column of offset ``at`` in ``text``."""
    return text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)


def require_number(value: object, path: str) -> Decimal:
    """Narrow a parsed JSON value to a finite Decimal, or raise TypeMismatch."""
    if isinstance(value, bool) or not isinstance(value, (int, Decimal)):
        raise TypeMismatch(path, "number", value)
    dec = Decimal(value) if isinstance(value, int) else value
    if not dec.is_finite():
        raise TypeMismatch(path, "finite number", value)
    return dec


def canonical_json(value: object) -> str:
    """Deterministic compact JSON: sorted keys, no whitespace, decimals verbatim.

    Used to reduce opaque JAMS payloads (sandboxes, non-string observation
    values) to a single canonical string form.  Hand-rolled because the
    stdlib encoder cannot print a Decimal without converting it to float.
    """
    parts: list[str] = []
    _dump(value, parts)
    return "".join(parts)


def _dump(value: object, out: list[str]) -> None:
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, str):
        out.append(json.dumps(value, ensure_ascii=False))
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, Decimal):
        out.append(decimal_lexical(value))
    elif isinstance(value, float):
        out.append(repr(value))
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(",")
            _dump(item, out)
        out.append("]")
    elif isinstance(value, dict):
        out.append("{")
        for i, key in enumerate(sorted(value)):
            if i:
                out.append(",")
            out.append(json.dumps(str(key), ensure_ascii=False))
            out.append(":")
            _dump(value[key], out)
        out.append("}")
    else:
        raise TypeError(f"not JSON serializable: {type(value).__name__}")
