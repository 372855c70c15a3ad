"""Small shared helpers: decimal lexical forms, the one check of which
JSON numbers are accepted (``checked_number``), and canonical JSON.

Numbers are carried as :class:`decimal.Decimal` throughout so that values
survive parsing and re-serialization with their source spelling intact
(``0.459`` stays ``0.459``, ``1.0`` keeps its trailing zero).  Equality in
tests compares these lexical strings, never binary floats; a float view is
always available via ``float(value)``.
"""

from __future__ import annotations

import json
import sys
from decimal import Decimal, DefaultContext, InvalidOperation

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


def int_digit_limit() -> int:
    """Most digits ``str(int)`` may write or ``int(str)`` read; 0 is none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


# The largest adjusted exponent a number may have: with it, the sums and
# the minutes-to-seconds products taken of time values stay below the
# default Decimal context's Emax (999999) instead of raising Overflow.  Its
# negation is the least, so that fixed point spells no number with more
# than about a million digits beyond its own.
MAX_EXPONENT = DefaultContext.Emax - 3
MIN_EXPONENT = -MAX_EXPONENT


def checked_number(value: object, minimum: int | None = None,
                   integral: bool = False) -> Decimal | str:
    """A parsed JSON number as a finite Decimal of at least ``minimum``
    with an adjusted exponent of at least MIN_EXPONENT (a zero's is its
    exponent) and, unless it is zero, at most MAX_EXPONENT, or else, as a
    string, what the ``TypeMismatch`` for it expects (a bool is no
    number).  An ``integral`` one must also be whole, with no more digits
    than ``integer_lexical`` can write, and each of its refusals names its
    whole range (``positive integer``).  Tell a refusal by
    ``isinstance(result, str)``: a Decimal subclass comes back as it is."""
    if not isinstance(value, Decimal):
        if not isinstance(value, int) or isinstance(value, bool):
            return _refusal("number", minimum, integral)
        value = Decimal(value)
    if not value.is_finite():
        return _refusal("finite number", minimum, integral)
    if minimum is not None and value < minimum:
        return _range(minimum, integral)
    magnitude = value.adjusted()
    if not MIN_EXPONENT <= magnitude <= MAX_EXPONENT:
        if magnitude < MIN_EXPONENT:  # even 0E-1000000, a million zeros
            return _refusal(f"number of magnitude at least 1E{MIN_EXPONENT} "
                            f"or zero of at most {MAX_EXPONENT} decimal places",
                            minimum, integral)
        if value:  # not a zero, which may be 0E+1000000
            return _refusal(f"number of magnitude below 1E+{MAX_EXPONENT + 1}",
                            minimum, integral)
    if integral:
        # Decimal operations only: int() of 1e1000000 alone runs for minutes.
        limit = int_digit_limit()
        if (limit and magnitude >= limit and value
                or value != value.to_integral_value()):
            return _range(minimum, integral)
    return value


def _refusal(expected: str, minimum: int | None, integral: bool) -> str:
    return _range(minimum, integral) if integral else expected


def _range(minimum: int, integral: bool) -> str:
    if integral:
        return "positive integer" if minimum == 1 else f"integer >= {minimum}"
    return "non-negative number" if minimum == 0 else f"number >= {minimum}"


def canonical_json(value: object, path: str = "$") -> str:
    """Deterministic compact JSON: sorted keys, no whitespace, decimals verbatim.

    Used to reduce opaque JAMS payloads (sandboxes, non-string observation
    values) to a single canonical string form.  Hand-rolled because the
    stdlib encoder cannot print a Decimal without converting it to float.
    A Decimal that ``checked_number`` refuses is a ``TypeMismatch`` at
    ``path``, the JSON path of ``value``.
    """
    parts: list[str] = []
    _dump(value, parts, path)
    return "".join(parts)


def _dump(value: object, out: list[str], path: str) -> None:
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
        number = checked_number(value)
        if isinstance(number, str):
            raise TypeMismatch(path, number, value)
        out.append(decimal_lexical(value))
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(",")
            _dump(item, out, path)
        out.append("]")
    elif isinstance(value, dict):
        out.append("{")
        for i, key in enumerate(sorted(value)):
            if i:
                out.append(",")
            out.append(json.dumps(str(key), ensure_ascii=False))
            out.append(":")
            _dump(value[key], out, path)
        out.append("}")
    else:
        raise TypeError(f"not JSON serializable: {type(value).__name__}")
