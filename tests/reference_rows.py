"""The row reader and metrical-field reader of ``muse_anno.ingest`` as they
were before rows were read without ``_take``, kept as a reference: the
generic ``_take``, with each JSON path formatted whether or not it is
raised at, and ``require_number`` and ``in_range`` as they narrowed each
number."""

from __future__ import annotations

from decimal import Decimal

from muse_anno.errors import (
    MissingField,
    ScoreLoweringMissingMetricalTime,
    TypeMismatch,
)
from muse_anno.ingest import JamsObservationRow
from muse_anno.model import TIME_VALUE_RANGES, MusicTimeValueType
from muse_anno.util import MAX_EXPONENT, canonical_json, int_digit_limit


def require_number(value: object, path: str, minimum: int | None = None,
                   integral: bool = False) -> Decimal:
    dec = value
    if isinstance(value, int) and not isinstance(value, bool):
        dec = Decimal(value)
    if not isinstance(dec, Decimal):
        expected = "number"
    elif not dec.is_finite():
        expected = "finite number"
    elif in_range(dec, minimum, integral):
        return dec
    elif minimum is not None and dec < minimum:
        expected = _range(minimum, integral)
    elif dec.adjusted() < -MAX_EXPONENT:
        expected = (f"number of magnitude at least 1E-{MAX_EXPONENT} or "
                    f"zero of at most {MAX_EXPONENT} decimal places")
    else:
        expected = f"number of magnitude below 1E+{MAX_EXPONENT + 1}"
    raise TypeMismatch(path, _range(minimum, integral) if integral else expected,
                       value)


def in_range(dec: Decimal, minimum: int | None = None,
             integral: bool = False) -> bool:
    if minimum is not None and dec < minimum:
        return False
    if dec.adjusted() < -MAX_EXPONENT:  # a zero's is its exponent
        return False
    magnitude = dec.adjusted() if dec else 0  # zero, even 0E+1000000
    if not integral:
        return magnitude <= MAX_EXPONENT
    limit = int_digit_limit()
    return (magnitude <= MAX_EXPONENT and not (limit and magnitude >= limit)
            and dec == dec.to_integral_value())


def _range(minimum: int, integral: bool) -> str:
    if integral:
        return "positive integer" if minimum == 1 else f"integer >= {minimum}"
    return "non-negative number" if minimum == 0 else f"number >= {minimum}"


def _take(rest: dict, key: str, expected, parent: str,
          required: bool = False):
    path = f"{parent}.{key}" if parent else key
    if key not in rest:
        if required:
            raise MissingField(path)
        return None
    value = rest.pop(key)
    if expected is None or value is None and not required:
        return value
    if not isinstance(expected, type):
        return expected(value, path)
    if not isinstance(value, expected) or isinstance(value, bool):
        raise TypeMismatch(path, expected.__name__, value)
    return value


def _object(raw: object, path: str) -> dict:
    if not isinstance(raw, dict):
        raise TypeMismatch(path, "object", raw)
    return dict(raw)


def _non_negative(value: object, path: str) -> Decimal:
    return require_number(value, path, 0)


def parse_row(raw: object, path: str) -> JamsObservationRow:
    rest = _object(raw, path)
    # All three must be there before any is checked.
    time, duration, value = (_take(rest, key, None, path, required=True)
                             for key in ("time", "duration", "value"))
    return JamsObservationRow(
        time=_non_negative(time, f"{path}.time"),
        duration=_non_negative(duration, f"{path}.duration"),
        confidence=_take(rest, "confidence", require_number, path),
        sandbox=_take(rest, "sandbox", dict, path) or {},
        value=(value if isinstance(value, str)
               else canonical_json(value, f"{path}.value")),
        extras=rest,
    )


def metrical_fields(row: JamsObservationRow, i: int, j: int,
                    ) -> tuple[Decimal, Decimal, Decimal]:
    path = f"annotations[{i}].data[{j}].sandbox"
    sandbox = row.sandbox
    for key in ("measure", "beat", "duration_beats"):
        if key not in sandbox:
            raise ScoreLoweringMissingMetricalTime(path, key)
    measure = require_number(sandbox["measure"], f"{path}.measure",
                             *TIME_VALUE_RANGES[MusicTimeValueType.MEASURE.value])
    beat = require_number(sandbox["beat"], f"{path}.beat",
                          *TIME_VALUE_RANGES[MusicTimeValueType.BEAT.value])
    beats = require_number(sandbox["duration_beats"], f"{path}.duration_beats", 0)
    return measure, beat, beats
