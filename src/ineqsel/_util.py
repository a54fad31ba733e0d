"""Small internal helpers, the one input rule for arrays, the ownership
rule of the array-holding types, and the statistics document format."""

from __future__ import annotations

import contextlib
import functools
import json
import numbers
import typing
from collections.abc import Iterable
from dataclasses import fields, is_dataclass

import numpy as np


class ArrayFields:
    """Base of the frozen dataclasses that hold numpy arrays: one ownership rule.

    A constructor copies its array inputs, checks them and hands them to
    _freeze, which marks each read-only, so no view the caller kept can
    change what was checked.  Two objects of one type are equal when every
    field is equal as an array.  Pickling or copying an array drops numpy's
    read-only flag, so an object is rebuilt by its constructor from its
    fields, which checks and freezes them again.
    """

    def _freeze(self, **arrays: np.ndarray) -> None:
        for name, a in arrays.items():
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


def as_column(values, dtype=np.float64) -> np.ndarray:
    """The one input rule for an array: a column of nullable real values as
    a ``dtype`` array, nulls as NaN, or as False in a bool array.

    The values, as an array, must be one-dimensional: a bare scalar is a
    0-d column.  Complex values are refused, since a cast would drop the
    imaginary part, and strings, since float() would read their digits
    and bool() their length: a str or bytes column, a complex, str or
    bytes array, and a complex, str or bytes element.  Then one cast
    converts every element as float() or bool() does.
    """
    if isinstance(values, np.ndarray):
        data = values
    else:
        data = np.asarray(list(values) if isinstance(values, Iterable) else values)
    if data.ndim != 1:
        raise ValueError(f"expected a one-dimensional column, got shape {data.shape}")
    kind = data.dtype.kind
    # one check per distinct element type, not per element
    elements = set(map(type, data)) if kind == "O" else set()
    if kind == "c" or any(issubclass(t, (complex, np.complexfloating)) for t in elements):
        raise TypeError("expected real values, got a complex column")
    if (kind in "US" or isinstance(values, (str, bytes))
            or any(issubclass(t, (str, bytes)) for t in elements)):
        raise TypeError("expected real values, got a string column")
    return data.astype(dtype, copy=False)


def sorted_finite(values) -> np.ndarray:
    """``values`` as a sorted float64 array, sorted only when it is not already.

    The order check is one O(n) comparison.  Once sorted, -inf sorts first
    and +inf and NaN sort last, so checking the two ends checks every value.
    """
    data = np.asarray(values, dtype=np.float64)
    if not np.all(data[1:] >= data[:-1]):
        data = np.sort(data)
    if data.size and not (np.isfinite(data[0]) and np.isfinite(data[-1])):
        raise ValueError("values must be finite")
    return data


def as_real(value, name: str) -> float:
    """The one input rule for a number: ``value``, a real number (a numpy
    number or a Fraction too) but not a bool, as the float nearest it.

    Anything else is a TypeError, and a value beyond float range a
    ValueError; both name ``name``.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is beyond float range") from None


def store_fraction(obj, name: str) -> None:
    """Field ``name`` of the frozen ``obj`` read as a share: as_real's float,
    stored back in place of the value given, and at least 0 and at most 1,
    so that the document ``obj`` saves loads back with the same bytes."""
    value = as_real(getattr(obj, name), name)
    # written so that NaN fails too
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} out of range")
    object.__setattr__(obj, name, value)


def clamp01(x: float) -> float:
    """``x`` clamped to [0, 1], with -0.0 read as +0.0."""
    return 0.0 if x <= 0.0 else 1.0 if x > 1.0 else float(x)


# ---------------------------------------------------------------------------
# Statistics documents.  A document is its type's fields in declaration
# order, as JSON: write_doc writes them and from_doc reads them back.  A
# nested statistics object is a nested document, an array a list, and
# numbers keep full (round-trip) precision.  The bytes are those json.dumps
# writes for that tree; write_doc only writes an array's numbers more
# cheaply where it can tell from the array that the text is the same.


@contextlib.contextmanager
def naming(path):
    """Raise a ValueError raised inside again with ``path: `` before its
    message, so an error about a file's data names the file."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_doc(obj) -> bytes:
    """The document of a statistics object: its fields as a JSON object, a
    nested statistics object as a nested object, an array as a list.

    The bytes are, to the byte, what ``json.dumps`` writes for that tree.
    One walk writes the text: an object's fields in declaration order, each
    array by _numbers, and every other value (None as null) by
    ``json.dumps``.
    """
    return _text(obj).encode("utf-8")


def _text(v) -> str:
    """The JSON text of ``v``: a statistics object, an array or a scalar."""
    if isinstance(v, np.ndarray):
        return _numbers(v)
    if is_dataclass(v):
        return "{" + ", ".join(f'"{f.name}": {_text(getattr(v, f.name))}' for f in fields(v)) + "}"
    return json.dumps(v)


def _numbers(a: np.ndarray) -> str:
    """The JSON text of array ``a``, as ``json.dumps`` writes its list, by
    the first of three rules that fits it:

    1. Whole numbers below 1e16 in magnitude, none of them -0.0, in one
       ``%d`` format: in that range ``float.__repr__`` writes the digits
       and ``.0``.
    2. Runs of neighbours equal by bit pattern, when there are at most half
       as many runs as values (MCV fractions are stored non-increasing and
       bounds sorted): each run's number is written once and its text
       repeated.
    3. Anything else through ``json.dumps``.
    """
    n = a.size
    if a.dtype == np.float64 and n >= 2:
        # the first value turns most arrays of rule 3 away; a NaN or an
        # infinity fails the comparison
        if float(a[0]).is_integer() and np.abs(a).max() < 1e16:
            ints = a.astype(np.int64)
            # -0.0 passes as a whole number, but %d writes 0.0 where repr writes -0.0
            if (ints == a).all() and not np.signbit(a[ints == 0]).any():
                return ("[" + "%d.0, " * n)[:-2] % tuple(ints.tolist()) + "]"
        bits = a.view(np.int64)
        steps = bits[1:] != bits[:-1]
        if 2 * (np.count_nonzero(steps) + 1) <= n:
            # the last index of each run
            ends = np.flatnonzero(steps).tolist() + [n - 1]
            # one json.dumps for every run's number; no number's text holds ", "
            numbers = json.dumps(a[ends].tolist())[1:-1].split(", ")
            runs = [(x + ", ") * (e - s) for x, s, e in zip(numbers, [-1, *ends], ends)]
            return "[" + "".join(runs)[:-2] + "]"
    return json.dumps(a.tolist())


def parse_json(data: bytes | str):
    """The JSON value of a document's UTF-8 bytes or its text.  One leading
    byte-order mark, as some editors write, is dropped, as a column file's
    is; a mark anywhere else is an error."""
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
        return json.loads(text.removeprefix("\ufeff"))
    # a deeply nested document exhausts the parser's recursion limit
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"not valid JSON: {exc}") from None


@functools.cache
def _field_types(cls: type) -> dict:
    # the annotations are strings (postponed evaluation), resolved once per type
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def from_doc(cls: type, doc):
    """The ``cls`` instance a JSON document holds, the inverse of write_doc.

    Each field is checked against its declared type: a float is a JSON
    number and an int a JSON integer (a bool is neither), an array is a
    list of numbers, a dataclass is a nested document read the same way,
    and ``X | None`` may be null; a field ``cls`` does not declare is an
    error.  An error inside a nested document is prefixed with that field's
    name.  Then ``cls``'s constructor checks the instance's invariants.
    """
    if not isinstance(doc, dict):
        raise ValueError("expected a JSON object")
    types = _field_types(cls)
    for name in doc:
        if name not in types:
            raise ValueError(f"unknown field {name}")
    values = []
    for name, tp in types.items():
        if name not in doc:
            raise ValueError(f"missing field {name}")
        values.append(_field(name, tp, doc[name]))
    return cls(*values)


_EXPECTED = {float: "a number", int: "an integer", np.ndarray: "an array of numbers"}


def _is_number(t: type) -> bool:
    # JSON true/false load as bool, which Python counts as an int
    return issubclass(t, (int, float)) and not issubclass(t, bool)


def _field(name: str, tp, v):
    """Field ``name`` of declared type ``tp`` read from its JSON value ``v``."""
    options = typing.get_args(tp)
    if type(None) in options:
        if v is None:
            return None
        (tp,) = (t for t in options if t is not type(None))
    if is_dataclass(tp):
        try:
            return from_doc(tp, v)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
    try:
        if tp is float and _is_number(type(v)):
            return float(v)
        if tp is int and _is_number(type(v)) and isinstance(v, int):
            return v
        # one check per distinct element type, not per element
        if tp is np.ndarray and isinstance(v, list) and all(map(_is_number, set(map(type, v)))):
            return np.array(v, dtype=np.float64)
    except OverflowError:       # a JSON integer beyond float range
        raise ValueError(f"{name} holds a number beyond float range") from None
    raise ValueError(f"{name} must be {_EXPECTED[tp]}")
