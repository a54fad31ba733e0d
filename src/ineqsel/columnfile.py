"""Column files: one value per line, an empty line a null.

Scalar files hold decimal numbers, range files range literals.  Both kinds
are read by one reader.  ASCII text with no whitespace but its line breaks,
as the writers write, is scanned in bulk: numpy finds the lines (and, in a
range file, each literal's brackets and commas), and the decimal kernel
reads every number of the form ``-?digits[.digits]`` with at most 15 digits
from its bytes, bit-identical to float(); float() reads the other numbers.
The kernel reads 16384 tokens at a time through the last 16 bytes of each,
or through the last 8 when every token of the 16384 has at most 8 bytes
after its minus, as the writers' range bounds below 10**6 do.
Any other file, or one the bulk scan turns down, is read by one per-line
loop, whose first bad line raises its ``path:line`` error.  A leading
UTF-8 byte-order mark, as some editors write, is dropped before either.

The two writers are the kernel's inverse.  numpy writes every whole number
below 10**15 in magnitude from its digits, and a range bound of -inf or
inf as "-inf" or "inf": a byte matrix with one row per byte position of a
line is filled, and one mask squeezes it into the file's bytes.  Every
other value is written by repr (scalar lines by format_scalar) and spliced
in at its line.  The bytes are those of writing each value by itself.
The scalar writer writes -0.0 as ``0``, so a scalar file holds one zero,
as the statistics ANALYZE builds from it do; a range file keeps the sign.
"""

from __future__ import annotations

import math

import numpy as np

from ._util import as_column
from .ranges import _COLUMN_FIELDS, RangeColumn, _require_column, parse_range


def _read_text(path) -> str:
    """The text of a column file, less a leading byte-order mark; a file that
    is not UTF-8 raises a ValueError naming it."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_column(path, scan, parse_line, collect):
    """The column of a file: ``scan`` of its ASCII bytes, or else ``collect``
    of ``parse_line`` of each line, as file iteration splits them."""
    text = _read_text(path)
    if not text:
        raise ValueError(f"{path}: empty column file")
    if text.endswith("\n"):
        text = text[:-1]
    column = scan(text.encode("ascii")) if text.isascii() else None
    if column is None:
        rows = []
        for lineno, line in enumerate(text.split("\n"), start=1):
            try:
                rows.append(parse_line(line))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
        column = collect(rows)
    return column


def _lines(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Start and end offsets of the lines, or None when a byte but the line
    breaks is a space or is no printable ASCII, which leaves to the per-line
    loop the lines it strips and the non-ASCII digits float() reads."""
    breaks = np.flatnonzero(codes == ord("\n"))
    printable = codes - np.uint8(ord("!")) <= ord("~") - ord("!")     # "!" to "~"
    if np.count_nonzero(printable) != codes.size - breaks.size:
        return None
    return np.concatenate(([0], breaks + 1)), np.append(breaks, codes.size)


def _parse_scalar(line: str) -> float:
    text = line.strip()
    if not text:
        return math.nan
    try:
        v = float(text)
    except ValueError:
        v = math.nan
    if math.isnan(v):
        raise ValueError(f"not a number: {text!r}")
    return v


def parse_scalar_bytes(data: bytes) -> np.ndarray | None:
    """A scalar file's text without its final newline, read in bulk as
    _parse_scalar reads each line, or None when it holds whitespace, a byte
    outside printable ASCII, or a line that is no number or is NaN."""
    codes = np.frombuffer(data, dtype=np.uint8)
    lines = _lines(codes)
    if lines is None:
        return None
    starts, ends = lines
    null = starts == ends
    values = _read_decimals(data, starts[~null], ends[~null])
    if values is None or np.isnan(values).any():
        return None
    out = np.full(null.size, np.nan)
    out[~null] = values
    return out


def read_scalar_column(path) -> np.ndarray:
    return _read_column(path, parse_scalar_bytes, _parse_scalar, np.array)


_EMPTY_WORD = np.frombuffer(b"empty", dtype=np.uint8)


def _count(codes: np.ndarray, chars: bytes) -> int:
    """Number of bytes in codes that are any of chars."""
    return sum(np.count_nonzero(codes == ch) for ch in chars)


def parse_range_bytes(data: bytes) -> RangeColumn | None:
    """Parse the lines of an ASCII range file in bulk: the column that the
    RangeColumn constructor makes of parse_range's fields of each line.

    ``data`` is the file's text without its final newline.  Every line must
    be a range literal, "empty" in any case, or blank (null), and the text
    may hold no whitespace but the line breaks and no byte outside ASCII.
    Otherwise, or when a bound is no number or a range is invalid, the
    result is None, and the caller reads the lines one by one with
    parse_range, which finds and reports the line.
    """
    codes = np.frombuffer(data, dtype=np.uint8)
    lines = _lines(codes)
    if lines is None:
        return None
    starts, ends = lines
    null = starts == ends
    empty = ends - starts == 5
    # "empty" in any case: setting bit 0x20 lowercases exactly its letters
    word = codes[starts[empty][:, None] + np.arange(5)] | 0x20
    empty[empty] = (word == _EMPTY_WORD).all(axis=1)
    literal = ~(null | empty)
    first, last = starts[literal], ends[literal] - 1
    n = first.size
    commas = np.flatnonzero(codes == ord(","))
    # Each literal opens at its first byte, closes at its last and holds one
    # comma, and the count leaves no comma anywhere else.  A bracket anywhere
    # else lands in a bound, which then reads as no number.
    opens, closes = codes[first], codes[last]
    if (
        _count(opens, b"[(") != n
        or _count(closes, b"])") != n
        or commas.size != n
        or not ((first < commas) & (commas < last)).all()
    ):
        return None
    # a literal's lower bound runs from after its bracket to its comma, its
    # upper bound from after its comma to its closing bracket
    bounds = _read_decimals(data, np.concatenate((first + 1, commas + 1)),
                            np.concatenate((commas, last)))
    if bounds is None:
        return None
    lower, upper = np.zeros(null.size), np.zeros(null.size)
    lower[literal], upper[literal] = bounds[:n], bounds[n:]
    lower_closed, upper_closed = np.zeros(null.size, dtype=bool), np.zeros(null.size, dtype=bool)
    lower_closed[literal] = opens == ord("[")
    upper_closed[literal] = closes == ord("]")
    try:
        return RangeColumn(lower, upper, lower_closed, upper_closed, null, empty)
    except ValueError:      # NaN or out-of-order bounds
        return None


def read_range_column(path) -> RangeColumn:
    return _read_column(path, parse_range_bytes, parse_range,
                        lambda rows: RangeColumn(*zip(*rows)))


def looks_like_range_file(path) -> bool:
    """Sniff a column file by its first non-blank line, and read no further:
    range literals start with a bracket or are 'empty'.  A byte that is not
    UTF-8 is left to the reader to report."""
    # text mode splits lines as the reader does, a carriage return included
    with open(path, encoding="utf-8-sig", errors="replace") as fh:
        for line in fh:
            line = line.strip()
            if line:
                return line[0] in "[(" or line.lower() == "empty"
    return False


# ---------------------------------------------------------------------------
# The decimal kernel.

# The kernel reads the last _TAIL bytes of each token.  A token it reads
# itself has at most 15 digits, a dot and a leading minus: 17 bytes, of
# which the first, the minus, adds no digit.  A chunk whose tokens all
# have at most _SHORT bytes after their minus is read through the last
# _SHORT bytes instead, which hold all of each token but its minus and
# take one level fewer of the Horner tree.
_TAIL = 16
_SHORT = 8
_POW10 = np.array([float(10**k) for k in range(_TAIL)])     # exact doubles
# Tokens per kernel call, from a sweep of 4096 to 65536 (2-vCPU VM, 1 MiB
# of L2 per core; ROADMAP, "Reading range files").  Below 16384 the fixed
# cost of the kernel's numpy calls dominates: a 20k-row range file took
# 1.34 ms at 4096 and 1.12 ms at 16384.  Above it nothing is
# gained, and through 16 bytes a 65536-token chunk's byte matrices, 1 MiB
# each, outgrow the L2: on a 200k-row file the kernel took 8.7-8.9 ms
# against 8.4-8.7 ms at 16384, and on another VM a 20k-row file took 1.89
# against 1.32 ms.
_CHUNK = 16384


def _read_decimals(data: bytes, starts: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """float() of every token ``data[starts[i]:ends[i]]``, or None when one is no number.

    A token ``-?digits[.digits]`` with 1 to 15 digits is read from its
    bytes: its digits make an integer mantissa m below 10**15 and its
    fractional digits a count k.  Then m / 10.0**k, negated after a minus,
    is bit for bit float()'s correctly rounded result, because m and 10**k
    are exact doubles and the division rounds once (Clinger's fast path).
    float() reads every other token: "inf", exponents, underscores, a plus
    sign, 16 or more digits, and the tokens that are no number.  Every
    start indexes data: a token is not empty, or a byte follows it.
    """
    codes = np.frombuffer(data, dtype=np.uint8)
    # a 16-byte and an 8-byte view at every offset of the zero-padded bytes,
    # so that one gather copies the last 16 or 8 bytes of every token
    padded = np.concatenate((np.zeros(_TAIL, dtype=np.uint8), codes))
    windows = {tail: np.ndarray((codes.size + 1,), dtype=f"V{tail}", buffer=padded,
                                offset=_TAIL - tail, strides=(1,)) for tail in (_SHORT, _TAIL)}
    minus, length = codes[starts] == ord("-"), ends - starts
    after_minus = length - minus
    out, fast = np.empty(ends.size), np.empty(ends.size, dtype=bool)
    for lo in range(0, ends.size, _CHUNK):
        part = slice(lo, lo + _CHUNK)
        tail = _SHORT if after_minus[part].max() <= _SHORT else _TAIL
        out[part], fast[part] = _decimal_kernel(windows[tail][ends[part]], minus[part],
                                                length[part])
    slow = np.flatnonzero(~fast).tolist()
    try:
        for i, start, end in zip(slow, starts[slow].tolist(), ends[slow].tolist()):
            out[i] = float(data[start:end])
    except ValueError:
        return None
    return out


def _decimal_kernel(tails: np.ndarray, minus: np.ndarray,
                    length: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The fast-path value of each token, and whether the token has the fast form.

    ``tails`` holds each token's last 16 or 8 bytes, ``minus`` whether it
    opens with a minus and ``length`` its length in bytes.
    """
    tail = tails.dtype.itemsize
    rows = np.arange(tail, dtype=np.uint8)[:, None]
    # one row per byte position; bytes before a token's start become 0,
    # which is no digit and no dot
    digit = tails.view(np.uint8).reshape(-1, tail).T.copy()
    digit *= rows + np.minimum(length, tail).astype(np.uint8) >= tail
    is_dot = digit == ord(".")
    digit -= np.uint8(ord("0"))               # above 9 for every other byte
    is_digit = digit <= 9
    digits = is_digit.sum(axis=0, dtype=np.uint8)
    dots = is_dot.sum(axis=0, dtype=np.uint8)
    # every byte a digit or the one dot but a leading minus; a longer token
    # has more bytes than the window and the minus can hold
    fast = (digits >= 1) & (digits <= 15) & (dots <= 1) & (digits + dots + minus == length)
    # k: the bytes after the dot, all digits in a fast token
    k = (is_dot * rows[::-1]).sum(axis=0, dtype=np.uint8) * fast
    # Horner's rule as a pairwise tree over the rows: a run of bytes is
    # (10**its digits, their value), two adjacent runs (sa, va) and (sb, vb)
    # join as (sa * sb, va * sb + vb), and a byte that is no digit is (1, 0).
    # Each level's dtype holds its scales: 10**2, 10**4, 10**8, 10**16; 8
    # rows take the first three levels.
    value = digit * is_digit
    scale = is_digit * np.uint8(9) + np.uint8(1)
    for dtype in (np.uint8, np.uint16, np.uint32, np.uint64)[:tail.bit_length() - 1]:
        value, scale = value.astype(dtype, copy=False), scale.astype(dtype, copy=False)
        value = value[0::2] * scale[1::2] + value[1::2]
        scale = scale[0::2] * scale[1::2]
    out = value[0] / _POW10[k]
    np.negative(out, out=out, where=minus)
    return out, fast


# ---------------------------------------------------------------------------
# The writers, the decimal kernel's inverse.

# Whole numbers below _WHOLE_LIMIT in magnitude, the 15 digits the kernel
# reads back, are written from their digits in bulk.
_WHOLE_LIMIT = 1e15
_ROWS = 1 << 16     # lines per bulk layout, so a long column never has its whole matrix
# constant bytes of a line, one row per byte
_MINUS = np.frombuffer(b"-", dtype=np.uint8)[:, None]
_NEWLINE = np.frombuffer(b"\n", dtype=np.uint8)[:, None]
_POINT_ZERO = np.frombuffer(b".0", dtype=np.uint8)[:, None]
_INF = np.frombuffer(b"inf", dtype=np.uint8)[:, None]
_COMMA = np.frombuffer(b",", dtype=np.uint8)[:, None]
_EMPTY = np.frombuffer(b"empty", dtype=np.uint8)[:, None]


def format_scalar(v: float) -> str:
    """The line of one scalar: blank for NaN, a whole number without its
    ".0" (so -0.0 is "0"), and any other value as repr writes it."""
    if math.isnan(v):
        return ""
    if float(v).is_integer():
        return str(int(v))
    return repr(float(v))


def _literal(lower: float, upper: float, lower_closed: bool, upper_closed: bool) -> str:
    # repr gives a float's shortest round-trip text, and "inf" / "-inf"
    lb = "[" if lower_closed else "("
    rb = "]" if upper_closed else ")"
    return f"{lb}{lower!r},{upper!r}{rb}"


def _whole(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which values are whole numbers below _WHOLE_LIMIT in magnitude, and
    their magnitudes, with 0.0 for the others."""
    whole = np.abs(values) < _WHOLE_LIMIT     # false for NaN and inf
    # trunc of a NaN with a payload warns, so only the finite values are tested
    whole &= np.trunc(values, out=np.zeros_like(values), where=whole) == values
    return whole, np.abs(np.where(whole, values, 0.0))


def _digits(magnitudes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ASCII digits of whole magnitudes below _WHOLE_LIMIT, one row per
    digit position, most significant first and as many as the largest has,
    and which of them are written: the units digit, and every digit of a
    number at least its position's power of ten.

    Division by 10 in floats is exact here: q + r/10 for a quotient q below
    10**14 rounds to no double as high as q + 1, so its floor is q.
    """
    width = len(str(int(magnitudes.max())))
    digits = np.empty((width, magnitudes.size), dtype=np.uint8)
    written = np.empty((width, magnitudes.size), dtype=bool)
    rest, quotient = magnitudes.copy(), np.empty_like(magnitudes)
    for row in range(width - 1, -1, -1):
        written[row] = rest > 0.0
        np.floor(np.divide(rest, 10.0, out=quotient), out=quotient)
        rest -= 10.0 * quotient
        digits[row] = rest
        rest, quotient = quotient, rest
    written[-1] = True
    digits += np.uint8(ord("0"))
    return digits, written


def _squeeze(blocks, n: int, slow: np.ndarray, texts: list[str]) -> bytes:
    """The bytes of n lines.  Each block is a pair (bytes, written) with one
    row per byte position and one column per line, either broadcast to that
    shape; the written bytes, line after line, are the lines.  Line slow[i]
    then gets texts[i] spliced in before its line break, which is all that
    its blocks write."""
    codes = np.concatenate([np.broadcast_to(b, (len(b), n)) for b, _ in blocks])
    written = np.concatenate([np.broadcast_to(w, (len(b), n)) for b, w in blocks])
    out = codes.T[written.T]
    if slow.size:
        # a line break is the one byte "\n" of a line the blocks write
        breaks = np.flatnonzero(out == ord("\n"))[slow]
        spliced = [text.encode("ascii") for text in texts]
        out = np.insert(out, np.repeat(breaks, [len(t) for t in spliced]),
                        np.frombuffer(b"".join(spliced), dtype=np.uint8))
    return out.tobytes()


def _scalar_lines(values: np.ndarray) -> bytes:
    whole, magnitudes = _whole(values)
    digits, written = _digits(magnitudes)
    blocks = [(_MINUS, whole & (values < 0)), (digits, whole & written), (_NEWLINE, True)]
    slow = np.flatnonzero(~(whole | np.isnan(values)))
    return _squeeze(blocks, values.size, slow, list(map(format_scalar, values[slow].tolist())))


def _bound_blocks(bound, whole, magnitudes, bulk) -> list:
    """The blocks of a range bound in the rows laid out in bulk, where it is
    whole or infinite: a sign from its sign bit, so that -0.0 keeps it, then
    its digits and ".0", or "inf"."""
    whole = whole & bulk
    digits, written = _digits(magnitudes)
    return [(_MINUS, bulk & np.signbit(bound)), (digits, whole & written),
            (_POINT_ZERO, whole), (_INF, bulk & ~whole)]


def _range_lines(lower, upper, lower_closed, upper_closed, null, empty) -> bytes:
    lower_whole, lower_magnitudes = _whole(lower)
    upper_whole, upper_magnitudes = _whole(upper)
    positioned = ~(null | empty)
    bulk = positioned & (lower_whole | np.isinf(lower)) & (upper_whole | np.isinf(upper))
    blocks = [
        (np.where(lower_closed, np.uint8(ord("[")), np.uint8(ord("(")))[None], bulk),
        *_bound_blocks(lower, lower_whole, lower_magnitudes, bulk),
        (_COMMA, bulk),
        *_bound_blocks(upper, upper_whole, upper_magnitudes, bulk),
        (np.where(upper_closed, np.uint8(ord("]")), np.uint8(ord(")")))[None], bulk),
        (_EMPTY, empty),
        (_NEWLINE, True),
    ]
    slow = np.flatnonzero(positioned & ~bulk)
    rows = zip(*(a[slow].tolist() for a in (lower, upper, lower_closed, upper_closed)))
    return _squeeze(blocks, null.size, slow, [_literal(*row) for row in rows])


def _write(path, lines, *arrays) -> None:
    """Write the lines of the rows of the arrays, _ROWS at a time, in one call."""
    size = arrays[0].size
    chunks = [lines(*(a[lo:lo + _ROWS] for a in arrays)) for lo in range(0, size, _ROWS)]
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def write_scalar_column(path, values) -> None:
    _write(path, _scalar_lines, as_column(values))


def write_range_column(path, column: RangeColumn) -> None:
    _require_column(column)
    _write(path, _range_lines, *(getattr(column, name) for name in _COLUMN_FIELDS))
