"""Seeded fuzz test of column files.

Lines of valid range and scalar files are broken the ways hand-edited or
truncated files go wrong.  ``read_range_column`` must return the rows that
a loop of ``parse_range`` over the file's lines returns, and
``read_scalar_column`` the values of a per-line ``strip``/``float()`` loop,
down to the bytes of the arrays, or raise the same error, which names the
same ``path:line``.  Files the writer produces must be read in bulk,
without the per-line parsers.  The CLI must end every malformed column
file, range or scalar, with exit status 1 and one ``error:`` line.
"""

import math
import re
import subprocess
import sys

import numpy as np
import pytest

from ineqsel import columnfile
from ineqsel.cli import main
from ineqsel.columnfile import format_scalar
from ineqsel.harness import (
    generate_range_column,
    generate_scalar_column,
    read_range_column,
    read_scalar_column,
    write_range_column,
    write_scalar_column,
)
from ineqsel.ranges import EMPTY_RANGE, RangeColumn, RangeValue, parse_range

SEEDS = range(200)
ROWS = 30


def reference_read(path):
    """The per-line reading: one parse_range per line of the file."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                rows.append(parse_range(line))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: empty column file")
    return rows


FIELDS = ("lower", "upper", "lower_closed", "upper_closed", "null", "empty")


def assert_same_bytes(got, want_rows):
    """Every array of the column holds the bytes of the reference rows' column,
    so the sign of a zero bound counts."""
    want = RangeColumn.from_values(want_rows)
    for name in FIELDS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def _parts(line):
    """Brackets and bound texts of a literal; null and empty lines become one."""
    if line[:1] not in ("[", "("):
        line = "[3,7)"
    lo, hi = line[1:-1].split(",")
    return line[0], lo, hi, line[-1]


def _mutate(kind, line):
    op, lo, hi, cl = _parts(line)
    return {
        "drop-comma": f"{op}{lo}{hi}{cl}",
        "extra-comma": f"{op}{lo},,{hi}{cl}",
        "comma-in-bound": f"{op}{lo},{hi},1{cl}",
        "swap-brackets": f"{cl}{lo},{hi}{op}",
        "drop-open": f"{lo},{hi}{cl}",
        "drop-close": f"{op}{lo},{hi}",
        "bracket-in-bound": f"{op}{lo}],{hi}{cl}",
        "nan-lower": f"{op}nan,{hi}{cl}",
        "nan-upper": f"{op}{lo},NaN{cl}",
        "inf-lower": f"{op}inf,{hi}{cl}",
        "minus-inf-upper": f"{op}{lo},-inf{cl}",
        "reversed": f"{op}{hi},{lo}{cl}" if lo != hi else f"{op}9,1{cl}",
        "degenerate": "[5,5)",
        "degenerate-closed": "[5,5]",
        "upper-empty": "EMPTY",
        "not-a-number": f"{op}{lo},x{cl}",
        "no-bounds": f"{op},{cl}",
        "crlf": line + "\r",
        "inner-whitespace": f" {op} {lo}\t, {hi} {cl}\t",
        "blank": "  \t",
        # float() reads these, which a byte scan could get wrong
        "arabic-indic-digits": "[\u0661,\u0662)",
        "underscore-digits": f"{op}-1_000,{hi}{cl}",
        "leading-plus": f"{op}+{lo},+{hi}{cl}",
        "exponent": f"{op}-1.5e3,2.5E+6{cl}",
        "infinity-word": f"{op}-Infinity,INFINITY{cl}",
        "negative-zero": f"{op}-0.0,{hi}{cl}",
        # edges of the bulk reader's decimal kernel
        "sixteen-digits": f"{op}-1234567890123456,{hi}{cl}",
        "double-minus": f"{op}--1,{hi}{cl}",
        "two-dots": f"{op}1.2.3,{hi}{cl}",
        "lone-dot": f"{op}.,{hi}{cl}",
        "minus-dot-five": f"{op}-.5,{hi}{cl}",
        "trailing-dot": f"{op}-5,5.{cl}",
        "leading-zeros": f"{op}-0000000000000000012.5,007.50{cl}",
    }[kind]


MUTATIONS = [
    "drop-comma", "extra-comma", "comma-in-bound", "swap-brackets", "drop-open", "drop-close",
    "bracket-in-bound", "nan-lower", "nan-upper", "inf-lower", "minus-inf-upper", "reversed",
    "degenerate", "degenerate-closed", "upper-empty", "not-a-number", "no-bounds", "crlf",
    "inner-whitespace", "blank", "arabic-indic-digits", "underscore-digits", "leading-plus",
    "exponent", "infinity-word", "negative-zero", "sixteen-digits", "double-minus", "two-dots",
    "lone-dot", "minus-dot-five", "trailing-dot", "leading-zeros",
]


def range_lines(path, column):
    """The lines the writer writes for the column, which it writes to path."""
    write_range_column(path, column)
    return path.read_bytes().decode("ascii").split("\n")[:-1]


def fuzzed_file(path, seed):
    """A valid range file with one to three lines mutated; sometimes no final newline."""
    rng = np.random.default_rng(seed)
    lines = range_lines(path, generate_range_column(ROWS, seed))
    for k in rng.choice(ROWS, size=int(rng.integers(1, 4)), replace=False).tolist():
        lines[k] = _mutate(MUTATIONS[int(rng.integers(len(MUTATIONS)))], lines[k])
    ending = "" if rng.random() < 0.2 else "\n"
    path.write_bytes(("\n".join(lines) + ending).encode("utf-8"))


def assert_reads_as_reference(path, read=read_range_column, reference=reference_read,
                              same=assert_same_bytes):
    """Same rows as the reference, or the same error; True when the file is malformed."""
    try:
        want = reference(path)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            read(path)
        assert str(got.value) == str(exc)
        return True
    same(read(path), want)
    return False


@pytest.mark.parametrize("kind", MUTATIONS)
def test_each_mutation_reads_as_reference(tmp_path, kind):
    path = tmp_path / "m.col"
    lines = range_lines(path, generate_range_column(ROWS, 3))
    for k in (0, ROWS // 2, ROWS - 1):
        mutated = list(lines)
        mutated[k] = _mutate(kind, lines[k])
        path.write_bytes(("\n".join(mutated) + "\n").encode("utf-8"))
        assert_reads_as_reference(path)


def test_seeded_fuzz_reads_as_reference(tmp_path, capsys):
    good = tmp_path / "good.col"
    write_range_column(good, generate_range_column(ROWS, 0))
    malformed = 0
    for seed in SEEDS:
        path = tmp_path / f"fuzz{seed}.col"
        fuzzed_file(path, seed)
        if not assert_reads_as_reference(path):
            continue
        malformed += 1
        code = main(["oracle", "--in-x", str(path), "--in-y", str(good), "--op", "overlaps"])
        err = capsys.readouterr().err
        assert code == 1, seed
        assert err.startswith(f"error: {path}:") and err.count("\n") == 1, err
    # most seeds break at least one line; the rest must still read the same
    assert 0.5 * len(SEEDS) < malformed < len(SEEDS)


# a line without a comma next to a line with two must not read as two ranges
@pytest.mark.parametrize("text", ["", "\n", "\n\n", "empty", "[1,2]", "[1,2]\r\n\r\n",
                                  "(-inf,inf)\n(2,2]\n", "\n[1,2]\n  \n",
                                  "[1]\n[2,3,4]\n", "[1,2,3]\n[4]\n"])
def test_whole_file_cases(tmp_path, text):
    path = tmp_path / "w.col"
    path.write_bytes(text.encode("utf-8"))
    assert_reads_as_reference(path)


@pytest.fixture
def bulk_only(monkeypatch):
    """Fail the test if read_range_column falls back to the per-line parser."""
    def per_line(text):
        raise AssertionError(f"parse_range called on {text!r}")
    monkeypatch.setattr(columnfile, "parse_range", per_line)


def _random_bounds_column(rows, seed):
    # doubles from 1e-300 to 1e300 of either sign, whose repr needs an exponent
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2, rows)) * 10.0 ** rng.integers(-300, 300, size=(2, rows))
    lower, upper = np.minimum(*a), np.maximum(*a)
    closed = rng.random((2, rows)) < 0.5
    return RangeColumn(lower, upper, closed[0], closed[1], rng.random(rows) < 0.05,
                       rng.random(rows) < 0.05)


@pytest.mark.parametrize("rows", [1, 100, 20_000])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_writer_files_read_in_bulk_as_reference(tmp_path, bulk_only, rows, seed):
    for name, column in (("g.col", generate_range_column(rows, seed)),
                         ("s.col", _random_bounds_column(rows, seed))):
        path = tmp_path / name
        write_range_column(path, column)
        got = read_range_column(path)
        assert_same_bytes(got, reference_read(path))
        assert got == column


def test_hand_written_file_reads_as_reference(tmp_path, bulk_only):
    path = tmp_path / "h.col"
    lines = ["[-0.0,0.0]", "(0.0,-0.0]", "[0.0,-0.0]", "(-0.0,5]", "[-inf,0.0)", "(-inf,inf)",
             "EMPTY", "", "[-5e-324,5e-324]", "", "empty", "(0.0,inf]", "[-0.0,-0.0)"]
    path.write_bytes("\r\n".join(lines).encode("ascii"))      # CRLF, no final newline
    want = reference_read(path)
    assert want[0] == RangeValue(-0.0, 0.0, True, True) and want[7] is None
    got = read_range_column(path)
    assert_same_bytes(got, want)
    assert got.lower.tobytes()[:8] == np.float64(-0.0).tobytes()


@pytest.mark.parametrize("text", ["[ 1,2]\n", "[1,2 ]\n", "[1, 2]\n", "[1,2]\t\n", " \n",
                                  "empty \n", "[1\x0b,2]\n", "[1,2\x1c]\n", "[1,\u0662]\n"])
def test_whitespace_and_non_ascii_read_per_line(tmp_path, monkeypatch, text):
    path = tmp_path / "p.col"
    path.write_bytes(text.encode("utf-8"))
    calls = []
    monkeypatch.setattr(columnfile, "parse_range",
                        lambda line: calls.append(line) or parse_range(line))
    assert_reads_as_reference(path)
    assert calls


@pytest.mark.parametrize("line", ["[5,2]", "[inf,inf]", "(-inf,-inf)", "[inf,5]", "[5,-inf]"])
@pytest.mark.parametrize("lead", ["", " "], ids=["bulk", "per-line"])
def test_bounds_out_of_order_name_their_line(tmp_path, line, lead):
    # parse_range checks the order itself, so that the error names the line
    path = tmp_path / "o.col"
    path.write_bytes(f"[1,2]\n{lead}{line}\n".encode("ascii"))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: invalid range .*out of order"):
        read_range_column(path)


MALFORMED_COLUMNS = [
    pytest.param("overlaps", b"[1,2]\n[34)\n", id="range-drop-comma"),
    pytest.param("overlaps", b"[1,2]\n\xff\n", id="range-not-utf8"),
    pytest.param("overlaps", b"", id="range-empty-file"),
    pytest.param("lt", b"1\nabc\n", id="scalar-word"),
    pytest.param("lt", b"nan\n2\n", id="scalar-nan"),
    pytest.param("lt", b"1\n[1,2]\n", id="scalar-range-literal"),
    pytest.param("lt", b"1\n2,3\n", id="scalar-comma"),
    pytest.param("lt", b"", id="scalar-empty-file"),
    pytest.param("lt", b"\xfe\n", id="scalar-not-utf8"),
]


@pytest.mark.parametrize("op,content", MALFORMED_COLUMNS)
def test_cli_malformed_column_exit_1(tmp_path, op, content):
    bad, good = tmp_path / "bad.col", tmp_path / "good.col"
    bad.write_bytes(content)
    good.write_bytes(b"[1,2]\n" if op == "overlaps" else b"1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "ineqsel", "oracle", "--in-x", str(bad), "--in-y", str(good),
         "--op", op],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("command", ["oracle", "analyze"])
@pytest.mark.parametrize("op,good", [pytest.param("lt", b"1\n", id="scalar"),
                                     pytest.param("overlaps", b"[1,2]\n", id="range")])
def test_cli_not_utf8_column_names_file(tmp_path, capsys, command, op, good):
    bad, ok = tmp_path / "bad.col", tmp_path / "ok.col"
    bad.write_bytes(good + b"\xff\n")
    ok.write_bytes(good)
    argv = (["oracle", "--in-x", str(bad), "--in-y", str(ok), "--op", op] if command == "oracle"
            else ["analyze", "--in", str(bad), "--target", "3", "--out", str(tmp_path / "s.json")])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad}: ") and captured.err.count("\n") == 1, captured.err


@pytest.mark.parametrize("kind", ["scalar", "range"])
def test_byte_order_mark_is_dropped(tmp_path, kind):
    # a UTF-8 byte-order mark, as some editors write, reads as no mark: the
    # same arrays, the same sniff and the same statistics document
    if kind == "scalar":
        read, rows = read_scalar_column, ["1", "", "-2.5", "1e3", "0", "7"]
    else:
        read, rows = read_range_column, ["[1,2]", "", "empty", "(-inf,0.5]", "[-0.0,3)"]
    # read in bulk, and per line (a carriage return is whitespace)
    for text in ("\n".join(rows) + "\n", "\r\n".join(rows)):
        plain, marked = tmp_path / f"{kind}.col", tmp_path / f"{kind}-bom.col"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        want = read(plain)
        got = read(marked)
        if kind == "scalar":
            assert_same_scalar_bytes(got, want)
        else:
            assert_same_bytes(got, list(want))
        assert columnfile.looks_like_range_file(marked) is (kind == "range")
        docs = []
        for path in (plain, marked):
            out = tmp_path / f"{path.name}.json"
            assert main(["analyze", "--in", str(path), "--target", "3", "--out", str(out)]) == 0
            docs.append(out.read_bytes())
        assert docs[0] == docs[1]
        assert (b"lower_stats" in docs[1]) is (kind == "range")


# The bulk reader's decimal kernel against float(), bit for bit.

NUMBER_TOKENS = [
    "0", "-0", "-0.0", "0.", ".5", "-.5", "5.", "007.50", "-000000000000000",
    # 15 digits, the most the kernel reads itself, and 16
    "123456789012345", "-123456789012345", "12345678901234.5", "-12345678901234.5",
    "-.123456789012345", "999999999999999", "0.000000000000001", "1234567890123456",
    "-1234567890123456", "9007199254740991", "9007199254740993", "-9007199254740993",
    # leading zeros past 15 digits
    "0000000000000001", "0000000000000000001.5", "-0000000000000000000",
    # tokens over 17 bytes
    "12345678.123456789", "0.00000000000000000001", "-1234567890123456789012345",
    "inf", "-inf", "Infinity", "nan", "1e5", "-1.5E-3", "1_000", "+1", "+.5",
]
NOT_NUMBER_TOKENS = ["--1", "1-2", "1.2.3", ".", "-", "", "-.", "1..2", "5-", "x", "1e"]


def read_tokens(tokens):
    """_read_decimals over the tokens, each followed by a comma, so each one's
    16-byte window also holds the bytes of those before it."""
    data = "".join(f"{t}," for t in tokens).encode("ascii")
    ends = np.cumsum([len(t) + 1 for t in tokens]) - 1
    return columnfile._read_decimals(data, ends - [len(t) for t in tokens], ends)


def _fast_token(token):
    # the form the kernel reads without float()
    return (re.fullmatch(r"-?[0-9]*\.?[0-9]*", token) is not None
            and 1 <= sum(ch.isdigit() for ch in token) <= 15)


@pytest.fixture
def float_calls(monkeypatch):
    """The arguments columnfile passes to float() while the test runs."""
    calls = []
    monkeypatch.setattr(columnfile, "float", lambda text: calls.append(text) or float(text),
                        raising=False)
    return calls


def test_kernel_reads_tokens_as_float(float_calls):
    rng = np.random.default_rng(0)
    tokens = list(NUMBER_TOKENS)
    # doubles of either sign over exponents -300 to 300, as repr writes them
    tokens += map(repr, (rng.standard_normal(3000) * 10.0 ** rng.integers(-300, 300, 3000)).tolist())
    # 1 to 17 digits, with or without a dot anywhere and a leading minus
    for _ in range(3000):
        digits = "".join(rng.choice(list("0123456789"), size=int(rng.integers(1, 18))))
        dot = int(rng.integers(len(digits) + 2))
        token = digits if dot > len(digits) else f"{digits[:dot]}.{digits[dot:]}"
        tokens.append(("-" if rng.random() < 0.5 else "") + token)
    got = read_tokens(tokens)
    want = np.array([float(t) for t in tokens])
    assert got.tobytes() == want.tobytes()
    assert float_calls == [t.encode() for t in tokens if not _fast_token(t)]
    assert sum(map(_fast_token, tokens)) > 2000


@pytest.mark.parametrize("bad", NOT_NUMBER_TOKENS)
def test_kernel_turns_down_tokens_float_cannot_read(bad):
    tokens = ["12.5", "-3", bad, "inf", "7."]
    with pytest.raises(ValueError):
        float(bad)
    assert read_tokens(tokens) is None
    assert read_tokens([t for t in tokens if t != bad]) is not None


# A chunk whose tokens all have at most 8 bytes after their minus is read
# through an 8-byte window; these have exactly 8.
EIGHT_BYTE_TOKENS = ["12345678", "-12345678", "1234567.", ".1234567", "-.1234567"]


@pytest.fixture
def kernel_windows(monkeypatch):
    """The window width in bytes of each decimal kernel call while the test runs."""
    widths, kernel = [], columnfile._decimal_kernel

    def spy(tails, minus, length):
        widths.append(tails.dtype.itemsize)
        return kernel(tails, minus, length)
    monkeypatch.setattr(columnfile, "_decimal_kernel", spy)
    return widths


def _short_tokens(rng, n):
    """n tokens of 1 to 8 digits with a dot anywhere, or none, and a leading
    minus or none, each at most 8 bytes after its minus."""
    tokens = []
    while len(tokens) < n:
        digits = "".join(rng.choice(list("0123456789"), size=int(rng.integers(1, 9))))
        dot = int(rng.integers(len(digits) + 2))
        token = digits if dot > len(digits) else f"{digits[:dot]}.{digits[dot:]}"
        if len(token) <= 8:
            tokens.append(("-" if rng.random() < 0.5 else "") + token)
    return tokens


def test_kernel_reads_short_tokens_through_8_bytes(float_calls, kernel_windows):
    rng = np.random.default_rng(1)
    short = [t for t in NUMBER_TOKENS if len(t) - t.startswith("-") <= 8]
    tokens = EIGHT_BYTE_TOKENS + short + _short_tokens(rng, 3 * columnfile._CHUNK)
    got = read_tokens(tokens)
    assert got.tobytes() == np.array([float(t) for t in tokens]).tobytes()
    assert float_calls == [t.encode() for t in tokens if not _fast_token(t)]
    assert set(float_calls) >= {b"inf", b"-inf", b"1e5", b"+1"}
    assert kernel_windows == [8] * 4


@pytest.mark.parametrize("long", ["123456789", "12345678.", ".12345678", "-123456789"])
def test_one_long_token_reads_its_chunk_through_16_bytes(float_calls, kernel_windows, long):
    # the chunk's last token has 9 bytes after its minus; the next chunk is short again
    cycle = EIGHT_BYTE_TOKENS * columnfile._CHUNK
    tokens = cycle[:columnfile._CHUNK - 1] + [long] + EIGHT_BYTE_TOKENS
    got = read_tokens(tokens)
    assert got.tobytes() == np.array([float(t) for t in tokens]).tobytes()
    assert float_calls == []
    assert kernel_windows == [16, 8]


def test_file_of_short_tokens_reads_through_8_bytes(tmp_path, float_calls, kernel_windows):
    rng = np.random.default_rng(2)
    lines = _short_tokens(rng, 10_000)
    lines[::7] = [""] * len(lines[::7])     # nulls
    path = tmp_path / "short.col"
    path.write_text("".join(f"{line}\n" for line in lines))
    assert_same_scalar_bytes(read_scalar_column(path), reference_scalar_read(path))
    assert float_calls == []
    assert kernel_windows and set(kernel_windows) == {8}


@pytest.mark.parametrize("rows", [1, 100, 20_000])
def test_writer_files_call_float_only_for_infinite_bounds(tmp_path, bulk_only, float_calls, rows):
    # a kernel that gave every bound to float() would make 2 calls a row
    for seed in (0, 1, 2):
        column = generate_range_column(rows, seed)
        path = tmp_path / f"{seed}.col"
        write_range_column(path, column)
        del float_calls[:]
        got = read_range_column(path)
        assert len(float_calls) == np.isinf(column.lower).sum() + np.isinf(column.upper).sum()
        assert set(float_calls) <= {b"inf", b"-inf"}
        assert got == column


# Scalar files, against the per-line strip/float() reading.

def reference_scalar_read(path):
    """The per-line reading: a blank line is a null, any other line float()
    of its stripped text, which may not be NaN."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                out.append(np.nan)
                continue
            try:
                v = float(text)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not a number: {text!r}") from None
            if math.isnan(v):
                raise ValueError(f"{path}:{lineno}: not a number: {text!r}")
            out.append(v)
    if not out:
        raise ValueError(f"{path}: empty column file")
    return np.array(out, dtype=np.float64)


def assert_same_scalar_bytes(got, want):
    """The same float64 array, so NaN nulls and the sign of a zero count."""
    assert got.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


SCALAR = {"read": read_scalar_column, "reference": reference_scalar_read,
          "same": assert_same_scalar_bytes}


def scalar_lines(rows, seed, kind="skewed-int"):
    """The writer's lines of a generated integer column, every 17th row from row 3 a null."""
    values = generate_scalar_column(kind, rows, seed)
    values[3::17] = np.nan
    return [format_scalar(v) for v in values.tolist()]


def _mutate_scalar(kind, line):
    return {
        "blank": "",
        "whitespace-only": " \t",
        "padded": f" {line}\t",
        "crlf": line + "\r",
        "nul-byte": line + "\x00",
        "nan": "nan",
        "nan-mixed-case": "NaN",
        "inf": "inf",
        "minus-infinity": "-Infinity",
        "exponent": "-1.5e3",
        "underscore-digits": "1_000",
        "leading-plus": "+1",
        "sixteen-digits": "-1234567890123456",
        "double-minus": "--1",
        "two-dots": "1.2.3",
        "lone-dot": ".",
        "minus-dot-five": "-.5",
        "trailing-dot": "5.",
        "leading-zeros": "-0000000000000000012.5",
        "negative-zero": "-0",
        "arabic-indic-digits": "\u0661\u0662",
        "range-literal": "[1,2)",
    }[kind]


SCALAR_MUTATIONS = [
    "blank", "whitespace-only", "padded", "crlf", "nul-byte", "nan", "nan-mixed-case", "inf",
    "minus-infinity", "exponent", "underscore-digits", "leading-plus", "sixteen-digits",
    "double-minus", "two-dots", "lone-dot", "minus-dot-five", "trailing-dot", "leading-zeros",
    "negative-zero", "arabic-indic-digits", "range-literal",
]


@pytest.mark.parametrize("kind", SCALAR_MUTATIONS)
def test_each_scalar_mutation_reads_as_reference(tmp_path, kind):
    path = tmp_path / "m.col"
    lines = scalar_lines(ROWS, 3)
    for k in (0, ROWS // 2, ROWS - 1):
        mutated = list(lines)
        mutated[k] = _mutate_scalar(kind, lines[k])
        path.write_bytes(("\n".join(mutated) + "\n").encode("utf-8"))
        assert_reads_as_reference(path, **SCALAR)


def test_seeded_fuzz_reads_scalar_as_reference(tmp_path, capsys):
    good = tmp_path / "good.col"
    write_scalar_column(good, generate_scalar_column("uniform-int", ROWS, 0))
    malformed = 0
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        lines = scalar_lines(ROWS, seed, ("uniform-int", "skewed-int")[seed % 2])
        for k in rng.choice(ROWS, size=int(rng.integers(1, 4)), replace=False).tolist():
            lines[k] = _mutate_scalar(SCALAR_MUTATIONS[int(rng.integers(len(SCALAR_MUTATIONS)))],
                                      lines[k])
        path = tmp_path / f"fuzz{seed}.col"
        path.write_bytes(("\n".join(lines) + ("" if rng.random() < 0.2 else "\n")).encode("utf-8"))
        if not assert_reads_as_reference(path, **SCALAR):
            continue
        malformed += 1
        code = main(["oracle", "--in-x", str(path), "--in-y", str(good), "--op", "lt"])
        err = capsys.readouterr().err
        assert code == 1, seed
        assert err.startswith(f"error: {path}:") and err.count("\n") == 1, err
    # 7 of the 22 mutations make a line no number
    assert 0.25 * len(SEEDS) < malformed < 0.75 * len(SEEDS)


@pytest.mark.parametrize("text", ["", "\n", "\n\n", "1", "1\r\n\r\n", "-0\n0\n", "\n1\n  \n",
                                  "nan\n", "1\n\x00\n", "4\n\n5"])
def test_scalar_whole_file_cases(tmp_path, text):
    path = tmp_path / "w.col"
    path.write_bytes(text.encode("utf-8"))
    assert_reads_as_reference(path, **SCALAR)


@pytest.mark.parametrize("text", [" 1\n", "1 \n", "1\t\n", " \n", "1\x0b\n", "1\x1c\n",
                                  "\u0661\n", "2\n\u00a01\n"])
def test_scalar_whitespace_and_non_ascii_read_per_line(tmp_path, monkeypatch, text):
    path = tmp_path / "p.col"
    path.write_bytes(text.encode("utf-8"))
    calls = []
    per_line = columnfile._parse_scalar
    monkeypatch.setattr(columnfile, "_parse_scalar",
                        lambda line: calls.append(line) or per_line(line))
    assert_reads_as_reference(path, **SCALAR)
    assert calls


def _random_doubles(rows, seed):
    # doubles from 1e-300 to 1e300 of either sign, zeros of both signs and nulls
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, size=rows)
    values[rng.random(rows) < 0.05] = 0.0
    values[rng.random(rows) < 0.05] = -0.0
    values[rng.random(rows) < 0.05] = np.nan
    return values


@pytest.mark.parametrize("rows", [1, 100, 20_000])
def test_scalar_writer_files_read_as_reference(tmp_path, float_calls, rows):
    # an integer column is read with no float() call; a scan that fell back
    # on every token would make one a row
    for seed in (0, 1, 2):
        for kind in ("uniform-int", "skewed-int"):
            values = generate_scalar_column(kind, rows, seed)
            values[3::17] = np.nan
            path = tmp_path / f"{kind}{seed}.col"
            write_scalar_column(path, values)
            del float_calls[:]
            got = read_scalar_column(path)
            assert float_calls == []
            assert_same_scalar_bytes(got, reference_scalar_read(path))
            assert_same_scalar_bytes(got, values)
        path = tmp_path / f"doubles{seed}.col"
        write_scalar_column(path, _random_doubles(rows, seed))
        assert_same_scalar_bytes(read_scalar_column(path), reference_scalar_read(path))


# The bulk writers against the per-value formatting they replaced, byte for
# byte: repr of each range bound, and for a scalar str(int(v)) of a whole
# number, repr of any other value and a blank line for NaN.

def per_value_range_bytes(column):
    def line(r):
        if r is None:
            return ""
        if r.empty:
            return "empty"
        lb, rb = "[" if r.lower_closed else "(", "]" if r.upper_closed else ")"
        return f"{lb}{r.lower!r},{r.upper!r}{rb}"
    return "".join(f"{line(r)}\n" for r in RangeColumn.from_values(column)).encode("ascii")


def per_value_scalar_bytes(values):
    def line(v):
        return "" if math.isnan(v) else str(int(v)) if v.is_integer() else repr(v)
    return "".join(f"{line(float(v))}\n" for v in values).encode("ascii")


LIMIT = columnfile._WHOLE_LIMIT
# whole numbers at and around the bulk limit, past 2**53 and from 1e16, where
# repr switches to an exponent, and values next to whole ones
EDGES = [LIMIT - 1, LIMIT, LIMIT + 1, LIMIT - 0.5, 2.0**53, 2.0**53 + 2, 1e16, 1e17, 1e300,
         0.5, 1.0, 9.0, 10.0, 99.0, 100.0, 123456789012345.0, 5e-324]
EDGES += [-v for v in EDGES] + [0.0, -0.0]


def _writer_values(rows, seed):
    """Random doubles, the edges, whole numbers of 1 to 15 digits of either
    sign, infinities and NaN, in a seeded order."""
    rng = np.random.default_rng(seed)
    whole = np.floor(10.0 ** rng.uniform(0, 15, rows)) * rng.choice([-1.0, 1.0], rows)
    values = np.concatenate((_random_doubles(rows, seed), EDGES, whole,
                             [math.inf, -math.inf, math.nan]))
    return rng.permutation(values)


@pytest.fixture(params=[None, 7], ids=["one-layout", "layouts-of-7"])
def layout_rows(request, monkeypatch):
    """The writers' rows per bulk layout: the default, or 7, so that a short
    column crosses layout boundaries."""
    if request.param:
        monkeypatch.setattr(columnfile, "_ROWS", request.param)


@pytest.mark.parametrize("seed", range(4))
def test_scalar_writer_bytes_are_per_value(tmp_path, layout_rows, seed):
    values = _writer_values(300, seed)
    generated = generate_scalar_column("skewed-int", 300, seed)
    generated[3::17] = np.nan
    for i, column in enumerate((values, generated, values.tolist())):
        path = tmp_path / f"{i}.col"
        write_scalar_column(path, column)
        assert path.read_bytes() == per_value_scalar_bytes(column)


@pytest.mark.parametrize("seed", range(4))
def test_range_writer_bytes_are_per_value(tmp_path, layout_rows, seed):
    rng = np.random.default_rng(seed)
    bounds = _writer_values(300, seed)
    bounds = np.sort(rng.choice(bounds[~np.isnan(bounds)], size=(2, 400)), axis=0)
    closed = rng.random((2, 400)) < 0.5
    mixed = RangeColumn(bounds[0], bounds[1], closed[0], closed[1],
                        rng.random(400) < 0.05, rng.random(400) < 0.05)
    for i, column in enumerate((mixed, _random_bounds_column(300, seed),
                                generate_range_column(300, seed), list(mixed))):
        path = tmp_path / f"{i}.col"
        write_range_column(path, column)
        assert path.read_bytes() == per_value_range_bytes(column)


@pytest.mark.parametrize("write,column,text", [
    # a range file keeps the sign of a zero bound, a scalar file writes one zero
    (write_range_column, [RangeValue(-0.0, 1.0, True, False), RangeValue(-5.0, -0.0, True, True),
                          RangeValue(-0.0, 0.0, True, True)],
     b"[-0.0,1.0)\n[-5.0,-0.0]\n[-0.0,0.0]\n"),
    (write_scalar_column, [-0.0, 0.0], b"0\n0\n"),
    (write_range_column, [None, EMPTY_RANGE, RangeValue(-math.inf, math.inf, False, False), None],
     b"\nempty\n(-inf,inf)\n\n"),
    (write_range_column, [None, None], b"\n\n"),
    (write_scalar_column, [math.nan, math.nan], b"\n\n"),
    (write_range_column, [], b""),
    (write_scalar_column, [], b""),
    (write_scalar_column, [math.inf, -math.inf, 1e16], b"inf\n-inf\n10000000000000000\n"),
    (write_range_column, [RangeValue(-1e15, 1e16, True, False),
                          RangeValue(999999999999999, 1e15, True, False)],
     b"[-1000000000000000.0,1e+16)\n[999999999999999.0,1000000000000000.0)\n"),
])
def test_writer_edge_rows(tmp_path, layout_rows, write, column, text):
    path = tmp_path / "e.col"
    write(path, column)
    assert path.read_bytes() == text


def test_scalar_writer_takes_a_plain_iterable(tmp_path):
    path = tmp_path / "i.col"
    write_scalar_column(path, (v for v in (3, -7, 2.5, math.nan, 10**15)))
    assert path.read_bytes() == b"3\n-7\n2.5\n\n1000000000000000\n"
