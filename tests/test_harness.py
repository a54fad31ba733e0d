import csv
import hashlib
import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from ineqsel import (
    RangeOp,
    ScalarOp,
    exact_join,
    join_selectivity,
    load_stats,
    restriction_selectivity,
)
from ineqsel.cli import main
from ineqsel.columnfile import looks_like_range_file
from ineqsel.harness import (
    ExperimentRow,
    _row_starts,
    RUNNING_EXAMPLE_R1,
    RUNNING_EXAMPLE_R2,
    generate_range_column,
    generate_scalar_column,
    read_range_column,
    read_scalar_column,
    write_results_csv,
    run_sweep,
    write_range_column,
    write_scalar_column,
)

from conftest import walk_row_starts

GOLDEN_JOIN = 24221 / 37620
CSV_COLUMNS = ["statistics_target", "estimate", "exact", "error", "est_time_us", "build_time_us"]

GOOD_STATS = {
    "null_frac": 0.0,
    "mcv": {"values": [3.0], "fractions": [0.25]},
    "histogram": {"bounds": [1.0, 2.0, 5.0, 7.0]},
    "row_count": 8,
    "statistics_target": 3,
}
GOOD_RANGE_STATS = {
    "null_frac": 0.0,
    "empty_frac": 0.0,
    "lower_stats": GOOD_STATS,
    "upper_stats": GOOD_STATS,
}
# a valid document, the operator to estimate, and the fields that break it
MALFORMED_STATS = [
    pytest.param(GOOD_STATS, "lt", {"mcv": 5}, id="mcv-not-object"),
    pytest.param(GOOD_STATS, "lt", {"mcv": {"values": 5, "fractions": [0.25]}},
                 id="mcv-values-not-array"),
    pytest.param(GOOD_STATS, "lt", {"mcv": {"values": [math.nan], "fractions": [0.25]}},
                 id="mcv-value-nan"),
    pytest.param(GOOD_STATS, "lt", {"null_frac": True}, id="null-frac-bool"),
    pytest.param(GOOD_STATS, "lt", {"row_count": True}, id="row-count-bool"),
    pytest.param(GOOD_STATS, "lt", {"row_count": -1}, id="row-count-negative"),
    pytest.param(GOOD_STATS, "lt", {"statistics_target": 0}, id="target-zero"),
    pytest.param(GOOD_STATS, "lt", {"statistics_target": 2.0}, id="target-not-integer"),
    pytest.param(GOOD_STATS, "lt",
                 {"mcv": {"values": [1.0, 2.0], "fractions": [0.25, 0.25]}, "histogram": None},
                 id="mcv-mass-without-histogram"),
    pytest.param(GOOD_STATS, "lt", {"histogram": 5}, id="histogram-not-object"),
    pytest.param(GOOD_STATS, "lt", {"histogram": {"bounds": [1.0, {}]}}, id="bound-not-number"),
    pytest.param(GOOD_STATS, "lt", {"histogram": {"bounds": [1.0, True]}}, id="bound-bool"),
    pytest.param(GOOD_STATS, "lt", {"mcv": {"values": ["3"], "fractions": [0.25]}},
                 id="mcv-value-string"),
    pytest.param(GOOD_RANGE_STATS, "overlaps", {"empty_frac": False}, id="range-frac-bool"),
    pytest.param(GOOD_RANGE_STATS, "overlaps", {"lower_stats": {**GOOD_STATS, "mcv": 5}},
                 id="range-nested-mcv-not-object"),
    pytest.param(GOOD_RANGE_STATS, "overlaps", {"upper_stats": {**GOOD_STATS, "row_count": -3}},
                 id="range-nested-row-count-negative"),
    pytest.param(GOOD_RANGE_STATS, "overlaps", {"upper_stats": {**GOOD_STATS, "null_frac": 1.5}},
                 id="range-bound-null-frac-out-of-range"),
    # JSON integers beyond float range, which float() cannot convert
    pytest.param(GOOD_STATS, "lt", {"histogram": {"bounds": [1.0, 10**400]}},
                 id="bound-beyond-float"),
    pytest.param(GOOD_RANGE_STATS, "overlaps",
                 {"upper_stats": {**GOOD_STATS, "mcv": {"values": [-10**400], "fractions": [0.25]}}},
                 id="range-nested-mcv-value-beyond-float"),
]


class TestGeneration:
    def test_running_examples_fixed(self):
        assert generate_scalar_column("running-example-r1", 0, 0).tolist() == list(
            RUNNING_EXAMPLE_R1
        )
        assert generate_scalar_column("running-example-r2", 999, 7).tolist() == list(
            RUNNING_EXAMPLE_R2
        )

    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a.col", tmp_path / "b.col"
        write_range_column(a, generate_range_column(1000, seed=7))
        write_range_column(b, generate_range_column(1000, seed=7))
        assert a.read_bytes() == b.read_bytes()
        write_scalar_column(a, generate_scalar_column("uniform-int", 500, 3))
        write_scalar_column(b, generate_scalar_column("uniform-int", 500, 3))
        assert a.read_bytes() == b.read_bytes()

    # sha256 of write_range_column(generate_range_column(rows, seed)): the
    # generator's random stream and its use are fixed for good
    @pytest.mark.parametrize("rows,seed,digest", [
        (1, 0, "9a8fb2d1f881ff1331d0c5d43b98de2caeffac34d804ce2e453fb38b6fd14407"),
        (2, 0, "f2bcd6400e5c879e99362ce4dd33c45e0c8a2702aa8702a56964890929893075"),
        (8, 3, "99e8d7cef04aaad7b5aebf8eefd1fe8ce38c27c2c27293e41c853471a6d820c3"),
        (9, 5, "faf06fdd0b5f3073a9fa4f18eeba67b651e98015643cc33f2e7d9c452317fb0f"),
        (100, 0, "b6dcd941f9bde05a54b1995e17739cb1d4a9d55876b3bac7552872c6354fc555"),
        (1000, 7, "1eeb5d2063652fb2238a8d26d6a0676657830f27340b190f1c758370eb856e81"),
        (5000, 11, "7cca15fe165fbb5a8be23a3888a59afe4c9fc02be2ed72e8ac9c78924f003bf6"),
        (20000, 1, "ecefeb44af14326ec90b8e07a7250ccbaa6ecf028befa7b80c6ae4d86a12a7bc"),
        (200000, 2, "cf55507c549142e0720ae4f2249f04ded0d85e9f92d6eb3a5b71d1bb13b8b2d0"),
    ])
    def test_range_stream_pinned(self, tmp_path, rows, seed, digest):
        path = tmp_path / "r.col"
        write_range_column(path, generate_range_column(rows, seed))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_row_starts_match_the_walk(self):
        # every short column of seeds 0-20 (the first 8 * rows doubles of a
        # seed's stream are the stream of its rows-row column): runs that
        # end at the first row, at the last or not at all, and null, empty
        # or infinite-bound rows back to back
        for seed in range(21):
            d = np.random.default_rng(seed).random(8 * 300)
            for rows in range(1, 301):
                stream = d[:8 * rows]
                assert np.array_equal(_row_starts(stream, rows), walk_row_starts(stream, rows)), \
                    (rows, seed)
        d = np.random.default_rng(4).random(8 * 200_000)
        assert np.array_equal(_row_starts(d, 200_000), walk_row_starts(d, 200_000))

    # sha256 of write_scalar_column(generate_scalar_column(kind, rows, seed))
    # with every 17th row from row 3 on a null: integers and blank lines
    @pytest.mark.parametrize("kind,rows,seed,digest", [
        ("uniform-int", 1, 0, "ac062ce6808abac817801e51c17ea0a1b452cda4538b898995363f264d2fba99"),
        ("uniform-int", 100, 0, "ead02a8646dd7213ec4728b96183ff9a73f9aaeabbc73bbd13f97eea47ee351b"),
        ("uniform-int", 20000, 1, "dff8fab52473f2399e6bc1bae3e5716f9ce1924abd461fb9d1bf70ccc8d3897c"),
        ("skewed-int", 1, 0, "ef5aeb2de464fe23421c0a99ae7b8197494f58c210744504069b930d4fa2bfb3"),
        ("skewed-int", 100, 0, "aa54827d5e38ecbbb3e078df1ba208661df656b748ec939505f343cd1da92fed"),
        ("skewed-int", 20000, 1, "d392d0f95066fd10f604ab2101e3e4750fa709d9da0f2ff278e2fcabf9f36788"),
    ])
    def test_scalar_stream_pinned(self, tmp_path, kind, rows, seed, digest):
        path = tmp_path / "s.col"
        values = generate_scalar_column(kind, rows, seed)
        values[3::17] = np.nan
        write_scalar_column(path, values)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_seed_changes_output(self):
        x = generate_scalar_column("uniform-int", 100, 1)
        y = generate_scalar_column("uniform-int", 100, 2)
        assert not np.array_equal(x, y)

    def test_rows_validated(self):
        with pytest.raises(ValueError):
            generate_scalar_column("uniform-int", 0, 0)
        with pytest.raises(ValueError):
            generate_range_column(0, 0)

    @pytest.mark.parametrize("generate", [
        lambda rows, seed: generate_range_column(rows, seed),
        lambda rows, seed: generate_scalar_column("uniform-int", rows, seed),
        lambda rows, seed: generate_scalar_column("skewed-int", rows, seed),
    ], ids=["range", "uniform-int", "skewed-int"])
    def test_integers_checked_by_the_library_rule(self, generate):
        # a Python or numpy integer, never a bool, as every integer the library takes
        for rows, seed in ((True, 0), (3, True), (2.5, 0), (3, 1.0), (np.float64(3), 0),
                           (np.True_, 0), ("3", 0), (3, None)):
            with pytest.raises(TypeError, match=r"^(rows|seed) must be an integer, got "):
                generate(rows, seed)
        with pytest.raises(ValueError, match="^rows must be at least 1$"):
            generate(np.int64(0), 0)
        with pytest.raises(ValueError, match="^seed must be at least 0$"):
            generate(3, -1)
        want = generate(5, 7)
        for rows, seed in ((np.int64(5), np.int32(7)), (np.uint8(5), np.uint64(7))):
            assert np.array_equal(generate(rows, seed), want, equal_nan=True)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown"):
            generate_scalar_column("zipf", 10, 0)

    def test_skewed_has_heavy_hitters(self):
        values = generate_scalar_column("skewed-int", 2000, 5)
        _, counts = np.unique(values, return_counts=True)
        assert counts.max() > 50

    def test_ranges_mixed_composition(self):
        rows = generate_range_column(5000, seed=11)
        nulls = sum(1 for r in rows if r is None)
        empties = sum(1 for r in rows if r is not None and r.empty)
        infs = sum(
            1
            for r in rows
            if r is not None and not r.empty and (math.isinf(r.lower) or math.isinf(r.upper))
        )
        assert 0.003 < nulls / 5000 < 0.03
        assert 0.003 < empties / 5000 < 0.03
        assert 0.003 < infs / 5000 < 0.03


class TestColumnFiles:
    def test_scalar_round_trip_with_nulls(self, tmp_path):
        path = tmp_path / "col"
        data = [1.0, np.nan, 2.5, -3.0]
        write_scalar_column(path, data)
        back = read_scalar_column(path)
        assert np.array_equal(back, np.array(data), equal_nan=True)

    def test_scalar_parse_error_names_line(self, tmp_path):
        path = tmp_path / "col"
        path.write_text("1\nbogus\n3\n")
        with pytest.raises(ValueError, match=r"col:2"):
            read_scalar_column(path)

    def test_range_parse_error_names_line(self, tmp_path):
        path = tmp_path / "col"
        path.write_text("[1,2]\n\n[9,3]\n")
        with pytest.raises(ValueError, match=r"col:3"):
            read_range_column(path)

    def test_range_round_trip(self, tmp_path):
        path = tmp_path / "col"
        rows = generate_range_column(200, seed=0)
        write_range_column(path, rows)
        assert read_range_column(path) == rows

    # the first non-blank line decides: a bracket or the word "empty" in any case
    @pytest.mark.parametrize("text,is_range", [
        ("[1,2]\n", True), ("(1,2)", True), ("\n \t\nempty\n1\n", True), (" EMPTY \r\n", True),
        ("1\n[1,2]\n", False), ("\n\n-3\n", False), ("empty-ish\n", False), ("", False),
        (" \n\n", False),
    ])
    def test_range_file_sniff(self, tmp_path, text, is_range):
        path = tmp_path / "col"
        path.write_bytes(text.encode("utf-8"))
        assert looks_like_range_file(path) is is_range

    # the sniff reads up to the first non-blank line, so bytes after it that
    # are not UTF-8 are the reader's to report; a carriage return breaks a
    # line, as it does for the reader
    @pytest.mark.parametrize("data,is_range", [
        (b"[1,2]\n\xff\n", True), (b"\n\n7\n\xfe", False), (b"\r\r EMPTY\r1\r", True),
        (b"\xef\xbb\xbf(1,2)\n", True), (b"\xff[1,2]\n", False),
    ])
    def test_range_file_sniff_reads_to_first_line(self, tmp_path, data, is_range):
        path = tmp_path / "col"
        path.write_bytes(data)
        assert looks_like_range_file(path) is is_range

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "col"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_scalar_column(path)


class TestSweep:
    def write_examples(self, tmp_path):
        fx, fy = tmp_path / "x.col", tmp_path / "y.col"
        write_scalar_column(fx, generate_scalar_column("running-example-r1", 0, 0))
        write_scalar_column(fy, generate_scalar_column("running-example-r2", 0, 0))
        return fx, fy

    def test_golden_row(self, tmp_path):
        fx, fy = self.write_examples(tmp_path)
        rows = run_sweep(fx, fy, ScalarOp.LT, [3])
        assert len(rows) == 1
        assert rows[0].statistics_target == 3
        assert rows[0].estimate == pytest.approx(GOLDEN_JOIN, abs=1e-9)
        assert rows[0].exact == pytest.approx(95 / 144, abs=1e-12)
        assert rows[0].error == pytest.approx(abs(GOLDEN_JOIN - 95 / 144), abs=1e-9)

    def test_self_join_complement(self, tmp_path):
        fx, _ = self.write_examples(tmp_path)
        lt = run_sweep(fx, fx, ScalarOp.LT, [4])[0].estimate
        ge = run_sweep(fx, fx, ScalarOp.GE, [4])[0].estimate
        assert lt + ge == pytest.approx(1.0, abs=1e-9)

    def test_rows_ordered_and_oracle_constant(self, tmp_path):
        fx, fy = self.write_examples(tmp_path)
        rows = run_sweep(fx, fy, ScalarOp.LT, [7, 3, 5])
        assert [r.statistics_target for r in rows] == [3, 5, 7]
        assert len({r.exact for r in rows}) == 1

    def test_range_sweep(self, tmp_path):
        fx, fy = tmp_path / "x.col", tmp_path / "y.col"
        write_range_column(fx, generate_range_column(300, seed=1))
        write_range_column(fy, generate_range_column(300, seed=2))
        rows = run_sweep(fx, fy, RangeOp.STRICTLY_LEFT, [5, 20])
        assert all(0 <= r.estimate <= 1 for r in rows)
        assert rows[1].error <= rows[0].error + 0.05

    def test_determinism(self, tmp_path):
        # two sweeps over the same files give equal rows, timings aside
        fx, fy = self.write_examples(tmp_path)
        a = run_sweep(fx, fy, ScalarOp.LT, [3, 5])
        b = run_sweep(fx, fy, ScalarOp.LT, [3, 5])
        assert [(r.statistics_target, r.estimate, r.exact, r.error) for r in a] == [
            (r.statistics_target, r.estimate, r.exact, r.error) for r in b
        ]

    def test_csv_round_trip(self, tmp_path):
        fx, fy = self.write_examples(tmp_path)
        rows = run_sweep(fx, fy, ScalarOp.LT, [3, 6])
        out = tmp_path / "results.csv"
        write_results_csv(rows, out)
        with open(out, newline="") as fh:
            header, *records = csv.reader(fh)
        assert header == CSV_COLUMNS
        back = [ExperimentRow(int(r[0]), *map(float, r[1:])) for r in records]
        assert back == rows

    def test_csv_bytes(self, tmp_path):
        # an int field as it is; a float field at full precision, even when
        # it holds an int
        rows = [ExperimentRow(1, 0.5, 0.25, 0.25, 1.5, 2.0),
                ExperimentRow(10, np.float64(1 / 3), 0.1, 1e-17, 3, 7)]
        out = tmp_path / "results.csv"
        write_results_csv(rows, out)
        assert out.read_bytes() == (
            b"statistics_target,estimate,exact,error,est_time_us,build_time_us\r\n"
            b"1,0.5,0.25,0.25,1.5,2.0\r\n"
            b"10,0.3333333333333333,0.1,1e-17,3.0,7.0\r\n"
        )

    def test_empty_targets(self, tmp_path):
        fx, fy = self.write_examples(tmp_path)
        with pytest.raises(ValueError, match="target"):
            run_sweep(fx, fy, ScalarOp.LT, [])

    @pytest.mark.parametrize("target", [1.5, 3.0, "2", True, None],
                             ids=["float", "whole-float", "str", "bool", "None"])
    def test_targets_are_integers(self, tmp_path, target):
        # checked as analyze_column checks a target, before any is run
        fx, fy = self.write_examples(tmp_path)
        message = f"statistics_target must be an integer, got {target!r}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            run_sweep(fx, fy, ScalarOp.LT, [3, target])

    @pytest.mark.parametrize("target", [0, -3, np.int64(0)], ids=["zero", "negative", "numpy"])
    def test_targets_are_at_least_one(self, tmp_path, target):
        # refused before any column is analyzed, so the error names no file
        fx, fy = self.write_examples(tmp_path)
        with pytest.raises(ValueError, match="^statistics target must be at least 1$"):
            run_sweep(fx, fy, ScalarOp.LT, [3, target])

    def test_numpy_integer_targets_accepted(self, tmp_path):
        fx, fy = self.write_examples(tmp_path)
        rows = run_sweep(fx, fy, ScalarOp.LT, (t for t in [np.int64(5), 3, np.int32(3)]))
        assert [r.statistics_target for r in rows] == [3, 5]
        assert all(type(r.statistics_target) is int for r in rows)
        assert [r.estimate for r in rows] == [
            r.estimate for r in run_sweep(fx, fy, ScalarOp.LT, [3, 5])]


class TestCli:
    def gen(self, tmp_path, kind, name, rows=200, seed=0):
        out = tmp_path / name
        assert main(["gen", "--kind", kind, "--rows", str(rows), "--seed", str(seed),
                     "--out", str(out)]) == 0
        return out

    def test_scalar_pipeline(self, tmp_path, capsys):
        fx = self.gen(tmp_path, "running-example-r1", "x.col")
        fy = self.gen(tmp_path, "running-example-r2", "y.col")
        stats_x, stats_y = tmp_path / "x.json", tmp_path / "y.json"
        assert main(["analyze", "--in", str(fx), "--target", "3", "--seed", "0",
                     "--out", str(stats_x)]) == 0
        assert main(["analyze", "--in", str(fy), "--target", "3", "--seed", "0",
                     "--out", str(stats_y)]) == 0
        assert main(["estimate", "--stats-x", str(stats_x), "--stats-y", str(stats_y),
                     "--op", "lt"]) == 0
        est = float(capsys.readouterr().out.strip())
        assert est == pytest.approx(GOLDEN_JOIN, abs=1e-9)

        assert main(["oracle", "--in-x", str(fx), "--in-y", str(fy), "--op", "lt"]) == 0
        assert capsys.readouterr().out.strip() == "95/144"

    def test_range_pipeline(self, tmp_path, capsys):
        fx = self.gen(tmp_path, "ranges-mixed", "x.col", rows=300, seed=1)
        fy = self.gen(tmp_path, "ranges-mixed", "y.col", rows=300, seed=2)
        sx, sy = tmp_path / "x.json", tmp_path / "y.json"
        assert main(["analyze", "--in", str(fx), "--target", "10", "--out", str(sx)]) == 0
        assert main(["analyze", "--in", str(fy), "--target", "10", "--out", str(sy)]) == 0
        assert main(["estimate", "--stats-x", str(sx), "--stats-y", str(sy),
                     "--op", "strictly-left"]) == 0
        est = float(capsys.readouterr().out.strip())

        assert main(["oracle", "--in-x", str(fx), "--in-y", str(fy),
                     "--op", "strictly-left"]) == 0
        q, t = capsys.readouterr().out.strip().split("/")
        assert est == pytest.approx(int(q) / int(t), abs=0.05)

    def test_sweep_command(self, tmp_path):
        fx = self.gen(tmp_path, "running-example-r1", "x.col")
        fy = self.gen(tmp_path, "running-example-r2", "y.col")
        out = tmp_path / "results.csv"
        assert main(["sweep", "--in-x", str(fx), "--in-y", str(fy), "--op", "lt",
                     "--targets", "3:5:1", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            header, *records = csv.reader(fh)
        assert header == CSV_COLUMNS
        assert [int(r[0]) for r in records] == [3, 4, 5]

    def test_usage_error_exit_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--kind", "nope", "--rows", "5", "--out", str(tmp_path / "f")])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--kind", "uniform-int", "--rows", "0",
                  "--out", str(tmp_path / "f")])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--in-x", "a", "--in-y", "b", "--op", "lt",
                  "--targets", "10", "--out", str(tmp_path / "f")])
        assert exc.value.code == 2
        # integer options are checked by argparse, before any file is read
        # or written
        col = self.gen(tmp_path, "running-example-r1", "x.col")
        capsys.readouterr()
        out = tmp_path / "out"
        for argv, message in [
            (["analyze", "--in", str(col), "--target", "0"], "1 <= TARGET <= 10000"),
            (["analyze", "--in", str(col), "--target", "20000"], "1 <= TARGET <= 10000"),
            (["gen", "--kind", "uniform-int", "--seed", "-1"], "SEED >= 0"),
            (["analyze", "--in", str(col), "--target", "3", "--seed", "-1"],
             "SEED >= 0"),
            (["gen", "--kind", "running-example-r1", "--rows", "-5"], "ROWS >= 1"),
        ]:
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--out", str(out)])
            assert exc.value.code == 2, argv
            assert message in capsys.readouterr().err, argv
            assert not out.exists(), argv

    def test_integer_options_at_their_limits(self, tmp_path):
        col = self.gen(tmp_path, "running-example-r1", "x.col", rows=1, seed=0)
        for target in ("1", "10000"):
            assert main(["analyze", "--in", str(col), "--target", target, "--seed", "0",
                         "--out", str(tmp_path / f"{target}.json")]) == 0

    def test_targets_above_max_exit_2(self, tmp_path, capsys):
        # HI past the largest statistics target is turned down before the
        # list of targets is built
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--in-x", "a", "--in-y", "b", "--op", "lt",
                  "--targets", "1:2000000000:1", "--out", str(tmp_path / "f")])
        assert exc.value.code == 2
        assert "HI <= 10000" in capsys.readouterr().err
        # HI at the limit parses; the missing files are then a data error
        assert main(["sweep", "--in-x", str(tmp_path / "a"), "--in-y", str(tmp_path / "b"),
                     "--op", "lt", "--targets", "1:10000:100",
                     "--out", str(tmp_path / "f")]) == 1

    def test_every_scalar_op_everywhere(self, tmp_path, capsys):
        # both estimators and both oracles take every ScalarOp, and --op
        # offers each by its value
        fx = self.gen(tmp_path, "running-example-r1", "x.col")
        fy = self.gen(tmp_path, "running-example-r2", "y.col")
        stats_x, stats_y = tmp_path / "x.json", tmp_path / "y.json"
        assert main(["analyze", "--in", str(fx), "--target", "3", "--out", str(stats_x)]) == 0
        assert main(["analyze", "--in", str(fy), "--target", "3", "--out", str(stats_y)]) == 0
        sx, sy = load_stats(stats_x.read_bytes()), load_stats(stats_y.read_bytes())
        for op in ScalarOp:
            assert 0.0 <= restriction_selectivity(sx, 30, op) <= 1.0
            assert exact_join(RUNNING_EXAMPLE_R1, [30], op).total == 12
            assert main(["estimate", "--stats-x", str(stats_x), "--stats-y", str(stats_y),
                         "--op", op.value]) == 0
            assert float(capsys.readouterr().out) == join_selectivity(sx, sy, op)
            assert main(["oracle", "--in-x", str(fx), "--in-y", str(fy), "--op", op.value]) == 0
            count = exact_join(RUNNING_EXAMPLE_R1, RUNNING_EXAMPLE_R2, op)
            assert capsys.readouterr().out.strip() == f"{count.qualifying}/{count.total}"

    def test_data_error_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.col"
        bad.write_text("1\nnot-a-number\n")
        assert main(["analyze", "--in", str(bad), "--target", "3",
                     "--out", str(tmp_path / "s.json")]) == 1
        assert "bad.col:2" in capsys.readouterr().err

    def test_analyze_error_names_file(self, tmp_path, capsys):
        # the reader and the oracle take 1e400 as inf; ANALYZE refuses it
        inf = tmp_path / "inf.col"
        inf.write_text("1\n1e400\n")
        assert main(["analyze", "--in", str(inf), "--target", "3",
                     "--out", str(tmp_path / "s.json")]) == 1
        assert capsys.readouterr().err == f"error: {inf}: values must be finite\n"
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize("bad_side", ["x", "y"])
    def test_sweep_error_names_file(self, tmp_path, capsys, bad_side):
        inf = tmp_path / "inf.col"
        inf.write_text("1\n1e400\n")
        good = self.gen(tmp_path, "running-example-r1", "good.col")
        fx, fy = (inf, good) if bad_side == "x" else (good, inf)
        assert main(["sweep", "--in-x", str(fx), "--in-y", str(fy), "--op", "lt",
                     "--targets", "3:3:1", "--out", str(tmp_path / "r.csv")]) == 1
        assert capsys.readouterr().err == f"error: {inf}: values must be finite\n"

    def test_missing_file_exit_1(self, tmp_path):
        assert main(["oracle", "--in-x", str(tmp_path / "nope"),
                     "--in-y", str(tmp_path / "nope"), "--op", "lt"]) == 1

    @pytest.mark.parametrize("kind,op", [("running-example-r1", "lt"),
                                         ("ranges-mixed", "overlaps")])
    def test_stats_byte_order_mark(self, tmp_path, capsys, kind, op):
        # a statistics document may start with one UTF-8 byte-order mark, as
        # a column file may; a second mark is not JSON
        stats = tmp_path / "s.json"
        assert main(["analyze", "--in", str(self.gen(tmp_path, kind, "s.col")),
                     "--target", "3", "--out", str(stats)]) == 0
        assert main(["estimate", "--stats-x", str(stats), "--stats-y", str(stats),
                     "--op", op]) == 0
        plain = capsys.readouterr().out
        marked, twice = tmp_path / "marked.json", tmp_path / "twice.json"
        marked.write_bytes(b"\xef\xbb\xbf" + stats.read_bytes())
        twice.write_bytes(b"\xef\xbb\xbf" + marked.read_bytes())
        assert main(["estimate", "--stats-x", str(marked), "--stats-y", str(stats),
                     "--op", op]) == 0
        assert capsys.readouterr().out == plain
        assert main(["estimate", "--stats-x", str(stats), "--stats-y", str(twice),
                     "--op", op]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {twice}: not valid JSON: ")
        assert captured.err.count("\n") == 1

    def test_mismatched_stats_kind_exit_1(self, tmp_path, capsys):
        fx = self.gen(tmp_path, "running-example-r1", "x.col")
        sx = tmp_path / "x.json"
        assert main(["analyze", "--in", str(fx), "--target", "3", "--out", str(sx)]) == 0
        assert main(["estimate", "--stats-x", str(sx), "--stats-y", str(sx),
                     "--op", "strictly-left"]) == 1
        err = capsys.readouterr().err
        assert "range statistics" in err
        assert f"{sx}: " in err

    @pytest.mark.parametrize("good,op,fields", MALFORMED_STATS)
    def test_malformed_stats_exit_1(self, tmp_path, capsys, good, op, fields):
        bad, ok = tmp_path / "bad.json", tmp_path / "ok.json"
        bad.write_text(json.dumps({**good, **fields}))
        ok.write_text(json.dumps(good))
        assert main(["estimate", "--stats-x", str(ok), "--stats-y", str(ok), "--op", op]) == 0
        capsys.readouterr()
        assert main(["estimate", "--stats-x", str(bad), "--stats-y", str(ok), "--op", op]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "bad.json" in captured.err
        # an error inside a nested document names its field
        for name in {"lower_stats", "upper_stats"} & fields.keys():
            assert f"bad.json: {name}: " in captured.err

    # the fields a range document holds and a scalar one does not
    @pytest.mark.parametrize("field", ["empty_frac", "lower_stats", "upper_stats"])
    def test_range_stats_missing_field_exit_1(self, tmp_path, capsys, field):
        # the document is still read as range statistics, which name the field
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({k: v for k, v in GOOD_RANGE_STATS.items() if k != field}))
        assert main(["estimate", "--stats-x", str(bad), "--stats-y", str(bad),
                     "--op", "overlaps"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {bad}: missing field {field}\n"

    def test_old_format_range_stats_exit_1(self, tmp_path, capsys):
        # range documents once held each bound's infinite share as a field
        # of its own; loaded without it, such a document would give a wrong
        # estimate, so it is refused by the field's name
        old = tmp_path / "old.json"
        old.write_text(json.dumps({"null_frac": 0.0, "empty_frac": 0.0, "lower_inf_frac": 0.25,
                                   "upper_inf_frac": 0.0, "lower_stats": GOOD_STATS,
                                   "upper_stats": GOOD_STATS}))
        ok = tmp_path / "ok.json"
        ok.write_text(json.dumps(GOOD_RANGE_STATS))
        assert main(["estimate", "--stats-x", str(old), "--stats-y", str(ok),
                     "--op", "overlaps"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {old}: unknown field lower_inf_frac\n"

    @pytest.mark.parametrize("op", ["lt", "overlaps"])
    def test_deeply_nested_stats_exit_1(self, tmp_path, capsys, op):
        # deeper than the JSON parser's recursion limit
        bad = tmp_path / "bad.json"
        bad.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["estimate", "--stats-x", str(bad), "--stats-y", str(bad), "--op", op]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "bad.json" in captured.err

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "f.col"
        proc = subprocess.run(
            [sys.executable, "-m", "ineqsel", "gen", "--kind", "uniform-int",
             "--rows", "10", "--seed", "1", "--out", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert out.exists()
        proc = subprocess.run(
            [sys.executable, "-m", "ineqsel", "estimate", "--stats-x", "missing.json",
             "--stats-y", "missing.json", "--op", "lt"],
            capture_output=True,
        )
        assert proc.returncode == 1
