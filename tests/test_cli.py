"""Command-line surface: golden table output, word parsing, exit codes."""
import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerian import permutations as perms
from eulerian import polynomials as poly
from eulerian import registry
from eulerian import series as ser
from eulerian import transforms as tr
from eulerian.cli import (
    _MAPS,
    _STATS,
    main,
    parse_permutation,
    render_euler_number_table,
    render_eulerian_table,
    run_verification,
)
from eulerian.permutations import BudgetError
from eulerian.polynomials import Identity
from eulerian.registry import Declaration, _agree, _registry, _transport

GOLDEN_R5_TEXT = """r=5
n=5: 1
n=6: 5 1
n=7: 25 16 1
n=8: 125 171 39 1"""

GOLDEN_R4_CSV = """4,4,1
4,5,4,1
4,6,16,13,1
4,7,64,113,32,1
4,8,256,821,531,71,1"""


class TestTables:
    def test_eulerian_text_golden_block(self):
        assert render_eulerian_table("text", 5) == GOLDEN_R5_TEXT

    def test_eulerian_text_rows(self):
        text = render_eulerian_table("text")
        assert "n=7: 1 120 1191 2416 1191 120 1" in text
        assert "n=8: 243 1909 3134 1314 119 1" in text
        assert text.count("r=") == 5

    def test_eulerian_csv_row_count(self):
        assert render_eulerian_table("csv", 4) == GOLDEN_R4_CSV
        assert len(render_eulerian_table("csv", 4).splitlines()) == 5

    def test_eulerian_json(self):
        payload = json.loads(render_eulerian_table("json"))
        assert payload["table"] == "eulerian"
        entry = next(e for e in payload["entries"] if e["r"] == 2 and e["n"] == 8)
        assert entry["coeffs"] == ["64", "1611", "7197", "8422", "2682", "183", "1"]

    def test_euler_numbers(self):
        text = render_euler_number_table("text")
        assert "n=11: 353792" in text
        assert "n=14: 199360981" in text
        csv = render_euler_number_table("csv")
        assert csv.splitlines()[9] == "10,50521"
        payload = json.loads(render_euler_number_table("json"))
        assert payload["entries"][13] == {"n": 14, "value": "199360981"}

    def test_deterministic(self):
        assert render_eulerian_table("text") == render_eulerian_table("text")
        assert render_euler_number_table("json") == render_euler_number_table("json")


class TestParsing:
    def test_whitespace_and_commas(self):
        assert parse_permutation("6 4 1 2 5 3") == (6, 4, 1, 2, 5, 3)
        assert parse_permutation("6,4,1,2,5,3") == (6, 4, 1, 2, 5, 3)

    def test_errors_name_position(self):
        with pytest.raises(ValueError, match="position 2"):
            parse_permutation("1 x 3")
        with pytest.raises(ValueError, match="position 3"):
            parse_permutation("2 1 2")
        with pytest.raises(ValueError, match="position 1"):
            parse_permutation("7 1 2")
        with pytest.raises(ValueError, match="position 2: value 1 repeated"):
            parse_permutation("1 1")
        with pytest.raises(ValueError, match="position 1: value 0 outside"):
            parse_permutation("0 1")


def test_words_and_vectors_are_plain_tuples():
    # one representation: every word and statistic vector is a bare tuple
    running = parse_permutation("6 4 1 2 5 3")
    values = [running, tr.word_rotate(running, 2)]
    values += [v for v in (stat(running) for stat in _STATS.values()) if not isinstance(v, int)]
    values += [fn((6, 4, 5, 2, 3, 1) if name == "prime" else running) for name, fn in _MAPS.items()]
    values += tr.excedance_to_rise_steps(running) + tr.to_circular_steps(running)
    for tag in (perms.ALL, perms.CIRCULAR, perms.SUCCESSION_FREE, perms.DERANGEMENT, perms.ALTERNATING,
                perms.BIEXCEDENT, perms.FIRST_IS_N, perms.LAST_IS_1, perms.r_tail_ordered(2)):
        values += list(perms.enumerate_class(4, tag))
    assert len(values) > 60
    assert all(type(x) is tuple for x in values), [type(x) for x in values if type(x) is not tuple]


class TestCommands:
    def test_stat_command(self, capsys):
        assert main(["stat", "6 4 1 2 5 3", "--stats", "E,dD"]) == 0
        out = capsys.readouterr().out
        assert "E: 6 3 0 0 1 0" in out
        assert "dD: 3 0 2 2 0" in out

    def test_stat_scalar(self, capsys):
        assert main(["stat", "1", "--stats", "z"]) == 0
        assert "z: 1" in capsys.readouterr().out

    def test_stat_json(self, capsys):
        assert main(["stat", "2 1", "--stats", "E", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["E"] == [2, 0]

    def test_stat_on_empty_word(self, capsys):
        assert main(["stat", "", "--stats", "E,z,eps"]) == 0
        assert capsys.readouterr().out.splitlines() == ["E: ", "z: 0", "eps: 1"]

    def test_stat_bad_word_exit_code(self, capsys):
        assert main(["stat", "1 1"]) == 2
        assert "position 2" in capsys.readouterr().err

    def test_map_command(self, capsys):
        assert main(["map", "fundamental", "6 4 1 2 5 3"]) == 0
        assert capsys.readouterr().out.strip() == "4 2 5 6 1 3"
        assert main(["map", "bar", "6 4 1 2 5 3", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "step1: 4 1 2 5 3 6" in out
        assert "step2: 5 4 1 2 3 6" in out
        assert out.strip().endswith("6 3 2 1 4 5")
        assert main(["map", "tilde", "1 2"]) == 0
        assert capsys.readouterr().out.strip() == "2 1"

    def test_map_precondition_violation(self, capsys):
        assert main(["map", "prime", "1 2"]) == 2
        assert "ending in 1" in capsys.readouterr().err

    def test_poly_command(self, capsys):
        assert main(["poly", "eulerian", "-n", "7", "-r", "1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["coeffs"] == ["1", "120", "1191", "2416", "1191", "120", "1"]

    def test_poly_beyond_the_int_digit_limit(self, capsys):
        # 1600! has 4434 digits, past CPython's default int-to-str limit,
        # which the command lifts for the process
        assert main(["poly", "eulerian", "-n", "1600", "-r", "1500", "--format", "csv"]) == 0
        coeffs = [int(c) for c in capsys.readouterr().out.split(",")]
        assert len(coeffs) == 101
        assert sum(coeffs) == factorial(1600)

    def test_series_command(self, capsys):
        assert main(["series", "tan", "--order", "7"]) == 0
        assert capsys.readouterr().out.strip() == "0 1 0 1/3 0 2/15 0 17/315"

    def test_classical_egf_at_one(self, capsys):
        # t = 1 takes the Z[t] route and substitutes after it: A_n(1) = n!
        assert main(["series", "classical-egf", "--order", "12", "--t", "1"]) == 0
        assert capsys.readouterr().out.split() == ["1"] * 13

    def test_derangement_egf_at_one(self, capsys):
        # the derangement numbers D_n = (n - 1)(D_(n-1) + D_(n-2)), over n!
        assert main(["series", "derangement-egf", "--order", "12", "--t", "1"]) == 0
        counts = [1, 0]
        for n in range(2, 13):
            counts.append((n - 1) * (counts[-1] + counts[-2]))
        want = [str(Fraction(d, factorial(n))) for n, d in enumerate(counts)]
        assert capsys.readouterr().out.split() == want

    def test_tables_command(self, capsys):
        assert main(["tables", "eulerian", "--r", "5"]) == 0
        assert capsys.readouterr().out.strip() == GOLDEN_R5_TEXT

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["poly", "roselle", "-n", "-1"], "error: size must be nonnegative, got -1"),
            (["poly", "eulerian", "-n", "-1"], "error: size must be nonnegative, got -1"),
            (["tables", "eulerian", "--r", "0"], "error: --r must be a shift in 1..5, got 0"),
            (
                ["tables", "euler-numbers", "--r", "3"],
                "error: --r applies to the eulerian table only, not euler-numbers",
            ),
            (["series", "tan", "--t", "5"], "error: --t applies to the EGF series only, not tan"),
            (["series", "sec", "--t", "5"], "error: --t applies to the EGF series only, not sec"),
            (
                ["map", "fundamental", "--r", "3", "2 1 3"],
                "error: --r applies to the rotate map only, not fundamental",
            ),
            (["stat", ""], "error: statistic dE is undefined on the empty word"),
            (["stat", "", "--stats", "E,dsE"], "error: statistic dsE is undefined on the empty word"),
            (["series", "tan", "--order", "1001"], "error: --order must be at most 1000, got 1001"),
        ],
    )
    def test_bad_size_or_shift_is_usage_error(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == message

    def test_series_order_is_bounded_before_any_work(self, monkeypatch):
        monkeypatch.setattr(ser, "tangent_secant_series", lambda order: pytest.fail("computed past the bound"))
        assert main(["series", "tan", "--order", "1001"]) == 2

    def test_unknown_table_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["tables", "nonsense"])
        assert err.value.code == 2


class TestVerify:
    def test_quick_suites_pass(self, capsys):
        assert main(["verify", "chapter1", "--max-n", "5"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and "passed" in out

    def test_verify_json(self, capsys):
        assert main(["verify", "chapter5", "--max-n", "5", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert all(r["ok"] for r in payload["results"])

    def test_json_reports_the_budgets_each_point_sweeps(self, capsys):
        assert main(["verify", "series", "--max-n", "6", "--order", "6", "--format", "json"]) == 0
        swept = {(r["identity"], r["params"]): r["swept"] for r in json.loads(capsys.readouterr().out)["results"]}
        assert swept[("exponential-formula-biexcedent", "order=6")] == {"order": 6, "max_n": 6}
        assert swept[("mixed-egf-exponential-form", "order=6")] == {"order": 6, "max_n": 6}
        # a point that needs no budget sweeps nothing
        assert {} in swept.values()

    def test_text_reports_the_budgets_each_point_sweeps(self, capsys):
        assert main(["verify", "series", "--max-n", "6", "--order", "6"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "PASS exponential-formula-biexcedent [order=6] swept order=6, max_n=6" in lines
        # a point that needs no budget prints no sweep
        assert any(line.startswith("PASS ") and " swept " not in line for line in lines)

    def test_report_sorted_by_identity(self):
        report = run_verification("chapter2", 5, 6, 5)
        keys = [(r.identity, r.params) for r in report.results]
        assert keys == sorted(keys)
        assert report.ok

    def test_exit_status_reflects_failures(self, capsys, monkeypatch):
        forced = Declaration("chapter5", "forced-failure", lambda: Identity(False, 1, 2, "boom"))
        monkeypatch.setattr(registry, "_registry", lambda: (forced,))
        assert main(["verify", "chapter5"]) == 1
        out = capsys.readouterr().out
        assert "FAIL forced-failure" in out and "lhs=1" in out

    def test_crashing_check_fails_only_itself(self, capsys, monkeypatch):
        def crash(n):
            raise RuntimeError("check exploded")

        declarations = (
            Declaration("series", "crashing", crash, ({"n": 1},)),
            Declaration("series", "passing", lambda n: Identity(True, n, n), ({"n": 1},)),
        )
        monkeypatch.setattr(registry, "_registry", lambda: declarations)
        assert main(["verify", "series"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == ["FAIL crashing [n=1] error: check exploded", "PASS passing [n=1]"]
        assert lines[2].startswith("series: 1/2 passed")

    def test_a_route_that_disagrees_fails_with_its_name(self):
        check = _agree(lambda n: n, same=lambda n: n, not_here=lambda n: None, off=lambda n: n + 1)
        assert check(n=2) == Identity(False, 3, 2, "route off")
        assert _agree(lambda n: n, not_here=lambda n: None)(n=2).ok

    def test_a_transport_pair_that_disagrees_fails_with_its_name_and_first_word(self):
        check = _transport(tr.reverse, perms.ALL, ("first letter", lambda p: p[:1], lambda q: q[:1]))
        assert check(1).ok
        assert check(3) == Identity(False, (1,), (3,), "first letter at (1, 2, 3)")

    def test_a_transport_that_is_not_one_to_one_fails_the_count(self):
        check = _transport(lambda p: tuple(sorted(p)), perms.ALL, onto=perms.ALL)
        assert check(3) == Identity(False, 1, 6, "two words share an image")

    def test_two_words_in_different_chunks_that_share_an_image_fail_the_count(self):
        # S_7 is swept in five chunks of 1024 words; its last word, in the
        # last chunk, goes where its first word, in the first chunk, goes
        last = tuple(range(7, 0, -1))
        check = _transport(lambda p: tuple(sorted(p)) if p == last else p, perms.ALL, onto=perms.ALL)
        assert check(7) == Identity(False, 5039, 5040, "two words share an image")

    def test_a_transport_image_outside_its_class_fails(self):
        # (1, 2, 3) reverses into the class; (1, 3, 2) is the first word that does not
        check = _transport(tr.reverse, perms.ALL, onto=perms.FIRST_IS_N)
        assert check(3) == Identity(False, (2, 3, 1), "first_is_n", "image outside the class at (1, 3, 2)")

    def test_a_transport_onto_part_of_its_class_fails_the_count(self):
        # one-to-one into S_3, but only onto the two words starting with 3;
        # the source may also be one size below the target
        check = _transport(lambda p: p, perms.FIRST_IS_N, onto=perms.ALL)
        assert check(3) == Identity(False, 2, 6, "image count")
        prepend = _transport(lambda p: (len(p) + 1,) + p, perms.ALL, onto=perms.FIRST_IS_N, size=lambda n: n - 1)
        assert prepend(4).ok

    def test_shift_recurrence_route_never_returns_the_first_route(self, monkeypatch):
        # the climb starts from a column of its own, so it is asked at every
        # point of cross-method-tables, r = 1 < n included, and never runs
        # the first route
        calls = []
        climb = poly.eulerian_shift_recurrence
        monkeypatch.setattr(poly, "eulerian_shift_recurrence", lambda n, r: calls.append((n, r)) or climb(n, r))
        assert main(["verify", "chapter2"]) == 0
        grid = [(n, r) for n in range(1, 9) for r in range(n + 1)]
        assert set(grid) <= set(calls)
        want = [poly.eulerian_triangle_recurrence(n, r) for n, r in grid]
        for name in ("eulerian_triangle_recurrence", "_triangle_row"):
            monkeypatch.setattr(poly, name, lambda n, r: pytest.fail("ran the first route"))
        assert [climb(n, r) for n, r in grid] == want

    def test_budget_error_is_a_skip(self, capsys, monkeypatch):
        def over_budget():
            raise BudgetError("scan at n=9 exceeds the configured limit max_n=8")

        monkeypatch.setattr(registry, "_registry", lambda: (Declaration("chapter1", "too-large", over_budget),))
        assert main(["verify", "chapter1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "SKIP too-large [] scan at n=9 exceeds the configured limit max_n=8"
        assert lines[1].startswith("chapter1: 0/1 passed, 1 skipped")
        assert main(["verify", "chapter1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert [(r["ok"], r["status"]) for r in payload["results"]] == [(True, "skip")]

    def test_clock_covers_every_check(self, monkeypatch):
        def slow(n):
            time.sleep(0.1)
            return Identity(True, n, n)

        declarations = (Declaration("chapter5", "slow", slow, ({"n": 1}, {"n": 2})),)
        monkeypatch.setattr(registry, "_registry", lambda: declarations)
        assert run_verification("chapter5", 5, 5, 5).elapsed >= 0.2

    def test_each_point_is_timed(self, capsys, monkeypatch):
        def slow(n):
            time.sleep(0.05 * n)
            return [("first", Identity(True, n, n)), ("second", Identity(True, n, n))]

        declarations = (Declaration("chapter5", "slow", slow, ({"n": 1}, {"n": 3})),)
        monkeypatch.setattr(registry, "_registry", lambda: declarations)
        took = {(r.identity, r.params): r.elapsed for r in run_verification("chapter5", 5, 5, 5).results}
        # the identities of one point share its time
        assert took[("first", "n=3")] == took[("second", "n=3")] >= 0.15
        assert took[("first", "n=1")] == took[("second", "n=1")] >= 0.05
        assert main(["verify", "chapter5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[5] == "slowest points:"
        assert [line.split()[1:] for line in lines[6:]] == [["slow", "[n=3]"], ["slow", "[n=1]"]]
        assert main(["verify", "chapter5", "--format", "json"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert all(r["elapsed"] >= 0.05 for r in results)

    def test_time_is_counted_once_per_point(self, capsys):
        assert main(["verify", "series", "--max-n", "5", "--order", "5", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        took = {}
        for r in payload["results"]:
            # the identities of one point share its params and its time
            assert took.setdefault(r["point"], (r["params"], r["elapsed"])) == (r["params"], r["elapsed"])
        assert sorted(took) == list(range(len(took)))
        # exponential-formula returns three identities at one point
        assert len(payload["results"]) > len(took)
        # each elapsed is rounded to 0.001 s
        assert sum(t for _, t in took.values()) <= payload["elapsed"] + 0.0005 * len(took)

    def test_budgets_shrink_or_leave_out_points(self):
        decl = Declaration(
            "series", "bounded", lambda n, order: None,
            tuple({"n": n, "order": range(2, 11)} for n in (1, 3)),
            {"max_n": lambda p: p["n"], "order": lambda p: p["order"]},
        )
        budgets = {"max_n": 2, "order": 4, "fn_scan_max": 0}
        assert list(decl.points(budgets)) == [{"n": 1, "order": 4}]
        assert list(decl.points({**budgets, "order": 1})) == []

    def test_list_prints_the_points_without_checking(self, capsys):
        want = [label for _, label in run_verification("all", 4, 3, 3).points]
        ran = set()

        def profile(frame, event, arg):
            if event == "call":
                ran.add(frame.f_globals.get("__name__", ""))

        outer = sys.getprofile()
        sys.setprofile(profile)
        try:
            code = main(["verify", "--list", "--max-n", "4", "--order", "3", "--fn-scan-max", "3"])
        finally:
            sys.setprofile(outer)
        assert code == 0
        assert capsys.readouterr().out.splitlines() == want
        # only the CLI and the registry ran: no check, and no route of one
        assert {name for name in ran if name.startswith("eulerian")} == {"eulerian.cli", "eulerian.registry"}
        assert main(["verify", "chapter2", "--list", "--max-n", "4", "--order", "3", "--fn-scan-max", "3"]) == 0
        assert capsys.readouterr().out.splitlines() == [line for line in want if line.startswith("chapter2/")]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify"], "error: verify needs a suite: chapter1, chapter2, series, chapter5, all"),
            (["verify", "--list", "--format", "json"], "error: --list prints text only"),
        ],
    )
    def test_verify_usage_error(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == message

    @pytest.mark.parametrize("order", [0, 1])
    def test_series_suite_at_smallest_orders(self, capsys, order):
        assert main(["verify", "series", "--order", str(order)]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_lowered_budgets_never_fail(self, capsys):
        # a suite none of whose declarations reads the order gives the same
        # results at every order, so it runs once per --max-n
        declarations = _registry()
        reads_order = {decl.suite for decl in declarations if "order" in decl.uses}
        for suite in sorted({decl.suite for decl in declarations}):
            for max_n in range(8):
                for order in range(4) if suite in reads_order else (3,):
                    argv = ["verify", suite, "--max-n", str(max_n), "--order", str(order), "--fn-scan-max", "4"]
                    assert main(argv) == 0, (argv, capsys.readouterr().out)
                    capsys.readouterr()

    @pytest.mark.parametrize(
        "suite, flag",
        [
            pytest.param(suite, flag, id=flag if suite == "chapter2" else suite + flag)
            for suite in ("chapter2", "all")
            for flag in ("--max-n", "--order", "--fn-scan-max")
        ],
    )
    def test_negative_budget_is_usage_error(self, capsys, suite, flag):
        assert main(["verify", suite, flag, "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == f"error: {flag} must be nonnegative, got -1"


_WORDS = st.one_of(
    st.text(alphabet="0123456789 ,-x", max_size=8),
    st.integers(0, 7)
    .flatmap(lambda n: st.permutations(range(1, n + 1)))
    .map(lambda p: " ".join(map(str, p))),
)
_ARGV = st.one_of(
    st.builds(
        lambda kind, order, t: ["series", kind, "--order", str(order), "--t", str(t)],
        st.sampled_from(("tan", "sec", "classical-egf", "derangement-egf")),
        st.integers(-2, 40),
        st.integers(-3, 3),
    ),
    st.builds(
        lambda family, n, r: ["poly", family, "-n", str(n), "-r", str(r)],
        st.sampled_from(("eulerian", "roselle", "injection")),
        st.integers(-3, 8),
        st.integers(-2, 5),
    ),
    st.builds(
        lambda table, r: ["tables", table, "--r", str(r)],
        st.sampled_from(("eulerian", "euler-numbers")),
        st.integers(-2, 7),
    ),
    # words follow "--" so that a leading "-" reaches the parser, not argparse
    st.builds(lambda word: ["stat", "--", word], _WORDS),
    st.builds(
        lambda name, r, word: ["map", name, "--r", str(r), "--verbose", "--", word],
        st.sampled_from(tuple(_MAPS) + ("rotate",)),
        st.integers(-3, 9),
        _WORDS,
    ),
)


@settings(max_examples=150, deadline=None)
@given(_ARGV)
def test_random_argv_never_gives_a_traceback(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2), argv


_SRC = str(Path(registry.__file__).parents[1])


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--list"],
        ["verify", "chapter2", "--max-n", "6"],
        ["poly", "eulerian", "-n", "30"],
        ["series", "classical-egf", "--order", "12"],
    ],
    ids=" ".join,
)
def test_a_closed_pipe_ends_quietly(argv):
    # the reader is closed before the command writes, as when `| head -1`
    # has already read its line
    read, write = os.pipe()
    os.close(read)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "eulerian.cli", *argv], stdout=write, stderr=subprocess.PIPE, text=True, env=env
        )
    finally:
        os.close(write)
    assert "Traceback" not in proc.stderr and "Error" not in proc.stderr, proc.stderr
    # 1 would claim that an identity failed
    assert proc.returncode == 141
