"""The named check table: its entries, failure reporting, and computed-once values."""

import dataclasses
import json
import sys

import pytest

from octadesign import analysis, design, pgroup, scheme, verify, wl
from octadesign.cli import main
from octadesign.errors import BadInput, CheckFailed, CountMismatch

CHECK_NAMES = [
    "field constants",
    "modulus minimality",
    "point transitivity",
    "point stabilizer",
    "frobenius action",
    "sigma action",
    "design counts",
    "pair census",
    "block stabilizer",
    "scalar orbit counts",
    "group scheme",
    "valency identity",
    "closure trace",
    "refinement chain",
    "flags",
    "reference row",
    "presentation independence",
]
VERIFY_ONLY = {"sigma action", "closure trace", "reference row", "presentation independence"}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def replace_check(monkeypatch, name, run):
    assert name in CHECK_NAMES
    checks = [dataclasses.replace(c, run=run) if c.name == name else c
              for c in analysis.CHECKS]
    monkeypatch.setattr(analysis, "CHECKS", checks)


def fail_design_counts_at_13(monkeypatch, exc_type=CountMismatch):
    """Make "design counts" fail for q = 13 at its default presentation.

    Other q and the presentation-independence re-runs (another omega) pass.
    """
    original = next(c.run for c in analysis.CHECKS if c.name == "design counts")

    def run(bundle, report):
        if report.q == 13 and report.omega == (2,):
            if exc_type is CountMismatch:
                raise CountMismatch("b", 91, 90)
            raise exc_type("injected")
        return original(bundle, report)

    replace_check(monkeypatch, "design counts", run)


def test_check_table_names_and_order():
    assert [c.name for c in analysis.CHECKS] == CHECK_NAMES
    assert {c.name for c in analysis.CHECKS if c.verify_only} == VERIFY_ONLY


def test_analyze_skips_verify_only_checks(monkeypatch):
    def refuse(bundle, report):
        raise AssertionError("analyze_q ran a verify-only check")

    for name in VERIFY_ONLY:
        replace_check(monkeypatch, name, refuse)
    assert analysis.analyze_q(13).wl_classes == 5


def test_analyze_names_the_failed_check(monkeypatch, capsys):
    fail_design_counts_at_13(monkeypatch)
    with pytest.raises(CheckFailed) as info:
        analysis.analyze_q(13)
    assert info.value.check == "design counts"
    assert isinstance(info.value.cause, CountMismatch)

    code, out, err = run_cli(capsys, "analyze", "13")
    assert code == 2
    assert out == ""
    assert err == "inconsistency: design counts: b: expected 91, got 90\n"


def test_verify_reports_the_failed_check_and_runs_the_rest(monkeypatch, capsys):
    fail_design_counts_at_13(monkeypatch)
    code, out, _ = run_cli(capsys, "verify", "13")
    assert code == 2
    lines = out.rstrip("\n").split("\n")
    assert len(lines) == 18
    assert [ln.split(":")[0] for ln in lines[:-1]] == [
        ("FAIL " if name == "design counts" else "ok   ") + name for name in CHECK_NAMES
    ]
    assert lines[6] == "FAIL design counts: b: expected 91, got 90"
    assert lines[-1] == "17 checks, 16 passed"


def test_table_marks_a_failed_check_as_a_failed_row(monkeypatch, capsys):
    fail_design_counts_at_13(monkeypatch)
    code, out, _ = run_cli(capsys, "table", "--max-q", "17", "--format", "json")
    assert code == 2
    payload = json.loads(out)
    assert [row["q"] for row in payload["rows"]] == [5, 9, 17]
    assert payload["failures"] == [
        {"q": 13, "error": "CheckFailed: design counts: b: expected 91, got 90"}
    ]


def test_table_aborts_on_bad_input_from_a_row(monkeypatch, capsys):
    fail_design_counts_at_13(monkeypatch, BadInput)
    code, out, err = run_cli(capsys, "table", "--max-q", "17", "--format", "json")
    assert code == 3
    assert out == ""  # no partial table
    assert err == "error: injected\n"


def test_table_aborts_on_an_unexpected_exception(monkeypatch, capsys):
    fail_design_counts_at_13(monkeypatch, RuntimeError)
    with pytest.raises(RuntimeError, match="injected"):
        main(["table", "--max-q", "17", "--format", "json"])
    assert capsys.readouterr().out == ""


def test_block_stabilizer_element_orders_are_checked_above_49(monkeypatch, capsys):
    original = design.block_stabilizer_report

    def wrong_orders(dsn):
        rep = original(dsn)
        if dsn.field.q == 53:
            rep["element_orders"] = [1] * 12
        return rep

    monkeypatch.setattr(design, "block_stabilizer_report", wrong_orders)
    detail = ("stabilizer element orders: expected "
              f"{analysis.A4_ELEMENT_ORDERS}, got {[1] * 12}")
    code, out, err = run_cli(capsys, "analyze", "53")
    assert code == 2
    assert out == ""
    assert err == f"inconsistency: block stabilizer: {detail}\n"

    code, out, _ = run_cli(capsys, "verify", "53")
    assert code == 2
    fails = [ln for ln in out.splitlines() if ln.startswith("FAIL")]
    assert fails == [f"FAIL block stabilizer: {detail}"]
    assert out.endswith("17 checks, 16 passed\n")


# Pipeline values that one verify run computes exactly once.
ONCE = [
    (pgroup, "generator_perms"),
    (pgroup, "frobenius_perm"),
    (pgroup, "sigma_perm"),
    (design, "verify_counts"),
    (design, "block_stabilizer_report"),
    (design, "edge_diagonal_census"),
    (design, "lambda_matrix"),
    (wl, "lambda_coloring"),
    (scheme, "check_props"),
]
# Computed at most once per argument combination.
ONCE_PER_ARGS = [(scheme, "refines"), (scheme, "gpbibd_check")]


def _install_counters(monkeypatch, calls, run_index):
    modules = [m for key, m in sys.modules.items()
               if m is not None and key.startswith("octadesign")]

    def wrap(name, func):
        def wrapper(*args, **kwargs):
            calls.append((run_index[0], name, tuple(id(a) for a in args)))
            return func(*args, **kwargs)
        return wrapper

    for module, name in ONCE + ONCE_PER_ARGS:
        orig = getattr(module, name)
        wrapper = wrap(name, orig)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, key, wrapper)


def test_verify_computes_each_pipeline_value_once(monkeypatch):
    calls = []
    run_index = [0]  # 0 is the verify run; each analyze_q re-run gets its own
    _install_counters(monkeypatch, calls, run_index)
    orig_analyze = analysis.analyze_q

    def counted_analyze(*args, **kwargs):
        run_index[0] += 1
        return orig_analyze(*args, **kwargs)

    monkeypatch.setattr(analysis, "analyze_q", counted_analyze)
    # q = 9 has both an alternate modulus and an alternate generator.
    results = verify.run_verification(9)
    assert all(r.passed for r in results), [r for r in results if not r.passed]
    assert run_index[0] == 2  # the two presentation-independence re-runs

    for run in range(run_index[0] + 1):
        in_run = [(name, ids) for index, name, ids in calls if index == run]
        for _, name in ONCE:
            count = sum(1 for n, _ in in_run if n == name)
            assert count == 1, (run, name, count)
        for _, name in ONCE_PER_ARGS:
            argsets = [ids for n, ids in in_run if n == name]
            assert argsets, (run, name)
            assert len(argsets) == len(set(argsets)), (run, name)
