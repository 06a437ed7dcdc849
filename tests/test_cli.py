"""Command-line surface: formats, exit codes, overrides, determinism."""

import importlib
import importlib.metadata
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from octadesign.cli import main
from octadesign.scheme import load_pair_coloring


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_analyze_json_frozen_values(capsys):
    code, out, _ = run_cli(capsys, "analyze", "13", "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["q"] == 13 and d["n"] == 42
    assert d["params"] == {
        "b": 91,
        "k": 6,
        "lambda": {"diagonal": 1, "edge": 4},
        "m": 5,
        "r": 13,
        "v": 42,
    }
    assert d["psl_classes"] == 5
    assert d["cor_classes"] == 5
    assert d["wl_classes"] == 5
    assert d["orbit_counts"] == {"direct": 3, "formula": 3}
    assert d["flags"]["schurian"] == "schurian_consistent"
    assert d["flags"]["degenerate"] is False
    assert d["expected"]["all_match"] is True
    assert d["census"]["edges"] == d["census"]["diagonals"] == 273


def test_analyze_json_deterministic(capsys):
    _, first, _ = run_cli(capsys, "analyze", "13", "--format", "json")
    _, second, _ = run_cli(capsys, "analyze", "13", "--format", "json")
    assert first == second


def test_analyze_tsv_row(capsys):
    code, out, _ = run_cli(capsys, "analyze", "13", "--format", "tsv")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert lines[0].split("\t")[:4] == ["q", "p", "alpha", "v"]
    row = lines[1].split("\t")
    assert row[:12] == [
        "13", "13", "1", "42", "91", "13", "6", "5", "5", "5", "5",
        "schurian_consistent",
    ]


def test_analyze_text_summary(capsys):
    code, out, _ = run_cli(capsys, "analyze", "13")
    assert code == 0
    assert "v=42 b=91 r=13 k=6" in out
    assert "reference comparison: all match" in out
    assert "ms" not in out  # timings only on request


def test_analyze_text_timings(capsys):
    code, out, _ = run_cli(capsys, "analyze", "13", "--timings")
    assert code == 0
    assert "ms" in out


def test_analyze_degenerate_member(capsys):
    code, out, _ = run_cli(capsys, "analyze", "5", "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["params"]["b"] == 1
    assert d["flags"]["degenerate"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "7"),  # q = 3 mod 4
        ("analyze", "12"),  # not a prime power
        ("analyze", "97"),  # above the default size gate
        ("analyze", "29", "--max-points", "100"),  # below the gate
        ("analyze", "13", "--modulus", "13 1 2 2"),  # not monic
        ("analyze", "9", "--modulus", "3 2 1 2 1"),  # reducible
        ("analyze", "13", "--modulus", "3 2 1 0 1"),  # wrong field
        ("analyze", "13", "--generator", "4"),  # order 6 only
        ("analyze", "13", "--format", "yaml"),  # unknown choice
        ("analyze",),  # missing argument
        ("analyze", "13", "--nope"),  # unknown option
        ("frobnicate",),  # unknown command
    ],
)
def test_bad_input_exits_3(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3


def test_max_points_boundary_runs(capsys):
    code, out, _ = run_cli(capsys, "analyze", "29", "--max-points", "210", "--format", "tsv")
    assert code == 0
    assert out.split("\n")[1].split("\t")[3] == "210"


def test_overrides_change_presentation_not_counts(capsys):
    _, base, _ = run_cli(capsys, "analyze", "13", "--format", "json")
    _, alt, _ = run_cli(
        capsys,
        "analyze", "13", "--format", "json",
        "--modulus", "13 1 1 1", "--generator", "6",
    )
    base_d, alt_d = json.loads(base), json.loads(alt)
    assert base_d["modulus"] != alt_d["modulus"]
    assert base_d["omega"] != alt_d["omega"]
    for key in ("params", "psl_classes", "cor_classes", "wl_classes",
                "census", "orbit_counts", "flags", "point_stabilizer"):
        assert base_d[key] == alt_d[key], key


def test_dump_files(capsys, tmp_path):
    design_path = tmp_path / "design.txt"
    scheme_path = tmp_path / "scheme.txt"
    code, _, _ = run_cli(
        capsys,
        "analyze", "9",
        "--dump-design", str(design_path),
        "--dump-scheme", str(scheme_path),
    )
    assert code == 0
    assert design_path.read_text().splitlines()[0] == "9 20 30"
    loaded = load_pair_coloring(str(scheme_path))
    assert loaded.n == 20


def test_table_empty_range(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-q", "4")
    assert code == 0
    assert out.strip() == ""
    code, out, _ = run_cli(capsys, "table", "--max-q", "4", "--format", "json")
    assert code == 0
    assert json.loads(out)["rows"] == []


def test_table_rows_and_marks(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-q", "13", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [row["q"] for row in payload["rows"]] == [5, 9, 13]
    assert payload["failures"] == []
    code, text_out, _ = run_cli(capsys, "table", "--max-q", "13")
    assert code == 0
    assert "degenerate" in text_out  # q = 5 is marked


def test_table_expected_marks(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-q", "13", "--expected")
    assert code == 0
    assert "expected:" in out
    assert "✓" in out
    assert "✗" not in out


def test_table_thread_count_does_not_change_bytes(capsys, monkeypatch):
    monkeypatch.setenv("OCTA_THREADS", "1")
    _, one, _ = run_cli(capsys, "table", "--max-q", "13", "--format", "json")
    monkeypatch.setenv("OCTA_THREADS", "2")
    _, two, _ = run_cli(capsys, "table", "--max-q", "13", "--format", "json")
    assert one == two


def test_bad_thread_count(capsys, monkeypatch):
    monkeypatch.setenv("OCTA_THREADS", "zero")
    code, _, err = run_cli(capsys, "table", "--max-q", "13")
    assert code == 3


def test_wl_stabilize_round_trip(capsys, tmp_path):
    scheme_path = tmp_path / "scheme.txt"
    run_cli(capsys, "analyze", "9", "--dump-scheme", str(scheme_path))
    out_path = tmp_path / "closure.txt"
    code, out, _ = run_cli(
        capsys,
        "wl-stabilize", "--input", str(scheme_path), "--output", str(out_path),
    )
    assert code == 0
    assert "colors_in=4" in out and "colors_out=4" in out
    reloaded = load_pair_coloring(str(out_path))
    assert reloaded.num_colors == 4


def test_wl_stabilize_refines_raw_coloring(capsys, tmp_path):
    # Arcs of a directed 5-cycle against everything else; the closure must
    # recover all five translation classes.
    path = tmp_path / "c5.txt"
    rows = [
        " ".join(
            "0" if x == y else ("1" if y == (x + 1) % 5 else "2") for y in range(5)
        )
        for x in range(5)
    ]
    path.write_text("5 3\n" + "\n".join(rows) + "\n")
    code, out, _ = run_cli(capsys, "wl-stabilize", "--input", str(path))
    assert code == 0
    assert "colors_out=5" in out


def test_wl_stabilize_input_errors(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "wl-stabilize")
    assert code == 3
    code, _, _ = run_cli(capsys, "wl-stabilize", "--input", str(tmp_path / "no.txt"))
    assert code == 3
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n0 1\n1 2\n")  # color out of declared range
    code, _, _ = run_cli(capsys, "wl-stabilize", "--input", str(bad))
    assert code == 3


def test_wl_stabilize_refuses_oversized_header(capsys, tmp_path):
    # The header declares 5000 points but one short row follows: the size
    # gate must fire on the header alone, before any row is read.
    path = tmp_path / "big.txt"
    path.write_text("5000 2\n0 1\n")
    code, _, err = run_cli(capsys, "wl-stabilize", "--input", str(path))
    assert code == 3
    assert "5000 points, above the limit of 2000" in err
    code, _, err = run_cli(
        capsys, "wl-stabilize", "--input", str(path), "--max-points", "5000"
    )
    assert code == 3
    assert "expected 5000 colors per row" in err


@pytest.mark.parametrize(
    "override", [("--generator", "2 1"), ("--modulus", "5 2 2 4 1")]
)
def test_verify_25_under_other_presentations(capsys, override):
    code, out, _ = run_cli(capsys, "verify", "25", *override)
    assert "FAIL" not in out
    assert out.strip().split("\n")[-1] == "17 checks, 17 passed"
    assert code == 0


def test_verify_all_checks_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "9")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[-1] == "17 checks, 17 passed"
    assert all(line.startswith("ok") for line in lines[:-1])
    assert "FAIL" not in out


def test_verify_rejects_bad_member(capsys):
    code, _, _ = run_cli(capsys, "verify", "7")
    assert code == 3


def test_console_script_entry_point(cli_child):
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    entry = scripts.get("octadesign")
    assert entry == "octadesign.cli:main"

    module, attr = entry.split(":")
    assert getattr(importlib.import_module(module), attr) is main

    # An installed distribution must declare the same console script.
    try:
        dist = importlib.metadata.distribution("octadesign")
    except importlib.metadata.PackageNotFoundError:
        dist = None
    if dist is not None:
        installed = {ep.name: ep.value for ep in dist.entry_points
                     if ep.group == "console_scripts"}
        assert installed.get("octadesign") == entry

    argv, env = cli_child("analyze", "13", "--format", "tsv", entry=entry)
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("q\t")


def test_module_entry_point(cli_child):
    argv, env = cli_child("analyze", "7")
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert proc.returncode == 3
