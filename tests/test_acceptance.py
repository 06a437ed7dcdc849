"""Acceptance suite: one test per criterion, summarized at session end.

Each criterion gets exactly one test function named test_criterion_N_*;
the terminal summary hook in conftest.py prints a PASS/FAIL line per
criterion after the run.
"""

import json
import subprocess

import numpy as np
import pytest

from octadesign import (
    BadInput,
    analyze_q,
    family_members,
    orbit_count_direct,
    orbit_count_formula,
)
from octadesign.gf import factor_prime_power, field_create
from octadesign.scheme import refines
from octadesign.wl import NON_SCHURIAN, SCHURIAN_CONSISTENT, lambda_coloring, wl_stabilize

# q -> (v, b, r, associate classes of the full-group scheme, classes of the
# coherent closure).  Concurrences are 4 on edges and 1 on diagonals except
# in characteristic 5, where every adjacent pair has concurrence 1.
DESK_TABLE = {
    9: (20, 30, 9, 3, 3),
    13: (42, 91, 13, 5, 5),
    17: (72, 204, 17, 7, 7),
    25: (156, 130, 5, 7, 3),
    29: (210, 1015, 29, 13, 13),
    37: (342, 2109, 37, 17, 17),
    41: (420, 2870, 41, 19, 11),
    49: (600, 4900, 49, 17, 13),
}

COHERENCE_MEMBERS = [5, 9, 13, 17, 25, 29, 37, 41, 49, 53]


def test_criterion_1_desk_scale_table(cache):
    for q, (v, b, r, cor, wl) in DESK_TABLE.items():
        report = cache.report(q)
        assert report.params.v == v, q
        assert report.params.b == b, q
        assert report.params.r == r, q
        assert report.params.k == 6, q
        assert report.cor_classes == cor, q
        assert report.wl_classes == wl, q
        assert report.expected["all_match"] is True, q


def test_criterion_2_large_member_and_gating(cache):
    report = cache.report(81)
    assert report.n == 1640
    assert report.cor_classes == 13
    assert report.wl_classes == 5
    assert report.flags["schurian"] == NON_SCHURIAN
    assert report.expected["all_match"] is True
    # Members whose point set exceeds the default cap stay opt-in.
    with pytest.raises(BadInput):
        analyze_q(97)


def test_criterion_3_orbit_count_two_ways():
    members = family_members(169)
    assert len(members) == 24
    assert members[0] == 5 and members[-1] == 169
    for q in members:
        p, alpha = factor_prime_power(q)
        field = field_create(p, alpha)
        assert orbit_count_formula(p, alpha) == orbit_count_direct(field), q


def test_criterion_4_structural_counts_generic(cache):
    for q in [9, 13, 17, 29, 37, 41, 49]:
        report = cache.report(q)
        census = report.census
        expected_pairs = q * (q * q - 1) // 8
        assert census["edges"] == expected_pairs, q
        assert census["diagonals"] == expected_pairs, q
        assert census["blocks_per_edge"] == 4, q
        assert census["blocks_per_diagonal"] == 1, q
        assert report.block_stabilizer["order"] == 12, q
        assert report.block_stabilizer["has_order_six_element"] is False, q
        assert report.point_stabilizer["order"] == 2 * q, q


def test_criterion_5_characteristic_five(cache):
    for q, b, r in [(5, 1, 1), (25, 130, 5)]:
        report = cache.report(q)
        assert report.params.b == b
        assert report.params.r == r
        assert report.params.lambda_by_class == {"adjacent": 1}
        assert report.block_stabilizer["order"] == 60
        design = cache.bundle(q).design
        assert set(design.lambda_of_pair.values()) == {1}


def test_criterion_6_coherence_and_refinement(cache):
    for q in COHERENCE_MEMBERS:
        report = cache.report(q)
        bundle = cache.bundle(q)
        closure = bundle.wl_trace.final
        # Point sets up to 702 are verified cell-by-cell, never sampled.
        assert report.check_level == "full", q
        assert closure.check_level == "full", q
        # Idempotence: stabilizing the closure again changes nothing.
        again = wl_stabilize(closure.coloring, check_level="full")
        assert again.rounds == 1, q
        assert np.array_equal(again.final.coloring.color, closure.coloring.color), q
        # The closure refines its seed; the orbitals refine the closure.
        seed = lambda_coloring(bundle.design)
        assert refines(closure.coloring, seed), q
        assert refines(bundle.full_config.coloring, closure.coloring), q
        counts = bundle.wl_trace.colors_per_round
        assert counts[-1] == counts[-2], q
        assert all(a < b for a, b in zip(counts[:-1], counts[1:-1])), q


def test_criterion_7_flags_and_commutativity(cache):
    for q in [41, 49]:
        report = cache.report(q)
        assert report.flags["commutative"] is False, q
        assert report.flags["schurian"] == NON_SCHURIAN, q
    for q in [9, 13, 17, 25]:
        report = cache.report(q)
        flags = report.flags
        if flags["symmetric"]:
            assert flags["commutative"], q
        expected_flag = (
            SCHURIAN_CONSISTENT if report.cor_classes == report.wl_classes
            else NON_SCHURIAN
        )
        assert flags["schurian"] == expected_flag, q
        # A fresh run reproduces both the flags and the closure partition.
        sink = {}
        fresh = analyze_q(q, force=True, artifacts=sink)
        assert fresh.flags == flags, q
        assert np.array_equal(
            sink["bundle"].wl_trace.final.coloring.color,
            cache.bundle(q).wl_trace.final.coloring.color,
        ), q


def test_criterion_8_antipodal_cover_q25(cache):
    report = cache.report(25)
    drg = report.drg
    assert drg is not None
    assert drg["diameter"] == 3
    assert drg["antipodal"] is True
    assert drg["intersection_array"] == [25, 20, 1, 1, 4, 25]
    assert (drg["fold"], drg["cover_of"]) == (6, 26)
    fresh = analyze_q(25, force=True)
    assert fresh.drg == drg


def test_criterion_9_cli_determinism_and_overrides(cli_child):
    def run_table(threads):
        argv, env = cli_child("table", "--max-q", "49", "--format", "json",
                              OCTA_THREADS=str(threads))
        proc = subprocess.run(argv, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    single = run_table(1)
    threaded = run_table(3)
    assert single == threaded
    rows = {row["q"]: row for row in json.loads(single)["rows"]}
    for q, (v, b, r, cor, wl) in DESK_TABLE.items():
        params = rows[q]["params"]
        assert (params["v"], params["b"], params["r"]) == (v, b, r), q
        assert rows[q]["cor_classes"] == cor, q
        assert rows[q]["wl_classes"] == wl, q

    def run_analyze(*extra):
        argv, env = cli_child("analyze", "13", "--format", "json", *extra)
        proc = subprocess.run(argv, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    base = run_analyze()
    alt = run_analyze("--modulus", "13 1 1 1", "--generator", "6")
    assert base["modulus"] != alt["modulus"]
    for key in ("params", "psl_classes", "cor_classes", "wl_classes",
                "census", "orbit_counts", "flags"):
        assert base[key] == alt[key], key
