"""Block orbit and its invariants: sizes, concurrences, stabilizers."""

from collections import Counter

import pytest

from octadesign.design import (
    basic_block,
    block_rotation_reps,
    block_stabilizer_elements,
    block_stabilizer_report,
    build_design,
    dump_design,
    edge_diagonal_census,
    lambda_matrix,
    verify_counts,
)
from octadesign.errors import BadInput
from octadesign.gf import factor_prime_power, field_create
from octadesign.pgroup import PointSet, PslElement, mulclose, psl_generators

TETRAHEDRAL_ORDERS = sorted([1, 2, 2, 2] + [3] * 8)
ICOSAHEDRAL_ORDERS = sorted([1] + [2] * 15 + [3] * 20 + [5] * 24)


def make_design(q):
    p, alpha = factor_prime_power(q)
    field = field_create(p, alpha)
    design = build_design(field)
    verify_counts(design)
    return design


def test_basic_block_shape():
    ps = PointSet(field_create(13, 1))
    blk = basic_block(ps)
    assert len(blk.points) == 6
    assert len(blk.diagonals) == 3
    flat = [x for pair in blk.diagonals for x in pair]
    assert sorted(flat) == sorted(blk.points)  # diagonals partition the block
    assert len(list(blk.pairs())) == 15
    assert len(blk.edges()) == 12


def test_basic_block_covers_f5():
    ps = PointSet(field_create(5, 1))
    blk = basic_block(ps)
    assert sorted(blk.points) == list(range(6))  # the whole point set


@pytest.mark.parametrize(
    "q,v,b,r",
    [(5, 6, 1, 1), (9, 20, 30, 9), (13, 42, 91, 13), (25, 156, 130, 5)],
)
def test_design_parameters(q, v, b, r):
    design = make_design(q)
    params = design.params
    assert (params.v, params.b, params.r, params.k) == (v, b, r, 6)
    assert params.degenerate is (b == 1)
    if q % 5 == 0:
        assert params.lambda_by_class == {"adjacent": 1}
    else:
        assert params.lambda_by_class == {"edge": 4, "diagonal": 1}


def test_census_q13():
    design = make_design(13)
    census = edge_diagonal_census(design)
    assert census == {
        "edges": 273,
        "diagonals": 273,
        "blocks_per_edge": 4,
        "blocks_per_diagonal": 1,
    }


def test_census_q9_and_lambda_multiset():
    design = make_design(9)
    census = edge_diagonal_census(design)
    assert census["edges"] == census["diagonals"] == 90
    values = Counter(design.lambda_of_pair.values())
    assert values == {4: 90, 1: 90}
    # The remaining 190 - 180 = 10 unordered pairs never share a block.


def test_census_rejects_char5():
    design = make_design(25)
    with pytest.raises(BadInput):
        edge_diagonal_census(design)


def test_block_orbit_has_no_duplicate_point_sets():
    design = make_design(13)
    seen = {blk.points for blk in design.blocks}
    assert len(seen) == len(design.blocks)


def test_rotation_reps_fix_basic_block():
    design = make_design(13)
    ps = design.point_set
    blk = design.blocks[0]
    reps = block_rotation_reps(design.field)
    assert len(set(reps)) == 12
    pts = set(blk.points)
    for g in reps:
        assert {ps.act_index(g.m, x) for x in pts} == pts


@pytest.mark.parametrize("q", [9, 13, 41, 49, 53])
def test_block_stabilizer_tetrahedral(q):
    design = make_design(q)
    rep = block_stabilizer_report(design)
    assert rep["order"] == 12
    assert rep["explicit_reps_verified"] is True
    assert rep["element_orders"] == TETRAHEDRAL_ORDERS
    assert rep["has_order_six_element"] is False


@pytest.mark.parametrize("q", [5, 25])
def test_block_stabilizer_icosahedral(q):
    design = make_design(q)
    rep = block_stabilizer_report(design)
    assert rep["order"] == 60
    assert rep["explicit_reps_verified"] is None
    assert rep["element_orders"] == ICOSAHEDRAL_ORDERS
    assert rep["has_order_six_element"] is False


def make_point_set(q):
    return PointSet(field_create(*factor_prime_power(q)))


@pytest.mark.parametrize("q", [5, 9, 13, 17])
def test_frame_solution_matches_group_enumeration(q):
    ps = make_point_set(q)
    pts = set(basic_block(ps).points)
    enumerated = {g for g in mulclose(psl_generators(ps.field))
                  if {ps.act_index(g.m, x) for x in pts} == pts}
    solved = block_stabilizer_elements(ps)
    assert len(solved) == len(set(solved))
    assert set(solved) == enumerated


@pytest.mark.parametrize("q", [13, 49, 81])
def test_rotation_reps_are_in_the_frame_solution(q):
    ps = make_point_set(q)
    assert set(block_rotation_reps(ps.field)) <= set(block_stabilizer_elements(ps))


# 480 frame candidates, each mapping 6 vertices and deduplicated once.  The
# whole group PSL(2,53) has 74,412 elements, so enumerating it breaks this.
FLAT_WORK_BOUND = 480 * (6 + 1)


@pytest.mark.parametrize("q", [13, 53])
def test_block_stabilizer_work_is_flat_in_q(q, monkeypatch):
    design = make_design(q)
    calls = {"canonicalize": 0, "from_matrix": 0}
    canonicalize = PointSet.canonicalize
    from_matrix = PslElement.from_matrix

    def counted_canonicalize(self, v):
        calls["canonicalize"] += 1
        return canonicalize(self, v)

    def counted_from_matrix(cls, m):
        calls["from_matrix"] += 1
        return from_matrix(m)

    monkeypatch.setattr(PointSet, "canonicalize", counted_canonicalize)
    monkeypatch.setattr(PslElement, "from_matrix", classmethod(counted_from_matrix))
    assert block_stabilizer_report(design)["order"] == 12
    assert 0 < calls["canonicalize"] <= FLAT_WORK_BOUND, calls
    assert 0 < calls["from_matrix"] <= FLAT_WORK_BOUND, calls


def test_lambda_matrix_modes():
    design = make_design(13)
    lam = lambda_matrix(design, diagonal="r")
    n = design.n
    assert lam.shape == (n, n)
    assert (lam == lam.T).all()
    assert set(lam.diagonal()) == {13}
    off = lambda_matrix(design, diagonal="zero")
    assert set(off.diagonal()) == {0}
    assert sorted(set(off.flatten())) == [0, 1, 4]
    with pytest.raises(ValueError):
        lambda_matrix(design, diagonal="ones")


def test_dump_design_format(tmp_path):
    design = make_design(5)
    path = tmp_path / "design5.txt"
    dump_design(design, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "5 6 1"
    assert len(lines) == 2
    pts, diags = lines[1].split(" | ")
    assert pts.split() == ["0", "1", "2", "3", "4", "5"]
    assert len(diags.split()) == 3

    design13 = make_design(13)
    path13 = tmp_path / "design13.txt"
    dump_design(design13, str(path13))
    lines13 = path13.read_text().splitlines()
    assert lines13[0] == "13 42 91"
    assert len(lines13) == 92
