"""Coherent closure: seeds, refinement traces, and a brute-force oracle.

brute_closure below is an independent reimplementation of pair refinement
with plain dicts: seed by (color, transposed color, on-diagonal), then
refine by the multiset of (c(x,z), c(z,y)) over all z until stable.  Its
fixpoint is the coarsest coherent refinement of the input, so the fast
vectorized path must produce the identical partition.
"""

import numpy as np
import pytest

from octadesign.analysis import family_members
from octadesign.errors import NotCoherent, RefinementViolation
from octadesign.scheme import (
    PairColoring,
    canonical_renumber,
    intersection_tensor,
    refines,
)
from octadesign.wl import (
    NON_SCHURIAN,
    SCHURIAN_CONSISTENT,
    lambda_coloring,
    schurian_flag,
    wl_stabilize,
)


def brute_closure(color_rows):
    """Reference coherent closure on a small explicit color matrix."""
    n = len(color_rows)
    names = {}
    cur = {}
    for x in range(n):
        for y in range(n):
            key = (color_rows[x][y], color_rows[y][x], x == y)
            cur[(x, y)] = names.setdefault(key, len(names))
    while True:
        names = {}
        nxt = {}
        for x in range(n):
            for y in range(n):
                feature = (
                    cur[(x, y)],
                    tuple(sorted((cur[(x, z)], cur[(z, y)]) for z in range(n))),
                )
                nxt[(x, y)] = names.setdefault(feature, len(names))
        if len(names) == len(set(cur.values())):
            return nxt
        cur = nxt


def partition_array(mapping, n):
    raw = np.array([[mapping[(x, y)] for y in range(n)] for x in range(n)])
    return canonical_renumber(raw)[0]


def closure_of_matrix(rows):
    color = np.array(rows, dtype=np.int32)
    coloring = PairColoring(
        n=color.shape[0], color=color, num_colors=int(color.max()) + 1
    )
    return wl_stabilize(coloring, check_level="full")


def assert_matches_brute(rows):
    trace = closure_of_matrix(rows)
    fast = canonical_renumber(trace.final.coloring.color)[0]
    slow = partition_array(brute_closure(rows), len(rows))
    assert np.array_equal(fast, slow)
    return trace


def test_closure_of_pentagon_matches_brute():
    # Distance coloring of the 5-cycle is already coherent: no growth.
    rows = [[min((x - y) % 5, (y - x) % 5) for y in range(5)] for x in range(5)]
    trace = assert_matches_brute(rows)
    assert trace.colors_per_round == [3, 3]


def test_closure_of_path_matches_brute():
    rows = [
        [0 if x == y else (1 if abs(x - y) == 1 else 2) for y in range(4)]
        for x in range(4)
    ]
    assert_matches_brute(rows)


def test_closure_of_directed_triangle_matches_brute():
    rows = [[(y - x) % 3 for y in range(3)] for x in range(3)]
    trace = assert_matches_brute(rows)
    assert trace.final.coloring.num_colors == 3


def test_closure_splits_transpose_pairs():
    # Arcs of a directed 5-cycle against everything else: the seed is not
    # transpose-respecting, and the closure must recover all five
    # translation classes.
    rows = [
        [0 if x == y else (1 if y == (x + 1) % 5 else 2) for y in range(5)]
        for x in range(5)
    ]
    trace = assert_matches_brute(rows)
    assert trace.final.coloring.num_colors == 5


def test_closure_of_random_graph_matches_brute():
    rng = np.random.default_rng(7)
    n = 8
    adj = rng.integers(0, 2, size=(n, n))
    adj = np.triu(adj, 1)
    adj = adj + adj.T
    rows = [
        [0 if x == y else int(1 + adj[x, y]) for y in range(n)] for x in range(n)
    ]
    assert_matches_brute(rows)


def test_closure_of_small_design_matches_brute(cache):
    design = cache.bundle(5).design
    seed = lambda_coloring(design)
    trace = wl_stabilize(seed, check_level="full")
    fast = canonical_renumber(trace.final.coloring.color)[0]
    slow = partition_array(brute_closure(seed.color.tolist()), seed.n)
    assert np.array_equal(fast, slow)
    assert trace.colors_per_round == [2, 2]


@pytest.mark.parametrize("q,rank", [(5, 2), (9, 4), (13, 4), (25, 3)])
def test_lambda_coloring_rank(cache, q, rank):
    design = cache.bundle(q).design
    coloring = lambda_coloring(design)
    assert coloring.num_colors == rank
    assert set(coloring.color.diagonal().tolist()) == {0}


def test_lambda_coloring_orders_by_concurrence(cache):
    design = cache.bundle(13).design
    coloring = lambda_coloring(design)
    edge = next(iter(design.edge_pairs))
    diag = next(iter(design.diag_pairs))
    assert coloring.color[edge] == 1  # concurrence 4 gets the first color
    assert coloring.color[diag] == 2  # then concurrence 1
    unrelated = coloring.color.copy()
    assert unrelated.max() == 3  # concurrence 0 last


@pytest.mark.parametrize("q", [9, 13, 17, 25])
def test_trace_strictly_increases_then_repeats(cache, q):
    trace = cache.bundle(q).wl_trace
    counts = trace.colors_per_round
    assert counts[-1] == counts[-2]
    body = counts[:-1]
    assert all(a < b for a, b in zip(body, body[1:]))
    assert trace.rounds == len(counts) - 1


@pytest.mark.parametrize("q", [9, 13, 17])
def test_closure_equals_orbitals_when_counts_match(cache, q):
    bundle = cache.bundle(q)
    closure = bundle.wl_trace.final.coloring
    orbitals = bundle.full_config.coloring
    assert closure.num_colors == orbitals.num_colors
    assert np.array_equal(closure.color, orbitals.color)


def test_closure_is_idempotent(cache):
    closure = cache.bundle(13).wl_trace.final.coloring
    again = wl_stabilize(closure, check_level="full")
    assert again.colors_per_round == [closure.num_colors, closure.num_colors]
    assert np.array_equal(again.final.coloring.color, closure.color)


def test_closure_refines_seed(cache):
    for q in [9, 13, 25]:
        bundle = cache.bundle(q)
        seed = lambda_coloring(bundle.design)
        assert refines(bundle.wl_trace.final.coloring, seed)


def test_no_coherent_partition_between_seed_and_closure_q25(cache):
    # The closure splits the concurrence-0 class in two.  The only coarser
    # partition refining the seed is the seed itself, and it is not
    # coherent, so the closure is minimal.
    bundle = cache.bundle(25)
    seed = lambda_coloring(bundle.design)
    closure = bundle.wl_trace.final.coloring
    assert seed.num_colors == 3
    assert closure.num_colors == 4
    with pytest.raises(NotCoherent):
        intersection_tensor(seed, mode="full")


def test_schurian_flag():
    assert schurian_flag(5, 5) == SCHURIAN_CONSISTENT
    assert schurian_flag(3, 7) == NON_SCHURIAN
    with pytest.raises(RefinementViolation):
        schurian_flag(7, 5)


def assert_same_closure(fused, dense):
    assert np.array_equal(fused.final.coloring.color, dense.final.coloring.color)
    assert fused.final.coloring.num_colors == dense.final.coloring.num_colors
    assert fused.colors_per_round == dense.colors_per_round
    assert fused.rounds == dense.rounds
    assert np.array_equal(fused.final.tensor, dense.final.tensor)
    assert np.array_equal(fused.final.transpose_map, dense.final.transpose_map)


@pytest.mark.parametrize("q", family_members(53))
def test_fused_closure_matches_dense(cache, q):
    # The dense n*n iteration is the oracle for the fusion of the
    # full-group orbital scheme: same colors, same numbering, same trace.
    bundle = cache.bundle(q)
    seed = lambda_coloring(bundle.design)
    dense = wl_stabilize(seed)
    fused = wl_stabilize(seed, orbitals=bundle.full_config)
    assert_same_closure(fused, dense)


def test_fused_closure_over_finer_scheme_matches_dense(cache):
    # Any coherent configuration refining the seed will do, here the finer
    # PSL orbital scheme at a non-Schurian member.
    bundle = cache.bundle(25)
    seed = lambda_coloring(bundle.design)
    dense = wl_stabilize(seed)
    fused = wl_stabilize(seed, orbitals=bundle.psl_config)
    assert_same_closure(fused, dense)
    assert bundle.psl_config.coloring.num_colors > fused.final.coloring.num_colors


def test_fused_closure_rejects_non_union(cache):
    bundle = cache.bundle(13)
    seed = lambda_coloring(bundle.design)
    color = seed.color.copy()
    color[0, 1] = 1 if color[0, 1] != 1 else 2  # one off-diagonal cell flipped
    flipped = PairColoring(n=seed.n, color=color, num_colors=seed.num_colors)
    with pytest.raises(RefinementViolation):
        wl_stabilize(flipped, orbitals=bundle.full_config)


def test_fused_closure_rejects_unordered_orbital_numbering(cache):
    bundle = cache.bundle(13)
    color = bundle.full_config.coloring.color
    swapped = np.where(color == 1, 2, np.where(color == 2, 1, color)).astype(np.int32)
    orbitals = intersection_tensor(
        PairColoring(n=bundle.full_config.coloring.n, color=swapped,
                     num_colors=bundle.full_config.coloring.num_colors),
        mode="full",
    )
    with pytest.raises(ValueError):
        wl_stabilize(lambda_coloring(bundle.design), orbitals=orbitals)
