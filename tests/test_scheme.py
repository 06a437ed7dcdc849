"""Pair colorings and coherence: orbitals, intersection numbers, folds.

Synthetic inputs with hand-computable answers (cyclic translations, the
3-cube, small paths) pin the behavior independently of the main pipeline.
"""

import numpy as np
import pytest

from octadesign.errors import NotCoherent, NotEquitable
from octadesign.scheme import (
    PairColoring,
    canonical_renumber,
    check_props,
    drg_analysis,
    dump_scheme,
    full_check_mode,
    gpbibd_check,
    intersection_tensor,
    invert_perm,
    load_pair_coloring,
    orbital_coloring,
    refines,
    transpose_map_of,
)


def coloring_from_matrix(rows):
    color = np.array(rows, dtype=np.int32)
    return PairColoring(n=color.shape[0], color=color, num_colors=int(color.max()) + 1)


def cyclic_translation_coloring(n=5):
    """color(x, y) = y - x mod n: the translation scheme of Z_n."""
    shift = np.array([(k + 1) % n for k in range(n)], dtype=np.int32)
    return orbital_coloring([shift], n)


def cube_distance_coloring():
    """Hamming-distance coloring of the 3-cube: a diameter-3 antipodal graph."""
    color = np.zeros((8, 8), dtype=np.int32)
    for x in range(8):
        for y in range(8):
            color[x, y] = bin(x ^ y).count("1")
    return PairColoring(n=8, color=color, num_colors=4)


def test_invert_perm():
    perm = np.array([2, 0, 1], dtype=np.int32)
    inv = invert_perm(perm)
    assert list(perm[inv]) == [0, 1, 2]


def test_canonical_renumber_first_occurrence():
    renum, count = canonical_renumber(np.array([[5, 3], [3, 7]]))
    assert count == 3
    assert renum.tolist() == [[0, 1], [1, 2]]


def test_orbital_coloring_identity_group():
    # Only the identity permutation: every cell is its own orbit.
    n = 5
    coloring = orbital_coloring([np.arange(n, dtype=np.int32)], n)
    assert coloring.num_colors == n * n


def test_orbital_coloring_cyclic_translations():
    coloring = cyclic_translation_coloring(5)
    assert coloring.num_colors == 5
    for x in range(5):
        for y in range(5):
            assert coloring.color[x, y] == (y - x) % 5


def test_cyclic_scheme_tensor_is_group_multiplication():
    coloring = cyclic_translation_coloring(5)
    config = intersection_tensor(coloring, mode="full")
    for i in range(5):
        for j in range(5):
            for k in range(5):
                expected = 1 if (i + j) % 5 == k else 0
                assert config.tensor[i, j, k] == expected
    props = check_props(config)
    assert props.commutative is True
    assert props.symmetric is False
    assert props.homogeneous is True
    tmap = config.transpose_map
    assert list(tmap) == [0, 4, 3, 2, 1]


def test_orbital_coloring_counts_from_pipeline(cache):
    assert cache.bundle(13).psl_config.coloring.num_colors == 6
    assert cache.bundle(9).psl_config.coloring.num_colors == 4


def test_identity_color_slice(cache):
    # p_{i j}^{identity} is the valency of i when j is the transpose of i,
    # and zero otherwise.
    config = cache.bundle(13).psl_config
    k0 = config.diagonal_colors[0]
    rank = config.coloring.num_colors
    tmap = config.transpose_map
    for i in range(rank):
        for j in range(rank):
            expected = int(config.valencies[i]) if j == tmap[i] else 0
            assert config.tensor[i, j, k0] == expected


def test_tensor_row_sums_are_valencies(cache):
    config = cache.bundle(13).full_config
    rank = config.coloring.num_colors
    sums = config.tensor.sum(axis=1)
    for i in range(rank):
        assert set(sums[i].tolist()) == {int(config.valencies[i])}


def test_full_and_sampled_modes_agree(cache):
    coloring = cache.bundle(13).psl_config.coloring
    full = intersection_tensor(coloring, mode="full")
    sampled = intersection_tensor(coloring, mode="sampled")
    assert np.array_equal(full.tensor, sampled.tensor)


def test_path_coloring_is_not_coherent():
    # Distance-0/1/2+ coloring of the path 0-1-2-3: the pair (0,2) has a
    # common neighbor but (0,3) has none, and both share a color.
    edges = {(0, 1), (1, 2), (2, 3)}
    rows = [
        [
            0 if x == y else (1 if (min(x, y), max(x, y)) in edges else 2)
            for y in range(4)
        ]
        for x in range(4)
    ]
    with pytest.raises(NotCoherent):
        intersection_tensor(coloring_from_matrix(rows), mode="full")


def test_transpose_split_color_is_not_coherent():
    # Color 1 sits at (0,1) and (0,2) but its transposed cells carry two
    # different colors, so no transpose map exists.
    rows = [
        [0, 1, 1],
        [2, 0, 2],
        [3, 2, 0],
    ]
    with pytest.raises(NotCoherent):
        transpose_map_of(coloring_from_matrix(rows))


def test_klein_translation_scheme_has_no_metric_relation():
    # XOR coloring of Z_2 x Z_2: three perfect matchings; every relation
    # disconnects the graph, so nothing is distance-regular of diameter 3.
    color = np.array([[x ^ y for y in range(4)] for x in range(4)], dtype=np.int32)
    coloring = PairColoring(n=4, color=color, num_colors=4)
    config = intersection_tensor(coloring, mode="full")
    props = check_props(config)
    assert props.symmetric and props.commutative and props.classes == 3
    assert drg_analysis(config) is None


def test_cube_distance_scheme_is_antipodal():
    config = intersection_tensor(cube_distance_coloring(), mode="full")
    result = drg_analysis(config)
    assert result is not None
    assert result["diameter"] == 3
    assert result["intersection_array"] == [3, 2, 1, 1, 2, 3]
    assert result["antipodal"] is True
    assert result["fold"] == 2
    assert result["cover_of"] == 4


def bfs_distances(neighbors, start, n):
    dist = [-1] * n
    dist[start] = 0
    frontier = [start]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for x in frontier:
            for y in neighbors[x]:
                if dist[y] < 0:
                    dist[y] = d
                    nxt.append(y)
        frontier = nxt
    return dist


def assert_distance_regular(adj_color, coloring, expected_array):
    """Breadth-first re-derivation of the intersection array, from scratch."""
    n = coloring.n
    neighbors = [
        [y for y in range(n) if coloring.color[x, y] == adj_color] for x in range(n)
    ]
    b0, b1, b2, c1, c2, c3 = expected_array
    bs, cs = [b0, b1, b2, None], [None, c1, c2, c3]
    for u in range(n):
        dist = bfs_distances(neighbors, u, n)
        assert max(dist) == 3
        for v in range(n):
            i = dist[v]
            down = sum(1 for w in neighbors[v] if dist[w] == i - 1)
            up = sum(1 for w in neighbors[v] if dist[w] == i + 1)
            if i > 0:
                assert down == cs[i]
            if i < 3:
                assert up == bs[i]


def test_q9_closure_has_double_cover(cache):
    config = cache.bundle(9).wl_trace.final
    result = drg_analysis(config)
    assert result is not None
    assert result["intersection_array"] == [9, 4, 1, 1, 4, 9]
    assert result["antipodal"] is True
    assert (result["fold"], result["cover_of"]) == (2, 10)
    assert_distance_regular(result["relation"], config.coloring, [9, 4, 1, 1, 4, 9])


def test_gpbibd_lambdas_q13(cache):
    bundle = cache.bundle(13)
    tally = gpbibd_check(bundle.design, bundle.psl_config.coloring)
    values = sorted(tally.values())
    assert values == [0, 0, 0, 1, 4, 13]  # identity carries r = 13


def test_gpbibd_rejects_merged_pair_classes(cache):
    design = cache.bundle(9).design
    n = design.n
    color = np.ones((n, n), dtype=np.int32)
    np.fill_diagonal(color, 0)
    with pytest.raises(NotEquitable):
        gpbibd_check(design, PairColoring(n=n, color=color, num_colors=2))


def test_refinement_order_q13(cache):
    from octadesign.wl import lambda_coloring

    bundle = cache.bundle(13)
    seed = lambda_coloring(bundle.design)
    psl = bundle.psl_config.coloring
    assert refines(psl, seed)
    assert not refines(seed, psl)
    assert refines(psl, psl)


def test_full_check_mode_threshold():
    assert full_check_mode(702) == "full"
    assert full_check_mode(703) == "sampled"
    assert full_check_mode(703, requested="full") == "full"
    assert full_check_mode(10, requested="sampled") == "sampled"


def test_dump_and_load_round_trip(tmp_path, cache):
    config = cache.bundle(9).psl_config
    path = tmp_path / "scheme9.txt"
    dump_scheme(config, str(path))
    loaded = load_pair_coloring(str(path))
    assert loaded.n == config.coloring.n
    assert loaded.num_colors == config.coloring.num_colors
    assert np.array_equal(loaded.color, config.coloring.color)


def test_load_rejects_malformed_files(tmp_path):
    cases = {
        "empty.txt": "",
        "header.txt": "4\n",
        "negative.txt": "0 1\n",
        "short_row.txt": "2 2\n0 1\n1\n",
        "out_of_range.txt": "2 2\n0 1\n1 2\n",
        "wrong_rank.txt": "2 3\n0 1\n1 0\n",
    }
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ValueError):
            load_pair_coloring(str(path))
