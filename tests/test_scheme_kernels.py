"""The scheme layer's n^2 kernels against their direct reference versions.

scheme_oracle holds minimum-label orbitals over all n*n cells and the
sort-based color bookkeeping; the library builds orbitals from one row per
point orbit and replaces the sorts with scatter-then-verify passes.  Both
must give the same results, and fail with the same exception types.
"""

import numpy as np
import pytest

import scheme_oracle as oracle
from octadesign import scheme
from octadesign.errors import ConsistencyError, NotCoherent, NotEquitable
from octadesign.scheme import (
    PairColoring,
    _color_representatives,
    canonical_renumber,
    gpbibd_check,
    invariance_violation,
    orbital_coloring,
    refines,
    transpose_map_of,
)

MEMBERS_TO_49 = [5, 9, 13, 17, 25, 29, 37, 41, 49]


def assert_same_coloring(got, want):
    assert got.n == want.n
    assert got.num_colors == want.num_colors
    assert got.color.dtype == want.color.dtype
    assert np.array_equal(got.color, want.color)


@pytest.mark.parametrize("q", MEMBERS_TO_49)
def test_orbital_colorings_match_oracle(cache, q):
    bundle = cache.bundle(q)
    n = bundle.point_set.n
    psl = bundle.generator_perms
    full = psl + [bundle.frobenius, bundle.sigma]
    assert_same_coloring(bundle.psl_config.coloring, oracle.orbital_coloring(psl, n))
    assert_same_coloring(bundle.full_config.coloring, oracle.orbital_coloring(full, n))


def _perm(images):
    return np.array(images, dtype=np.int32)


SYNTHETIC_GROUPS = {
    "identity": ([_perm(range(5))], 5),
    "cyclic shift": ([_perm([1, 2, 3, 4, 5, 6, 0])], 7),
    "two point orbits": ([_perm([1, 2, 0, 4, 3])], 5),
    # S3 on {0, 1, 2} and on {3, 4, 5} in parallel, with 6 fixed
    "three orbits, two generators": (
        [_perm([1, 2, 0, 4, 5, 3, 6]), _perm([1, 0, 2, 4, 3, 5, 6])], 7),
    # dihedral group of the hexagon: nontrivial point stabilizers
    "dihedral": ([_perm([1, 2, 3, 4, 5, 0]), _perm([0, 5, 4, 3, 2, 1])], 6),
}


@pytest.mark.parametrize("name", sorted(SYNTHETIC_GROUPS))
def test_orbital_coloring_synthetic_groups(name):
    perms, n = SYNTHETIC_GROUPS[name]
    assert_same_coloring(orbital_coloring(perms, n), oracle.orbital_coloring(perms, n))


def test_point_orbits_from_the_transversal():
    perms, n = SYNTHETIC_GROUPS["three orbits, two generators"]
    orbits, tinv = scheme.transversal(perms, n)
    assert [sorted(orbit.tolist()) for orbit in orbits] == [[0, 1, 2], [3, 4, 5], [6]]
    for orbit in orbits:
        x = orbit[0]
        for z in orbit:
            assert tinv[z][z] == x  # row z is g_z^-1 with g_z(x) = z
            assert sorted(tinv[z].tolist()) == list(range(n))


def test_orbital_coloring_doubles_schreier_generators(monkeypatch, cache):
    # One Schreier generator is too few for PSL(2, 9); the certificate
    # fails and the count doubles until the coloring is proved.
    calls = []
    real = scheme.invariance_violation

    def counted(color, perms):
        calls.append(1)
        return real(color, perms)

    monkeypatch.setattr(scheme, "SCHREIER_START", 1)
    monkeypatch.setattr(scheme, "invariance_violation", counted)
    for q in (9, 13, 25):
        bundle = cache.bundle(q)
        perms = bundle.generator_perms
        got = orbital_coloring(perms, bundle.point_set.n)
        assert_same_coloring(got, oracle.orbital_coloring(perms, bundle.point_set.n))
    assert len(calls) > 3


def test_certificate_rejects_a_coloring_that_is_not_invariant():
    perms, n = SYNTHETIC_GROUPS["dihedral"]
    good = orbital_coloring(perms, n).color
    assert invariance_violation(good, perms) is None
    bad = good.copy()
    bad[2, 4] = bad[0, 0]
    k, x, y = invariance_violation(bad, perms)
    s = perms[k]
    assert bad[s[x], s[y]] != bad[x, y]


def test_orbital_coloring_fails_when_the_certificate_never_holds(monkeypatch):
    perms, n = SYNTHETIC_GROUPS["dihedral"]
    monkeypatch.setattr(scheme, "invariance_violation", lambda color, perms: (1, 2, 4))
    with pytest.raises(ConsistencyError, match=r"generator 1 at cell \(2, 4\)"):
        orbital_coloring(perms, n)


def random_colorings(seed):
    """Canonically numbered colorings: orbital, symmetric and arbitrary."""
    rng = np.random.default_rng(seed)
    out = []
    for n in (3, 5, 8):
        perm = rng.permutation(n).astype(np.int32)
        out.append(orbital_coloring([perm], n))
        for rank in (2, 3, 6):
            raw = rng.integers(0, rank, size=(n, n))
            for matrix in (raw, np.minimum(raw, raw.T)):
                color, num = canonical_renumber(matrix)
                out.append(PairColoring(n=n, color=color, num_colors=num))
    return out


def outcome(func, *args):
    """The result, or the exception's type and message."""
    try:
        return "ok", func(*args)
    except ConsistencyError as exc:
        return type(exc), str(exc)


def assert_same_outcome(got, want):
    assert got[0] == want[0]
    if got[0] != "ok":
        assert got[1] == want[1]
    elif isinstance(want[1], list):
        assert len(got[1]) == len(want[1])
        for a, b in zip(got[1], want[1]):
            assert np.array_equal(a, b)
    elif isinstance(want[1], np.ndarray):
        assert np.array_equal(got[1], want[1])
    else:
        assert got[1] == want[1]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_kernels_match_oracle_on_random_colorings(seed):
    rng = np.random.default_rng(100 + seed)
    colorings = random_colorings(seed)
    kinds = set()
    for coloring in colorings:
        tmap = outcome(transpose_map_of, coloring)
        kinds.add(tmap[0])
        assert_same_outcome(tmap, outcome(oracle.transpose_map_of, coloring))
        for want in (1, 2, 6):
            assert_same_outcome(outcome(_color_representatives, coloring, want),
                                outcome(oracle.color_representatives, coloring, want))
        for other in colorings:
            if other.n == coloring.n:
                assert refines(coloring, other) == oracle.refines(coloring, other)
        n, rank = coloring.n, coloring.num_colors
        per_color = rng.integers(0, 4, size=rank)
        per_color_symmetric = per_color.copy()
        if tmap[0] == "ok":
            per_color_symmetric = np.maximum(per_color, per_color[tmap[1]])
        for lam in (per_color[coloring.color], per_color_symmetric[coloring.color],
                    rng.integers(0, 3, size=(n, n))):
            lam = lam.astype(np.int16)
            got = outcome(gpbibd_check, None, coloring, lam)
            kinds.add(got[0])
            assert_same_outcome(got, outcome(oracle.gpbibd_check, None, coloring, lam))
    # the inputs reach the success paths and both failure types
    assert {"ok", NotCoherent, NotEquitable} <= kinds


def test_transpose_map_with_a_missing_color():
    coloring = PairColoring(n=2, color=np.array([[0, 1], [1, 0]], dtype=np.int32),
                            num_colors=3)
    assert_same_outcome(outcome(transpose_map_of, coloring),
                        outcome(oracle.transpose_map_of, coloring))
    assert_same_outcome(outcome(_color_representatives, coloring, 2),
                        outcome(oracle.color_representatives, coloring, 2))


def test_kernels_sort_no_n_squared_array(monkeypatch, cache):
    bundle = cache.bundle(25)
    n = bundle.point_set.n
    for name in ("unique", "sort", "argsort"):
        real = getattr(np, name)

        def guarded(a, *args, _real=real, _name=name, **kwargs):
            assert np.size(a) < n * n, f"np.{_name} on {np.size(a)} elements"
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np, name, guarded)
    coloring = orbital_coloring(bundle.generator_perms, n)
    transpose_map_of(coloring)
    _color_representatives(coloring, 6)
    gpbibd_check(bundle.design, coloring, bundle.concurrence)
    assert refines(coloring, bundle.lambda_coloring)
