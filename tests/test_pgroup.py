"""Point classes and the group action: canonical forms, orbits, stabilizers."""

import random

import pytest

from octadesign.errors import ZeroVector
from octadesign.gf import field_create
from octadesign.pgroup import (
    PointSet,
    PslElement,
    frobenius_perm,
    generator_perms,
    group_order,
    identity_matrix,
    mulclose,
    octahedron_vertices,
    point_stabilizer_report,
    psl_generators,
    sigma_matrix,
    sigma_perm,
)
from octadesign.scheme import transversal

# Element-order multisets of the two relevant quotient groups.
TETRAHEDRAL_ORDERS = sorted([1, 2, 2, 2] + [3] * 8)
ICOSAHEDRAL_ORDERS = sorted([1] + [2] * 15 + [3] * 20 + [5] * 24)


def make_ps(q):
    from octadesign.gf import factor_prime_power

    p, alpha = factor_prime_power(q)
    return PointSet(field_create(p, alpha))


@pytest.mark.parametrize("q,n", [(5, 6), (9, 20), (13, 42), (25, 156)])
def test_point_count(q, n):
    ps = make_ps(q)
    assert len(ps) == n
    assert len({pt.key for pt in ps}) == n


def test_canonicalize_f5_class():
    # With i = 2 the class of (1,3) is {(1,3), (4,2), (2,1), (3,4)}.
    ps = make_ps(5)
    f = ps.field
    members = [(1, 3), (4, 2), (2, 1), (3, 4)]
    reps = {
        ps.canonicalize((f.element(a), f.element(b))) for a, b in members
    }
    assert len(reps) == 1
    rep = reps.pop()
    assert (rep[0].coeffs, rep[1].coeffs) == ((1,), (3,))


def test_canonicalize_scalar_axis():
    ps = make_ps(5)
    f = ps.field
    for a in [1, 2, 3, 4]:
        rep = ps.canonicalize((f.element(a), f.zero))
        assert (rep[0].coeffs, rep[1].coeffs) == ((1,), (0,))


def test_canonicalize_rejects_zero():
    ps = make_ps(13)
    with pytest.raises(ZeroVector):
        ps.canonicalize((ps.field.zero, ps.field.zero))


def test_canonicalize_idempotent_random():
    ps = make_ps(13)
    f = ps.field
    rng = random.Random(1)
    for _ in range(100):
        a, b = rng.randrange(13), rng.randrange(13)
        if a == 0 and b == 0:
            a = 1
        v = (f.element(a), f.element(b))
        rep = ps.canonicalize(v)
        assert ps.canonicalize(rep) == rep
        # The representative is the lex-least of the four scalar multiples.
        i = f.i_elem
        cls = [v, (-v[0], -v[1]), (i * v[0], i * v[1]), (-i * v[0], -i * v[1])]
        keys = sorted((x.coeffs, y.coeffs) for x, y in cls)
        assert (rep[0].coeffs, rep[1].coeffs) == keys[0]


def test_generators_count_and_unimodularity():
    assert len(psl_generators(field_create(13, 1))) == 2
    assert len(psl_generators(field_create(3, 2))) == 4
    assert len(psl_generators(field_create(3, 4))) == 8
    field = field_create(3, 2)
    for g in psl_generators(field):
        a, b, c, d = g.m
        assert a * d - b * c == field.one


def test_action_example():
    # [[1,1],[0,1]] sends the class of (0,1) to the class of (1,1).
    ps = make_ps(13)
    f = ps.field
    m = (f.one, f.one, f.zero, f.one)
    src = ps.index_of((f.zero, f.one))
    dst = ps.index_of((f.one, f.one))
    assert ps.act_index(m, src) == dst


def test_action_inverse_random_pairs():
    ps = make_ps(13)
    gens = psl_generators(ps.field)
    rng = random.Random(2)
    for _ in range(100):
        g = rng.choice(gens)
        for _ in range(rng.randrange(1, 4)):
            g = g * rng.choice(gens)
        idx = rng.randrange(len(ps))
        fwd = ps.act_index(g.m, idx)
        back = ps.act_index(g.inverse().m, fwd)
        assert back == idx


def test_identity_action_is_trivial():
    ps = make_ps(9)
    perm = ps.perm_of_matrix(identity_matrix(ps.field))
    assert list(perm) == list(range(len(ps)))


def test_psl_element_sign_canonical():
    field = field_create(13, 1)
    m = (field.element(2), field.one, field.element(3), field.element(8))
    # det = 16 - 3 = 13 = 0 -> not unimodular
    with pytest.raises(ValueError):
        PslElement.from_matrix(m)
    t = (field.one, field.one, field.zero, field.one)
    neg = tuple(-x for x in t)
    assert PslElement.from_matrix(t) == PslElement.from_matrix(neg)
    g = PslElement.from_matrix(t)
    assert (g * g.inverse()).is_identity()
    assert g.order() == 13  # transvections have order p


def test_group_order_formula():
    assert group_order(field_create(5, 1)) == 60
    assert group_order(field_create(3, 2)) == 360
    assert group_order(field_create(13, 1)) == 1092
    assert group_order(field_create(5, 2)) == 7800


def test_mulclose_f5_is_icosahedral():
    # The transvections generate the full group; for q = 5 that group is
    # the order-60 simple group, whose element orders are 1, 2, 3, 5 with
    # multiplicities 1, 15, 20, 24.
    field = field_create(5, 1)
    group = mulclose(psl_generators(field))
    assert len(group) == 60
    assert sorted(g.order() for g in group) == ICOSAHEDRAL_ORDERS


def test_mulclose_matches_order_formula():
    field = field_create(3, 2)
    assert len(mulclose(psl_generators(field))) == 360


def test_point_transitivity():
    for q in [9, 13]:
        ps = make_ps(q)
        orbits, _ = transversal(generator_perms(ps), len(ps))
        assert [len(orbit) for orbit in orbits] == [len(ps)]
        assert orbits[0][0] == 0


@pytest.mark.parametrize("q", [5, 9, 13, 25])
def test_point_stabilizer(q):
    ps = make_ps(q)
    rep = point_stabilizer_report(ps)
    assert rep["order"] == 2 * q
    assert rep["index"] == len(ps)
    assert rep["shape_verified"] is True


def test_frobenius_trivial_on_prime_field():
    ps = make_ps(13)
    assert list(frobenius_perm(ps)) == list(range(len(ps)))


def test_frobenius_involution_on_f9():
    ps = make_ps(9)
    phi = frobenius_perm(ps)
    assert list(phi) != list(range(len(ps)))
    assert list(phi[phi]) == list(range(len(ps)))


def test_octahedron_vertices_distinct():
    for q in [5, 9, 13, 25]:
        ps = make_ps(q)
        verts = octahedron_vertices(ps)
        assert len({v.index for v in verts}) == 6


def test_octahedron_vertices_first_is_axis():
    ps = make_ps(13)
    verts = octahedron_vertices(ps)
    f = ps.field
    assert verts[0].index == ps.index_of((f.one, f.zero))
    assert verts[1].index == ps.index_of((f.zero, f.one))


@pytest.mark.parametrize("q", [5, 9, 13, 25])
def test_sigma_contract(q):
    # The function checks its own contract; it must not raise, and the
    # advertised cycle structure on the block must hold.
    ps = make_ps(q)
    perm = sigma_perm(ps)
    v = [pt.index for pt in octahedron_vertices(ps)]
    assert perm[v[0]] == v[0]
    assert perm[v[5]] == v[5]
    assert perm[v[1]] == v[2]
    assert perm[v[2]] == v[3]
    assert perm[v[3]] == v[4]
    assert perm[v[4]] == v[1]
    # Fourth power restores every vertex.
    p4 = perm[perm[perm[perm]]]
    for idx in v:
        assert p4[idx] == idx


def test_sigma_matrix_determinant():
    field = field_create(13, 1)
    a, b, c, d = sigma_matrix(field)
    assert a * d - b * c == field.i_elem

