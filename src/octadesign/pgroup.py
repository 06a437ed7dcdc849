"""The point set (F_q^2 minus 0)/<i> and the PSL(2,q) action on it.

Nonzero vectors are identified when they differ by a power of i, a fixed
primitive fourth root of unity.  Each class of four vectors is stored by its
lex-least member.  PSL(2,q) elements are unimodular 2x2 matrices modulo sign,
again stored by the lex-least of the two signed forms.  Heavy computations
never touch field elements: every matrix of interest is converted once into
a permutation of point indices (a numpy int32 array).
"""

from __future__ import annotations

import numpy as np

from .errors import (
    BadCongruence,
    ConsistencyError,
    CountMismatch,
    NotDivisor,
    ZeroVector,
)
from .gf import Field, FieldElement

Matrix = tuple[FieldElement, FieldElement, FieldElement, FieldElement]


class ProjPoint:
    """One class of four nonzero vectors, kept by its lex-least member."""

    __slots__ = ("rep", "index")

    def __init__(self, rep, index: int):
        self.rep = rep
        self.index = index

    def __eq__(self, other):
        return isinstance(other, ProjPoint) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def key(self):
        return (self.rep[0].coeffs, self.rep[1].coeffs)

    def __repr__(self):
        return f"[{self.rep[0]!r}:{self.rep[1]!r}]#{self.index}"


class PointSet:
    """All points in lex order, with index lookup and matrix actions."""

    def __init__(self, field: Field):
        if field.q % 4 != 1:
            raise BadCongruence(f"q = {field.q} is not 1 mod 4")
        self.field = field
        self.i = field.i_elem
        self.points: list[ProjPoint] = []
        self._index: dict[tuple, int] = {}
        for a in field.elements():
            for b in field.elements():
                if a.is_zero() and b.is_zero():
                    continue
                rep = self.canonicalize((a, b))
                if rep[0] == a and rep[1] == b:
                    idx = len(self.points)
                    self.points.append(ProjPoint(rep, idx))
                    self._index[(a.coeffs, b.coeffs)] = idx
        self.n = len(self.points)
        expected = (field.q**2 - 1) // 4
        if self.n != expected:
            raise CountMismatch("point count", expected, self.n)

    def canonicalize(self, v) -> tuple[FieldElement, FieldElement]:
        """Lex-least of the four scalings of v by powers of i."""
        a, b = v
        if a.is_zero() and b.is_zero():
            raise ZeroVector("the zero vector has no projective class")
        ia, ib = self.i * a, self.i * b
        cands = ((a, b), (-a, -b), (ia, ib), (-ia, -ib))
        return min(cands, key=lambda ab: (ab[0].coeffs, ab[1].coeffs))

    def index_of(self, v) -> int:
        rep = self.canonicalize(v)
        return self._index[(rep[0].coeffs, rep[1].coeffs)]

    def point_of(self, v) -> ProjPoint:
        return self.points[self.index_of(v)]

    def act_index(self, m: Matrix, idx: int) -> int:
        a, b = self.points[idx].rep
        return self.index_of((m[0] * a + m[1] * b, m[2] * a + m[3] * b))

    def perm_of_matrix(self, m: Matrix) -> np.ndarray:
        """Permutation of point indices induced by an invertible matrix."""
        out = np.empty(self.n, dtype=np.int32)
        for idx in range(self.n):
            out[idx] = self.act_index(m, idx)
        return out

    def __len__(self):
        return self.n

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, idx):
        return self.points[idx]


class PslElement:
    """A PSL(2,q) element: a determinant-one matrix up to global sign."""

    __slots__ = ("m",)

    def __init__(self, m: Matrix):
        self.m = m

    @classmethod
    def from_matrix(cls, m: Matrix) -> "PslElement":
        det = m[0] * m[3] - m[1] * m[2]
        field = m[0].field
        if det != field.one:
            raise ValueError(f"matrix has determinant {det!r}, not 1")
        neg = tuple(-e for e in m)
        key = tuple(e.coeffs for e in m)
        negkey = tuple(e.coeffs for e in neg)
        return cls(m if key <= negkey else neg)

    def __mul__(self, other: "PslElement") -> "PslElement":
        a, b, c, d = self.m
        e, f, g, h = other.m
        return PslElement.from_matrix(
            (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
        )

    def inverse(self) -> "PslElement":
        a, b, c, d = self.m
        return PslElement.from_matrix((d, -b, -c, a))

    def is_identity(self) -> bool:
        a, b, c, d = self.m
        one = a.field.one
        return b.is_zero() and c.is_zero() and a == d and a * a == one

    def order(self) -> int:
        power = self
        for k in range(1, 4 * self.m[0].field.q + 1):
            if power.is_identity():
                return k
            power = power * self
        raise ConsistencyError("element order exceeded the group exponent bound")

    def key(self):
        return tuple(e.coeffs for e in self.m)

    def __eq__(self, other):
        return isinstance(other, PslElement) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        a, b, c, d = self.m
        return f"[[{a!r},{b!r}],[{c!r},{d!r}]]"


def identity_matrix(field: Field) -> Matrix:
    return (field.one, field.zero, field.zero, field.one)


def psl_generators(field: Field) -> list[PslElement]:
    """The 2*alpha transvection generators, upper then lower for each power."""
    gens = []
    for k in range(field.alpha):
        wk = field.omega**k
        gens.append(PslElement.from_matrix((field.one, wk, field.zero, field.one)))
        gens.append(PslElement.from_matrix((field.one, field.zero, wk, field.one)))
    return gens


def generator_perms(ps: PointSet) -> list[np.ndarray]:
    return [ps.perm_of_matrix(g.m) for g in psl_generators(ps.field)]


def group_order(field: Field) -> int:
    q = field.q
    return q * (q * q - 1) // 2


def mulclose(gens: list[PslElement]) -> list[PslElement]:
    """Breadth-first closure of a generating set under multiplication."""
    ident = PslElement.from_matrix(identity_matrix(gens[0].m[0].field))
    seen = {ident}
    order = [ident]
    frontier = [ident]
    while frontier:
        new = []
        for g in frontier:
            for h in gens:
                gh = g * h
                if gh not in seen:
                    seen.add(gh)
                    order.append(gh)
                    new.append(gh)
        frontier = new
    return order


def frobenius_perm(ps: PointSet) -> np.ndarray:
    """Coordinate-wise p-th power followed by canonicalization."""
    p = ps.field.p
    out = np.empty(ps.n, dtype=np.int32)
    for idx, pt in enumerate(ps.points):
        a, b = pt.rep
        out[idx] = ps.index_of((a**p, b**p))
    return out


def octahedron_vertices(ps: PointSet) -> list[ProjPoint]:
    """The six vertices of the basic block, in the fixed listed order.

    Order matters: vertices 0 and 5 span one main diagonal, 1 and 3 another,
    2 and 4 the third.
    """
    f = ps.field
    one, i = f.one, f.i_elem
    vecs = [
        (one, f.zero),
        (f.zero, one),
        (one, one),
        (one + i, one),
        (i, one),
        (one, one - i),
    ]
    return [ps.point_of(v) for v in vecs]


def sigma_matrix(field: Field) -> Matrix:
    """The extra involution comes from this determinant-i matrix."""
    return (field.i_elem, field.one, field.zero, field.one)


def sigma_perm(ps: PointSet) -> np.ndarray:
    """Permutation of the matrix [[i,1],[0,1]], checked against its contract.

    The contract pins the action on the basic block: vertices (1,0) and
    (1,1-i) stay fixed, the equatorial square cycles, and the square of the
    permutation equals the permutation of a specific unimodular matrix.
    """
    perm = ps.perm_of_matrix(sigma_matrix(ps.field))
    f = ps.field
    v0, v1, v2, v3, v4, v5 = (v.index for v in octahedron_vertices(ps))
    cycle_ok = (
        perm[v0] == v0
        and perm[v5] == v5
        and perm[v1] == v2
        and perm[v2] == v3
        and perm[v3] == v4
        and perm[v4] == v1
    )
    if not cycle_ok:
        raise ConsistencyError("sigma does not act on the basic block as required")
    sq_target = PslElement.from_matrix(
        (-f.i_elem, -f.one + f.i_elem, f.zero, f.i_elem)
    )
    if not np.array_equal(perm[perm], ps.perm_of_matrix(sq_target.m)):
        raise ConsistencyError("sigma squared is not the expected group element")
    return perm


def point_stabilizer_report(ps: PointSet) -> dict:
    """Order and shape of the stabilizer of the class of (1,0).

    The stabilizer consists of the upper triangular matrices
    [[u, x], [0, 1/u]] with u a power of i, which give 2q distinct elements
    modulo sign.
    """
    f = ps.field
    order = group_order(f)
    if order % ps.n != 0:
        raise NotDivisor(f"group order {order} not divisible by {ps.n} points")
    stab_order = order // ps.n
    if stab_order != 2 * f.q:
        raise CountMismatch("point stabilizer order", 2 * f.q, stab_order)
    base = ps.index_of((f.one, f.zero))
    elements = set()
    for u in (f.one, f.i_elem):
        uinv = u.inverse()
        for x in f.elements():
            g = PslElement.from_matrix((u, x, f.zero, uinv))
            if ps.act_index(g.m, base) != base:
                raise ConsistencyError(f"{g!r} does not fix the base point")
            elements.add(g)
    if len(elements) != stab_order:
        raise CountMismatch("distinct stabilizer elements", stab_order, len(elements))
    return {"order": stab_order, "index": ps.n, "shape_verified": True}
