"""The block design: orbit of the basic octahedron under PSL(2,q).

Blocks are six-point sets carrying a partition of their point pairs into
twelve edges and three diagonals.  The orbit is grown breadth-first; when a
new block is discovered as the image of an old one, its diagonal partition
is the image of the parent's.  Outside characteristic 5 the labels are
intrinsic (a pair is a diagonal of every block containing it, and the two
labels have different concurrence counts); in characteristic 5 every
adjacent pair lies in a single block and the labels are only per-block
bookkeeping.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import counting, pgroup
from .errors import (
    BadInput,
    CountMismatch,
    DegenerateBlock,
    LabelClash,
    NotDivisor,
)
from .gf import Field
from .pgroup import PointSet, PslElement


@dataclass(frozen=True)
class Block:
    """Six point indices plus the three diagonal pairs, all sorted."""

    points: tuple[int, ...]
    diagonals: tuple[tuple[int, int], ...]

    def pairs(self):
        pts = self.points
        for s in range(6):
            for t in range(s + 1, 6):
                yield (pts[s], pts[t])

    def edges(self):
        diag = set(self.diagonals)
        return [pr for pr in self.pairs() if pr not in diag]


@dataclass(frozen=True)
class DesignParams:
    v: int
    b: int
    r: int
    k: int
    m: int
    lambda_by_class: dict
    degenerate: bool


@dataclass
class Design:
    field: Field
    point_set: PointSet
    blocks: list
    point_to_blocks: list
    lambda_of_pair: dict
    edge_pairs: set
    diag_pairs: set
    params: DesignParams | None = dc_field(default=None)

    @property
    def n(self) -> int:
        return self.point_set.n


def basic_block(ps: PointSet) -> Block:
    """The octahedron on the six fixed vertex classes."""
    verts = [v.index for v in pgroup.octahedron_vertices(ps)]
    if len(set(verts)) != 6:
        raise DegenerateBlock(f"basic block has {len(set(verts))} distinct points")
    diag_vertex_pairs = ((0, 5), (1, 3), (2, 4))
    diags = tuple(
        sorted(tuple(sorted((verts[s], verts[t]))) for s, t in diag_vertex_pairs)
    )
    return Block(points=tuple(sorted(verts)), diagonals=diags)


def build_design(field: Field, ps: PointSet | None = None, perms: list | None = None) -> Design:
    """Grow the block orbit under the generator_perms `perms` (built when not
    given) and collect concurrence and label data."""
    if ps is None:
        ps = PointSet(field)
    if perms is None:
        perms = pgroup.generator_perms(ps)
    perms = [g.tolist() for g in perms]
    start = basic_block(ps)
    visited = {start.points}
    blocks = [start]
    queue = deque([start])
    while queue:
        blk = queue.popleft()
        for g in perms:
            pts = tuple(sorted(g[x] for x in blk.points))
            if pts in visited:
                continue
            visited.add(pts)
            diags = tuple(
                sorted(tuple(sorted((g[a], g[b]))) for a, b in blk.diagonals)
            )
            img = Block(points=pts, diagonals=diags)
            blocks.append(img)
            queue.append(img)

    point_to_blocks = [[] for _ in range(ps.n)]
    lambda_of_pair: dict = {}
    edge_pairs: set = set()
    diag_pairs: set = set()
    for bi, blk in enumerate(blocks):
        for x in blk.points:
            point_to_blocks[x].append(bi)
        diag = set(blk.diagonals)
        for pr in blk.pairs():
            lambda_of_pair[pr] = lambda_of_pair.get(pr, 0) + 1
            (diag_pairs if pr in diag else edge_pairs).add(pr)
    if field.p != 5 and (edge_pairs & diag_pairs):
        clash = sorted(edge_pairs & diag_pairs)[:3]
        raise LabelClash(f"pairs labeled both edge and diagonal: {clash}")
    return Design(
        field=field,
        point_set=ps,
        blocks=blocks,
        point_to_blocks=point_to_blocks,
        lambda_of_pair=lambda_of_pair,
        edge_pairs=edge_pairs,
        diag_pairs=diag_pairs,
    )


def design_params(field: Field) -> DesignParams:
    """The closed-form parameters that verify_counts checks a design against."""
    expect = counting.design_counts(field.p, field.alpha)
    return DesignParams(
        v=expect["v"],
        b=expect["b"],
        r=expect["r"],
        k=6,
        m=expect["m"],
        lambda_by_class=dict(expect["lambda_by_class"]),
        degenerate=(expect["b"] == 1),
    )


def verify_counts(design: Design) -> DesignParams:
    """Check every counted quantity against its closed form."""
    f = design.field
    params = design_params(f)
    v, b, r = design.n, len(design.blocks), params.r
    if v != params.v:
        raise CountMismatch("v", params.v, v)
    if b != params.b:
        raise CountMismatch("b", params.b, b)
    for blk in design.blocks:
        if len(set(blk.points)) != 6:
            raise CountMismatch("block size", 6, len(set(blk.points)))
    replication = {len(lst) for lst in design.point_to_blocks}
    if replication != {r}:
        raise CountMismatch("r", {r}, replication)
    if b * 6 != v * r:
        raise CountMismatch("b*k", v * r, b * 6)
    total = sum(design.lambda_of_pair.values())
    if total != 15 * b:
        raise CountMismatch("sum of pair concurrences", 15 * b, total)
    if f.p == 5:
        bad = {lam for lam in design.lambda_of_pair.values() if lam != 1}
        if bad:
            raise CountMismatch("adjacent concurrence", {1}, bad)
    else:
        for pr in design.edge_pairs:
            if design.lambda_of_pair[pr] != 4:
                raise CountMismatch(f"edge concurrence {pr}", 4, design.lambda_of_pair[pr])
        for pr in design.diag_pairs:
            if design.lambda_of_pair[pr] != 1:
                raise CountMismatch(f"diagonal concurrence {pr}", 1, design.lambda_of_pair[pr])
        labeled = len(design.edge_pairs) + len(design.diag_pairs)
        if labeled != len(design.lambda_of_pair):
            raise CountMismatch("labeled pairs", len(design.lambda_of_pair), labeled)
    design.params = params
    return params


def census_counts(field: Field) -> dict | None:
    """Closed-form pair-class census, or None in characteristic 5.

    edge_diagonal_census checks a design against it.  In characteristic 5
    the pair classes are not intrinsic.
    """
    if field.p == 5:
        return None
    expect = counting.design_counts(field.p, field.alpha)
    return {
        "edges": expect["edge_pairs"],
        "diagonals": expect["diagonal_pairs"],
        "blocks_per_edge": 4,
        "blocks_per_diagonal": 1,
    }


def edge_diagonal_census(design: Design) -> dict:
    """Pair-class counts for characteristic other than 5."""
    census = census_counts(design.field)
    if census is None:
        raise BadInput("edge/diagonal classes are not intrinsic in characteristic 5")
    ne, nd = len(design.edge_pairs), len(design.diag_pairs)
    if ne != census["edges"]:
        raise CountMismatch("edge count", census["edges"], ne)
    if nd != census["diagonals"]:
        raise CountMismatch("diagonal count", census["diagonals"], nd)
    per_edge = {design.lambda_of_pair[pr] for pr in design.edge_pairs}
    per_diag = {design.lambda_of_pair[pr] for pr in design.diag_pairs}
    if per_edge != {4}:
        raise CountMismatch("blocks per edge", {4}, per_edge)
    if per_diag != {1}:
        raise CountMismatch("blocks per diagonal", {1}, per_diag)
    return census


def block_rotation_reps(field: Field) -> list[PslElement]:
    """Twelve explicit unimodular matrices rotating the basic octahedron."""
    one, i, zero = field.one, field.i_elem, field.zero
    mats = [
        (one, zero, zero, one),
        (zero, -i, -i, -one),
        (-one, i, i, zero),
        (-i, zero, -one - i, i),
        (-one + i, one, i, -i),
        (one, -one, one, zero),
        (one, -one - i, one - i, -one),
        (-one - i, i, -one, i),
        (i, one, i, one - i),
        (-i, -one + i, zero, i),
        (zero, one, -one, one),
        (i, -i, one, -one - i),
    ]
    return [PslElement.from_matrix(m) for m in mats]


def block_stabilizer_elements(ps: PointSet) -> list[PslElement]:
    """Setwise stabilizer of the basic block, solved from a frame.

    (1,0) and (0,1) are block vertices, so every stabilizer element is a
    matrix [s*u1 | t*u2] whose columns are scaled representatives of two
    distinct vertices, with s and t powers of i and s*t*det(u1, u2) = 1.
    That leaves at most 30 * 4 candidates at every q; a candidate is kept
    when it also maps the other four vertices into the block.
    """
    f = ps.field
    base = basic_block(ps)
    pts = set(base.points)
    verts = [ps.points[x].rep for x in base.points]
    frame = {ps.index_of((f.one, f.zero)), ps.index_of((f.zero, f.one))}
    rest = [x for x in base.points if x not in frame]
    units = [f.one, f.i_elem, -f.one, -f.i_elem]  # units[k] = i^k
    solved = {}
    for u1, u2 in itertools.permutations(verts, 2):
        det = u1[0] * u2[1] - u2[0] * u1[1]
        if det not in units:
            continue
        j = units.index(det)
        for k, s in enumerate(units):
            t = units[(-j - k) % 4]
            m = (s * u1[0], t * u2[0], s * u1[1], t * u2[1])
            if all(ps.act_index(m, x) in pts for x in rest):
                solved.setdefault(PslElement.from_matrix(m))
    return list(solved)


def block_stabilizer_report(design: Design) -> dict:
    """Setwise stabilizer of the basic block: order and element structure.

    The frame solution is certified: its size is the orbit-stabilizer order,
    it is the closure of a greedy generating subset of itself, and outside
    characteristic 5 it holds the twelve explicit rotation representatives.
    """
    f = design.field
    g_order = pgroup.group_order(f)
    b = len(design.blocks)
    if g_order % b != 0:
        raise NotDivisor(f"group order {g_order} not divisible by {b} blocks")
    order = g_order // b
    expect = counting.design_counts(f.p, f.alpha)["block_stabilizer_order"]
    if order != expect:
        raise CountMismatch("block stabilizer order", expect, order)

    solved = block_stabilizer_elements(design.point_set)
    if len(solved) != order:
        raise CountMismatch("stabilizer elements solved from the frame", order, len(solved))
    # Greedy generators, highest element order first: two suffice for A4
    # (two 3-cycles) and for A5 (two 5-cycles).
    order_of = {g: g.order() for g in solved}
    gens: list = []
    closure = {PslElement.from_matrix(pgroup.identity_matrix(f))}
    for g in sorted(solved, key=lambda g: -order_of[g]):
        if g not in closure:
            gens.append(g)
            closure = set(pgroup.mulclose(gens))
    if closure != order_of.keys():
        raise CountMismatch("closure of the solved stabilizer", order, len(closure))
    orders = sorted(order_of.values())

    explicit = None
    if f.p != 5:
        reps = set(block_rotation_reps(f))
        if len(reps) != 12:
            raise CountMismatch("distinct rotation representatives", 12, len(reps))
        explicit = reps <= order_of.keys()
        if not explicit:
            raise CountMismatch("rotation representatives fixing the block", 12,
                                len(reps & order_of.keys()))
    return {
        "order": order,
        "element_orders": orders,
        "has_order_six_element": 6 in orders,
        "explicit_reps_verified": explicit,
    }


def lambda_matrix(design: Design, diagonal: str = "r") -> np.ndarray:
    """Dense symmetric concurrence matrix; diagonal holds r or zero."""
    n = design.n
    lam = np.zeros((n, n), dtype=np.int16)
    for (a, b), count in design.lambda_of_pair.items():
        lam[a, b] = count
        lam[b, a] = count
    if diagonal == "r":
        np.fill_diagonal(lam, len(design.point_to_blocks[0]))
    elif diagonal != "zero":
        raise ValueError(f"unknown diagonal mode {diagonal!r}")
    return lam


def dump_design(design: Design, path: str) -> None:
    """Write "q v b" then one line per block: six points | three diagonals."""
    lines = [f"{design.field.q} {design.n} {len(design.blocks)}"]
    for blk in design.blocks:
        pts = " ".join(str(x) for x in blk.points)
        diags = " ".join(f"{a}-{b}" for a, b in blk.diagonals)
        lines.append(f"{pts} | {diags}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
