"""Pair colorings, orbital schemes, and coherence verification.

A pair coloring partitions the n*n cells of the point-pair space.  Orbital
colorings come from a permutation group acting on pairs: labels start as the
cell index and flow to the orbit minimum along generator images, so the
final label of an orbit is its first cell in row-major order.  Coherence of
a coloring is certified by computing intersection numbers from one
representative cell per color and re-checking them against further
representatives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import design as design_mod
from .errors import CountMismatch, NotCoherent, NotDivisor, NotEquitable

FULL_CHECK_REPS = 6
SAMPLED_CHECK_REPS = 2
# Full re-verification is the default up to this many points (covers the
# largest design the test suite checks exhaustively).
FULL_CHECK_MAX_POINTS = 702


@dataclass
class PairColoring:
    """A coloring of the n*n pair cells with colors 0..num_colors-1."""

    n: int
    color: np.ndarray
    num_colors: int


@dataclass
class SchemeProps:
    rank: int
    classes: int
    homogeneous: bool
    symmetric: bool
    commutative: bool


@dataclass
class CoherentConfig:
    coloring: PairColoring
    tensor: np.ndarray
    diagonal_colors: tuple
    transpose_map: np.ndarray
    valencies: np.ndarray | None
    check_level: str


def canonical_renumber(raw: np.ndarray) -> tuple[np.ndarray, int]:
    """Renumber labels to 0,1,... in order of first row-major occurrence."""
    flat = np.asarray(raw).ravel()
    uniq, first, inverse = np.unique(flat, return_index=True, return_inverse=True)
    rank_of = np.empty(len(uniq), dtype=np.int64)
    rank_of[np.argsort(first, kind="stable")] = np.arange(len(uniq))
    out = rank_of[inverse].reshape(np.asarray(raw).shape).astype(np.int32)
    return out, len(uniq)


def invert_perm(perm: np.ndarray) -> np.ndarray:
    inv = np.empty(len(perm), dtype=np.int32)
    inv[perm] = np.arange(len(perm), dtype=np.int32)
    return inv


def _cell_label_dtype(n: int) -> type:
    """int32 while every cell index of an n*n array fits, else int64."""
    return np.int32 if n * n < 2**31 else np.int64


def orbital_coloring(perms: list[np.ndarray], n: int) -> PairColoring:
    """Orbits of a permutation group on ordered pairs, canonically numbered.

    Minimum-label propagation: each cell starts as its own label and
    repeatedly takes the minimum over its images under each generator and
    its inverse, with pointer jumping between sweeps.  Labels only decrease,
    so an unchanged full sweep is a fixpoint; at the fixpoint every orbit
    carries its minimal cell index.
    """
    both = []
    for g in perms:
        g32 = np.asarray(g, dtype=np.int32)
        both.append(g32)
        both.append(invert_perm(g32))
    labels = np.arange(n * n, dtype=_cell_label_dtype(n)).reshape(n, n)
    prev_total = None
    while True:
        for g in both:
            np.minimum(labels, labels[g][:, g], out=labels)
        flat = labels.ravel()
        for _ in range(3):
            jumped = flat[flat]
            if np.array_equal(jumped, flat):
                break
            flat[:] = jumped
        total = int(flat.sum(dtype=np.int64))
        if total == prev_total:
            break
        prev_total = total
    color, num = canonical_renumber(labels)
    return PairColoring(n=n, color=color, num_colors=num)


def transpose_map_of(coloring: PairColoring) -> np.ndarray:
    """Map each color to the color of the transposed cells, or fail."""
    rank = coloring.num_colors
    flat = coloring.color.ravel().astype(np.int64)
    flat_t = coloring.color.T.ravel()
    keys = np.unique(flat * rank + flat_t)
    tmap = np.full(rank, -1, dtype=np.int32)
    for key in keys.tolist():
        i, j = divmod(key, rank)
        if tmap[i] == -1:
            tmap[i] = j
        elif tmap[i] != j:
            raise NotCoherent(
                f"color {i} transposes into both color {tmap[i]} and color {j}",
                color=i,
            )
    if not np.array_equal(tmap[tmap], np.arange(rank)):
        raise NotCoherent("transpose map is not an involution")
    return tmap


def _color_representatives(coloring: PairColoring, want: int) -> list[np.ndarray]:
    """First `want` cells of each color in row-major order."""
    flat = coloring.color.ravel()
    order = np.argsort(flat, kind="stable")
    starts = np.searchsorted(flat[order], np.arange(coloring.num_colors + 1))
    return [
        order[starts[k]: min(starts[k] + want, starts[k + 1])]
        for k in range(coloring.num_colors)
    ]


def intersection_tensor(coloring: PairColoring, mode: str = "full") -> CoherentConfig:
    """Compute p_ij^k for every color and certify they are well defined.

    tensor[i, j, k] counts, for a representative cell (x, z) of color k, the
    points y with (x, y) colored i and (y, z) colored j.  In full mode five
    extra representatives per color must reproduce the same counts; sampled
    mode re-checks one.
    """
    if mode not in ("full", "sampled"):
        raise ValueError(f"unknown check level {mode!r}")
    n, rank = coloring.n, coloring.num_colors
    C = coloring.color
    flat = C.ravel()
    total_counts = np.bincount(flat, minlength=rank)
    if total_counts.min() == 0:
        raise NotCoherent("a color in range never occurs")
    diag = np.ascontiguousarray(C.diagonal())
    diag_counts = np.bincount(diag, minlength=rank)
    diagonal_colors = tuple(int(k) for k in np.flatnonzero(diag_counts))
    for k in diagonal_colors:
        if diag_counts[k] != total_counts[k]:
            raise NotCoherent(
                f"color {k} appears both on and off the diagonal", color=k
            )
    tmap = transpose_map_of(coloring)

    reps_wanted = FULL_CHECK_REPS if mode == "full" else SAMPLED_CHECK_REPS
    reps = _color_representatives(coloring, reps_wanted)
    tensor = np.zeros((rank, rank, rank), dtype=np.int32)
    for k in range(rank):
        base = None
        for cell in reps[k].tolist():
            x, z = divmod(cell, n)
            combined = C[x, :].astype(np.int64) * rank + C[:, z]
            table = np.bincount(combined, minlength=rank * rank).reshape(rank, rank)
            if base is None:
                base = table
            elif not np.array_equal(base, table):
                raise NotCoherent(
                    f"intersection numbers differ between cells of color {k}",
                    color=k,
                    witnesses=[int(reps[k][0]), cell],
                )
        tensor[:, :, k] = base

    valencies = None
    if len(diagonal_colors) == 1:
        k0 = diagonal_colors[0]
        valencies = np.array(
            [tensor[i, tmap[i], k0] for i in range(rank)], dtype=np.int64
        )
        if int(valencies.sum()) != n:
            raise NotCoherent(
                f"valencies sum to {int(valencies.sum())}, not {n}"
            )
    return CoherentConfig(
        coloring=coloring,
        tensor=tensor,
        diagonal_colors=diagonal_colors,
        transpose_map=tmap,
        valencies=valencies,
        check_level=mode,
    )


def check_props(config: CoherentConfig) -> SchemeProps:
    rank = config.coloring.num_colors
    symmetric = bool(
        np.array_equal(config.transpose_map, np.arange(rank, dtype=np.int32))
    )
    commutative = bool(
        np.array_equal(config.tensor, config.tensor.transpose(1, 0, 2))
    )
    return SchemeProps(
        rank=rank,
        classes=rank - len(config.diagonal_colors),
        homogeneous=len(config.diagonal_colors) == 1,
        symmetric=symmetric,
        commutative=commutative,
    )


def refines(finer: PairColoring, coarser: PairColoring) -> bool:
    """Whether color equality in `finer` implies color equality in `coarser`."""
    key = finer.color.ravel().astype(np.int64) * coarser.num_colors
    key += coarser.color.ravel()
    return len(np.unique(key)) == finer.num_colors


def gpbibd_check(design, coloring: PairColoring, lam: np.ndarray | None = None) -> dict:
    """Concurrence must be constant on every color; returns color -> lambda.

    Also checks the diagonal is a union of colors and that transposed colors
    carry equal concurrence, which together make the design a generalized
    PBIBD over this coloring.  `lam` is the design's lambda_matrix (diagonal
    r), built here when not given.
    """
    if lam is None:
        lam = design_mod.lambda_matrix(design, diagonal="r")
    rank = coloring.num_colors
    diag = np.ascontiguousarray(coloring.color.diagonal())
    diag_counts = np.bincount(diag, minlength=rank)
    total_counts = np.bincount(coloring.color.ravel(), minlength=rank)
    for k in np.flatnonzero(diag_counts):
        if diag_counts[k] != total_counts[k]:
            raise NotEquitable(int(k), ["diagonal", "off-diagonal"])
    key = coloring.color.ravel().astype(np.int64) * 65536 + lam.ravel()
    uniq = np.unique(key)
    colors = uniq // 65536
    if len(np.unique(colors)) != len(uniq):
        dup = int(colors[np.flatnonzero(colors[1:] == colors[:-1])[0]])
        values = [int(k % 65536) for k in uniq if k // 65536 == dup]
        raise NotEquitable(dup, values)
    lambda_of_color = {int(c): int(k % 65536) for c, k in zip(colors, uniq)}
    tmap = transpose_map_of(coloring)
    for c, lam_c in lambda_of_color.items():
        if lambda_of_color[int(tmap[c])] != lam_c:
            raise NotEquitable(c, [lam_c, lambda_of_color[int(tmap[c])]])
    return lambda_of_color


def _bool_square(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Exact: entries stay below 2**24 in float32 for the sizes used here.
    return (a.astype(np.float32) @ b.astype(np.float32)) > 0.5


def drg_analysis(config: CoherentConfig, props: SchemeProps | None = None) -> dict | None:
    """Test for a diameter-3 distance-regular relation in a 3-class scheme.

    Tries each non-diagonal relation in color order; the first whose graph
    distance partition reproduces the color partition wins.  Returns the
    intersection array read off the tensor, the antipodality verdict, and
    the quotient size, or None when no relation is metric.  `props` is
    check_props(config), computed here when not given.
    """
    if props is None:
        props = check_props(config)
    if not (props.homogeneous and props.symmetric and props.classes == 3):
        return None
    coloring = config.coloring
    n, rank = coloring.n, coloring.num_colors
    C = coloring.color
    k0 = config.diagonal_colors[0]
    identity = np.eye(n, dtype=bool)
    for c1 in range(rank):
        if c1 == k0:
            continue
        adj = C == c1
        within1 = identity | adj
        within2 = _bool_square(within1, adj) | within1
        within3 = _bool_square(within2, adj) | within2
        if not within3.all():
            continue
        d2 = within2 & ~within1
        d3 = within3 & ~within2
        if not d3.any():
            continue
        c2 = int(C[tuple(np.argwhere(d2)[0])])
        c3 = int(C[tuple(np.argwhere(d3)[0])])
        if not (np.array_equal(d2, C == c2) and np.array_equal(d3, C == c3)):
            continue
        p = config.tensor
        array = [
            int(config.valencies[c1]),
            int(p[c1, c2, c1]),
            int(p[c1, c3, c2]),
            1,
            int(p[c1, c1, c2]),
            int(p[c1, c2, c3]),
        ]
        antipodal_rel = identity | d3
        antipodal = bool(
            np.array_equal(_bool_square(antipodal_rel, antipodal_rel), antipodal_rel)
        )
        result = {
            "relation": c1,
            "diameter": 3,
            "intersection_array": array,
            "antipodal": antipodal,
        }
        if antipodal:
            fibre = 1 + int(config.valencies[c3])
            if n % fibre != 0:
                raise NotDivisor(f"antipodal class size {fibre} does not divide {n}")
            result["fold"] = fibre
            result["cover_of"] = n // fibre
        return result
    return None


def full_check_mode(n: int, requested: str | None = None) -> str:
    if requested is not None:
        return requested
    return "full" if n <= FULL_CHECK_MAX_POINTS else "sampled"


def dump_scheme(config: CoherentConfig, path: str) -> None:
    """Write "n rank", the color matrix rows, then nonzero tensor entries."""
    coloring = config.coloring
    lines = [f"{coloring.n} {coloring.num_colors}"]
    for row in coloring.color:
        lines.append(" ".join(str(int(c)) for c in row))
    nz = np.argwhere(config.tensor)
    for i, j, k in nz.tolist():
        lines.append(f"{i} {j} {k} {int(config.tensor[i, j, k])}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_pair_coloring(path: str, max_points: int | None = None) -> PairColoring:
    """Read the matrix part of a scheme file; trailing tensor lines ignored.

    A header declaring more than max_points points is refused before any
    row is read.
    """
    with open(path, encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError("scheme header must be two integers: n rank")
        n, rank = int(header[0]), int(header[1])
        if n < 1 or rank < 1:
            raise ValueError("scheme header values must be positive")
        if max_points is not None and n > max_points:
            raise ValueError(
                f"scheme has {n} points, above the limit of {max_points}; "
                f"raise --max-points to read it"
            )
        rows = []
        for _ in range(n):
            row = [int(s) for s in fh.readline().split()]
            if len(row) != n:
                raise ValueError(f"expected {n} colors per row")
            rows.append(row)
    color = np.array(rows, dtype=np.int32)
    if color.min() < 0 or color.max() >= rank:
        raise ValueError("color out of declared range")
    present = len(np.unique(color))
    if present != rank:
        raise ValueError(f"header declares {rank} colors, matrix uses {present}")
    return PairColoring(n=n, color=color, num_colors=rank)
