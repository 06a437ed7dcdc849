"""Pair colorings, orbital schemes, and coherence verification.

A pair coloring partitions the n*n cells of the point-pair space, and its
colors are numbered in order of first row-major cell.  Orbital colorings
come from a permutation group acting on pairs.  They are built from one
row per point orbit: a BFS over points gives the orbits and an inverse
transversal, the row at each orbit's least point x is the partition of the
points into suborbits of the stabilizer of x (from Schreier generators),
and the transversal carries that row to every other point of the orbit.
A chunked check that every generator preserves the result certifies it.
Coherence of a coloring is certified by computing intersection numbers
from one representative cell per color and re-checking them against
further representatives.  The bookkeeping over n*n cells (transpose map,
representatives, concurrence per color, refinement) scatters values by
color and then verifies the scatter, with no sort of n*n keys.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import design as design_mod
from .errors import ConsistencyError, NotCoherent, NotDivisor, NotEquitable

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


# Schreier generators taken per point orbit before the invariance
# certificate is tried; doubled after each failure.
SCHREIER_START = 8
# Cells per row block in the n^2 passes that run in blocks.
BLOCK_CELLS = 1 << 18


def _blocks(size: int, width: int = 1) -> list[slice]:
    """Consecutive slices of range(size), about BLOCK_CELLS / width long."""
    step = max(1, BLOCK_CELLS // width)
    return [slice(a, min(size, a + step)) for a in range(0, size, step)]


def transversal(perms: list[np.ndarray], n: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Point orbits, and an inverse transversal of each, by one BFS over points.

    Each BFS starts from the least unvisited point, so an orbit's first
    point x is its least.  Row z of the returned n*n int32 array is g_z^-1
    for a group element g_z with g_z(x) = z; the BFS builds it level by
    level, a generator s reaching s(z) from z giving row s(z) = row z
    composed with s^-1.  Each orbit lists its points in BFS order.
    """
    inverses = [invert_perm(s) for s in perms]
    seen = np.zeros(n, dtype=bool)
    tinv = np.empty((n, n), dtype=np.int32)
    orbits = []
    for x in range(n):
        if seen[x]:
            continue
        seen[x] = True
        tinv[x] = np.arange(n, dtype=np.int32)
        levels = [np.array([x], dtype=np.int32)]
        while len(levels[-1]):
            frontier = levels[-1]
            reached = [frontier[:0]]
            for s, s_inv in zip(perms, inverses):
                image = s[frontier]
                new = ~seen[image]
                src, dst = frontier[new], image[new]
                seen[dst] = True
                tinv[dst] = tinv[src][:, s_inv]
                reached.append(dst)
            levels.append(np.concatenate(reached))
        orbits.append(np.concatenate(levels))
    return orbits, tinv


def _schreier_generators(perms, orbit, tinv, count: int) -> list[np.ndarray]:
    """Up to `count` Schreier generators of the stabilizer of orbit[0].

    The pair (z, s) gives g_{s(z)}^-1 s g_z, which fixes x = orbit[0].  The
    points z are spread evenly over the orbit's BFS order and the
    generators s taken in turn; with count >= len(orbit) * len(perms) every
    pair is taken.  Tree edges of the BFS give the identity and are dropped.
    """
    x = int(orbit[0])
    count = min(count, len(orbit) * len(perms))
    gens = []
    for i in range(count):
        z, s = int(orbit[i * len(orbit) // count]), perms[i % len(perms)]
        h = tinv[s[z]][s[invert_perm(tinv[z])]]
        if h[x] != x:
            raise ConsistencyError(f"Schreier generator at point {z} moves {x} to {h[x]}")
        if not np.array_equal(h, np.arange(len(h))):
            gens.append(h)
    return gens


def _orbit_minima(gens: list[np.ndarray], n: int) -> np.ndarray:
    """Least point of each point's orbit under the group `gens` generate.

    Labels take the minimum over images under each generator and inverse,
    with pointer jumping; an unchanged sweep is the fixpoint, where labels
    are constant on orbits.
    """
    both = gens + [invert_perm(h) for h in gens]
    labels = np.arange(n, dtype=np.int32)
    while True:
        prev = labels
        for h in both:
            labels = np.minimum(labels, labels[h])
        labels = labels[labels]
        if np.array_equal(labels, prev):
            return labels


def invariance_violation(color: np.ndarray, perms: list[np.ndarray]):
    """First (generator index, x, y) with color[s(x), s(y)] != color[x, y].

    None when every generator preserves the coloring.  Runs in row blocks,
    so no n*n temporary is made.
    """
    for k, s in enumerate(perms):
        for rows in _blocks(len(color), len(color)):
            moved = color[s[rows]][:, s]
            if not np.array_equal(moved, color[rows]):
                x, y = np.argwhere(moved != color[rows])[0]
                return k, rows.start + int(x), int(y)
    return None


def orbital_coloring(perms: list[np.ndarray], n: int) -> PairColoring:
    """Orbits of a permutation group on ordered pairs, canonically numbered.

    A G-invariant coloring is fixed by one row per point orbit: with x the
    least point of z's orbit, (z, y) lies in the orbital of
    (x, g_z^-1(y)).  Row x is the partition of the points into orbits of a
    few Schreier generators of the stabilizer of x; colors are numbered by
    (x, least point of the row class), which is the order of first
    row-major occurrence.  Every class then lies inside one orbital.  The
    certificate that every generator preserves the coloring makes each
    class a union of orbitals, hence exactly one; while it fails, the
    Schreier generators are doubled, up to all of them (Schreier's lemma).
    """
    perms = [np.asarray(s, dtype=np.int32) for s in perms]
    orbits, tinv = transversal(perms, n)
    orbit_of = np.empty(n, dtype=np.int32)
    for k, orbit in enumerate(orbits):
        orbit_of[orbit] = k
    every_pair = max(len(orbit) for orbit in orbits) * len(perms)
    count = SCHREIER_START
    while True:
        rows = np.empty((len(orbits), n), dtype=np.int32)
        num = 0
        for k, orbit in enumerate(orbits):
            least = _orbit_minima(_schreier_generators(perms, orbit, tinv, count), n)
            is_least = least == np.arange(n)
            rows[k] = num + np.cumsum(is_least)[least] - 1
            num += int(np.count_nonzero(is_least))
        color = np.empty((n, n), dtype=np.int32)
        for block in _blocks(n, n):
            color[block] = rows[orbit_of[block, None], tinv[block]]
        bad = invariance_violation(color, perms)
        if bad is None:
            return PairColoring(n=n, color=color, num_colors=num)
        if count >= every_pair:
            k, x, y = bad
            raise ConsistencyError(
                f"orbital coloring is not invariant under generator {k} "
                f"at cell ({x}, {y})"
            )
        count *= 2


def transpose_map_of(coloring: PairColoring) -> np.ndarray:
    """Map each color to the color of the transposed cells, or fail."""
    rank = coloring.num_colors
    C = coloring.color
    tmap = np.full(rank, -1, dtype=np.int32)
    tmap[C] = C.T
    mismatch = tmap[C] != C.T
    if mismatch.any():
        i = int(C[mismatch].min())
        js = np.flatnonzero(np.bincount(C.T[C == i], minlength=rank))
        raise NotCoherent(
            f"color {i} transposes into both color {js[0]} and color {js[1]}",
            color=i,
        )
    if not np.array_equal(tmap[tmap], np.arange(rank)):
        raise NotCoherent("transpose map is not an involution")
    return tmap


def _first_cells(flat: np.ndarray, size: int) -> np.ndarray:
    """Least index of each value 0..size-1 in flat, len(flat) where absent.

    Indices are scattered in descending order, so the least one is written
    last; a second pass verifies that no cell precedes its value's entry.
    """
    first = np.full(size, len(flat), dtype=np.int64)
    blocks = _blocks(len(flat))
    for b in reversed(blocks):
        first[flat[b][::-1]] = np.arange(b.stop - 1, b.start - 1, -1)
    for b in blocks:
        if not np.all(first[flat[b]] <= np.arange(b.start, b.stop)):
            raise ConsistencyError("a scatter kept a later cell than the first")
    return first


def _color_representatives(coloring: PairColoring, want: int) -> list[np.ndarray]:
    """First `want` cells of each color in row-major order.

    Each pass takes the first cell of every color, then recolors the taken
    cells with the spare color num_colors, so the next pass finds the next.
    """
    rank = coloring.num_colors
    flat = coloring.color.ravel().copy()
    passes = np.empty((want, rank), dtype=np.int64)
    for cells in passes:
        cells[:] = _first_cells(flat, rank + 1)[:rank]
        flat[cells[cells < len(flat)]] = rank
    return [cells[cells < len(flat)] for cells in passes.T]


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
    to_coarser = np.zeros(finer.num_colors, dtype=coarser.color.dtype)
    to_coarser[finer.color] = coarser.color
    return bool(np.array_equal(to_coarser[finer.color], coarser.color))


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
    lam_of = np.zeros(rank, dtype=lam.dtype)
    lam_of[coloring.color] = lam
    mismatch = lam_of[coloring.color] != lam
    if mismatch.any():
        dup = int(coloring.color[mismatch].min())
        values = np.flatnonzero(np.bincount(lam[coloring.color == dup]))
        raise NotEquitable(dup, [int(v) for v in values])
    lambda_of_color = {int(c): int(lam_of[c]) for c in np.flatnonzero(total_counts)}
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
