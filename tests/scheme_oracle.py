"""Reference versions of the scheme layer's n^2 kernels, for tests only.

These are the direct formulations: orbitals by minimum-label propagation
over all n*n cells, and the color bookkeeping by sorting n*n keys.  The
library computes the same results from one suborbit row per point orbit
and by scatter-then-verify passes; tests compare the two.
"""

from __future__ import annotations

import numpy as np

from octadesign import design as design_mod
from octadesign.errors import NotCoherent, NotEquitable
from octadesign.scheme import PairColoring, canonical_renumber, invert_perm


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
    labels = np.arange(n * n, dtype=np.int64).reshape(n, n)
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


def color_representatives(coloring: PairColoring, want: int) -> list[np.ndarray]:
    """First `want` cells of each color in row-major order."""
    flat = coloring.color.ravel()
    order = np.argsort(flat, kind="stable")
    starts = np.searchsorted(flat[order], np.arange(coloring.num_colors + 1))
    return [
        order[starts[k]: min(starts[k] + want, starts[k + 1])]
        for k in range(coloring.num_colors)
    ]


def refines(finer: PairColoring, coarser: PairColoring) -> bool:
    """Whether color equality in `finer` implies color equality in `coarser`."""
    key = finer.color.ravel().astype(np.int64) * coarser.num_colors
    key += coarser.color.ravel()
    return len(np.unique(key)) == finer.num_colors


def gpbibd_check(design, coloring: PairColoring, lam: np.ndarray | None = None) -> dict:
    """Concurrence must be constant on every color; returns color -> lambda."""
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
