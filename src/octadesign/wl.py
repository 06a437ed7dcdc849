"""Coarsest coherent refinement of a pair coloring by 2-dimensional
Weisfeiler-Leman iteration, on the n*n cells or on the classes of a
coherent configuration that refines the input.

Each round refines the current coloring by, for every ordered color pair
(i, j), the count of intermediate points y with (x, y) colored i and (y, z)
colored j.  The counts for all (i, j) are taken against the coloring as it
stood at the start of the round, so the update is simultaneous.  At a
fixpoint, colors are split by the colors of their transposes and iteration
resumes until that changes nothing.  Both paths below share this loop and
number colors in order of first row-major cell, and intersection_tensor
certifies the final n*n coloring independently.

Dense path (no `orbitals`): the state is the n*n color matrix.  Counts come
from products of 0/1 matrices computed in float64; every value that appears
is an exact small integer (bounded by n*(n+1)^2 < 2^53 with three count
matrices packed per product), so the arithmetic is exact and
bit-reproducible regardless of BLAS threading.  It serves arbitrary input
files and is the oracle for the fused path.

Fused path (`orbitals` given): the precondition is that `orbitals` is a
certified coherent configuration whose colors are numbered in order of
first row-major cell (orbital_coloring numbers orbitals by the least point
of their orbit, then by their least cell in that point's row, which is
that order) and that every input color is a union of its classes.
Coherence makes each round's counts constant on every class, so every
coloring the iteration visits is again such a union: the closure is a
fusion of the given scheme.  The state is one label per class, and the
count for class K and color pair (I, J) is the sum of p_ab^K over a in I
and b in J, read off the rank-R intersection tensor.  Labels are
renumbered in order of their lowest class index, which is the dense path's
row-major order, so both paths return identical colorings, traces and
tensors.  An input that is not a union of the classes raises
RefinementViolation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import design as design_mod
from .errors import RefinementViolation
from .scheme import (
    CoherentConfig,
    PairColoring,
    canonical_renumber,
    full_check_mode,
    intersection_tensor,
)

SCHURIAN_CONSISTENT = "schurian_consistent"
NON_SCHURIAN = "non_schurian"


@dataclass
class RefinementTrace:
    rounds: int
    colors_per_round: list[int]
    final: CoherentConfig


def lambda_coloring(design, lam: np.ndarray | None = None) -> PairColoring:
    """Initial coloring: identity is color 0, then concurrences descending.

    Every distinct concurrence value over off-diagonal pairs gets one color,
    including zero, so non-adjacent pairs form a class of their own.  `lam`
    is the design's lambda_matrix (either diagonal mode), built here when
    not given.
    """
    n = design.n
    if lam is None:
        lam = design_mod.lambda_matrix(design, diagonal="zero")
    off = ~np.eye(n, dtype=bool)
    values = sorted((int(v) for v in np.unique(lam[off])), reverse=True)
    lut = np.zeros(int(lam.max()) + 1, dtype=np.int32)
    for pos, val in enumerate(values):
        lut[val] = pos + 1
    color = lut[lam]
    np.fill_diagonal(color, 0)
    return PairColoring(n=n, color=color, num_colors=1 + len(values))


def _seed_diagonal(coloring: PairColoring) -> tuple[np.ndarray, int]:
    """Split any color that straddles the diagonal, then renumber."""
    key = coloring.color.astype(np.int64) * 2
    key[np.diag_indices(coloring.n)] += 1
    return canonical_renumber(key)


def _wl_round(C: np.ndarray, rank: int, n: int) -> tuple[np.ndarray, int]:
    """One simultaneous refinement round; returns the new canonical coloring."""
    nplus = n + 1
    pack = 3 if (nplus**3) * n < 2**53 else 2
    part = C.ravel().astype(np.int64)
    distinct = rank
    for i in range(rank):
        left = (C == i).astype(np.float64)
        for j0 in range(0, rank, pack):
            js = range(j0, min(j0 + pack, rank))
            packed = np.zeros((n, n), dtype=np.float64)
            for t, j in enumerate(js):
                packed += (C == j).astype(np.float64) * float(nplus**t)
            counts = np.rint(left @ packed).astype(np.int64).ravel()
            # counts already encodes the tuple of per-j counts in base n+1
            scale = nplus ** len(js)
            if distinct * scale < 2**62:
                _, part = np.unique(part * scale + counts, return_inverse=True)
                distinct = int(part.max()) + 1
            else:
                for t in range(len(js)):
                    feature = (counts // (nplus**t)) % nplus
                    _, part = np.unique(part * nplus + feature, return_inverse=True)
                    distinct = int(part.max()) + 1
    return canonical_renumber(part.reshape(n, n))


def _fused_seed(coloring: PairColoring, orbitals: CoherentConfig) -> tuple[np.ndarray, int]:
    """The input as one label per orbital class, diagonal split off, renumbered."""
    orb = orbitals.coloring
    if orb.n != coloring.n:
        raise ValueError(f"orbitals are on {orb.n} points, the coloring on {coloring.n}")
    flat = orb.color.ravel()
    running = np.maximum.accumulate(flat)
    if flat[0] != 0 or np.any(flat[1:] > running[:-1] + 1):
        raise ValueError("orbital colors are not numbered by first row-major cell")
    # with that numbering, the running maximum steps up exactly at each
    # class's first cell
    first_cells = np.flatnonzero(np.diff(running, prepend=-1))
    color_of_class = coloring.color.ravel()[first_cells]
    if not np.array_equal(color_of_class[orb.color], coloring.color):
        raise RefinementViolation("the coloring is not a union of the orbital classes")
    key = color_of_class.astype(np.int64) * 2
    key[list(orbitals.diagonal_colors)] += 1
    return canonical_renumber(key)


def _fused_round(f: np.ndarray, rank: int, tensor: np.ndarray) -> tuple[np.ndarray, int]:
    """One round on class labels f; the fused counterpart of _wl_round."""
    member = np.zeros((len(f), rank), dtype=np.int64)
    member[np.arange(len(f)), f] = 1
    # sums[K, I, J] = sum of tensor[a, b, K] over a in I and b in J
    sums = np.einsum("aI,abK->IbK", member, tensor)
    sums = np.einsum("IbK,bJ->KIJ", sums, member)
    keys = np.concatenate([f[:, None], sums.reshape(len(f), rank * rank)], axis=1)
    _, part = np.unique(keys, axis=0, return_inverse=True)
    return canonical_renumber(part.reshape(-1))


def wl_stabilize(
    coloring: PairColoring,
    check_level: str | None = None,
    orbitals: CoherentConfig | None = None,
) -> RefinementTrace:
    """Iterate rounds to the fixpoint and certify the result coherent.

    The identity diagonal is split off first if the input did not already
    isolate it.  After the fixpoint, transpose-closure is checked; a
    violation splits colors by their transposes and iteration resumes (this
    never fires for colorings of symmetric origin but keeps arbitrary input
    files safe).  With `orbitals`, the rounds run on its classes (see the
    module docstring for the precondition); the result is the same.  The
    returned trace ends with the certified configuration.
    """
    n = coloring.n
    if orbitals is None:
        state, rank = _seed_diagonal(coloring)

        def refine(C, rank):
            return _wl_round(C, rank, n)

        def transpose(C):
            return C.T
    else:
        state, rank = _fused_seed(coloring, orbitals)

        def refine(f, rank):
            return _fused_round(f, rank, orbitals.tensor)

        def transpose(f):
            return f[orbitals.transpose_map]

    history = [rank]
    while True:
        new_state, new_rank = refine(state, rank)
        history.append(new_rank)
        if new_rank == rank and np.array_equal(new_state, state):
            # fixpoint reached; enforce transpose closure before accepting
            tkey = state.astype(np.int64) * rank + transpose(state)
            closed, closed_rank = canonical_renumber(tkey)
            if closed_rank == rank:
                break
            state, rank = closed, closed_rank
            history.append(closed_rank)
        else:
            state, rank = new_state, new_rank
    color = state if orbitals is None else state[orbitals.coloring.color]
    final_coloring = PairColoring(n=n, color=color, num_colors=rank)
    config = intersection_tensor(final_coloring, mode=full_check_mode(n, check_level))
    return RefinementTrace(
        rounds=len(history) - 1,
        colors_per_round=history,
        final=config,
    )


def schurian_flag(wl_classes: int, orbital_classes: int) -> str:
    """Compare the coherent closure against the full-group orbital scheme."""
    if wl_classes > orbital_classes:
        raise RefinementViolation(
            f"coherent closure has {wl_classes} classes, exceeding the "
            f"orbital scheme's {orbital_classes}"
        )
    return SCHURIAN_CONSISTENT if wl_classes == orbital_classes else NON_SCHURIAN
