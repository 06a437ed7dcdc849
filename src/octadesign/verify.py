"""Named low-level checks for one q, each reported as pass/fail.

run_verification drives the full pipeline once, then replays every
structural fact as an independent check: field constants, group action,
design counts, stabilizers, scheme coherence, closure behavior, and
reference agreement.  Checks raise on failure; the runner converts
exceptions into failed results and keeps going.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analysis, counting, design as design_mod, gf, pgroup, scheme, wl
from .errors import CountMismatch, OctadesignError

A4_ELEMENT_ORDERS = [1, 2, 2, 2] + [3] * 8
A5_ELEMENT_ORDERS = [1] + [2] * 15 + [3] * 20 + [5] * 24


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_field(bundle, report) -> str:
    f = bundle.field
    q = f.q
    if f.omega.multiplicative_order() != q - 1:
        raise CountMismatch("order of omega", q - 1, f.omega.multiplicative_order())
    i = f.i_elem
    if i * i != -f.one:
        raise CountMismatch("i*i", "-1", repr(i * i))
    if i.multiplicative_order() != 4:
        raise CountMismatch("order of i", 4, i.multiplicative_order())
    if gf.is_char5_identity(f) != (f.p == 5):
        raise CountMismatch("1+j == -j for j = i or -i", f.p == 5, not f.p == 5)
    return f"omega has order {q - 1}, i = omega^{(q - 1) // 4} squares to -1"


def _check_modulus_minimal(bundle, report) -> str:
    f = bundle.field
    minimal = gf._find_modulus(f.p, f.alpha)
    if f.modulus != minimal:
        return (
            f"running with override {f.modulus}; lex-least would be {minimal}"
        )
    return f"modulus {f.modulus} is the lex-least monic irreducible"


def _check_transitivity(bundle, report) -> str:
    ps = bundle.point_set
    perms = pgroup.generator_perms(ps)
    orbit = pgroup.orbit_of_point(perms, 0)
    if len(orbit) != ps.n:
        raise CountMismatch("orbit of point 0", ps.n, len(orbit))
    return f"generators reach all {ps.n} points from point 0"


def _check_point_stabilizer(bundle, report) -> str:
    rep = report.point_stabilizer
    if not rep["shape_verified"]:
        raise CountMismatch("stabilizer shape verified", True, False)
    return (
        f"order {rep['order']} = 2q, matches index {rep['index']} "
        f"and the explicit upper-triangular form"
    )


def _check_frobenius(bundle, report) -> str:
    ps = bundle.point_set
    f = bundle.field
    frob = pgroup.frobenius_perm(ps)
    power = np.arange(ps.n, dtype=np.int32)
    for _ in range(f.alpha):
        power = frob[power]
    if not np.array_equal(power, np.arange(ps.n)):
        raise CountMismatch("frobenius^alpha", "identity", "not identity")
    blockset = {blk.points for blk in bundle.design.blocks}
    flist = frob.tolist()
    for blk in bundle.design.blocks:
        if tuple(sorted(flist[x] for x in blk.points)) not in blockset:
            raise CountMismatch("frobenius image of a block", "a block", "not a block")
    return f"frobenius has order dividing {f.alpha} and permutes the block set"


def _check_sigma(bundle, report) -> str:
    ps = bundle.point_set
    f = bundle.field
    sig = pgroup.sigma_perm(ps, verify=True)
    siginv = scheme.invert_perm(sig)
    i, one, zero = f.i_elem, f.one, f.zero
    m = pgroup.sigma_matrix(f)
    minv = (-i, i, zero, one)
    ident = (one, zero, zero, one)
    prod = _mat_mul(m, minv)
    if tuple(e.coeffs for e in prod) != tuple(e.coeffs for e in ident):
        raise CountMismatch("sigma * sigma^-1", "identity matrix", repr(prod))
    for g in pgroup.psl_generators(f):
        conj = _mat_mul(_mat_mul(m, g.m), minv)
        pgroup.PslElement.from_matrix(conj)  # stays unimodular
        gp = ps.perm_of_matrix(g.m)
        if not np.array_equal(sig[gp[siginv]], ps.perm_of_matrix(conj)):
            raise CountMismatch("sigma conjugation", "matching permutations", g)
    return "sigma fixes the poles, cycles the equator, and normalizes the group"


def _mat_mul(a, b):
    return (
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    )


def _check_design_counts(bundle, report) -> str:
    params = design_mod.verify_counts(bundle.design)
    lam = ", ".join(f"{k}={v}" for k, v in sorted(params.lambda_by_class.items()))
    return (
        f"v={params.v} b={params.b} r={params.r} k={params.k} ({lam}), "
        f"all identities hold"
    )


def _check_census(bundle, report) -> str:
    if bundle.field.p == 5:
        return "skipped: pair classes are not intrinsic in characteristic 5"
    census = design_mod.edge_diagonal_census(bundle.design)
    return (
        f"{census['edges']} edges in 4 blocks each, "
        f"{census['diagonals']} diagonals in 1 block each"
    )


def _check_block_stabilizer(bundle, report) -> str:
    rep = report.block_stabilizer
    parts = [f"order {rep['order']} by orbit-stabilizer"]
    if rep["explicit_reps_verified"]:
        parts.append("12 explicit rotations verified")
    if rep["brute_forced"]:
        expected = A4_ELEMENT_ORDERS if rep["order"] == 12 else A5_ELEMENT_ORDERS
        if rep["element_orders"] != expected:
            raise CountMismatch(
                "stabilizer element orders", expected, rep["element_orders"]
            )
        name = "tetrahedral" if rep["order"] == 12 else "icosahedral"
        parts.append(f"brute-forced element orders match the {name} rotation group")
    return "; ".join(parts)


def _check_orbit_counts(bundle, report) -> str:
    if report.orbit_count_formula != report.orbit_count_direct:
        raise CountMismatch(
            "orbit count", report.orbit_count_formula, report.orbit_count_direct
        )
    expected_min = 2 * report.orbit_count_formula - 1
    if counting.min_associate_classes(report.p, report.alpha) != expected_min:
        raise CountMismatch("minimum class count", expected_min, "other")
    if report.cor_classes != expected_min:
        raise CountMismatch("full-group classes", expected_min, report.cor_classes)
    return (
        f"formula and direct count agree on {report.orbit_count_formula} "
        f"scalar orbits; full-group scheme meets the floor of {expected_min} classes"
    )


def _check_psl_scheme(bundle, report) -> str:
    if report.psl_classes != report.params.m:
        raise CountMismatch("PSL classes", report.params.m, report.psl_classes)
    config = bundle.psl_config
    lambdas = scheme.gpbibd_check(bundle.design, config.coloring)
    by_value: dict[int, int] = {}
    k0 = config.diagonal_colors[0]
    for color, lam in lambdas.items():
        if color == k0:
            continue
        by_value[lam] = by_value.get(lam, 0) + 1
    tally = ", ".join(
        f"{cnt} class{'es' if cnt != 1 else ''} at lambda={lam}"
        for lam, cnt in sorted(by_value.items(), reverse=True)
    )
    return f"{report.psl_classes} classes, concurrence constant on each ({tally})"


def _check_valency_identity(bundle, report) -> str:
    checked = 0
    for config in (bundle.psl_config, bundle.full_config, bundle.wl_trace.final):
        if config.valencies is None:
            continue
        rank = config.coloring.num_colors
        rows = config.tensor.sum(axis=1)
        want = np.broadcast_to(config.valencies[:, None], (rank, rank))
        if not np.array_equal(rows, want):
            raise CountMismatch("sum_j p_ij^k", "valency of i", "row sums differ")
        checked += 1
    return f"sum_j p_ij^k equals the valency of i in all {checked} schemes"


def _check_wl_trace(bundle, report) -> str:
    trace = bundle.wl_trace
    counts = trace.colors_per_round
    if any(b < a for a, b in zip(counts, counts[1:])):
        raise CountMismatch("round color counts", "nondecreasing", counts)
    final = trace.final.coloring
    again, rank = wl._wl_round(final.color, final.num_colors, final.n)
    if rank != final.num_colors or not np.array_equal(again, final.color):
        raise CountMismatch("closure idempotence", "fixpoint", "refined further")
    return (
        f"{trace.rounds} rounds, colors {counts}, fixpoint verified idempotent, "
        f"coherence certified at level {trace.final.check_level}"
    )


def _check_refinement_chain(bundle, report) -> str:
    psl = bundle.psl_config.coloring
    full = bundle.full_config.coloring
    closure = bundle.wl_trace.final.coloring
    lam = wl.lambda_coloring(bundle.design)
    for finer, coarser, what in (
        (psl, full, "PSL orbitals into full-group orbitals"),
        (full, closure, "full-group orbitals into the coherent closure"),
        (closure, lam, "the coherent closure into the concurrence classes"),
    ):
        if not scheme.refines(finer, coarser):
            raise CountMismatch("refinement", what, "violated")
    return (
        f"chain holds: {psl.num_colors} -> {full.num_colors} -> "
        f"{closure.num_colors} -> {lam.num_colors} colors"
    )


def _check_flags(bundle, report) -> str:
    flags = report.flags
    expected_flag = (
        wl.SCHURIAN_CONSISTENT
        if report.wl_classes == report.cor_classes
        else wl.NON_SCHURIAN
    )
    if flags["schurian"] != expected_flag:
        raise CountMismatch("schurian flag", expected_flag, flags["schurian"])
    if flags["symmetric"] and not flags["commutative"]:
        raise CountMismatch("commutative", "true for symmetric schemes", "false")
    props = scheme.check_props(bundle.wl_trace.final)
    if not props.homogeneous:
        raise CountMismatch("homogeneous", True, False)
    return (
        f"{flags['schurian']}, symmetric={flags['symmetric']}, "
        f"commutative={flags['commutative']}"
    )


def _check_reference(bundle, report) -> str:
    if report.expected is None:
        return "skipped: no reference row for this q"
    if not report.expected["all_match"]:
        bad = [k for k, ok in report.expected["matches"].items() if not ok]
        raise CountMismatch("reference row", "all fields", f"mismatch in {bad}")
    note = f" ({report.expected['notes'][0]})" if report.expected["notes"] else ""
    return f"all {len(report.expected['matches'])} reference fields match{note}"


INVARIANT_KEYS = ("v", "b", "r", "cor", "wl", "schurian", "symmetric", "commutative")


def _invariants(report) -> tuple:
    return (
        report.params.v,
        report.params.b,
        report.params.r,
        report.cor_classes,
        report.wl_classes,
        report.flags["schurian"],
        report.flags["symmetric"],
        report.flags["commutative"],
    )


def _second_modulus(p: int, alpha: int) -> tuple[int, ...] | None:
    import itertools

    found = 0
    for tail in itertools.product(range(p), repeat=alpha):
        poly = tuple(tail) + (1,)
        if gf._is_irreducible(poly, p):
            found += 1
            if found == 2:
                return poly
    return None


def _second_generator(field) -> tuple[int, ...] | None:
    seen_first = False
    for elt in field.elements():
        if elt.is_zero():
            continue
        if elt.multiplicative_order() == field.q - 1:
            if seen_first:
                return elt.coeffs
            seen_first = True
    return None


def _check_presentation_independence(bundle, report) -> str:
    q = report.q
    if q > 25:
        return "skipped above q=25 (covered by the small cases)"
    base = _invariants(report)
    runs = []
    if report.alpha > 1:
        alt_mod = _second_modulus(report.p, report.alpha)
        if alt_mod is not None:
            alt = analysis.analyze_q(q, modulus=alt_mod)
            if _invariants(alt) != base:
                raise CountMismatch("invariants under alternate modulus", base,
                                    _invariants(alt))
            runs.append(f"modulus {alt_mod}")
    alt_gen = _second_generator(bundle.field)
    if alt_gen is not None:
        # alt_gen's coefficients are in this field's presentation
        alt = analysis.analyze_q(q, modulus=bundle.field.modulus, generator=alt_gen)
        if _invariants(alt) != base:
            raise CountMismatch("invariants under alternate generator", base,
                                _invariants(alt))
        runs.append(f"generator {alt_gen}")
    if not runs:
        return "no alternate presentation exists at this q"
    return "invariants unchanged under " + " and ".join(runs)


CHECKS = [
    ("field constants", _check_field),
    ("modulus minimality", _check_modulus_minimal),
    ("point transitivity", _check_transitivity),
    ("point stabilizer", _check_point_stabilizer),
    ("frobenius action", _check_frobenius),
    ("sigma action", _check_sigma),
    ("design counts", _check_design_counts),
    ("pair census", _check_census),
    ("block stabilizer", _check_block_stabilizer),
    ("scalar orbit counts", _check_orbit_counts),
    ("group scheme", _check_psl_scheme),
    ("valency identity", _check_valency_identity),
    ("closure trace", _check_wl_trace),
    ("refinement chain", _check_refinement_chain),
    ("flags", _check_flags),
    ("reference row", _check_reference),
    ("presentation independence", _check_presentation_independence),
]


def run_verification(
    q: int,
    *,
    modulus: tuple | None = None,
    generator=None,
    max_points: int = analysis.DEFAULT_MAX_POINTS,
    force: bool = False,
    check_level: str | None = None,
) -> list[CheckResult]:
    """Run every named check for one q and collect the results."""
    holder: dict = {}
    report = analysis.analyze_q(
        q,
        modulus=modulus,
        generator=generator,
        max_points=max_points,
        force=force,
        check_level=check_level,
        artifacts=holder,
    )
    bundle = holder["bundle"]
    results = []
    for name, func in CHECKS:
        try:
            detail = func(bundle, report)
            results.append(CheckResult(name, True, detail))
        except OctadesignError as exc:
            results.append(CheckResult(name, False, str(exc)))
    return results
