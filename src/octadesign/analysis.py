"""Full pipeline for one q: the computation, and the checks it must pass.

compute() builds every pipeline value once and the report; it raises only
where it cannot go on (bad input, NotCoherent, a closure input that is not
a union of orbitals, LabelClash).  Every other fact is one entry of CHECKS,
an ordered table of named checks.  analyze_q runs its entries in order and
raises CheckFailed at the first failure; verify.run_verification runs every
entry, verify_only ones too.

The report carries only exact integers, booleans, and strings; per-phase
timings (milliseconds) are kept beside the report and never enter
machine-readable output, so repeated runs serialize to identical bytes.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from . import counting, design as design_mod, gf, pgroup, reference, scheme, wl
from .design import DesignParams
from .errors import BadInput, CheckFailed, ConsistencyError, CountMismatch
from .gf import factor_prime_power, field_create
from .pgroup import PointSet

DEFAULT_MAX_POINTS = 2000


@dataclass
class AnalysisReport:
    q: int
    p: int
    alpha: int
    n: int
    modulus: tuple
    omega: tuple
    params: DesignParams
    point_stabilizer: dict
    block_stabilizer: dict
    census: dict | None
    orbit_count_formula: int
    orbit_count_direct: int
    psl_classes: int
    cor_classes: int
    wl_classes: int
    wl_rounds: int
    wl_colors_per_round: list
    wl_lambda_of_color: dict
    flags: dict
    drg: dict | None
    expected: dict | None
    check_level: str
    timings: dict = dc_field(default_factory=dict, repr=False, compare=False)


@dataclass
class AnalysisArtifacts:
    """The heavyweight pipeline values, each computed once per run."""

    field: object
    point_set: object
    generator_perms: list
    frobenius: np.ndarray
    sigma: np.ndarray
    design: object
    concurrence: np.ndarray  # lambda_matrix with r on the diagonal
    lambda_coloring: object
    psl_config: object
    full_config: object
    wl_trace: object


def compute(
    q: int,
    *,
    modulus: tuple | None = None,
    generator=None,
    max_points: int = DEFAULT_MAX_POINTS,
    force: bool = False,
    check_level: str | None = None,
) -> tuple[AnalysisReport, AnalysisArtifacts]:
    """Build every pipeline value for one q, and the report on them.

    Runs none of CHECKS; the report's params and census are the closed
    forms that "design counts" and "pair census" check the design against.
    """
    timings: dict = {}

    def clock():
        return time.perf_counter() * 1000.0

    p, alpha = factor_prime_power(q)
    counting.check_congruence(p, alpha)
    n = (q * q - 1) // 4
    if n > max_points and not force:
        raise BadInput(
            f"q={q} has {n} points, above the limit of {max_points}; "
            f"pass --force (or raise --max-points) to run it anyway"
        )

    t0 = clock()
    fld = field_create(p, alpha, modulus_override=modulus, generator_override=generator)
    ps = PointSet(fld)
    timings["field_and_points"] = clock() - t0

    t0 = clock()
    gen_perms = pgroup.generator_perms(ps)
    dsn = design_mod.build_design(fld, ps, gen_perms)
    timings["design"] = clock() - t0

    t0 = clock()
    point_stab = pgroup.point_stabilizer_report(ps)
    block_stab = design_mod.block_stabilizer_report(dsn)
    oc_formula = counting.orbit_count_formula(p, alpha)
    oc_direct = counting.orbit_count_direct(fld)
    timings["counts"] = clock() - t0

    mode = scheme.full_check_mode(n, check_level)
    t0 = clock()
    psl_col = scheme.orbital_coloring(gen_perms, n)
    timings["psl_scheme"] = clock() - t0

    t0 = clock()
    frob = pgroup.frobenius_perm(ps)
    sig = pgroup.sigma_perm(ps)
    full_col = scheme.orbital_coloring(gen_perms + [frob, sig], n)
    full_config = scheme.intersection_tensor(full_col, mode=mode)
    timings["full_scheme"] = clock() - t0

    t0 = clock()
    lam = design_mod.lambda_matrix(dsn)
    lam_col = wl.lambda_coloring(dsn, lam)
    # The full group preserves the block set, so the concurrence coloring is
    # a union of its orbitals and the closure a fusion of them.
    trace = wl.wl_stabilize(lam_col, check_level=check_level, orbitals=full_config)
    props = scheme.check_props(trace.final)
    wl_lambdas = scheme.gpbibd_check(dsn, trace.final.coloring, lam)
    timings["wl"] = clock() - t0

    # Certified after the closure, not with psl_scheme: its n^2 temporaries
    # then raise peak RSS less (2 MB less at q = 53).
    t0 = clock()
    psl_config = scheme.intersection_tensor(psl_col, mode=mode)
    timings["psl_tensor"] = clock() - t0

    t0 = clock()
    drg = scheme.drg_analysis(trace.final, props)
    timings["drg"] = clock() - t0

    params = design_mod.design_params(fld)
    cor_classes = full_col.num_colors - 1
    report = AnalysisReport(
        q=q,
        p=p,
        alpha=alpha,
        n=n,
        modulus=fld.modulus,
        omega=fld.omega.coeffs,
        params=params,
        point_stabilizer=point_stab,
        block_stabilizer=block_stab,
        census=design_mod.census_counts(fld),
        orbit_count_formula=oc_formula,
        orbit_count_direct=oc_direct,
        psl_classes=psl_col.num_colors - 1,
        cor_classes=cor_classes,
        wl_classes=props.classes,
        wl_rounds=trace.rounds,
        wl_colors_per_round=list(trace.colors_per_round),
        wl_lambda_of_color=wl_lambdas,
        flags={
            "schurian": wl.schurian_flag(props.classes, cor_classes),
            "symmetric": props.symmetric,
            "commutative": props.commutative,
            "homogeneous": props.homogeneous,
            "degenerate": params.degenerate,
        },
        drg=drg,
        expected=None,
        check_level=trace.final.check_level,
        timings=timings,
    )
    report.expected = reference.compare_report(report)
    bundle = AnalysisArtifacts(
        field=fld,
        point_set=ps,
        generator_perms=gen_perms,
        frobenius=frob,
        sigma=sig,
        design=dsn,
        concurrence=lam,
        lambda_coloring=lam_col,
        psl_config=psl_config,
        full_config=full_config,
        wl_trace=trace,
    )
    return report, bundle


# ---------------------------------------------------------------------------
# The named checks.  Each takes (bundle, report) from compute() and returns
# a detail line, or raises ConsistencyError; none recomputes a value that
# compute() holds.

A4_ELEMENT_ORDERS = [1, 2, 2, 2] + [3] * 8
A5_ELEMENT_ORDERS = [1] + [2] * 15 + [3] * 20 + [5] * 24


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
    minimal = next(gf.irreducible_moduli(f.p, f.alpha))
    if f.modulus != minimal:
        return f"running with override {f.modulus}; lex-least would be {minimal}"
    return f"modulus {f.modulus} is the lex-least monic irreducible"


def _check_transitivity(bundle, report) -> str:
    # The orbital coloring gives each point orbit of its BFS one diagonal
    # color, so the orbit of point 0 is where the diagonal carries C[0, 0].
    n = bundle.point_set.n
    diag = bundle.psl_config.coloring.color.diagonal()
    reached = int(np.count_nonzero(diag == diag[0]))
    if reached != n:
        raise CountMismatch("orbit of point 0", n, reached)
    return f"generators reach all {n} points from point 0"


def _check_point_stabilizer(bundle, report) -> str:
    rep = report.point_stabilizer
    if not rep["shape_verified"]:
        raise CountMismatch("stabilizer shape verified", True, False)
    return (
        f"order {rep['order']} = 2q, matches index {rep['index']} "
        f"and the explicit upper-triangular form"
    )


def _check_frobenius(bundle, report) -> str:
    n = bundle.point_set.n
    f = bundle.field
    frob = bundle.frobenius
    power = np.arange(n, dtype=np.int32)
    for _ in range(f.alpha):
        power = frob[power]
    if not np.array_equal(power, np.arange(n)):
        raise CountMismatch("frobenius^alpha", "identity", "not identity")
    blockset = {blk.points for blk in bundle.design.blocks}
    flist = frob.tolist()
    for blk in bundle.design.blocks:
        if tuple(sorted(flist[x] for x in blk.points)) not in blockset:
            raise CountMismatch("frobenius image of a block", "a block", "not a block")
    return f"frobenius has order dividing {f.alpha} and permutes the block set"


def _check_sigma(bundle, report) -> str:
    # sigma_perm already checked the action on the basic block and sigma^2;
    # this adds that conjugation by sigma maps each generator into the group.
    ps = bundle.point_set
    f = bundle.field
    sig = bundle.sigma
    siginv = scheme.invert_perm(sig)
    i, one, zero = f.i_elem, f.one, f.zero
    m = pgroup.sigma_matrix(f)
    minv = (-i, i, zero, one)
    ident = (one, zero, zero, one)
    prod = _mat_mul(m, minv)
    if tuple(e.coeffs for e in prod) != tuple(e.coeffs for e in ident):
        raise CountMismatch("sigma * sigma^-1", "identity matrix", repr(prod))
    for g, gp in zip(pgroup.psl_generators(f), bundle.generator_perms):
        conj = _mat_mul(_mat_mul(m, g.m), minv)
        pgroup.PslElement.from_matrix(conj)  # stays unimodular
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
    expected = A4_ELEMENT_ORDERS if rep["order"] == 12 else A5_ELEMENT_ORDERS
    if rep["element_orders"] != expected:
        raise CountMismatch("stabilizer element orders", expected, rep["element_orders"])
    name = "tetrahedral" if rep["order"] == 12 else "icosahedral"
    parts = [f"order {rep['order']} by orbit-stabilizer and by frame"]
    if rep["explicit_reps_verified"]:
        parts.append("12 explicit rotations verified")
    parts.append(f"element orders match the {name} rotation group")
    return "; ".join(parts)


def _check_orbit_counts(bundle, report) -> str:
    if report.orbit_count_formula != report.orbit_count_direct:
        raise CountMismatch("orbit count", report.orbit_count_formula,
                            report.orbit_count_direct)
    floor = counting.min_associate_classes(report.p, report.alpha)
    if report.cor_classes != floor:
        raise CountMismatch("full-group classes", floor, report.cor_classes)
    return (
        f"formula and direct count agree on {report.orbit_count_formula} "
        f"scalar orbits; full-group scheme meets the floor of {floor} classes"
    )


def _check_psl_scheme(bundle, report) -> str:
    if report.psl_classes != report.params.m:
        raise CountMismatch("PSL classes", report.params.m, report.psl_classes)
    config = bundle.psl_config
    lambdas = scheme.gpbibd_check(bundle.design, config.coloring, bundle.concurrence)
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
    # With the closure equitable (gpbibd_check in compute), this chain also
    # makes both orbital schemes equitable.  The full-group orbitals refine
    # the closure by construction: its colors are a function of theirs.
    psl = bundle.psl_config.coloring
    full = bundle.full_config.coloring
    closure = bundle.wl_trace.final.coloring
    lam = bundle.lambda_coloring
    for finer, coarser, what in (
        (psl, full, "PSL orbitals into full-group orbitals"),
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
    if flags["symmetric"] and not flags["commutative"]:
        raise CountMismatch("commutative", "true for symmetric schemes", "false")
    if not flags["homogeneous"]:
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


def _invariants(report) -> tuple:
    params, flags = report.params, report.flags
    return (params.v, params.b, params.r, report.cor_classes, report.wl_classes,
            flags["schurian"], flags["symmetric"], flags["commutative"])


def _second(items):
    return next(itertools.islice(items, 1, None), None)


def _check_presentation_independence(bundle, report) -> str:
    q = report.q
    if q > 25:
        return "skipped above q=25 (covered by the small cases)"
    alternates = []  # (what, value, analyze_q overrides)
    alt_mod = _second(gf.irreducible_moduli(report.p, report.alpha)) if report.alpha > 1 else None
    if alt_mod is not None:
        alternates.append(("modulus", alt_mod, {"modulus": alt_mod}))
    alt_gen = _second(gf.generators(bundle.field))
    if alt_gen is not None:
        # alt_gen's coefficients are in this field's presentation
        alternates.append(("generator", alt_gen.coeffs,
                           {"modulus": bundle.field.modulus, "generator": alt_gen.coeffs}))
    base = _invariants(report)
    for what, value, presentation in alternates:
        alt = _invariants(analyze_q(q, **presentation))
        if alt != base:
            raise CountMismatch(f"invariants under alternate {what}", base, alt)
    if not alternates:
        return "no alternate presentation exists at this q"
    return "invariants unchanged under " + " and ".join(
        f"{what} {value}" for what, value, _ in alternates
    )


@dataclass(frozen=True)
class Check:
    name: str
    run: Callable  # (bundle, report) -> detail line; raises ConsistencyError
    verify_only: bool = False


CHECKS = [
    Check("field constants", _check_field),
    Check("modulus minimality", _check_modulus_minimal),
    Check("point transitivity", _check_transitivity),
    Check("point stabilizer", _check_point_stabilizer),
    Check("frobenius action", _check_frobenius),
    Check("sigma action", _check_sigma, verify_only=True),
    Check("design counts", _check_design_counts),
    Check("pair census", _check_census),
    Check("block stabilizer", _check_block_stabilizer),
    Check("scalar orbit counts", _check_orbit_counts),
    Check("group scheme", _check_psl_scheme),
    Check("valency identity", _check_valency_identity),
    # one dense WL round at the fixpoint, n^3 work
    Check("closure trace", _check_wl_trace, verify_only=True),
    Check("refinement chain", _check_refinement_chain),
    Check("flags", _check_flags),
    # a mismatch is data, reported in report.expected
    Check("reference row", _check_reference, verify_only=True),
    # re-runs analyze_q under other presentations
    Check("presentation independence", _check_presentation_independence,
          verify_only=True),
]


def analyze_q(
    q: int,
    *,
    modulus: tuple | None = None,
    generator=None,
    max_points: int = DEFAULT_MAX_POINTS,
    force: bool = False,
    check_level: str | None = None,
    artifacts: dict | None = None,
) -> AnalysisReport:
    """Run the pipeline for one q and every check not marked verify_only.

    Raises CheckFailed, naming the first check that fails.  Pass
    `artifacts={}` to receive the AnalysisArtifacts under "bundle".
    """
    report, bundle = compute(
        q,
        modulus=modulus,
        generator=generator,
        max_points=max_points,
        force=force,
        check_level=check_level,
    )
    t0 = time.perf_counter()
    for check in CHECKS:
        if check.verify_only:
            continue
        try:
            check.run(bundle, report)
        except ConsistencyError as exc:
            raise CheckFailed(check.name, exc) from exc
    report.timings["checks"] = (time.perf_counter() - t0) * 1000.0
    if artifacts is not None:
        artifacts["bundle"] = bundle
    return report


def report_to_dict(report: AnalysisReport) -> dict:
    """JSON-ready dict; excludes timings so output is run-independent."""
    params = report.params
    return {
        "q": report.q,
        "p": report.p,
        "alpha": report.alpha,
        "n": report.n,
        "modulus": list(report.modulus),
        "omega": list(report.omega),
        "params": {
            "v": params.v,
            "b": params.b,
            "r": params.r,
            "k": params.k,
            "m": params.m,
            "lambda": dict(sorted(params.lambda_by_class.items())),
        },
        "point_stabilizer": report.point_stabilizer,
        "block_stabilizer": report.block_stabilizer,
        "census": report.census,
        "orbit_counts": {
            "formula": report.orbit_count_formula,
            "direct": report.orbit_count_direct,
        },
        "psl_classes": report.psl_classes,
        "cor_classes": report.cor_classes,
        "wl_classes": report.wl_classes,
        "wl": {
            "rounds": report.wl_rounds,
            "colors_per_round": report.wl_colors_per_round,
            "lambda_of_color": {
                str(c): lam for c, lam in sorted(report.wl_lambda_of_color.items())
            },
        },
        "flags": report.flags,
        "drg": report.drg,
        "expected": report.expected,
        "check_level": report.check_level,
    }


def render_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


TSV_COLUMNS = [
    "q", "p", "alpha", "v", "b", "r", "k", "m",
    "psl_classes", "cor_classes", "wl_classes",
    "schurian", "symmetric", "commutative", "degenerate",
    "wl_rounds", "lambda", "drg", "expected",
]


def _tsv_cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def report_tsv_row(report: AnalysisReport) -> list[str]:
    params = report.params
    lam = ",".join(f"{k}:{v}" for k, v in sorted(params.lambda_by_class.items()))
    drg = "-"
    if report.drg is not None:
        arr = report.drg["intersection_array"]
        drg = "{" + ",".join(map(str, arr[:3])) + ";" + ",".join(map(str, arr[3:])) + "}"
        if report.drg.get("antipodal"):
            drg += f" antipodal fold {report.drg['fold']} over {report.drg['cover_of']}"
    expected = "-"
    if report.expected is not None:
        expected = "match" if report.expected["all_match"] else "MISMATCH"
    cells = [
        report.q, report.p, report.alpha, params.v, params.b, params.r,
        params.k, params.m, report.psl_classes, report.cor_classes,
        report.wl_classes, report.flags["schurian"], report.flags["symmetric"],
        report.flags["commutative"], report.flags["degenerate"],
        report.wl_rounds, lam, drg, expected,
    ]
    return [_tsv_cell(c) for c in cells]


def render_tsv(
    reports: list[AnalysisReport],
    skipped: list[dict] | None = None,
    failures: list[dict] | None = None,
) -> str:
    lines = ["\t".join(TSV_COLUMNS)]
    for report in reports:
        lines.append("\t".join(report_tsv_row(report)))
    for row in skipped or []:
        cells = [str(row["q"])] + ["skipped"] + ["-"] * (len(TSV_COLUMNS) - 2)
        lines.append("\t".join(cells))
    for row in failures or []:
        cells = [str(row["q"])] + ["FAILED " + row["error"]]
        cells += ["-"] * (len(TSV_COLUMNS) - 2)
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"


def render_text(report: AnalysisReport, show_timings: bool = False) -> str:
    params = report.params
    lam = ", ".join(f"{k}={v}" for k, v in sorted(params.lambda_by_class.items()))
    lines = [
        f"q = {report.q} = {report.p}^{report.alpha}   "
        f"modulus {' '.join(map(str, report.modulus))}   "
        f"omega {' '.join(map(str, report.omega))}",
        f"design: v={params.v} b={params.b} r={params.r} k={params.k} ({lam})",
        f"point stabilizer order {report.point_stabilizer['order']}, "
        f"block stabilizer order {report.block_stabilizer['order']}",
        f"scalar orbit count: formula {report.orbit_count_formula}, "
        f"direct {report.orbit_count_direct}",
        f"classes: PSL {report.psl_classes}, full group {report.cor_classes}, "
        f"coherent closure {report.wl_classes}",
        f"wl rounds {report.wl_rounds}, colors per round "
        f"{report.wl_colors_per_round}",
        f"flags: {report.flags['schurian']}, "
        f"symmetric={report.flags['symmetric']}, "
        f"commutative={report.flags['commutative']}, "
        f"degenerate={report.flags['degenerate']}",
    ]
    if report.census is not None:
        lines.append(
            f"census: {report.census['edges']} edges in 4 blocks each, "
            f"{report.census['diagonals']} diagonals in 1 block each"
        )
    if report.drg is not None:
        arr = report.drg["intersection_array"]
        head = "{" + ",".join(map(str, arr[:3])) + ";" + ",".join(map(str, arr[3:])) + "}"
        line = f"distance-regular on relation {report.drg['relation']}: {head}"
        if report.drg.get("antipodal"):
            line += (
                f", antipodal {report.drg['fold']}-fold cover of a complete "
                f"graph on {report.drg['cover_of']} vertices"
            )
        lines.append(line)
    if report.expected is not None:
        verdict = "all match" if report.expected["all_match"] else "MISMATCH"
        lines.append(f"reference comparison: {verdict}")
        for note in report.expected["notes"]:
            lines.append(f"  note: {note}")
    if show_timings:
        total = sum(report.timings.values())
        parts = ", ".join(f"{k} {v:.0f} ms" for k, v in report.timings.items())
        lines.append(f"timings: total {total:.0f} ms ({parts})")
    return "\n".join(lines) + "\n"


def family_members(max_q: int) -> list[int]:
    """All prime powers q = 1 (mod 4) with 5 <= q <= max_q."""
    out = []
    for q in range(5, max_q + 1):
        if q % 4 != 1:
            continue
        try:
            factor_prime_power(q)
        except BadInput:
            continue
        out.append(q)
    return out
