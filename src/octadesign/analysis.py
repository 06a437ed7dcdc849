"""Full pipeline for one q: field, design, schemes, closure, flags, report.

The report carries only exact integers, booleans, and strings; per-phase
timings (milliseconds) are kept beside the report and never enter
machine-readable output, so repeated runs serialize to identical bytes.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import counting, design as design_mod, pgroup, reference, scheme, wl
from .design import DesignParams
from .errors import BadInput, ConsistencyError, CountMismatch, RefinementViolation
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
    """Heavyweight intermediates, for callers that want to dump or reuse them."""

    field: object
    point_set: object
    design: object
    psl_config: object
    full_config: object
    wl_trace: object


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
    """Run the whole construction and verification pipeline for one q."""
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
    dsn = design_mod.build_design(fld, ps)
    params = design_mod.verify_counts(dsn)
    timings["design"] = clock() - t0

    t0 = clock()
    point_stab = pgroup.point_stabilizer_report(ps)
    block_stab = design_mod.block_stabilizer_report(dsn)
    census = design_mod.edge_diagonal_census(dsn) if p != 5 else None
    oc_formula = counting.orbit_count_formula(p, alpha)
    oc_direct = counting.orbit_count_direct(fld)
    if oc_formula != oc_direct:
        raise CountMismatch("scalar orbit count", oc_formula, oc_direct)
    m_min = 2 * oc_formula - 1
    timings["counts"] = clock() - t0

    t0 = clock()
    gen_perms = pgroup.generator_perms(ps)
    psl_col = scheme.orbital_coloring(gen_perms, n)
    psl_classes = psl_col.num_colors - 1
    if psl_classes != params.m:
        raise CountMismatch("PSL orbital classes", params.m, psl_classes)
    timings["psl_scheme"] = clock() - t0

    t0 = clock()
    frob = pgroup.frobenius_perm(ps)
    blockset = {blk.points for blk in dsn.blocks}
    base_pts = dsn.blocks[0].points
    frob_image = tuple(sorted(int(frob[x]) for x in base_pts))
    if frob_image not in blockset:
        raise ConsistencyError("Frobenius does not preserve the block set")
    sig = pgroup.sigma_perm(ps)
    full_col = scheme.orbital_coloring(gen_perms + [frob, sig], n)
    cor_classes = full_col.num_colors - 1
    if cor_classes != m_min:
        raise CountMismatch("full-group orbital classes", m_min, cor_classes)
    full_config = scheme.intersection_tensor(full_col, mode=scheme.full_check_mode(n, check_level))
    timings["full_scheme"] = clock() - t0

    t0 = clock()
    lam_col = wl.lambda_coloring(dsn)
    # The full group preserves the block set, so the concurrence coloring is
    # a union of its orbitals and the closure a fusion of them.
    trace = wl.wl_stabilize(lam_col, check_level=check_level, orbitals=full_config)
    wl_config = trace.final
    props = scheme.check_props(wl_config)
    wl_classes = props.classes
    timings["wl"] = clock() - t0

    t0 = clock()
    mode = wl_config.check_level
    psl_config = scheme.intersection_tensor(psl_col, mode=scheme.full_check_mode(n, check_level))
    if not scheme.refines(psl_col, full_col):
        raise RefinementViolation("PSL orbitals do not refine the full-group orbitals")
    if not scheme.refines(full_col, wl_config.coloring):
        raise RefinementViolation("full-group orbitals do not refine the coherent closure")
    if not scheme.refines(wl_config.coloring, lam_col):
        raise RefinementViolation("the coherent closure does not refine the concurrence classes")
    wl_lambdas = scheme.gpbibd_check(dsn, wl_config.coloring)
    scheme.gpbibd_check(dsn, psl_col)
    scheme.gpbibd_check(dsn, full_col)
    timings["scheme_checks"] = clock() - t0

    t0 = clock()
    drg = scheme.drg_analysis(wl_config)
    timings["drg"] = clock() - t0

    flags = {
        "schurian": wl.schurian_flag(wl_classes, cor_classes),
        "symmetric": props.symmetric,
        "commutative": props.commutative,
        "homogeneous": props.homogeneous,
        "degenerate": params.degenerate,
    }
    if props.symmetric and not props.commutative:
        raise ConsistencyError("a symmetric scheme must be commutative")

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
        census=census,
        orbit_count_formula=oc_formula,
        orbit_count_direct=oc_direct,
        psl_classes=psl_classes,
        cor_classes=cor_classes,
        wl_classes=wl_classes,
        wl_rounds=trace.rounds,
        wl_colors_per_round=list(trace.colors_per_round),
        wl_lambda_of_color=wl_lambdas,
        flags=flags,
        drg=drg,
        expected=None,
        check_level=mode,
        timings=timings,
    )
    report.expected = reference.compare_report(report)
    if artifacts is not None:
        artifacts["bundle"] = AnalysisArtifacts(
            field=fld,
            point_set=ps,
            design=dsn,
            psl_config=psl_config,
            full_config=full_config,
            wl_trace=trace,
        )
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
