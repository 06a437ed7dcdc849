"""Command-line interface.

Exit codes: 0 success, 2 an internal consistency check failed (or a
requested comparison found a mismatch), 3 bad input or usage.  Machine
formats (json, tsv) never include timings, so repeated runs produce
byte-identical output; OCTA_THREADS only sets how many table rows are
computed concurrently and never affects the bytes.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import click

from . import analysis, design as design_mod, scheme, verify as verify_mod, wl
from .errors import BadInput, ConsistencyError
from .gf import parse_field_spec


def _parse_modulus(q: int, text: str | None) -> tuple[int, ...] | None:
    if text is None:
        return None
    p, alpha, coeffs = parse_field_spec(text)
    if p**alpha != q:
        raise BadInput(f"modulus spec is for GF({p}^{alpha}), not GF({q})")
    return coeffs


def _parse_generator(text: str | None):
    if text is None:
        return None
    try:
        nums = [int(s) for s in text.split()]
    except ValueError as exc:
        raise BadInput(f"generator must be integers: {text!r}") from exc
    if not nums:
        raise BadInput("generator spec is empty")
    return nums[0] if len(nums) == 1 else tuple(nums)


def _thread_count() -> int:
    raw = os.environ.get("OCTA_THREADS", "1")
    try:
        count = int(raw)
    except ValueError as exc:
        raise BadInput(f"OCTA_THREADS must be an integer, got {raw!r}") from exc
    return max(1, count)


@click.group()
def cli():
    """Octahedral designs over GF(q) and their association schemes."""


@cli.command()
@click.argument("q", type=int)
@click.option("--format", "-f", "fmt", type=click.Choice(["json", "tsv", "text"]),
              default="text", show_default=True)
@click.option("--modulus", help='Field spec "p alpha c0 ... c_alpha" overriding '
                                "the default modulus.")
@click.option("--generator", help="Multiplicative generator override: one int "
                                  "or a coefficient list.")
@click.option("--max-points", type=int, default=analysis.DEFAULT_MAX_POINTS,
              show_default=True, help="Refuse larger point sets unless --force.")
@click.option("--force", is_flag=True, help="Run however large the point set is.")
@click.option("--check-level", type=click.Choice(["full", "sampled"]), default=None,
              help="Coherence verification depth (default: full up to 702 points).")
@click.option("--dump-design", type=click.Path(dir_okay=False), default=None,
              help="Write the block list to this file.")
@click.option("--dump-scheme", type=click.Path(dir_okay=False), default=None,
              help="Write the coherent closure coloring to this file.")
@click.option("--timings", is_flag=True, help="Append wall-clock timings "
                                              "(text format only).")
def analyze(q, fmt, modulus, generator, max_points, force, check_level,
            dump_design, dump_scheme, timings):
    """Construct and verify everything for one prime power Q."""
    holder: dict = {}
    report = analysis.analyze_q(
        q,
        modulus=_parse_modulus(q, modulus),
        generator=_parse_generator(generator),
        max_points=max_points,
        force=force,
        check_level=check_level,
        artifacts=holder,
    )
    bundle = holder["bundle"]
    if dump_design:
        design_mod.dump_design(bundle.design, dump_design)
    if dump_scheme:
        scheme.dump_scheme(bundle.wl_trace.final, dump_scheme)
    if fmt == "json":
        click.echo(analysis.render_json(analysis.report_to_dict(report)), nl=False)
    elif fmt == "tsv":
        click.echo(analysis.render_tsv([report]), nl=False)
    else:
        click.echo(analysis.render_text(report, show_timings=timings), nl=False)
    return 0


@cli.command()
@click.option("--max-q", type=int, default=49, show_default=True,
              help="Largest q to include.")
@click.option("--format", "-f", "fmt", type=click.Choice(["json", "tsv", "text"]),
              default="text", show_default=True)
@click.option("--max-points", type=int, default=analysis.DEFAULT_MAX_POINTS,
              show_default=True, help="Rows with more points are marked skipped.")
@click.option("--force", is_flag=True, help="Compute every row, however large.")
@click.option("--check-level", type=click.Choice(["full", "sampled"]), default=None)
@click.option("--expected", is_flag=True,
              help="Exit 2 unless every computed row matches its reference row.")
def table(max_q, fmt, max_points, force, check_level, expected):
    """Analyze every family member q <= --max-q and tabulate the results.

    A member whose analysis raises ConsistencyError (a failed named check or
    certificate) becomes a FAILED row and the exit code is 2; any other
    exception aborts the whole table.
    """
    members = analysis.family_members(max_q)
    skipped = []
    to_run = []
    for q in members:
        n = (q * q - 1) // 4
        if n > max_points and not force:
            skipped.append({"q": q, "n": n, "reason": "point set above --max-points"})
        else:
            to_run.append(q)

    def run_one(q: int):
        try:
            return analysis.analyze_q(
                q, max_points=max_points, force=force, check_level=check_level
            )
        except ConsistencyError as exc:
            return {"q": q, "error": f"{type(exc).__name__}: {exc}"}

    threads = _thread_count()
    if threads > 1 and len(to_run) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(run_one, to_run))
    else:
        outcomes = [run_one(q) for q in to_run]
    reports = [r for r in outcomes if not isinstance(r, dict)]
    failures = [r for r in outcomes if isinstance(r, dict)]

    if fmt == "json":
        payload = {
            "rows": [analysis.report_to_dict(rep) for rep in reports],
            "skipped": skipped,
            "failures": failures,
        }
        click.echo(analysis.render_json(payload), nl=False)
    elif fmt == "tsv":
        click.echo(analysis.render_tsv(reports, skipped, failures), nl=False)
    else:
        lines = []
        for rep in reports:
            flags = rep.flags
            marks = []
            if flags["schurian"] == wl.NON_SCHURIAN:
                marks.append("non-schurian")
            if flags["commutative"] is False:
                marks.append("non-commutative")
            if flags["degenerate"]:
                marks.append("degenerate")
            if rep.drg is not None:
                marks.append("distance-regular")
            verdict = ""
            if rep.expected is not None:
                verdict = "match" if rep.expected["all_match"] else "MISMATCH"
            lines.append(
                f"q={rep.q:<4} v={rep.params.v:<5} b={rep.params.b:<7} "
                f"r={rep.params.r:<4} classes: group {rep.cor_classes:<3} "
                f"closure {rep.wl_classes:<3} {verdict:<9} {' '.join(marks)}".rstrip()
            )
            if expected and rep.expected is not None:
                cells = " ".join(
                    f"{name}{'✓' if ok else '✗'}"
                    for name, ok in sorted(rep.expected["matches"].items())
                )
                lines.append(f"      expected: {cells}")
        for row in skipped:
            lines.append(f"q={row['q']:<4} skipped ({row['n']} points)")
        for row in failures:
            lines.append(f"q={row['q']:<4} FAILED {row['error']}")
        if lines:
            click.echo("\n".join(lines))

    if failures:
        return 2
    if expected:
        bad = [rep.q for rep in reports
               if rep.expected is not None and not rep.expected["all_match"]]
        if bad:
            click.echo(f"reference mismatch at q = {bad}", err=True)
            return 2
    return 0


@cli.command()
@click.argument("q", type=int)
@click.option("--modulus", help='Field spec "p alpha c0 ... c_alpha".')
@click.option("--generator", help="Generator override.")
@click.option("--max-points", type=int, default=analysis.DEFAULT_MAX_POINTS,
              show_default=True)
@click.option("--force", is_flag=True)
@click.option("--check-level", type=click.Choice(["full", "sampled"]), default=None)
def verify(q, modulus, generator, max_points, force, check_level):
    """Run every named structural check for Q, one result line each."""
    results = verify_mod.run_verification(
        q,
        modulus=_parse_modulus(q, modulus),
        generator=_parse_generator(generator),
        max_points=max_points,
        force=force,
        check_level=check_level,
    )
    failed = 0
    for res in results:
        mark = "ok  " if res.passed else "FAIL"
        click.echo(f"{mark} {res.name}: {res.detail}")
        failed += 0 if res.passed else 1
    click.echo(f"{len(results)} checks, {len(results) - failed} passed")
    return 2 if failed else 0


@cli.command("wl-stabilize")
@click.option("--input", "input_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Pair coloring file in the scheme export format.")
@click.option("--output", type=click.Path(dir_okay=False), default=None,
              help="Write the stabilized coloring (same format) here.")
@click.option("--check-level", type=click.Choice(["full", "sampled"]), default=None)
@click.option("--max-points", type=int, default=analysis.DEFAULT_MAX_POINTS,
              show_default=True, help="Refuse files declaring more points.")
def wl_stabilize_cmd(input_path, output, check_level, max_points):
    """Refine a pair coloring file to its coherent closure."""
    try:
        coloring = scheme.load_pair_coloring(input_path, max_points=max_points)
    except ValueError as exc:
        raise BadInput(str(exc)) from exc
    trace = wl.wl_stabilize(coloring, check_level=check_level)
    final = trace.final
    props = scheme.check_props(final)
    if output:
        scheme.dump_scheme(final, output)
    click.echo(
        f"n={coloring.n} colors_in={coloring.num_colors} "
        f"colors_out={final.coloring.num_colors} rounds={trace.rounds} "
        f"trace={trace.colors_per_round} symmetric={props.symmetric} "
        f"commutative={props.commutative} check={final.check_level}"
    )
    return 0


def main(argv=None) -> int:
    """Entry point with explicit exit-code mapping."""
    try:
        result = cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 130
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.exceptions.ClickException as exc:
        exc.show()
        return 3
    except BadInput as exc:
        click.echo(f"error: {exc}", err=True)
        return 3
    except ConsistencyError as exc:
        click.echo(f"inconsistency: {exc}", err=True)
        return 2
    return int(result or 0)


if __name__ == "__main__":
    raise SystemExit(main())
