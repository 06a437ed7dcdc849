"""Every named check for one q, each reported as pass/fail.

The checks are analysis.CHECKS, the ordered table analyze_q runs.
run_verification computes the pipeline once, then runs every entry,
including those marked verify_only; a failing entry becomes a failed result
and the next entry runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import analysis
from .errors import OctadesignError


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


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
    report, bundle = analysis.compute(
        q,
        modulus=modulus,
        generator=generator,
        max_points=max_points,
        force=force,
        check_level=check_level,
    )
    results = []
    for check in analysis.CHECKS:
        try:
            detail = check.run(bundle, report)
            results.append(CheckResult(check.name, True, detail))
        except OctadesignError as exc:
            results.append(CheckResult(check.name, False, str(exc)))
    return results
