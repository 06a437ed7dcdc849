"""Workloads: seeded inputs, the CLI operations to run, and their checks.

Every expected value below belongs to the benchmark.  They were taken from
a run at the default field presentation, compared by hand against the
published family table, and confirmed on seeds not used while writing
them.  None of them is read from the program.  Every checked value is
independent of the field presentation, so one table serves every seed.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from dataclasses import dataclass

# Spans the traced run records, named <module>.<function> of octadesign.
SPANS = (
    "gf.field_create",
    "pgroup.PointSet",
    "pgroup.generator_perms",
    "pgroup.point_stabilizer_report",
    "pgroup.frobenius_perm",
    "pgroup.sigma_perm",
    "pgroup.mulclose",
    "design.build_design",
    "design.verify_counts",
    "design.block_stabilizer_report",
    "design.edge_diagonal_census",
    "design.lambda_matrix",
    "counting.orbit_count_direct",
    "scheme.orbital_coloring",
    "scheme.intersection_tensor",
    "scheme.gpbibd_check",
    "scheme.refines",
    "scheme.drg_analysis",
    "scheme.load_pair_coloring",
    "scheme.dump_scheme",
    "wl.lambda_coloring",
    "wl.wl_stabilize",
    "verify.run_verification",
    "analysis.analyze_q",
    "cli.main",
)

_FILE_SPANS = {"scheme.load_pair_coloring", "scheme.dump_scheme"}
_ANALYZE_SPANS = frozenset(SPANS) - _FILE_SPANS - {
    "verify.run_verification", "pgroup.mulclose"}

# Expected values per q, presentation-independent.  psl/cor/wl are class
# counts of the PSL(2,q) orbital scheme, the full-group orbital scheme and
# the coherent closure.
EXPECTED = {
    13: dict(v=42, b=91, r=13, psl=5, cor=5, wl=5, colors=[4, 6, 6],
             schurian="schurian_consistent", symmetric=False, commutative=False),
    17: dict(v=72, b=204, r=17, psl=7, cor=7, wl=7, colors=[4, 7, 8, 8],
             schurian="schurian_consistent", symmetric=False, commutative=False),
    25: dict(v=156, b=130, r=5, psl=11, cor=7, wl=3, colors=[3, 4, 4],
             schurian="non_schurian", symmetric=True, commutative=True),
    29: dict(v=210, b=1015, r=29, psl=13, cor=13, wl=13, colors=[4, 7, 11, 14, 14],
             schurian="schurian_consistent", symmetric=False, commutative=False),
    53: dict(v=702, b=6201, r=53, psl=25, cor=25, wl=25, colors=[4, 7, 11, 19, 26, 26],
             schurian="schurian_consistent", symmetric=False, commutative=False),
    81: dict(v=1640, b=22140, r=81, psl=39, cor=13, wl=5, colors=[4, 6, 6],
             schurian="non_schurian", symmetric=True, commutative=True),
}

# wl-stabilize on the relabeled concurrence coloring of q = 49.
FILE_Q = 49
FILE_EXPECTED = dict(n=600, colors_in=4, colors_out=14, rounds=4,
                     trace=[4, 7, 11, 14, 14], symmetric=False, commutative=False)


@dataclass
class Op:
    argv: list
    check: object  # callable(stdout: str, workdir) -> list of problems


@dataclass
class Workload:
    name: str
    why: str
    spans: frozenset  # declared spans that must fire in the traced run
    ops: object  # callable(rng, workdir) -> list[Op]
    coloring_q: int | None = None  # q whose relabeled coloring is made before timing


# ---------------------------------------------------------------------------
# Field presentations, computed here so the program sees only the choice.

def _prime_factors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + ([n] if n > 1 else [])


def _polymulmod(a, b, mod, p):
    k = len(mod) - 1
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    for d in range(2 * k - 2, k - 1, -1):  # fold x^d with the monic modulus
        c = prod[d]
        if c:
            for j in range(k + 1):
                prod[d - k + j] = (prod[d - k + j] - c * mod[j]) % p
    return tuple(prod[:k])


def _polypow(a, e, mod, p):
    result = (1,) + (0,) * (len(a) - 1)
    while e:
        if e & 1:
            result = _polymulmod(result, a, mod, p)
        a = _polymulmod(a, a, mod, p)
        e >>= 1
    return result


def _is_irreducible(mod, p):
    """Monic `mod` (constant first) of degree k <= 4: no factor of degree <= k/2."""
    k = len(mod) - 1
    for d in range(1, k // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            f = list(tail) + [1]
            r = list(mod)
            for s in range(k - d, -1, -1):  # long division by monic f
                c = r[s + d]
                if c:
                    for j in range(d + 1):
                        r[s + j] = (r[s + j] - c * f[j]) % p
            if not any(r[:d]):
                return False
    return True


def presentations(p, alpha):
    """All (modulus, generator) pairs for GF(p^alpha), as CLI argument lists.

    Prime fields keep their one modulus and vary the generator; extension
    fields vary both.
    """
    q = p**alpha
    factors = _prime_factors(q - 1)
    if alpha == 1:
        return [["--generator", str(g)] for g in range(2, p)
                if all(pow(g, (q - 1) // ell, p) != 1 for ell in factors)]
    out = []
    for tail in itertools.product(range(p), repeat=alpha):
        mod = tuple(tail) + (1,)
        if not _is_irreducible(mod, p):
            continue
        spec = " ".join(map(str, (p, alpha) + mod))
        one = (1,) + (0,) * (alpha - 1)
        for g in itertools.product(range(p), repeat=alpha):
            if any(g) and all(_polypow(g, (q - 1) // ell, mod, p) != one
                              for ell in factors):
                out.append(["--modulus", spec, "--generator", " ".join(map(str, g))])
    return out


# ---------------------------------------------------------------------------
# Output checks.  Each returns a list of problems; empty means correct.

def _compare(what, expected, got):
    return [] if expected == got else [f"{what}: expected {expected!r}, got {got!r}"]


def _check_verify(q):
    exp = EXPECTED[q]

    def check(out, workdir):
        def grab(pattern, convert=int):
            m = re.search(pattern, out, re.MULTILINE)
            return convert(m.group(1)) if m else None

        bools = {"True": True, "False": False}
        problems = _compare("summary", "17 checks, 17 passed",
                            out.rstrip("\n").rsplit("\n", 1)[-1])
        problems += _compare("failed checks", [],
                             [ln for ln in out.splitlines() if ln.startswith("FAIL")])
        for key, pattern in (("v", r"\bv=(\d+) b="), ("b", r"\bb=(\d+) r="),
                             ("r", r"\br=(\d+) k="),
                             ("psl", r"^ok   group scheme: (\d+) classes"),
                             ("cor", r"full-group scheme meets the floor of (\d+) classes")):
            problems += _compare(f"q={q} {key}", exp[key], grab(pattern))
        chain = re.search(r"chain holds: (\d+) -> (\d+) -> (\d+) -> \d+ colors", out)
        problems += _compare(f"q={q} wl", exp["wl"], int(chain.group(3)) - 1 if chain else None)
        problems += _compare(f"q={q} colors_per_round", exp["colors"],
                             grab(r"colors (\[[\d, ]+\])", json.loads))
        problems += _compare(f"q={q} schurian", exp["schurian"],
                             grab(r"^ok   flags: (\w+),", str))
        problems += _compare(f"q={q} symmetric", exp["symmetric"],
                             grab(r"^ok   flags: .*symmetric=(\w+)", bools.get))
        problems += _compare(f"q={q} commutative", exp["commutative"],
                             grab(r"^ok   flags: .*commutative=(\w+)", bools.get))
        return problems

    return check


def _check_analyze(q):
    exp = EXPECTED[q]

    def check(out, workdir):
        try:
            d = json.loads(out)
        except ValueError:
            return [f"q={q}: output is not JSON"]
        got = dict(v=d["params"]["v"], b=d["params"]["b"], r=d["params"]["r"],
                   psl=d["psl_classes"], cor=d["cor_classes"], wl=d["wl_classes"],
                   colors=d["wl"]["colors_per_round"], **{
                       k: d["flags"][k] for k in ("schurian", "symmetric", "commutative")})
        return [p for key in exp for p in _compare(f"q={q} {key}", exp[key], got[key])]

    return check


def _check_file_closure(out, workdir):
    m = re.fullmatch(r"n=(\d+) colors_in=(\d+) colors_out=(\d+) rounds=(\d+) "
                     r"trace=(\[[\d, ]+\]) symmetric=(\w+) commutative=(\w+) check=\w+\n", out)
    if not m:
        return [f"unexpected wl-stabilize output {out!r}"]
    got = dict(n=int(m[1]), colors_in=int(m[2]), colors_out=int(m[3]), rounds=int(m[4]),
               trace=json.loads(m[5]), symmetric=m[6] == "True", commutative=m[7] == "True")
    problems = [p for key in FILE_EXPECTED
                for p in _compare(f"wl-stabilize {key}", FILE_EXPECTED[key], got[key])]
    with open(workdir / "closure.txt", encoding="ascii") as fh:
        header = fh.readline().split()
    return problems + _compare("closure file header",
                               [str(FILE_EXPECTED["n"]), str(FILE_EXPECTED["colors_out"])],
                               header)


# ---------------------------------------------------------------------------
# Workload definitions.  The seed only chooses among equivalent inputs.

def _verify_small_ops(rng, workdir):
    # q = 25 keeps the default presentation: `verify 25` fails two checks
    # under other presentations, a program defect recorded in README.md.
    # Lift this pin when the program is fixed.
    ops = []
    for q, p in ((13, 13), (17, 17), (25, None), (29, 29)):
        flags = rng.choice(presentations(p, 1)) if p else []
        ops.append(Op(["verify", str(q)] + flags, _check_verify(q)))
    return ops


def _analyze_ops(q, p, alpha):
    def ops(rng, workdir):
        return [Op(["analyze", str(q), "--format", "json"]
                   + rng.choice(presentations(p, alpha)), _check_analyze(q))]
    return ops


def _file_closure_ops(rng, workdir):
    return [Op(["wl-stabilize", "--input", str(workdir / "coloring.txt"),
                "--output", str(workdir / "closure.txt")], _check_file_closure)]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "verify_small",
            "verify q=13,17,25,29: brute-force block stabilizer and field "
            "arithmetic dominate; the closure is trivial",
            frozenset(SPANS) - _FILE_SPANS, _verify_small_ops),
        Workload(
            "closure_schurian",
            "analyze q=53 (n=702, Schurian, 5 rounds to 26 colors): dense WL "
            "closure dominates; the stabilizer brute force is bypassed",
            _ANALYZE_SPANS, _analyze_ops(53, 53, 1)),
        Workload(
            "closure_large",
            "analyze q=81 (n=1640), largest member under the point gate: time "
            "and n^2 memory spread over design, orbitals, WL and checks",
            _ANALYZE_SPANS, _analyze_ops(81, 3, 4)),
        Workload(
            "file_closure",
            "wl-stabilize on a seeded relabeling of the q=49 concurrence "
            "coloring: dense WL on arbitrary input plus text load and dump",
            frozenset({"cli.main", "scheme.load_pair_coloring", "wl.wl_stabilize",
                       "scheme.intersection_tensor", "scheme.dump_scheme"}),
            _file_closure_ops, coloring_q=FILE_Q),
    )
}


def make_ops(workload, seed, workdir):
    """The seeded operation list; the same seed gives the same inputs."""
    return workload.ops(random.Random(f"{workload.name}:{seed}"), workdir)
