"""One fresh process of a benchmark run.

    child.py import SPAWN_T            import octadesign, print the set-up time
    child.py coloring Q SEED PATH      write a relabeled concurrence coloring
    child.py run PLAN RESULT SPAWN_T   run a plan's CLI operations once, write results

SPAWN_T is the parent's time.monotonic() just before it started this
process.  CLOCK_MONOTONIC is shared by all processes, so set-up time runs
from the child's start until octadesign and its CLI module are imported.
"""

import sys
import time


def _import_octadesign(spawn_t):
    import octadesign  # noqa: F401
    import octadesign.cli  # noqa: F401

    return time.monotonic() - spawn_t


def _write_coloring(q, seed, path):
    """The concurrence coloring of q with its points relabeled by the seed."""
    import numpy as np

    from octadesign import PointSet, build_design, field_create, wl
    from octadesign.gf import factor_prime_power

    fld = field_create(*factor_prime_power(q))
    lam = wl.lambda_coloring(build_design(fld, PointSet(fld)))
    perm = np.random.default_rng(seed).permutation(lam.n)
    color = np.empty_like(lam.color)
    color[np.ix_(perm, perm)] = lam.color
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{lam.n} {lam.num_colors}\n")
        fh.write("\n".join(" ".join(map(str, row)) for row in color.tolist()) + "\n")


def _usage():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF)


def _run(plan_path, result_path, spawn_t):
    setup_s = _import_octadesign(spawn_t)
    import io
    import json
    import traceback
    from contextlib import redirect_stderr, redirect_stdout

    import numpy as np

    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    tracer = None
    if plan["spans_path"]:
        import spans

        tracer = spans.Tracer()
        tracer.install("octadesign", plan["spans"])
    cli = sys.modules["octadesign.cli"]

    ops = []
    for index, argv in enumerate(plan["ops"]):
        if tracer is not None:
            tracer.op = index
        out, err = io.StringIO(), io.StringIO()
        code, error = None, None
        ru0, t0 = _usage(), time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception:  # recorded as a failed operation
                error = traceback.format_exc()
        t1, ru1 = time.perf_counter(), _usage()
        ops.append({"op": index, "code": code, "error": error,
                    "stdout": out.getvalue(), "stderr": err.getvalue(), "wall_s": t1 - t0,
                    "cpu_s": (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime)})

    if tracer is not None:
        tracer.dump(plan["spans_path"])
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {
        "setup_s": setup_s,
        "wall_s": sum(op["wall_s"] for op in ops),
        "cpu_s": sum(op["cpu_s"] for op in ops),
        "ops": ops,
        "peak_rss_mb": _usage().ru_maxrss / 1024.0,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def main(argv):
    mode = argv[0]
    if mode == "import":
        print(_import_octadesign(float(argv[1])))
    elif mode == "coloring":
        _write_coloring(int(argv[1]), int(argv[2]), argv[3])
    elif mode == "run":
        _run(argv[1], argv[2], float(argv[3]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
