"""octadesign benchmark: CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root.  Each run builds its seeded inputs, then
makes passes over the workload's CLI operations while the next pass fits in
--seconds of measured time.  Each pass is a fresh child process that
imports octadesign from src/ and runs the operations through
octadesign.cli.main, one client, one after another.  Every output is
checked against values this benchmark holds.

--trace 0 reports the end-to-end metrics, untraced.  --trace 1 runs the
operation list once untraced and once in a second child with spans around
octadesign's public functions, checks that both print the same bytes, and
reports per-layer self time, calls and counts.  The last line of stdout is
the result as one JSON object; the lines before it are a readable table.
`--workload all` runs every workload both ways and prints the tables.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from workloads import SPANS, WORKLOADS, make_ops

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "work"
# Import-only children before the first pass and after every pass, so the
# set-up samples span the whole run rather than one moment of it.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170
# One BLAS thread (<= nproc): on two cores a second one doubled CPU time
# without shortening wall time, and it made wall_s depend on the other core.
# cpu_s still shows any threads the program starts itself.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "OCTA_THREADS")

END_TO_END = {  # name -> (unit, kind)
    "wall_s": ("s", "measured"),
    "cpu_s": ("s", "measured"),
    "peak_rss_mb": ("MB", "measured"),
    "setup_s": ("s", "measured"),
    "success_rate": ("ratio", "measured"),
}


PER_LAYER = {
    **{f"{name}.{kind}": unit for name in SPANS
       for kind, unit in (("self_s", ("s", "measured")), ("calls", ("count", "count")))},
    "pgroup.mulclose.elements": ("count", "count"),
    "wl.rounds": ("count", "count"),
    "wl.matmul_gflop": ("GFLOP", "computed"),
    "trace.untraced_wall_s": ("s", "measured"),
    "trace.traced_wall_s": ("s", "measured"),
    "trace.overhead_ratio": ("ratio", "measured"),
}


class BenchError(Exception):
    pass


class Runner:
    """Starts and waits for the child processes of one run."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        for var in THREAD_VARS[:3]:
            self.env[var] = str(BLAS_THREADS)
        self.loadavg = []

    def child(self, mode, *args):
        cmd = [sys.executable, str(BENCH / "child.py"), mode, *args]
        before = os.getloadavg()
        if mode in ("import", "run"):
            cmd.append(repr(time.monotonic()))
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"child {mode} timed out after {exc.timeout} s") from exc
        self.loadavg.append({"child": mode, "before": before, "after": os.getloadavg()})
        if proc.returncode != 0:
            raise BenchError(f"child {mode} exited {proc.returncode}:\n{proc.stderr}")
        return proc.stdout

    def setup_samples(self):
        return [float(self.child("import")) for _ in range(SETUP_SAMPLES)]

    def run_ops(self, ops, tag, traced=False):
        """One pass over the operations in a fresh child."""
        plan_path = self.workdir / f"plan-{tag}.json"
        result_path = self.workdir / f"result-{tag}.json"
        plan = {"ops": [op.argv for op in ops], "spans": list(SPANS),
                "spans_path": str(self.workdir / "spans.jsonl") if traced else None}
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        self.child("run", str(plan_path), str(result_path))
        return json.loads(result_path.read_text(encoding="utf-8"))


def check_ops(ops, result, workdir, tag):
    """Failed operations, keyed (tag, op): exit status, exception, expected values."""
    failures = {}
    for rec in result["ops"]:
        problems = []
        if rec["error"] is not None:
            problems.append(rec["error"].strip().splitlines()[-1])
        elif rec["code"] != 0:
            problems.append(f"exit code {rec['code']}: {rec['stderr'].strip()}")
        else:
            problems += ops[rec["op"]].check(rec["stdout"], workdir)
        if problems:
            failures[(tag, rec["op"])] = problems
    return failures


def prepare(workload, seed, runner):
    ops = make_ops(workload, seed, runner.workdir)
    if workload.coloring_q is not None:
        runner.child("coloring", str(workload.coloring_q), str(seed),
                     str(runner.workdir / "coloring.txt"))
    return ops


def run_untraced(workload, seed, seconds, runner):
    """Passes in fresh children while the next one fits in `seconds` of measured time."""
    ops = prepare(workload, seed, runner)
    runner.child("import")  # warm-up: bytecode and file cache, not timed
    setup = runner.setup_samples()
    passes, failures = [], {}
    while not passes or sum(p["wall_s"] for p in passes) + passes[-1]["wall_s"] <= seconds:
        tag = f"pass{len(passes)}"
        passes.append(runner.run_ops(ops, tag))
        failures.update(check_ops(ops, passes[-1], runner.workdir, tag))
        setup += [passes[-1]["setup_s"], *runner.setup_samples()]
    attempted = len(ops) * len(passes)

    def median(key):
        return statistics.median(p[key] for p in passes), len(passes)

    metrics = {
        "wall_s": median("wall_s"),
        "cpu_s": median("cpu_s"),
        "peak_rss_mb": median("peak_rss_mb"),
        "setup_s": (statistics.median(setup), len(setup)),
        "success_rate": ((attempted - len(failures)) / attempted, attempted),
    }
    return metrics, END_TO_END, attempted, failures, [], passes[-1]


def run_traced(workload, seed, runner):
    ops = prepare(workload, seed, runner)
    runner.child("import")  # same warm start as the untraced run
    plain = runner.run_ops(ops, "untraced")
    traced = runner.run_ops(ops, "traced", traced=True)
    failures = {**check_ops(ops, plain, runner.workdir, "untraced"),
                **check_ops(ops, traced, runner.workdir, "traced")}
    for a, b in zip(plain["ops"], traced["ops"]):
        if a["stdout"].encode() != b["stdout"].encode():
            failures.setdefault(("traced", b["op"]), []).append(
                "stdout differs from the untraced run")
    problems = []
    recorded = spans.load(runner.workdir / "spans.jsonl")
    layer = spans.summarize(recorded, SPANS)
    for name in sorted(workload.spans):
        if layer[f"{name}.calls"] == 0:
            problems.append(f"declared span {name} never fired")
    problems += [f"span {s['name']} raised" for s in recorded if s["raised"]]
    untraced_s, traced_s = plain["wall_s"], traced["wall_s"]
    layer["trace.untraced_wall_s"] = untraced_s
    layer["trace.traced_wall_s"] = traced_s
    layer["trace.overhead_ratio"] = traced_s / untraced_s - 1.0
    metrics = {name: (value, 1) for name, value in layer.items()}
    attempted = len(plain["ops"]) + len(traced["ops"])
    return metrics, PER_LAYER, attempted, failures, problems, traced


def machine_facts(workload, seed, trace, runner, result):
    return {
        "workload": workload.name, "seed": seed, "trace": trace,
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": result["python"], "numpy": result["numpy"], "blas": result["blas"],
        "blas_threads_chosen": BLAS_THREADS,
        "thread_env_inherited": {v: os.environ.get(v) for v in THREAD_VARS},
        "thread_env_child": {v: runner.env.get(v) for v in THREAD_VARS},
        "loadavg": runner.loadavg,
    }


def run_one(name, seed, seconds, trace):
    """One run; returns the readable lines and the result dict."""
    if not (ROOT / "src" / "octadesign" / "__init__.py").is_file():
        raise BenchError(f"no octadesign sources under {ROOT / 'src'}")
    workload = WORKLOADS[name]
    workdir = WORK / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = Runner(workdir)
    if trace:
        outcome = run_traced(workload, seed, runner)
    else:
        outcome = run_untraced(workload, seed, seconds, runner)
    metrics, units, attempted, failures, problems, result = outcome
    facts = machine_facts(workload, seed, trace, runner, result)
    lines = ["machine " + json.dumps(facts, sort_keys=True),
             f"{workload.name} seed={seed} trace={trace}: {workload.why}",
             f"{'metric':<40} {'value':>14} {'unit':<6} {'samples':>7}  kind"]
    for metric, (value, samples) in metrics.items():
        unit, kind = units[metric]
        shown = f"{value:d}" if isinstance(value, int) else f"{value:.6g}"
        lines.append(f"{metric:<40} {shown:>14} {unit:<6} {samples:>7}  {kind}")
    for (tag, op), why in failures.items():
        lines.append(f"FAILED {tag} op {op}: {'; '.join(why)}")
    lines += [f"PROBLEM {p}" for p in problems]
    out = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m: {"value": v, "unit": units[m][0]} for m, (v, _) in metrics.items()},
    }
    with open(workdir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump({"facts": facts, "result": out, "problems": problems,
                   "failures": [[*key, why] for key, why in failures.items()]}, fh, indent=1)
    return lines, out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload != "all":
            lines, out = run_one(args.workload, args.seed, args.seconds, args.trace)
            print("\n".join(lines))
            print(json.dumps(out))
            return 0
        ok = True
        for name in WORKLOADS:
            for trace in (0, 1):
                lines, out = run_one(name, args.seed, args.seconds, trace)
                print("\n".join(lines) + "\n", flush=True)
                ok = ok and out["correct"]
        return 0 if ok else 1
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
