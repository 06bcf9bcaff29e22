"""goalfem benchmark: adaptive runs timed end to end, or traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  A single closed-loop client starts one
fresh Python process per adaptive run (``child.py``), waits for it, and
starts the next until ``S`` seconds have passed.  Every run is checked
for correctness; a run that raises, times out or fails its check counts
as failed.  With ``--trace 0`` the end-to-end metrics are the medians
over the runs.  With ``--trace 1`` traced and untraced runs alternate:
the per-layer metrics are medians over the traced runs, and
``trace.overhead_s`` compares the two kinds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the environment, every run, and each metric's quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from spans import SPANS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# one BLAS thread: the plain single-threaded baseline, and the steadiest
# choice on a small shared machine
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 120
# a seeded workload gives child k of a run the distortion seed
# SEED_STRIDE * seed + k, so each run's median spans several meshes
SEED_STRIDE = 1000

END_TO_END = {"setup_s": "s", "solve_s": "s", "final_level_s": "s"}
PER_LAYER_UNITS = {
    **{f"{name}.calls": "count" for name in SPANS},
    **{f"{name}.self_s": "s" for name in SPANS},
    "assembly.jacobian.nnz": "count",
    "linalg.factorize.fill_nnz": "count",
    "solver.newton.steps": "count",
    "solver.line_search.trials": "count",
    "solver.line_search.accept_ratio": "ratio",
    "solver.jacobian_reuse": "ratio",
    "adaptivity.levels": "count",
    "adaptivity.final_dofs": "count",
    "adaptivity.self_s": "s",
    "trace.overhead_s": "s",
    "process.peak_rss_mb": "MB",
}


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    return {
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _commit(),
    }


def run_child(workload, seed, traced, env):
    """One adaptive run in a fresh process; returns (result, error)."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced))]
    t_launch = _now()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    if proc.returncode != 0 or "error" in result:
        return None, result.get("error", f"exit {proc.returncode}")
    result["setup_s"] = result["t_level1"] - t_launch
    if result["failures"]:
        return None, "; ".join(result["failures"])
    return result, None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "goalfem" / "__init__.py").is_file():
        print(f"no goalfem sources under {ROOT / 'src'}; run from a full "
              "checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    env = dict(os.environ, **{var: str(BLAS_THREADS) for var in BLAS_VARS})
    print(f"environment: {json.dumps(environment())}")
    print(f"workload {workload.name}: preset {workload.preset}, "
          f"{workload.max_levels} levels, seed {args.seed} "
          + ("(picks the mesh distortion)" if workload.seeded
             else "(fixed geometry: the seed changes nothing)"))

    kinds = (False, True) if args.trace else (False,)
    runs = {kind: [] for kind in kinds}
    attempted = failed = 0
    start = _now()
    k = 0
    while k == 0 or _now() - start < args.seconds:
        seed = SEED_STRIDE * args.seed + k if workload.seeded else args.seed
        for traced in kinds:
            result, error = run_child(workload.name, seed, traced, env)
            attempted += 1
            tag = "traced" if traced else "untraced"
            if error is not None:
                failed += 1
                print(f"run {k} {tag} seed {seed}: FAILED {error}")
                continue
            levels = result["levels"]
            unresolved = result["unresolved"]
            print(f"run {k} {tag} seed {seed}: solve {result['solve_s']:.3f} s"
                  f", setup {result['setup_s']:.3f} s, final J_E "
                  f"{levels[-1]['je_error']:.3e}, DOFs "
                  f"{[lv['dofs'] for lv in levels]}"
                  + (f", I_eff unchecked on levels {unresolved} (below the "
                     "reference's resolution)" if unresolved else ""))
            runs[traced].append(result)
        k += 1

    plain = runs[False]
    if not plain or (args.trace and not runs[True]):
        print("no successful run", file=sys.stderr)
        return 1

    if args.trace:
        traced = runs[True]
        samples = {name: [r["layers"][name] for r in traced]
                   for name in traced[0]["layers"]}
        samples["trace.overhead_s"] = [
            statistics.median(r["solve_s"] for r in traced)
            - statistics.median(r["solve_s"] for r in plain)]
        samples["process.peak_rss_mb"] = [
            r["peak_rss_mb"] for r in plain + traced]
        units = PER_LAYER_UNITS
    else:
        samples = {name: [r[name] for r in plain] for name in END_TO_END}
        units = END_TO_END

    metrics = {}
    print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s}  unit  n")
    for name, unit in units.items():
        q1, med, q3 = quartiles(samples[name])
        metrics[name] = {"value": med, "unit": unit}
        print(f"{name:40s} {med:12.6g} {q1:12.6g} {q3:12.6g}  {unit:5s} "
              f"{len(samples[name])}")
    print(f"fail_rate {failed / attempted:.3f} ({failed} of {attempted} runs)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
