"""One adaptive run of one workload, in a fresh Python process.

    python3 perfbench/child.py --workload NAME --seed N --trace 0|1

Prints one JSON object: the CLOCK_MONOTONIC time at which level 1
started (the parent subtracts its launch time to get ``setup_s``), the
run's wall times, the per-level records the correctness check needs,
the peak RSS and, with ``--trace 1``, the per-layer figures.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, check  # noqa: E402


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run(workload, seed, traced):
    from goalfem import adaptivity

    config = workload.config(seed)
    installation = None
    if traced:
        from spans import Installation, Tracer
        installation = Installation(Tracer())
        stale = installation.stale_bindings()
        if stale:
            raise RuntimeError(f"untraced bindings: {stale}")

    level_ends = []
    t0 = _now()
    try:
        records = adaptivity.run_adaptive(
            config, on_level=lambda *args: level_ends.append(_now()))
    finally:
        if installation is not None:
            installation.restore()
    t1 = _now()

    # level 1 began wall_ms before its on_level callback
    t_level1 = level_ends[0] - records[0].wall_ms / 1e3
    levels = [{
        "level": r.level, "dofs": r.n_dofs,
        "je_error": r.je_error, "i_eff": r.i_eff, "eta_h": r.eta_h,
        "eta_m": r.eta_m, "rel_errors": list(r.rel_errors),
    } for r in records]
    failures, unresolved = check(workload, config, levels)
    out = {
        "t_level1": t_level1,
        "solve_s": t1 - t_level1,
        "final_level_s": records[-1].wall_ms / 1e3,
        "levels": levels,
        "failures": failures,
        "unresolved": unresolved,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if installation is not None:
        layers = installation.tracer.metrics(t1 - t0)
        layers["adaptivity.levels"] = len(records)
        layers["adaptivity.final_dofs"] = records[-1].n_dofs
        out["layers"] = layers
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        out = run(WORKLOADS[args.workload], args.seed, bool(args.trace))
    except Exception:
        print(json.dumps({"error": traceback.format_exc()}))
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
