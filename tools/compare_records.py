"""Compare the convergence records of two goalfem checkouts.

    python3 tools/compare_records.py PARENT_DIR CHANGE_DIR

Each directory is a checkout, for example one made with
``git archive <rev> | tar -x -C DIR``.  Both sides run the benchmark
workloads of their own ``perfbench/workloads.py`` (``square_q3q6`` at
seeds 1 and 2, the seed-independent workloads once), each side in one
subprocess with BLAS pinned to one thread.  For every run the script
prints whether the DOF sequence, ``n_cells``, ``newton_steps`` and
``enriched_newton_steps`` are identical, and the largest relative
difference of every other record field except ``wall_ms``.

Exit status 1 when any of those identical-or-not fields differs (or a
run is missing on one side), else 0.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

RUNS = (("slit_quasilinear", 1), ("cheese_plaplace", 1),
        ("square_q3q6", 1), ("square_q3q6", 2))
EXACT = ("n_dofs", "n_cells", "newton_steps", "enriched_newton_steps")
IGNORED = ("wall_ms",)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# runs in the subprocess, with the checkout's src/ and perfbench/ first
# on sys.path; prints {"name/seed": [record dict, ...]}
_CHILD = """
import dataclasses, json, sys
from goalfem import adaptivity
from workloads import WORKLOADS
out = {}
for name, seed in json.loads(sys.argv[1]):
    records = adaptivity.run_adaptive(WORKLOADS[name].config(seed))
    out[f"{name}/{seed}"] = [dataclasses.asdict(r) for r in records]
print(json.dumps(out))
"""


def run_side(checkout, runs=RUNS):
    """Records of ``runs`` computed by the goalfem in ``checkout``."""
    root = Path(checkout).resolve()
    env = dict(os.environ, **{var: "1" for var in BLAS_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(runs)], env=env,
        cwd=root, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _flat(value):
    return list(value) if isinstance(value, (list, tuple)) else [value]


def _rel_diff(a, b):
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare(parent, change):
    """Compare two record lists (dicts with the ConvergenceRecord fields).

    Returns ``(identical, rel_diff)``: for each field of ``EXACT``
    whether its per-level sequence is the same on both sides, and for
    every other field but ``IGNORED`` the largest relative difference
    over the levels the two sides share (NaN against NaN counts as
    equal, NaN against a number as an infinite difference).
    """
    identical = {f: [r[f] for r in parent] == [r[f] for r in change]
                 for f in EXACT}
    rel_diff = {}
    fields = [f for f in next(iter(parent + change), {})
              if f not in EXACT + IGNORED]
    for f in fields:
        worst = 0.0
        for p, c in zip(parent, change):
            a, b = _flat(p[f]), _flat(c[f])
            if len(a) != len(b):
                worst = math.inf
                continue
            for x, y in zip(a, b):
                worst = max(worst, _rel_diff(float(x), float(y)))
        rel_diff[f] = worst
    return identical, rel_diff


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sides = [run_side(d) for d in args]
    ok = True
    for key in sorted(set(sides[0]) | set(sides[1])):
        if key not in sides[0] or key not in sides[1]:
            print(f"{key}: missing on one side")
            ok = False
            continue
        identical, rel_diff = compare(sides[0][key], sides[1][key])
        ok &= all(identical.values())
        dofs = [r["n_dofs"] for r in sides[1][key]]
        print(f"{key}: {len(dofs)} levels, final DOFs {dofs[-1]}")
        print("  identical: " + ", ".join(
            f"{f} {'yes' if same else 'NO'}" for f, same in identical.items()))
        print("  largest relative difference: " + ", ".join(
            f"{f} {d:.3g}" for f, d in rel_diff.items()))
    print("records agree" if ok else "records DIFFER")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
