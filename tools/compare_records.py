"""Compare the convergence records of two goalfem checkouts.

    python3 tools/compare_records.py [--control] PARENT_DIR CHANGE_DIR

Each directory is a checkout, for example one made with
``git archive <rev> | tar -x -C DIR``.  Both sides run the benchmark
workloads of their own ``perfbench/workloads.py`` (``square_q3q6`` at
seeds 1 and 2, the seed-independent workloads once), each side in one
subprocess with BLAS pinned to one thread.  For every run the script
prints whether each count is identical (a field whose values are ints:
the level numbers, the DOF sequence, ``n_cells`` and the Newton and
adjoint counts) or the levels where it differs
(``adjoint_factorized NO @ 1,2``), and the largest relative difference
of every other record field except ``wall_ms`` with the level it
occurs at (``values 0.00235 @ 1``).

``--control`` runs the parent a third time with every residual vector
it assembles and every goal gradient (the right-hand side of both
adjoint solves) scaled by (1 + 2^-52), a last-bit perturbation, and
prints each field's drift under that control next to the change's
drift.  The residual moves the primal solutions and the gradients move
the adjoints, so the control bounds the roundoff scale of the fields
that depend on either.  A workload that amplifies roundoff
(``cheese_plaplace``) moves by about as much under the control as under
any change of summation order, so its drift is judged against the
control rather than against zero.

Exit status 1 when any count differs between parent and change (or a
run is missing on one side), else 0; the control does not enter the
status.  A side whose run fails prints the end of its stderr and exits
with status 2, as a wrong command line does.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

RUNS = (("slit_quasilinear", 1), ("cheese_plaplace", 1),
        ("square_q3q6", 1), ("square_q3q6", 2))
IGNORED = ("wall_ms",)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CONTROL_SCALE = 1.0 + 2.0 ** -52
STDERR_TAIL = 20        # lines of a failed side's stderr to print
HERE = Path(__file__).resolve().parent

# runs in the subprocess, with the checkout's src/ and perfbench/ and
# this script's directory first on sys.path; prints
# {"name/seed": [record dict, ...]}
_CHILD = """
import dataclasses, json, sys
from goalfem import adaptivity
from workloads import WORKLOADS
if json.loads(sys.argv[2]):
    from compare_records import perturb
    perturb()
out = {}
for name, seed in json.loads(sys.argv[1]):
    records = adaptivity.run_adaptive(WORKLOADS[name].config(seed))
    out[f"{name}/{seed}"] = [dataclasses.asdict(r) for r in records]
print(json.dumps(out))
"""


def perturb():
    """Scale every residual vector goalfem assembles and every goal
    gradient it forms by (1 + 2^-52).

    Rebinds ``assemble_residual`` in every loaded goalfem module that
    holds it (``from .assembly import`` copies the binding) and replaces
    ``goals.Functional.gradient``, which every goal inherits; returns a
    function that restores the originals.
    """
    import goalfem.adaptivity  # noqa: F401  (loads every user)
    from goalfem import assembly, goals

    original = assembly.assemble_residual
    gradient = goals.Functional.gradient

    def scaled(*args, **kwargs):
        return original(*args, **kwargs) * CONTROL_SCALE

    def scaled_gradient(self, *args, **kwargs):
        return gradient(self, *args, **kwargs) * CONTROL_SCALE

    holders = [m for name, m in list(sys.modules.items())
               if name.split(".")[0] == "goalfem"
               and getattr(m, "assemble_residual", None) is original]
    for module in holders:
        module.assemble_residual = scaled
    goals.Functional.gradient = scaled_gradient

    def restore():
        for module in holders:
            module.assemble_residual = original
        goals.Functional.gradient = gradient

    return restore


def run_side(checkout, runs=RUNS, control=False):
    """Records of ``runs`` computed by the goalfem in ``checkout``, with
    the residual and the goal gradients perturbed by ``perturb`` when
    ``control``."""
    root = Path(checkout).resolve()
    env = dict(os.environ, **{var: "1" for var in BLAS_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root / "perfbench"), str(HERE)])
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(runs), json.dumps(control)],
        env=env, cwd=root, capture_output=True, text=True, check=True)
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

    Returns ``(identical, rel_diff)``: for each count, a field that holds
    an int on either side, whether its per-level sequence is the same on
    both sides, and for every other field but ``IGNORED`` the pair
    (largest relative difference over the levels the two sides share,
    the parent's level where it first occurs, None when there is no
    difference).  NaN against NaN counts as equal, NaN against a number
    as an infinite difference.
    """
    identical, rel_diff = {}, {}
    for f in next(iter(parent + change), {}):
        if f in IGNORED:
            continue
        if any(isinstance(r[f], int) for r in parent + change):
            identical[f] = [r[f] for r in parent] == [r[f] for r in change]
            continue
        worst, where = 0.0, None
        for p, c in zip(parent, change):
            a, b = _flat(p[f]), _flat(c[f])
            diff = math.inf if len(a) != len(b) else max(
                (_rel_diff(float(x), float(y)) for x, y in zip(a, b)),
                default=0.0)
            if diff > worst:
                worst, where = diff, p["level"]
        rel_diff[f] = (worst, where)
    return identical, rel_diff


def _drift(diff):
    worst, where = diff
    return f"{worst:.3g}" if where is None else f"{worst:.3g} @ {where}"


def _counts(identical, parent, change):
    """``f yes`` per count, or ``f NO @ 1,2`` with the (1-based) levels
    where it differs, levels only one side reached included."""
    def levels(f):
        pairs = zip_longest(*([r[f] for r in side]
                              for side in (parent, change)))
        return ",".join(str(k) for k, (a, b) in enumerate(pairs, 1) if a != b)

    return ", ".join(f"{f} yes" if same else f"{f} NO @ {levels(f)}"
                     for f, same in identical.items())


def report(key, parent, change, control=None):
    """Lines describing one run, and whether its counts agree between
    ``parent`` and ``change``.  With ``control`` records (the perturbed
    parent), each drift is followed by the control's."""
    identical, rel_diff = compare(parent, change)
    dofs = [r["n_dofs"] for r in change]
    lines = [f"{key}: {len(dofs)} levels, final DOFs {dofs[-1]}",
             "  identical: " + _counts(identical, parent, change)]
    if control is None:
        lines.append("  largest relative difference: " + ", ".join(
            f"{f} {_drift(d)}" for f, d in rel_diff.items()))
    else:
        c_identical, c_diff = compare(parent, control)
        lines.append("  control identical: "
                     + _counts(c_identical, parent, control))
        lines.append("  largest relative difference (change / control): "
                     + ", ".join(f"{f} {_drift(d)} / {_drift(c_diff[f])}"
                                 for f, d in rel_diff.items()))
    return lines, all(identical.values())


def main(argv=None):
    args = sys.argv[1:] if argv is None else list(argv)
    with_control = "--control" in args
    if with_control:
        args.remove("--control")
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        sides = [run_side(d) for d in args]
        control = run_side(args[0], control=True) if with_control else {}
    except subprocess.CalledProcessError as exc:
        print(f"a run failed with exit status {exc.returncode}; the end of "
              f"its stderr:", *exc.stderr.splitlines()[-STDERR_TAIL:],
              sep="\n", file=sys.stderr)
        return 2
    ok = True
    for key in sorted(set(sides[0]) | set(sides[1])):
        if key not in sides[0] or key not in sides[1]:
            print(f"{key}: missing on one side")
            ok = False
            continue
        lines, same = report(key, sides[0][key], sides[1][key],
                             control.get(key))
        ok &= same
        print("\n".join(lines))
    print("records agree" if ok else "records DIFFER")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
