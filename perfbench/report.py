"""Every metric of every workload in one table.

    python3 perfbench/report.py [--seed N] [--seconds S] [--out FILE]

Run from the repository root.  For each workload this runs
``run.py --trace 0`` (end-to-end metrics) and ``run.py --trace 1``
(per-layer metrics), prints each metric by name with its unit, the
fail rate, and each layer's share of the traced wall time, and with
``--out`` writes all of it as JSON.  The seed-commit baseline in
``baseline_seed.json`` was written this way.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from spans import SPANS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True,
                          text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line.split(":", 1)[1]) for line in lines
               if line.startswith("environment:"))
    return env, json.loads(lines[-1])


def shares(layers):
    """Each span's self time as a share of the traced wall time."""
    wall = sum(layers[f"{s}.self_s"]["value"] for s in SPANS) \
        + layers["adaptivity.self_s"]["value"]
    out = {s: layers[f"{s}.self_s"]["value"] / wall for s in SPANS}
    out["adaptivity"] = layers["adaptivity.self_s"]["value"] / wall
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    names = sorted(WORKLOADS)
    report = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for name in names:
        env, e2e = bench(name, args.seed, args.seconds, 0)
        _, layers = bench(name, args.seed, args.seconds, 1)
        report["environment"] = env
        report["workloads"][name] = {
            "fail_rate": (e2e["failed"] + layers["failed"])
            / (e2e["attempted"] + layers["attempted"]),
            "end_to_end": e2e["metrics"],
            "per_layer": layers["metrics"],
            "layer_share": shares(layers["metrics"]),
        }

    print(f"environment: {json.dumps(report['environment'])}")
    rows = report["workloads"]
    print(f"{'metric':36s} {'unit':6s}" + "".join(f"{n:>18s}" for n in names))
    for kind in ("end_to_end", "per_layer"):
        for metric, m in rows[names[0]][kind].items():
            print(f"{metric:36s} {m['unit']:6s}" + "".join(
                f"{rows[n][kind][metric]['value']:18.6g}" for n in names))
    print(f"{'fail_rate':36s} {'share':6s}"
          + "".join(f"{rows[n]['fail_rate']:18.3f}" for n in names))
    print("\nself time as a share of the traced wall time")
    for layer in rows[names[0]]["layer_share"]:
        print(f"{layer:36s} {'%':6s}" + "".join(
            f"{100 * rows[n]['layer_share'][layer]:18.1f}" for n in names))
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
