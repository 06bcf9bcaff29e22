"""Command-line front end: run experiments, report convergence, dump meshes.

Configs are flat INI files (section [run]) mirroring the RunConfig
fields; presets provide ready-made configurations for the benchmark
experiments.  Exit codes: 0 success, 2 solver failure, 3 bad
configuration/arguments.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import math
import os
import sys

from . import adaptivity, presets
from .adaptivity import RunConfig, fit_rate, read_csv, run_adaptive, \
    run_uniform, write_csv, write_gnuplot
from .errors import GoalFemError, MalformedCsv, UnknownExperiment
from .mesh import write_vtk

_TUPLE_FIELDS = {"omegas", "reference_values", "reference_uncertainties"}


def serialize_config(config):
    """RunConfig -> INI text (round-trips through parse_config)."""
    cp = configparser.ConfigParser()
    cp["run"] = {}
    for f in dataclasses.fields(RunConfig):
        val = getattr(config, f.name)
        if val is None:
            continue
        if f.name in _TUPLE_FIELDS:
            cp["run"][f.name] = ", ".join(repr(v) for v in val)
        else:
            cp["run"][f.name] = str(val)
    import io
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def parse_config(text):
    """INI text -> RunConfig."""
    cp = configparser.ConfigParser()
    cp.read_string(text)
    if not cp.has_section("run"):
        raise ValueError("config needs a [run] section")
    fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    kwargs = {}
    for key, raw in cp["run"].items():
        if key not in fields:
            raise ValueError(f"unknown config key {key!r}")
        if key in _TUPLE_FIELDS:
            kwargs[key] = tuple(float(v) for v in raw.split(","))
            continue
        ftype = fields[key].type
        if ftype == "int":
            kwargs[key] = int(raw)
        elif ftype == "float":
            kwargs[key] = float(raw)
        elif ftype == "bool":
            kwargs[key] = raw.strip().lower() in ("1", "true", "yes", "on")
        elif ftype == "Optional[int]":
            kwargs[key] = int(raw)
        else:
            kwargs[key] = raw
    return RunConfig(**kwargs)


def _load_config(args):
    if args.preset and args.config:
        raise ValueError("give either --preset or --config, not both")
    if args.preset:
        config = presets.get_preset(args.preset)
    elif args.config:
        with open(args.config) as fh:
            config = parse_config(fh.read())
    else:
        raise ValueError("one of --preset or --config is required")
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.max_levels is not None:
        overrides["max_levels"] = args.max_levels
    if args.max_dofs is not None:
        overrides["max_dofs"] = args.max_dofs
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


def _vtk_callback(out_dir, tag):
    def on_level(level, mesh, u_h, breakdown):
        space = u_h.space
        pd = {}
        for comp in range(space.n_components):
            vals = [0.0] * mesh.n_points
            for v, nid in space.vertex_node.items():
                vals[v] = u_h.coeffs[space.dof(comp, nid)]
            pd[f"u{comp + 1}"] = vals
        pd["eta_nodal"] = breakdown.nodal
        write_vtk(os.path.join(out_dir, f"{tag}_level{level:02d}.vtk"),
                  mesh, point_data=pd,
                  cell_data={"eta_K": breakdown.cellwise})

    return on_level


def cmd_run(args):
    config = _load_config(args)
    out_dir = args.out_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    tag = config.label or config.experiment
    log = (lambda line: print(line, flush=True))

    jobs = [("adaptive", run_adaptive)]
    if args.uniform:
        jobs.append(("uniform", run_uniform))
    for suffix, runner in jobs:
        on_level = _vtk_callback(out_dir, f"{tag}_{suffix}") if args.vtk else None
        print(f"== {tag} ({suffix}) ==", flush=True)
        records = runner(config, log=log, on_level=on_level)
        stem = os.path.join(out_dir, f"{tag}_{suffix}")
        write_csv(records, stem + ".csv")
        write_gnuplot(records, stem + ".dat")
        print(f"wrote {stem}.csv")
    return 0


def cmd_report(args):
    tables = []
    for path in args.csv:
        header, rows = read_csv(path)
        n_fn = sum(1 for h in header if h.endswith("_rel_error"))
        dofs = [r["dofs"] for r in rows]
        print(f"\n=== {path} ({len(rows)} levels) ===")
        print(f"{'quantity':<14}{'rate':>8}   (log-log slope vs DOFs)")
        for i in range(1, n_fn + 1):
            rate = fit_rate(dofs, [r[f"J_{i}_rel_error"] for r in rows])
            label = f"J_{i}_rel_error"
            txt = f"{rate:8.2f}" if not math.isnan(rate) else "     n/a"
            print(f"{label:<14}{txt}")
        for col in ("J_E_error", "eta_h"):
            rate = fit_rate(dofs, [abs(r[col]) for r in rows])
            txt = f"{rate:8.2f}" if not math.isnan(rate) else "     n/a"
            print(f"{col:<14}{txt}")
        tables.append((path, rows))

    if len(tables) == 2:
        print("\n=== side by side (DOFs : J_E_error) ===")
        a, b = tables
        n = max(len(a[1]), len(b[1]))
        print(f"{'level':>5} {'A dofs':>10} {'A err':>12} "
              f"{'B dofs':>10} {'B err':>12}")
        for i in range(n):
            ra = a[1][i] if i < len(a[1]) else None
            rb = b[1][i] if i < len(b[1]) else None
            fa = (f"{int(ra['dofs']):>10} {ra['J_E_error']:>12.3e}"
                  if ra else " " * 23)
            fb = (f"{int(rb['dofs']):>10} {rb['J_E_error']:>12.3e}"
                  if rb else "")
            print(f"{i + 1:>5} {fa} {fb}")
    return 0


def cmd_mesh_dump(args):
    config = _load_config(args)
    mesh = adaptivity.build_geometry(config)
    write_vtk(args.out, mesh)
    print(f"wrote {args.out} ({len(mesh.active_cells)} cells)")
    return 0


def _add_config_args(sub):
    sub.add_argument("--preset", help="named experiment preset")
    sub.add_argument("--config", help="INI config file")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--max-levels", type=int, default=None)
    sub.add_argument("--max-dofs", type=int, default=None)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="goalfem",
        description="adaptive multigoal FEM experiment runner")
    sub = ap.add_subparsers(dest="verb", required=True)

    run = sub.add_parser("run", help="run an experiment preset/config")
    _add_config_args(run)
    run.add_argument("--out-dir", default=None)
    run.add_argument("--uniform", action="store_true",
                     help="also run the uniform-refinement comparison")
    run.add_argument("--vtk", action="store_true",
                     help="dump per-level VTK files")
    run.set_defaults(fn=cmd_run)

    rep = sub.add_parser("report", help="convergence rates from CSVs")
    rep.add_argument("csv", nargs="+")
    rep.set_defaults(fn=cmd_report)

    md = sub.add_parser("mesh-dump", help="write the initial mesh as VTK")
    _add_config_args(md)
    md.add_argument("--out", default="mesh.vtk")
    md.set_defaults(fn=cmd_mesh_dump)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, UnknownExperiment, MalformedCsv, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except GoalFemError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
