import configparser
import csv
import dataclasses
import io

import numpy as np
import pytest

from goalfem.adaptivity import RunConfig, read_csv
from goalfem.cli import _vtk_callback, main, parse_config
from goalfem.errors import MalformedCsv
from goalfem.estimator import EstimatorBreakdown
from goalfem.fespace import build_space
from goalfem.mesh import build_slit
from goalfem.presets import get_preset, preset_names

TINY_INI = """\
[run]
experiment = example1a
geometry = unit_square
n_initial = 4
system = plaplace
p = 2.0
epsilon = 1.0
degree = 1
combine = raw
tol_dis = 1e-30
max_levels = 2
max_dofs = 4000
reference_values = 0.03514425375
je_truth = reference
label = tiny
"""


def serialize_config(config):
    """RunConfig -> INI text that parse_config reads back."""
    cp = configparser.ConfigParser(interpolation=None)
    cp["run"] = {}
    for f in dataclasses.fields(RunConfig):
        val = getattr(config, f.name)
        if val is None:
            continue
        if isinstance(val, tuple):
            cp["run"][f.name] = ", ".join(repr(v) for v in val)
        else:
            cp["run"][f.name] = str(val)
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestConfig:
    def test_roundtrip_semantically_idempotent(self):
        cfg = parse_config(TINY_INI)
        again = parse_config(serialize_config(cfg))
        assert again == cfg

    def test_preset_roundtrip(self):
        for name in preset_names():
            cfg = get_preset(name)
            assert parse_config(serialize_config(cfg)) == cfg

    def test_percent_sign_taken_literally(self):
        cfg = dataclasses.replace(parse_config(TINY_INI), label="50%")
        assert parse_config(serialize_config(cfg)) == cfg

    def test_each_annotation_kind_parses_to_its_type(self):
        cfg = parse_config(
            "[run]\n"
            "experiment = example1a\n"
            "n_initial = 3\n"                        # int
            "p = 4\n"                                # float
            "manufactured = yes\n"                   # bool
            "enriched_degree = 3\n"                  # Optional[int]
            "reference_values = 0.5\n"               # Optional[tuple]
            "geometry = unit_square\n"               # Literal
            "label = run 1\n")                       # str
        assert cfg == RunConfig(
            experiment="example1a", n_initial=3, p=4.0, manufactured=True,
            enriched_degree=3, reference_values=(0.5,),
            geometry="unit_square", label="run 1")
        typed = {"n_initial": int, "p": float, "manufactured": bool,
                 "enriched_degree": int, "reference_values": tuple,
                 "geometry": str, "label": str}
        for key, kind in typed.items():
            assert type(getattr(cfg, key)) is kind, key

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            parse_config("[run]\nbogus = 1\n")

    def test_missing_section_rejected(self):
        with pytest.raises(ValueError):
            parse_config("[other]\nx = 1\n")

    @pytest.mark.parametrize("text", [
        TINY_INI.replace("[run]\n", ""),
        TINY_INI + "degree = 2\n",
    ], ids=["no_header", "duplicate_key"])
    def test_malformed_ini_rejected(self, text, tmp_path):
        with pytest.raises(ValueError):
            parse_config(text)
        ini = tmp_path / "bad.ini"
        ini.write_text(text)
        assert main(["run", "--config", str(ini),
                     "--out-dir", str(tmp_path)]) == 3

    @pytest.mark.parametrize("key, typo", [
        ("geometry", "unit-square"),
        ("system", "quasilinar"),
        ("combine", "weighed"),
        ("newton_mode", "adaptiv"),
        ("marking", "estimater"),
        ("je_truth", "surogate"),
        ("cold_start", "homotophy"),
        ("manufactured", "ture"),
    ])
    def test_misspelled_choice_rejected(self, key, typo):
        entries = {"experiment": "example1a", "geometry": "unit_square",
                   key: typo}
        ini = "[run]\n" + "".join(f"{k} = {v}\n" for k, v in entries.items())
        with pytest.raises(ValueError, match=key):
            parse_config(ini)


class TestRunSizes:
    @pytest.mark.parametrize("field, value", [
        ("initial_refines", -1), ("max_levels", 0), ("max_dofs", -5),
        ("n_initial", 0), ("degree", 0),
        # not integers: a float would run another size or fail deep in
        # the run, and a bool is an int to Python
        ("degree", 1.5), ("n_initial", 2.7), ("max_levels", 1.5),
        ("enriched_degree", 2.5), ("max_levels", True),
    ])
    def test_impossible_size_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(get_preset("example1c_case1"),
                                **{field: value})
        with pytest.raises(ValueError, match=field):
            parse_config("[run]\nexperiment = example1a\n"
                         f"geometry = unit_square\n{field} = {value}\n")

    def test_smallest_sizes_accepted(self):
        cfg = dataclasses.replace(get_preset("example2"), initial_refines=0,
                                  max_levels=1, max_dofs=1, n_initial=1,
                                  degree=1, enriched_degree=np.int64(2))
        assert cfg.max_levels == 1 and cfg.r2 == 2

    def test_cli_exit_3(self, tmp_path):
        assert main(["run", "--preset", "example2", "--max-levels", "0",
                     "--out-dir", str(tmp_path)]) == 3
        assert not list(tmp_path.iterdir())


class TestIntegerFields:
    @pytest.mark.parametrize("value", [0, -1, 1])
    def test_enriched_degree_is_a_positive_integer(self, value):
        # rejected as a size of its own, by name, before the comparison
        # with the primal degree
        with pytest.raises(ValueError, match="enriched_degree"):
            dataclasses.replace(get_preset("example1c_case1"),
                                enriched_degree=value)
        with pytest.raises(ValueError, match="enriched_degree"):
            parse_config("[run]\nexperiment = example1a\n"
                         f"geometry = unit_square\nenriched_degree = {value}\n")


# bad values per field: goal-count fields with the wrong number of
# entries, non-finite numbers, negative omegas and zero reference values
_BAD_VALUES = [
    ("omegas", "experiment = example2\ngeometry = slit\n"
               "system = quasilinear\nomegas = 2.0\n"),
    ("omegas", "experiment = example1a\ngeometry = unit_square\n"
               "omegas = 1.0, 2.0\n"),
    ("reference_values", "experiment = example1c\ngeometry = cheese\n"
                         "reference_values = 0.5\n"),
    ("reference_uncertainties", "experiment = example1c\n"
                                "geometry = cheese\n"
                                "reference_uncertainties = 1e-5\n"),
    ("raw", "experiment = example1c\ngeometry = cheese\n"
            "combine = raw\n"),
    ("tol_dis", "experiment = example1a\ngeometry = unit_square\n"
                "tol_dis = nan\n"),
    ("p", "experiment = example1a\ngeometry = unit_square\np = inf\n"),
    ("distort_factor", "experiment = example1a\ngeometry = unit_square\n"
                       "distort_factor = nan\n"),
    ("omegas", "experiment = example2\ngeometry = slit\n"
               "system = quasilinear\n"
               "omegas = -1.0, 1.0, 1.0, 1.0, 1.0, 1.0\n"),
    ("omegas", "experiment = example1a\ngeometry = unit_square\n"
               "omegas = nan\n"),
    ("reference_values", "experiment = example1a\ngeometry = unit_square\n"
                         "reference_values = 0.0\n"),
    ("reference_uncertainties", "experiment = example1a\n"
                                "geometry = unit_square\n"
                                "reference_uncertainties = inf\n"),
    ("seed", "experiment = example1a\ngeometry = unit_square\nseed = -3\n"),
    ("seed", "experiment = example1a\ngeometry = unit_square\n"
             "distort_factor = 0.2\nseed = -3\n"),
    ("p", "experiment = example1a\ngeometry = unit_square\np = 1.0\n"),
    ("epsilon", "experiment = example1a\ngeometry = unit_square\n"
                "epsilon = 0\n"),
    ("epsilon", "experiment = example1a\ngeometry = unit_square\n"
                "epsilon = -1\n"),
    ("cold_start", "experiment = example2\ngeometry = slit\n"
                   "system = quasilinear\ncold_start = homotopy\n"),
    ("omegas", "experiment = example1c\ngeometry = cheese\n"
               "omegas = 0, 0, 0, 0\n"),
    ("omegas", "experiment = example1a\ngeometry = unit_square\n"
               "combine = raw\nomegas = 2.0\n"),
]


class TestGoalCount:
    @pytest.mark.parametrize("field, body", _BAD_VALUES)
    def test_parse_config_rejects(self, field, body):
        with pytest.raises(ValueError, match=field):
            parse_config("[run]\n" + body)

    @pytest.mark.parametrize("field, body", _BAD_VALUES)
    def test_cli_exit_3(self, tmp_path, field, body):
        ini = tmp_path / "count.ini"
        ini.write_text("[run]\n" + body + "label = count\nmax_levels = 1\n")
        assert main(["run", "--config", str(ini),
                     "--out-dir", str(tmp_path)]) == 3
        assert not (tmp_path / "count_adaptive.csv").exists()

    def test_matching_counts_accepted(self):
        cfg = parse_config("[run]\nexperiment = example2\ngeometry = slit\n"
                           "omegas = " + ", ".join(["1.0"] * 6) + "\n")
        assert cfg.omegas == (1.0,) * 6


class TestRunVerb:
    def test_run_config_writes_outputs(self, tmp_path):
        ini = tmp_path / "tiny.ini"
        ini.write_text(TINY_INI)
        code = main(["run", "--config", str(ini),
                     "--out-dir", str(tmp_path)])
        assert code == 0
        rows = read_rows(tmp_path / "tiny_adaptive.csv")
        assert rows[0][:2] == ["level", "dofs"]
        assert len(rows) == 3
        assert (tmp_path / "tiny_adaptive.dat").exists()

    def test_determinism_modulo_walltime(self, tmp_path):
        ini = tmp_path / "tiny.ini"
        ini.write_text(TINY_INI)
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            assert main(["run", "--config", str(ini), "--seed", "7",
                         "--out-dir", str(tmp_path / sub)]) == 0
        ra = read_rows(tmp_path / "a" / "tiny_adaptive.csv")
        rb = read_rows(tmp_path / "b" / "tiny_adaptive.csv")
        wall = ra[0].index("wall_ms")
        for x, y in zip(ra, rb):
            assert x[:wall] == y[:wall]

    def test_uniform_comparison_and_vtk(self, tmp_path):
        ini = tmp_path / "tiny.ini"
        ini.write_text(TINY_INI)
        code = main(["run", "--config", str(ini), "--out-dir", str(tmp_path),
                     "--uniform", "--vtk", "--max-levels", "2"])
        assert code == 0
        assert (tmp_path / "tiny_uniform.csv").exists()
        assert (tmp_path / "tiny_adaptive_level01.vtk").exists()

    def test_max_dofs_override_truncates(self, tmp_path):
        ini = tmp_path / "tiny.ini"
        ini.write_text(TINY_INI.replace("max_levels = 2", "max_levels = 8"))
        assert main(["run", "--config", str(ini), "--out-dir", str(tmp_path),
                     "--max-dofs", "100"]) == 0
        rows = read_rows(tmp_path / "tiny_adaptive.csv")
        assert 1 < len(rows) - 1 < 8  # truncated well before max_levels
        assert all(int(r[1]) <= 100 for r in rows[1:])

    def test_preset_opening_dof_sequence(self, tmp_path):
        assert main(["run", "--preset", "example1a_case2",
                     "--max-levels", "3", "--out-dir", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "example1a_case2_adaptive.csv")
        assert [int(r[1]) for r in rows[1:]] == [9, 25, 81]

    def test_bad_arguments_exit_3(self, tmp_path, capsys):
        assert main(["run", "--preset", "nope",
                     "--out-dir", str(tmp_path)]) == 3
        assert main(["run", "--out-dir", str(tmp_path)]) == 3

    def test_config_typo_exit_3(self, tmp_path):
        ini = tmp_path / "typo.ini"
        ini.write_text(TINY_INI.replace("combine = raw", "combine = weighed"))
        assert main(["run", "--config", str(ini),
                     "--out-dir", str(tmp_path)]) == 3
        assert not (tmp_path / "tiny_adaptive.csv").exists()

    def test_solver_failure_exit_2(self, tmp_path):
        # an interior plateau with eps = 1e-10 defeats the damped Newton
        ini = tmp_path / "hard.ini"
        ini.write_text(TINY_INI
                       .replace("p = 2.0", "p = 4.0")
                       .replace("epsilon = 1.0", "epsilon = 1e-10")
                       .replace("label = tiny", "label = hard"))
        assert main(["run", "--config", str(ini),
                     "--out-dir", str(tmp_path)]) == 2
        # no level completed: no output
        assert not (tmp_path / "hard_adaptive.csv").exists()

    def test_capped_cold_start_exit_2_names_homotopy(self, tmp_path,
                                                    capsys):
        ini = tmp_path / "capped.ini"
        ini.write_text(TINY_INI
                       .replace("p = 2.0", "p = 4.0")
                       .replace("epsilon = 1.0", "epsilon = 1e-2"))
        assert main(["run", "--config", str(ini),
                     "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("solver failure: |A| = ")
        assert "cold_start = homotopy" in err
        assert not (tmp_path / "tiny_adaptive.csv").exists()

    def test_failed_level_keeps_completed_levels(self, tmp_path,
                                                 monkeypatch):
        from goalfem import adaptivity
        from goalfem.errors import SingularMatrix

        real, calls = adaptivity.solve_enriched_adjoint, []

        def fail_at_level_2(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise SingularMatrix("injected at level 2")
            return real(*args, **kwargs)

        monkeypatch.setattr(adaptivity, "solve_enriched_adjoint",
                            fail_at_level_2)
        ini = tmp_path / "tiny.ini"
        ini.write_text(TINY_INI)
        assert main(["run", "--config", str(ini),
                     "--out-dir", str(tmp_path)]) == 2
        csv_path = tmp_path / "tiny_adaptive.csv"
        rows = read_rows(csv_path)
        assert len(rows) == 2 and rows[1][0] == "1"
        assert (tmp_path / "tiny_adaptive.dat").exists()
        assert main(["report", str(csv_path)]) == 0


class TestReportVerb:
    def test_synthetic_power_law(self, tmp_path, capsys):
        path = tmp_path / "synth.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["level", "dofs", "J_1", "J_1_rel_error", "J_E_error",
                        "eta_h", "eta_primal", "eta_adjoint", "I_eff",
                        "I_effp", "I_effa", "newton_steps", "wall_ms"])
            for lvl, dofs in enumerate((100, 400, 1600, 6400, 25600), 1):
                err = 5.0 / dofs
                w.writerow([lvl, dofs, 1.0, err, err, err, err / 2, err / 2,
                            1.0, 1.0, 1.0, 2, 1.0])
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "-1.00" in out

    def test_single_level_not_available(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["level", "dofs", "J_1", "J_1_rel_error", "J_E_error",
                        "eta_h", "eta_primal", "eta_adjoint", "I_eff",
                        "I_effp", "I_effa", "newton_steps", "wall_ms"])
            w.writerow([1, 100, 1.0, 0.1, 0.1, 0.1, 0.05, 0.05,
                        1.0, 1.0, 1.0, 2, 1.0])
        assert main(["report", str(path)]) == 0
        assert "n/a" in capsys.readouterr().out

    def test_goal_columns_read_from_the_header(self, tmp_path, capsys):
        # a file whose only goal is J_2 is rated by the columns it has
        path = tmp_path / "j2.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["level", "dofs", "J_2", "J_2_rel_error", "J_E_error",
                        "eta_h"])
            for lvl, dofs in enumerate((100, 400, 1600, 6400), 1):
                w.writerow([lvl, dofs, 1.0, 3.0 / dofs, 5.0 / dofs,
                            2.0 / dofs ** 0.5])
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert [line.split() for line in out[3:]] == [
            ["J_2_rel_error", "-1.00"], ["J_E_error", "-1.00"],
            ["eta_h", "-0.50"]]

    def test_malformed_exit_3(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("level,dofs\n1,not_a_number\n")
        assert main(["report", str(path)]) == 3

    def test_missing_columns_exit_3(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("level,J_1\n1,0.5\n2,0.25\n")
        with pytest.raises(MalformedCsv, match="dofs, J_E_error, eta_h"):
            read_csv(path)
        assert main(["report", str(path)]) == 3
        assert "missing columns" in capsys.readouterr().err


def test_vtk_point_data_are_vertex_coefficients(tmp_path):
    # vector Q2 on the slit with hanging faces; a vertex's coefficient is
    # read through the corner nodes of the cells at it
    mesh = build_slit().refine([0, 3]).refine([5])
    space = build_space(mesh, 2, 3)
    u = space.function(np.random.default_rng(4).normal(size=space.n_dofs))
    bd = EstimatorBreakdown(0.0, 0.0, np.zeros(mesh.n_points),
                            np.zeros(len(mesh.active_cells)))
    _vtk_callback(str(tmp_path), "t")(1, mesh, u, bd)
    lines = (tmp_path / "t_level01.vtk").read_text().splitlines()
    r = space.degree
    corner_local = (0, r, r * (r + 1), (r + 1) ** 2 - 1)
    expected = np.full((3, mesh.n_points), np.nan)
    for row, c in enumerate(mesh.active_cells):
        for v, loc in zip(mesh.cell_verts[c], corner_local):
            expected[:, v] = u.coeffs[space.cell_dofs[row, :, loc]]
    for comp in range(3):
        start = lines.index(f"SCALARS u{comp + 1} double 1") + 2
        assert lines[start:start + mesh.n_points] \
            == [f"{x:.16g}" for x in expected[comp]]


def test_mesh_dump(tmp_path):
    out = tmp_path / "m.vtk"
    assert main(["mesh-dump", "--preset", "example2",
                 "--out", str(out)]) == 0
    assert "CELL_TYPES" in out.read_text()
