import csv
import dataclasses

import pytest

from goalfem.cli import main, parse_config, serialize_config
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

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            parse_config("[run]\nbogus = 1\n")

    def test_missing_section_rejected(self):
        with pytest.raises(ValueError):
            parse_config("[other]\nx = 1\n")

    @pytest.mark.parametrize("key, typo", [
        ("geometry", "unit-square"),
        ("system", "quasilinar"),
        ("combine", "weighed"),
        ("newton_mode", "adaptiv"),
        ("marking", "estimater"),
        ("je_truth", "surogate"),
        ("cold_start", "homotophy"),
    ])
    def test_misspelled_choice_rejected(self, key, typo):
        entries = {"experiment": "example1a", "geometry": "unit_square",
                   key: typo}
        ini = "[run]\n" + "".join(f"{k} = {v}\n" for k, v in entries.items())
        with pytest.raises(ValueError, match=key):
            parse_config(ini)


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

    def test_malformed_exit_3(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("level,dofs\n1,not_a_number\n")
        assert main(["report", str(path)]) == 3


def test_mesh_dump(tmp_path):
    out = tmp_path / "m.vtk"
    assert main(["mesh-dump", "--preset", "example2",
                 "--out", str(out)]) == 0
    assert "CELL_TYPES" in out.read_text()
