import configparser
import json

import numpy as np
import pytest

from pffrac import presets
from pffrac.cli import config_from_setup, main, setup_from_config
from pffrac.mesh import generate_structured, select_nodes, write_gmsh
from pffrac.presets import load_preset
from pffrac.vtkio import read_field_snapshot, write_field_snapshot


@pytest.fixture
def patch_config(tmp_path, rng):
    """Explicit-mesh config of a small elastic tension patch."""
    mesh = generate_structured(2, [1.0, 1.0], [3, 3])
    mesh.node_sets["pin"] = select_nodes(mesh, lambda x: np.abs(x).sum(axis=1), 1e-9)
    msh = tmp_path / "patch.msh"
    msh.write_text(write_gmsh(mesh))
    cfg = tmp_path / "patch.cfg"
    cfg.write_text(
        f"""[run]
mesh = {msh}

[material]
lam_kn = 121.1538
mu_kn = 80.7692
gc = 2.7
ell = 0.0175
k = 1e-4
eps_pen = 1e-6

[program]
n_steps = 5
dw = 5e-5
bc = ymin:y:0; ymax:y:1; pin:x:0

[backtrack]
k_back = 5
eta = 1e-5

[reaction]
set = ymax
direction = 0 1
"""
    )
    return cfg


class TestVtk:
    def test_zero_state_snapshot(self, tmp_path):
        mesh = generate_structured(2, [1.0, 1.0], [1, 1])
        path = tmp_path / "snap.vtk"
        write_field_snapshot(np.zeros(2 * mesh.n_nodes), np.zeros(mesh.n_nodes), mesh, path)
        text = path.read_text()
        assert "POINTS 4 double" in text
        assert "CELLS 2 8" in text
        assert "VECTORS displacement double" in text
        assert "SCALARS damage double 1" in text

    def test_roundtrip_bitwise(self, tmp_path, rng):
        mesh = generate_structured(3, [1.0, 1.0, 1.0], [1, 1, 1])
        disp = rng.normal(size=3 * mesh.n_nodes) * 1e-3
        damage = rng.uniform(0, 1, mesh.n_nodes)
        path = tmp_path / "snap.vtk"
        write_field_snapshot(disp, damage, mesh, path)
        got_disp, got_damage = read_field_snapshot(path, 3)
        assert np.array_equal(got_disp, disp)
        assert np.array_equal(got_damage, damage)


class TestConfigPlumbing:
    def test_export_parses_as_ini(self, capsys):
        assert main(["export", "--preset", "sent", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        parser = configparser.ConfigParser()
        parser.read_string(out)
        assert parser["run"]["preset"] == "sent"
        assert float(parser["material"]["gc"]) == 2.7

    def test_setup_roundtrip(self):
        setup = load_preset("sent", 0.1)
        cfg = config_from_setup(setup)
        back = setup_from_config(cfg)
        assert back.params == setup.params
        assert back.program == setup.program
        assert back.backtrack == setup.backtrack
        assert back.reaction_set == setup.reaction_set

    def test_preset_and_mesh_are_exclusive(self):
        with pytest.raises(ValueError):
            setup_from_config({"run": {"preset": "sent", "mesh": "x.msh"}})
        with pytest.raises(ValueError):
            setup_from_config({"run": {}})


class TestCmdRun:
    def test_bad_config_exit_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[run]\npreset = nope\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_patch_run_outputs(self, patch_config, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", str(patch_config), "--out", str(out)]) == 0
        load = (out / "load_disp.csv").read_text().splitlines()
        assert load[0] == "step,w,reaction"
        first = load[1].split(",")
        assert first[0] == "0" and float(first[2]) == 0.0
        assert len(load) == 7  # header + steps 0..5
        energy = (out / "energy.csv").read_text().splitlines()
        assert len(energy) == 7
        assert all(row.split(",")[6] == "1" for row in energy[1:])
        run_log = json.loads((out / "run.json").read_text())
        assert run_log["accepted_steps"] == 5
        assert not run_log["aborted"]
        assert (out / "snapshots" / "step_000005.vtk").exists()

    def test_rerun_bitwise_identical(self, patch_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(patch_config), "--out", str(out1)]) == 0
        assert main(["run", "--config", str(patch_config), "--out", str(out2)]) == 0
        for name in ("load_disp.csv", "energy.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_set_override_echoed(self, patch_config, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["run", "--config", str(patch_config), "--out", str(out), "--set", "material.ell=0.02"]
        )
        assert code == 0
        run_log = json.loads((out / "run.json").read_text())
        assert run_log["config"]["material"]["ell"] == "0.02"

    def test_preset_flags(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["run", "--preset", "sent", "--scale", "0.1", "--steps", "2", "--k-back", "0", "--out", str(out)]
        )
        assert code == 0
        run_log = json.loads((out / "run.json").read_text())
        assert run_log["config"]["backtrack"]["k_back"] == "0"
        assert run_log["config"]["program"]["n_steps"] == "2"

    def test_preset_built_once(self, tmp_path, monkeypatch):
        calls = []
        real = presets.load_preset

        def counting(name, scale=1.0):
            calls.append((name, scale))
            return real(name, scale)

        monkeypatch.setattr(presets, "load_preset", counting)
        argv = ["run", "--preset", "sent", "--scale", "0.1", "--steps", "1", "--k-back", "0"]
        assert main(argv + ["--out", str(tmp_path / "a")]) == 0
        assert calls == [("sent", 0.1)]
        # an override of the scale builds the preset it names
        calls.clear()
        assert main(argv + ["--set", "run.scale=0.05", "--out", str(tmp_path / "b")]) == 0
        assert calls == [("sent", 0.1), ("sent", 0.05)]
        snap = (tmp_path / "b" / "snapshots" / "step_000000.vtk").read_text()
        assert f"POINTS {real('sent', 0.05).mesh.n_nodes} double" in snap


class TestCheckEnergy:
    def test_self_consistency_exit_0(self, patch_config, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", "--config", str(patch_config), "--out", str(out)])
        assert main(["check-energy", str(out)]) == 0

    def test_tampered_energy_exit_1(self, patch_config, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", str(patch_config), "--out", str(out)])
        path = out / "energy.csv"
        rows = path.read_text().splitlines()
        parts = rows[2].split(",")
        parts[1] = "%.17g" % (float(parts[1]) + 1e-3)
        rows[2] = ",".join(parts)
        path.write_text("\n".join(rows) + "\n")
        assert main(["check-energy", str(out)]) == 1

    def test_missing_snapshot_exit_2(self, patch_config, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", str(patch_config), "--out", str(out)])
        (out / "snapshots" / "step_000003.vtk").unlink()
        assert main(["check-energy", str(out)]) == 2

    @pytest.mark.parametrize("every, kinds", [(2, (0, 2, 2)), (3, (1, 1, 2))])
    def test_sparse_snapshots(self, tmp_path, capsys, every, kinds):
        out = tmp_path / "out"
        argv = ["run", "--preset", "sent", "--scale", "0.1", "--steps", "4"]
        assert main(argv + ["--set", f"output.snapshot_every={every}", "--out", str(out)]) == 0
        written = sorted(int(f.stem[5:]) for f in (out / "snapshots").glob("*.vtk"))
        assert written == sorted({0, 4, *range(every, 5, every)})
        capsys.readouterr()
        assert main(["check-energy", str(out)]) == 0
        full, partial, skipped = kinds
        assert (
            f"{full} fully checked, {partial} checked for E and sum_D only, "
            f"{skipped} without snapshot" in capsys.readouterr().out
        )
        path = out / "energy.csv"
        clean = path.read_text().splitlines()

        def rerun_with(step, column, value):
            rows = list(clean)
            parts = rows[1 + step].split(",")
            parts[column] = value(parts[column])
            rows[1 + step] = ",".join(parts)
            path.write_text("\n".join(rows) + "\n")
            capsys.readouterr()
            return main(["check-energy", str(out)])

        # a step checked without its predecessor still catches a wrong sum_D
        assert rerun_with(every, 2, lambda v: "%.17g" % (float(v) * (1.0 + 1e-6) + 1e-9)) == 1
        # a failure the run recorded on a step that is not fully checked stands
        for step in (every, 1):
            assert rerun_with(step, 6, lambda v: "0") == 1
            assert f"two-sided inequality fails at steps: {step}" in capsys.readouterr().err

    def test_missing_dir_exit_2(self, tmp_path):
        assert main(["check-energy", str(tmp_path / "nope")]) == 2
