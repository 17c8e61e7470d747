import builtins
import dataclasses
import io
import json
import os
import struct
from pathlib import Path

import numpy as np
import pytest

from conftest import box_mesh, scripted_checks
from oracles import fresh_check, read_snapshot_by_line
from pffrac import cli, driver, energetics, fem, linsolve, presets
from pffrac.cli import config_from_setup, main, resolve_config, run_to_dir
from pffrac.driver import BacktrackConfig, LoadProgram
from pffrac.material import MaterialParams
from pffrac.presets import load_preset
from pffrac.solver import SolverConfig, StepFailure
from pffrac.vtkio import grid_text, read_field_snapshot, write_field_snapshot


def resolved_setup(cfg):
    """The run setup that ``cfg`` resolves to."""
    return resolve_config(cfg)[1]


def setup_fields(s):
    """A run setup as a comparable tuple."""
    return (
        s.name, s.scale, s.mesh.nodes.tobytes(), s.params, s.program, s.solver, s.backtrack,
    )


# Every config key a run reads: the preset and scale, and the fields of the
# run-setup part each other section sets, all but the program's Dirichlet
# specs.
_PARTS = {"material": MaterialParams, "program": LoadProgram, "solver": SolverConfig, "backtrack": BacktrackConfig}
CONFIG_KEYS = {"run.preset", "run.scale"} | {
    f"{section}.{f.name}" for section, cls in _PARTS.items() for f in dataclasses.fields(cls) if f.name != "bcs"
}


# The flags of a 5-step run of the smallest sent mesh (126 nodes).
SENT_RUN = ["--preset", "sent", "--scale", "0.02", "--steps", "5"]


def sent_given():
    """The config keys that ``SENT_RUN`` gives."""
    return {"run": {"preset": "sent", "scale": "0.02"}, "program": {"n_steps": "5"}}


def drop_line(data: bytes, prefix: str) -> bytes:
    """``data`` without the snapshot header line that starts with
    ``prefix``."""
    i = data.index(b"\n" + prefix.encode()) + 1
    return data[:i] + data[data.index(b"\n", i) + 1 :]


class TestVtk:
    def test_zero_state_snapshot(self, tmp_path):
        mesh = box_mesh([1.0, 1.0], [1, 1])
        path = tmp_path / "snap.vtk"
        write_field_snapshot(np.zeros(2 * mesh.n_nodes), np.zeros(mesh.n_nodes), mesh, path, grid_text(mesh))
        data = path.read_bytes()
        assert b"\nPOINTS 4 double\n" in data
        assert b"\nCELLS 2 8\n" in data
        assert b"\nPOINT_DATA 4\nVECTORS displacement double\n" in data
        assert b"\nSCALARS damage double 1\nLOOKUP_TABLE default\n" in data

    def test_header_and_big_endian_blocks(self, tmp_path, rng):
        # the four header lines, then each section header and its block of
        # big-endian float64 (points, fields) or int32 (cells), each block
        # followed by a newline
        mesh = box_mesh([1.0, 1.0], [1, 1])
        disp = rng.normal(size=2 * mesh.n_nodes)
        damage = rng.uniform(0.0, 1.0, mesh.n_nodes)
        path = tmp_path / "snap.vtk"
        write_field_snapshot(disp, damage, mesh, path, grid_text(mesh))

        def doubles(rows):
            return b"".join(struct.pack(">3d", *row, *[0.0] * (3 - len(row))) for row in rows)

        cells = b"".join(struct.pack(">4i", 3, *e) for e in mesh.elements.tolist())
        want = b"".join(
            [
                b"# vtk DataFile Version 3.0\npffrac field snapshot\nBINARY\nDATASET UNSTRUCTURED_GRID\n",
                b"POINTS 4 double\n", doubles(mesh.nodes.tolist()), b"\n",
                b"CELLS 2 8\n", cells, b"\n",
                b"CELL_TYPES 2\n", struct.pack(">2i", 5, 5), b"\n",
                b"POINT_DATA 4\nVECTORS displacement double\n", doubles(disp.reshape(-1, 2).tolist()), b"\n",
                b"SCALARS damage double 1\nLOOKUP_TABLE default\n", struct.pack(">4d", *damage), b"\n",
            ]
        )
        assert path.read_bytes() == want

    def test_roundtrip_bitwise(self, tmp_path, rng):
        mesh = box_mesh([1.0, 1.0, 1.0], [1, 1, 1])
        disp = rng.normal(size=3 * mesh.n_nodes) * 1e-3
        disp[:3] = [-0.0, 5e-324, -np.finfo(float).max]
        damage = rng.uniform(0, 1, mesh.n_nodes)
        path = tmp_path / "snap.vtk"
        write_field_snapshot(disp, damage, mesh, path, grid_text(mesh))
        got_disp, got_damage = read_field_snapshot(path, mesh, grid_text(mesh))
        assert got_disp.dtype == got_damage.dtype == np.float64 and got_disp.dtype.isnative
        assert got_disp.tobytes() == disp.tobytes() and got_damage.tobytes() == damage.tobytes()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_reader_matches_line_oracle(self, tmp_path, rng, dim):
        mesh = box_mesh([1.0] * dim, [3] * dim)
        n = dim * mesh.n_nodes
        disp = rng.normal(size=n) * 10.0 ** rng.uniform(-300.0, 300.0, n)
        disp[:4] = [0.0, -0.0, 5e-324, -np.finfo(float).max]
        damage = rng.uniform(0.0, 1.0, mesh.n_nodes)
        damage[::4] = 0.0
        path = tmp_path / "snap.vtk"
        write_field_snapshot(disp, damage, mesh, path, grid_text(mesh))
        for got, want in zip(read_field_snapshot(path, mesh, grid_text(mesh)), read_snapshot_by_line(path, dim)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))

    def refused(self, mesh, path, data: bytes, match: str = " is not "):
        """Whether ``data`` in place of the snapshot of ``mesh`` at ``path``
        is refused with a ValueError that matches ``match`` and names
        ``path``."""
        path.write_bytes(data)
        with pytest.raises(ValueError, match=match) as info:
            read_field_snapshot(path, mesh, grid_text(mesh))
        return str(info.value).endswith(f" in {path}")

    @pytest.mark.parametrize(
        "header",
        [
            "pffrac field snapshot", "DATASET", "POINTS", "CELLS", "CELL_TYPES", "POINT_DATA",
            "VECTORS displacement", "SCALARS damage", "LOOKUP_TABLE",
        ],
    )
    def test_missing_section_raises(self, tmp_path, header):
        # a dropped header line: the file is shorter than the layout
        mesh = box_mesh([1.0, 1.0, 1.0], [1, 1, 1])
        path = tmp_path / "snap.vtk"
        write_field_snapshot(np.zeros(3 * mesh.n_nodes), np.zeros(mesh.n_nodes), mesh, path, grid_text(mesh))
        assert self.refused(mesh, path, drop_line(path.read_bytes(), header))

    def test_truncated_block_raises(self, tmp_path):
        # the last damage value and the newline after it cut off
        mesh = box_mesh([1.0, 1.0], [1, 1])
        path = tmp_path / "snap.vtk"
        write_field_snapshot(np.zeros(2 * mesh.n_nodes), np.zeros(mesh.n_nodes), mesh, path, grid_text(mesh))
        data = path.read_bytes()
        assert self.refused(mesh, path, data[:-9], f"snapshot \\({len(data) - 9} bytes\\) is not the {len(data)} bytes")

    def test_longer_file_raises(self, tmp_path):
        # bytes after the damage block's newline, even a bare newline
        mesh = box_mesh([1.0, 1.0], [1, 1])
        path = tmp_path / "snap.vtk"
        write_field_snapshot(np.zeros(2 * mesh.n_nodes), np.zeros(mesh.n_nodes), mesh, path, grid_text(mesh))
        data = path.read_bytes()
        for extra in [b"\n", b"SCALARS extra double 1\nLOOKUP_TABLE default\n" + bytes(8 * mesh.n_nodes) + b"\n"]:
            assert self.refused(mesh, path, data + extra)

    @pytest.mark.parametrize(
        "where",
        ["version", "points_header", "points_block", "cells_block", "cell_types_block", "point_data",
         "after_displacement", "lookup_table", "last_newline"],
    )
    def test_changed_byte_raises(self, tmp_path, where):
        # one byte changed outside the two field blocks, the size kept: a
        # header that gives another count, points or cells that are not the
        # mesh's, or a newline that is not one
        mesh = box_mesh([1.0, 1.0], [1, 1])
        path = tmp_path / "snap.vtk"
        write_field_snapshot(np.zeros(2 * mesh.n_nodes), np.zeros(mesh.n_nodes), mesh, path, grid_text(mesh))
        data = bytearray(path.read_bytes())

        def after(header):
            """The offset of the first byte after ``header``'s line."""
            return data.index(b"\n", data.index(header.encode())) + 1

        at = {
            "version": data.index(b"3.0"),
            "points_header": data.index(b"POINTS 4") + 7,
            "points_block": after("POINTS") + 8,
            "cells_block": after("CELLS") + 3,
            "cell_types_block": after("CELL_TYPES") + 3,
            "point_data": data.index(b"POINT_DATA"),
            "after_displacement": after("VECTORS") + 24 * mesh.n_nodes,
            "lookup_table": data.index(b"default"),
            "last_newline": len(data) - 1,
        }[where]
        data[at] ^= 1
        assert self.refused(mesh, path, bytes(data))

    def test_ascii_snapshot_raises(self, tmp_path):
        # the legacy VTK ASCII of earlier versions is named as such
        mesh = box_mesh([1.0, 1.0], [1, 1])
        path = tmp_path / "snap.vtk"
        ascii_head = b"# vtk DataFile Version 3.0\npffrac field snapshot\nASCII\nDATASET UNSTRUCTURED_GRID\n"
        assert self.refused(mesh, path, ascii_head + b"POINTS 4 double\n", "line 3 reads 'ASCII'")
        assert self.refused(mesh, path, b"", "line 3 reads ''")


class TestConfigPlumbing:
    def test_setup_roundtrip(self):
        # each preset's config resolves to the preset, every part bit for
        # bit
        assert len(CONFIG_KEYS) == 18
        for name, scale in [("sent", 0.02), ("sens", 0.02), ("lshape", 0.15), ("bend3d", 0.12)]:
            setup = load_preset(name, scale)
            cfg = config_from_setup(setup)
            assert {f"{s}.{k}" for s, keys in cfg.items() for k in keys} == CONFIG_KEYS - {"material.kappa"}
            assert setup_fields(resolved_setup(cfg)) == setup_fields(setup), name
            # keys a config leaves out keep the preset's values
            cfg["solver"] = {"max_alt": "7"}
            del cfg["backtrack"]
            back = resolved_setup(cfg)
            assert back.solver == dataclasses.replace(setup.solver, max_alt=7)
            assert back.backtrack == setup.backtrack

    def test_every_config_key_is_read(self):
        # each key the format accepts changes the setup of a run, so the
        # accepted keys and the readers cannot drift apart
        sent = config_from_setup(load_preset("sent", 0.02))
        sent["program"]["n_steps"] = "2"
        assert sent["material"]["dissipation"] == "AT2" and "kappa" not in sent["material"]
        # only AT1 reads kappa, and AT1 needs it: the switch to AT1 gives
        # one, and kappa changes on an AT1 config
        at1 = {s: dict(v) for s, v in sent.items()}
        at1["material"].update(dissipation="AT1", kappa="0.3")

        changes = {
            ("run", "preset"): (sent, "sens"),
            ("run", "scale"): (sent, "0.03"),
            ("material", "lam"): (sent, "100000"),
            ("material", "mu"): (sent, "70000"),
            ("material", "gc"): (sent, "2.5"),
            ("material", "ell"): (sent, "0.02"),
            ("material", "k"): (sent, "1e-3"),
            ("material", "dissipation"): (sent, "AT1"),
            ("material", "eps_pen"): (sent, "1e-5"),
            ("material", "kappa"): (at1, "0.5"),
            ("program", "n_steps"): (sent, "3"),
            ("program", "dw"): (sent, "2e-4"),
            ("solver", "tol_u"): (sent, "1e-6"),
            ("solver", "tol_a"): (sent, "1e-6"),
            ("solver", "max_newton"): (sent, "50"),
            ("solver", "max_alt"): (sent, "500"),
            ("backtrack", "k_back"): (sent, "3"),
            ("backtrack", "eta"): (sent, "1e-4"),
        }
        assert {f"{s}.{k}" for s, k in changes} == CONFIG_KEYS

        def setup_of(cfg):
            return setup_fields(resolved_setup(cfg))

        for (section, key), (base, value) in changes.items():
            cfg = {s: dict(v) for s, v in base.items()}
            assert cfg[section].get(key) != value
            cfg[section][key] = value
            if key == "dissipation":
                cfg["material"]["kappa"] = at1["material"]["kappa"]
            assert setup_of(cfg) != setup_of(base), key


class _Stop(Exception):
    """Raised once a command has resolved its config."""


# A value for every config key but run.preset, each different from the one
# the sent preset holds.
_PARITY_VALUES = {
    "run.scale": "0.03",
    "material.lam": "100000",
    "material.mu": "70000",
    "material.gc": "3.0",
    "material.ell": "0.02",
    "material.k": "1e-3",
    "material.dissipation": "AT1",
    "material.eps_pen": "1e-5",
    "material.kappa": "0.5",
    "program.n_steps": "3",
    "program.dw": "2e-4",
    "solver.tol_u": "1e-6",
    "solver.tol_a": "1e-6",
    "solver.max_newton": "50",
    "solver.max_alt": "500",
    "backtrack.k_back": "3",
    "backtrack.eta": "1e-4",
}


class TestOverlay:
    @pytest.fixture
    def resolved(self, monkeypatch, capsys, tmp_path):
        """Run ``main`` on argv up to the resolved config: (exit code or
        the resolved setup, standard error)."""
        real = cli.resolve_config

        def stop(cfg):
            raise _Stop(real(cfg))

        monkeypatch.setattr(cli, "resolve_config", stop)

        def resolve(argv):
            capsys.readouterr()
            try:
                code = main(argv + ["--out", str(tmp_path / "never")])
            except _Stop as done:
                _, setup = done.args[0]
                return setup_fields(setup), ""
            return code, capsys.readouterr().err

        return resolve

    @pytest.mark.parametrize("key", sorted(_PARITY_VALUES))
    def test_flag_and_file_spellings_resolve_alike(self, resolved, key):
        # a key given with --set over a preset resolves to a setup that is
        # not the preset's, or to the config error that names the key (the
        # run.json spelling of a config is test_run_json_config_reruns)
        name = key.split(".")[1]
        value = _PARITY_VALUES[key]
        by_flag = resolved(["run", "--preset", "sent", "--set", f"{key}={value}"])
        if name == "kappa":
            # the sent preset is AT2, which reads no kappa
            assert by_flag == (2, "config error: material.kappa = 0.5 is read only by AT1, not by AT2\n")
        else:
            assert by_flag != resolved(["run", "--preset", "sent"])

    def test_parity_covers_every_key(self):
        assert set(_PARITY_VALUES) == CONFIG_KEYS - {"run.preset"}

    def test_flags_are_overrides(self, resolved):
        # each run flag is its --set spelling
        flags = ["--scale", "0.03", "--steps", "3", "--k-back", "2", "--eta", "1e-4"]
        keys = ["run.scale=0.03", "program.n_steps=3", "backtrack.k_back=2", "backtrack.eta=1e-4"]
        sets = [x for k in keys for x in ("--set", k)]
        assert resolved(["run", "--preset", "sent"] + flags) == resolved(["run", "--set", "run.preset=sent"] + sets)
        assert resolved(["run", "--preset", "sent"] + flags) == resolved(["run", "--preset", "sent"] + sets)
        # a --set after a flag wins
        assert resolved(["run", "--preset", "sent", "--steps", "4", "--set", "program.n_steps=3"]) == resolved(
            ["run", "--preset", "sent", "--steps", "3"]
        )


class TestCmdRun:
    def test_bad_config_exit_2(self, tmp_path, capsys):
        # a preset that does not exist, named by its key, or none named
        out = tmp_path / "o"
        cases = [
            (["--set", "run.preset=nope"], "run.preset = 'nope' is unknown; choose from sent, sens, lshape, bend3d"),
            (["--scale", "0.02"], "missing config key run.preset"),
        ]
        for argv, named in cases:
            assert main(["run", *argv, "--out", str(out)]) == 2
            assert capsys.readouterr().err == f"config error: {named}\n"
            assert not out.exists()

    @pytest.mark.parametrize(
        "item, named",
        [
            ("solver.clamp_damage=false", "solver.clamp_damage"),
            ("output.snapshot_every=2", "unknown config section [output]"),
            ("solvr.tol_u=1e-6", "[solvr]"),
            ("run.mesh=x.msh", "unknown config key run.mesh"),
            # the sent preset is AT2, which reads no kappa
            ("material.kappa=0.5", "config error: material.kappa = 0.5 is read only by AT1, not by AT2"),
            # the keys of older versions: moduli in kN/mm^2, Young's modulus
            # and Poisson ratio, and the Dirichlet specs as a string
            ("material.lam_kn=121.1538", "config error: unknown config key material.lam_kn"),
            ("material.e_kn=30", "config error: unknown config key material.e_kn"),
            ("material.nu=0.2", "config error: unknown config key material.nu"),
            ("program.bc=bottom:y:0; top:y:1; pin:x:0", "config error: unknown config key program.bc"),
        ],
    )
    def test_unread_key_exit_2(self, tmp_path, capsys, item, named):
        out = tmp_path / "o"
        argv = ["run", "--preset", "sent", "--scale", "0.02", "--steps", "1", "--set", item, "--out", str(out)]
        assert main(argv) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "item, named",
        [
            ("run.scale=abc", "config error: run.scale: could not convert string to float: 'abc'"),
            ("program.dw=0", "config error: program.dw = 0.0 must not be 0: the program loads nothing"),
        ],
        ids=["scale_abc", "dw_zero"],
    )
    def test_component_beyond_mesh_dim_exit_2(self, tmp_path, capsys, item, named):
        # a program that loads nothing (a range error of the program, named
        # by its key and value), or a value that does not parse (named by
        # its key), is a config error found before the output directory is
        # made; the Dirichlet specs are the preset's, so a dw of 0 is the
        # one program that can miss
        out = tmp_path / "o"
        argv = ["run", "--preset", "sent", "--scale", "0.05", "--steps", "1", "--set", item]
        assert main(argv + ["--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--eta", "0"], "backtrack.eta = 0.0 must be > 0"),
            (["--k-back", "-1"], "backtrack.k_back = -1 must be >= 0"),
            (["--set", "material.lam=-1"], "material.lam = -1.0 must be >= 0"),
            (["--set", "material.mu=-1"], "material.mu = -1.0 must be > 0"),
            (["--set", "material.gc=-1"], "material.gc = -1.0 must be > 0"),
            (["--set", "solver.tol_u=0"], "solver.tol_u = 0.0 must be > 0"),
            (["--set", "solver.max_alt=0"], "solver.max_alt = 0 must be > 0"),
            (["--steps", "0"], "program.n_steps = 0 must be >= 1"),
            (["--scale", "2"], "run.scale = 2.0 must be in (0, 1]"),
        ],
        ids=[
            "eta_zero", "k_back_negative", "lam_negative", "mu_negative", "gc_negative", "tol_u_zero", "max_alt_zero",
            "n_steps_zero", "scale_two",
        ],
    )
    def test_out_of_range_exit_2(self, tmp_path, capsys, flags, named):
        # a value that parses but lies outside its range is a config error
        # naming its key and value, found before the output directory is
        # made
        out = tmp_path / "o"
        argv = ["run", "--preset", "sent", "--scale", "0.02", "--steps", "1", *flags, "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"config error: {named}\n"
        assert not out.exists()

    # Each float key, with the keys that let a run read it, on the sent
    # preset.
    _FLOAT_KEYS = {
        "run.scale": [],
        "material.lam": [],
        "material.mu": [],
        "material.gc": [],
        "material.ell": [],
        "material.k": [],
        "material.eps_pen": [],
        "material.kappa": ["material.dissipation=AT1"],
        "program.dw": [],
        "solver.tol_u": [],
        "solver.tol_a": [],
        "backtrack.eta": [],
    }

    def test_float_keys_are_covered(self):
        others = {"run.preset", "material.dissipation", "program.n_steps", "solver.max_newton", "solver.max_alt",
                  "backtrack.k_back"}
        assert set(self._FLOAT_KEYS) == CONFIG_KEYS - others

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", sorted(_FLOAT_KEYS))
    def test_non_finite_float_exit_2(self, tmp_path, capsys, key, value):
        # a float that is not finite is a config error naming its key,
        # found before the output directory is made
        sets = [x for k in self._FLOAT_KEYS[key] + [f"{key}={value}"] for x in ("--set", k)]
        out = tmp_path / "o"
        argv = ["run", "--preset", "sent", "--scale", "0.02", "--steps", "2", *sets, "--out", str(out)]
        assert main(argv) == 2
        assert f"config error: {key}: '{value}' is not a finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_reaction_section_exit_2(self, tmp_path, capsys):
        # the reaction is the force conjugate to w; a config that still
        # names a reaction set and direction has a section no run reads
        out = tmp_path / "o"
        sets = ["--set", "reaction.set=top", "--set", "reaction.direction=0 1"]
        assert main(["run", *SENT_RUN, *sets, "--out", str(out)]) == 2
        assert "unknown config section [reaction]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv", [["run", "--config", "x.cfg"], ["export", "--preset", "sent"]], ids=["config_file", "export"]
    )
    def test_config_file_is_no_input(self, tmp_path, capsys, argv):
        # a run is a preset plus overrides: a config file is no input, and
        # there is no export to write one; each is a usage error that makes
        # no output directory
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: pffrac")
        assert not out.exists()

    def test_unwritable_outputs_exit_2(self, tmp_path, capsys):
        # a plain file where the snapshot directory goes: the outputs cannot
        # be written, which is no config error
        out = tmp_path / "o"
        out.mkdir()
        (out / "snapshots").write_text("")
        assert main(["run", *SENT_RUN, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot write run outputs: ") and "snapshots" in err

    def test_run_json_config_reruns(self, tmp_path):
        # run.json records the resolved config, the preset's config with the
        # run's overrides laid over it; run again, it writes the same
        # outputs byte for byte
        first, again = tmp_path / "first", tmp_path / "again"
        assert main(["run", *SENT_RUN, "--out", str(first)]) == 0
        cfg = json.loads((first / "run.json").read_text())["config"]
        want = config_from_setup(load_preset("sent", 0.02))
        want["program"]["n_steps"] = "5"
        assert cfg == want
        run_to_dir(cfg, again)
        assert json.loads((again / "run.json").read_text())["config"] == cfg
        names = ["load_disp.csv", "energy.csv", "intermediates.csv"]
        names += [f"snapshots/step_{n:06d}.vtk" for n in range(6)]
        for name in names:
            assert (again / name).read_bytes() == (first / name).read_bytes(), name

    def test_intermediates_csv(self, tmp_path, monkeypatch):
        # always written: the header alone when no back step happened, else
        # one row per solve of a back-step round, the last of which is the
        # re-solve the run accepted
        cfg = sent_given()
        header = "target_step,w,b,passed,delta,LB,UB,reaction"
        hist = run_to_dir(cfg, tmp_path / "plain")
        assert not hist.backtracks
        assert (tmp_path / "plain" / "intermediates.csv").read_text().splitlines() == [header]

        scripted_checks(monkeypatch, lambda step, nth: step == 3 and nth == 1)
        hist = run_to_dir(cfg, tmp_path / "back")
        w = resolved_setup(cfg).program.w
        lines = (tmp_path / "back" / "intermediates.csv").read_text().splitlines()
        assert lines[0] == header
        rows = [line.split(",") for line in lines[1:]]
        assert [
            (int(r[0]), float(r[1]), int(r[2]), r[3] == "1", *map(float, r[4:])) for r in rows
        ] == [
            (i.step, w(i.step), i.b, i.report.passed, i.report.delta, i.report.lb, i.report.ub, i.reaction)
            for i in hist.intermediates
        ]
        assert [(i.step, i.b, i.report.passed) for i in hist.intermediates] == [(3, 0, False), (2, 1, True)]
        assert hist.intermediates[-1] is hist.steps[2]
        assert hist.steps[2].reaction != 0.0

    def test_csvs_created_once_and_appended(self, tmp_path, monkeypatch):
        # with a back step scripted as in test_intermediates_csv: each CSV
        # is opened in a truncating mode only when it is created, and then
        # appended to; a write lands past every earlier one, unless a back
        # step cut the file, and never before the first row it replaced
        out = tmp_path / "back"
        real_open, real_call = builtins.open, cli._RunWriter.__call__
        files, chain = {}, []  # per CSV: its open modes, text, written extent, cuts and first rewritable byte

        class Spy:
            """A CSV's file object that keeps its ``files`` entry."""

            def __init__(self, fh, f):
                self.fh, self.f = fh, f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.fh.__exit__(*exc)

            def truncate(self, size):
                self.f["cuts"].append(size)
                self.f["text"] = self.f["text"][:size]
                return self.fh.truncate(size)

            def write(self, data):
                f = self.f
                start = len(f["text"])  # a write in append mode lands at the end
                assert start >= min(f["written"], f["bound"]), f"bytes {start}.. written twice"
                f["text"] += data
                f["written"] = max(f["written"], len(f["text"]))
                return self.fh.write(data)

        def spy_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            if not isinstance(file, (str, os.PathLike)) or Path(file).parent != out or Path(file).suffix != ".csv":
                return fh
            f = files.setdefault(Path(file).name, {"modes": [], "text": "", "written": 0, "cuts": [], "bound": 0})
            f["modes"].append(mode)
            if "w" in mode:
                f["text"] = ""
            return Spy(fh, f)

        def on_accept(self, history):
            keep = 0
            for rec, kept in zip(history.steps, chain):
                if rec is not kept:
                    break
                keep += 1
            for name, f in files.items():
                # the header and the rows of the kept records stay; no row
                # of intermediates.csv is ever replaced
                rows = f["text"].splitlines(keepends=True)
                f["bound"] = len(f["text"]) if name == "intermediates.csv" else sum(map(len, rows[: keep + 1]))
            real_call(self, history)
            chain[:] = history.steps

        monkeypatch.setattr(builtins, "open", spy_open)
        monkeypatch.setattr(io, "open", spy_open)
        monkeypatch.setattr(cli._RunWriter, "__call__", on_accept)
        scripted_checks(monkeypatch, lambda step, nth: step == 3 and nth == 1)
        hist = run_to_dir(sent_given(), out)
        monkeypatch.undo()
        assert [(r.step, r.b) for r in hist.intermediates] == [(3, 0), (2, 1)]
        assert sorted(files) == ["energy.csv", "intermediates.csv", "load_disp.csv"]
        for name, f in files.items():
            assert f["modes"][0] == "w" and set(f["modes"][1:]) == {"a"}, (name, f["modes"])
            assert (out / name).read_text() == f["text"], name
            # the re-solve of step 2 replaced its row: each file of the
            # chain was cut once, at that row's start
            rows = f["text"].splitlines(keepends=True)
            assert f["cuts"] == ([] if name == "intermediates.csv" else [sum(map(len, rows[:3]))]), name

    def test_chain_rows_formatted_once(self, tmp_path, monkeypatch):
        # a back step replaces accepted rows; each writer call formats only
        # the record that enters the chain (2 numbers of load_disp.csv, 5
        # of energy.csv), the initial record at the first call, and the
        # files equal a fresh format of the final chain
        cfg = sent_given()
        setup = resolved_setup(cfg)
        counts = {"fmt": 0, "calls": 0, "writing": False}
        real_fmt, real_call = cli._fmt, cli._RunWriter.__call__

        def fmt(x):
            counts["fmt"] += counts["writing"]
            return real_fmt(x)

        def on_accept(self, history):
            counts["calls"] += 1
            counts["writing"] = True
            real_call(self, history)
            counts["writing"] = False

        monkeypatch.setattr(cli, "_fmt", fmt)
        monkeypatch.setattr(cli._RunWriter, "__call__", on_accept)
        scripted_checks(monkeypatch, lambda step, nth: step == 4 and nth == 1)
        hist = run_to_dir(cfg, tmp_path / "run")
        monkeypatch.undo()
        assert hist.backtracks and hist.n_accepted == 5
        # the initial history, then one call per acceptance: steps 1 to 3,
        # the re-solve of step 3 that ends target 4's round, steps 4 and 5;
        # then one more after the run
        assert counts["calls"] == 8
        # 7 records entered the chain, and the round logged 2 solves, each
        # a row of 5 numbers of intermediates.csv
        assert len(hist.intermediates) == 2
        assert counts["fmt"] == 7 * 7 + 5 * 2
        fresh = tmp_path / "fresh"
        cli._RunWriter(fresh, setup.mesh, setup.program)(hist)
        for name in ("load_disp.csv", "energy.csv", "intermediates.csv"):
            assert (tmp_path / "run" / name).read_bytes() == (fresh / name).read_bytes()

    def test_directory_is_the_chain_after_every_write(self, tmp_path, monkeypatch):
        # target 4 fails, then target 3's re-solve, and the walk-back
        # accepts a re-solve of step 2: after each writer call, snapshots/
        # holds exactly the steps of the accepted chain, so the accepted
        # step 3 that the walk-back replaced is gone until step 3 is solved
        # again
        real_call = cli._RunWriter.__call__
        seen = []

        def on_accept(self, history):
            real_call(self, history)
            names = sorted(f.name for f in (self.out / "snapshots").iterdir())
            assert names == [f"step_{n:06d}.vtk" for n in range(history.n_accepted + 1)], history.n_accepted
            seen.append(history.n_accepted)

        monkeypatch.setattr(cli._RunWriter, "__call__", on_accept)
        scripted_checks(monkeypatch, lambda step, nth: (step == 4 and nth == 1) or (step == 3 and nth == 2))
        hist = run_to_dir(sent_given(), tmp_path / "run")
        assert [(r.round_of, r.step) for r in hist.backtracks] == [(4, 3), (4, 2)]
        # one call per acceptance, and one more after the run
        assert seen == [0, 1, 2, 3, 2, 3, 4, 5, 5]

    def test_rerun_drops_earlier_snapshots(self, tmp_path):
        # a shorter run into the directory of a longer one leaves only its
        # own snapshots
        out = tmp_path / "o"
        argv = ["run", *SENT_RUN, "--out", str(out), "--steps"]
        assert main(argv + ["3"]) == 0
        assert main(argv + ["2"]) == 0
        assert sorted(f.name for f in (out / "snapshots").iterdir()) == [f"step_{n:06d}.vtk" for n in range(3)]

    def test_foreign_step_file_stays(self, tmp_path):
        # a step_*.vtk name that is not step_ and digits is no snapshot of
        # a run: the run leaves it in place, and the audit passes with it
        out = tmp_path / "o"
        (out / "snapshots").mkdir(parents=True)
        foreign = out / "snapshots" / "step_final.vtk"
        foreign.write_text("kept\n")
        assert main(["run", "--preset", "sent", "--scale", "0.02", "--steps", "1", "--out", str(out)]) == 0
        assert foreign.read_text() == "kept\n"
        assert sorted(f.name for f in (out / "snapshots").iterdir()) == [
            "step_000000.vtk", "step_000001.vtk", "step_final.vtk",
        ]
        assert main(["check-energy", str(out)]) == 0

    def test_abort_after_back_step_keeps_accepted_snapshots(self, tmp_path, monkeypatch, capsys):
        # target 4 fails, then target 3's re-solve; target 2's re-solve is
        # accepted and the next solve fails: step 3's snapshot belongs to the
        # replaced chain and goes, and run.json counts every solve
        real_solve = driver.alternate_minimize
        solves = []

        def solve(*args):
            if len(solves) == 6:
                raise StepFailure("scripted failure")
            solves.append(real_solve(*args))
            return solves[-1]

        monkeypatch.setattr(driver, "alternate_minimize", solve)
        scripted_checks(monkeypatch, lambda step, nth: (step == 4 and nth == 1) or (step == 3 and nth == 2))
        out = tmp_path / "o"
        assert main(["run", *SENT_RUN, "--out", str(out)]) == 3
        monkeypatch.undo()
        assert sorted(f.name for f in (out / "snapshots").iterdir()) == [f"step_{n:06d}.vtk" for n in range(3)]
        info = json.loads((out / "run.json").read_text())
        assert info["accepted_steps"] == 2
        assert info["backtrack_events"] == [
            {"failed_step": 4, "resolved_step": 3, "b": 1}, {"failed_step": 4, "resolved_step": 2, "b": 2}
        ]
        accepted = [solves[0], solves[5]]
        assert info["solver_counters"]["alternations"] == sum(r.alt_iters for r in accepted)
        assert info["solver_counters"]["trials_u"] == sum(r.trials_u for r in accepted)
        assert info["all_solves"] == {
            "solves": 6,
            "alternations": sum(r.alt_iters for r in solves),
            "newton_u": sum(r.newton_iters_u for r in solves),
            "newton_beta": sum(r.newton_iters_beta for r in solves),
            "trials_u": sum(r.trials_u for r in solves),
            "trials_beta": sum(r.trials_beta for r in solves),
        }
        assert info["all_solves"]["trials_u"] >= info["all_solves"]["newton_u"] > 0
        assert main(["check-energy", str(out)]) == 0

    def test_sent_run_outputs(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", *SENT_RUN, "--out", str(out)]) == 0
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

    def test_negative_dw_writes_positive_zero(self, tmp_path):
        # w(0) = 0 * dw is -0.0 for a negative dw; the first row writes +0
        out = tmp_path / "out"
        argv = ["run", "--preset", "sent", "--scale", "0.05", "--steps", "1", "--set", "program.dw=-1e-4"]
        assert main(argv + ["--out", str(out)]) == 0
        assert (out / "load_disp.csv").read_text().splitlines()[1] == "0,0,0"

    def test_rerun_bitwise_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", *SENT_RUN, "--out", str(out1)]) == 0
        assert main(["run", *SENT_RUN, "--out", str(out2)]) == 0
        for name in ("load_disp.csv", "energy.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_set_override_echoed(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["run", *SENT_RUN, "--out", str(out), "--set", "material.ell=0.02"]
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
        # an override of the scale is applied before the build: the preset
        # it names is the only one built
        calls.clear()
        assert main(argv + ["--set", "run.scale=0.05", "--out", str(tmp_path / "b")]) == 0
        assert calls == [("sent", 0.05)]
        calls.clear()
        assert main(["check-energy", str(tmp_path / "b")]) == 0
        assert calls == [("sent", 0.05)]
        snap = (tmp_path / "b" / "snapshots" / "step_000000.vtk").read_bytes()
        assert f"\nPOINTS {real('sent', 0.05).mesh.n_nodes} double\n".encode() in snap


class TestCheckEnergy:
    def test_self_consistency_exit_0(self, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", *SENT_RUN, "--out", str(out)])
        assert main(["check-energy", str(out)]) == 0

    def test_tampered_energy_exit_1(self, tmp_path, capsys):
        # a figure off by more than the tolerance, or figures that are not
        # finite, which no tolerance covers
        out = tmp_path / "out"
        main(["run", *SENT_RUN, "--out", str(out)])
        path = out / "energy.csv"
        rows = path.read_text().splitlines()
        parts = rows[2].split(",")
        names = {1: "E", 3: "delta"}
        for edits in [{1: "%.17g" % (float(parts[1]) + 1e-3)}, {1: "inf", 3: "-inf"}]:
            edited = [edits.get(i, v) for i, v in enumerate(parts)]
            path.write_text("\n".join([*rows[:2], ",".join(edited), *rows[3:]]) + "\n")
            code, err = self.audit_of(out, capsys)
            assert code == 1
            assert [line.split(" recomputed=")[0] for line in err.splitlines()] == [
                f"step 1: {names[i]} csv={float(v)!r}" for i, v in edits.items()
            ]

    def test_tampered_step_0_row_exit_1(self, sent_run, capsys):
        # row 0 is the initial state's report, all 0 and passed, and is
        # compared like every other row
        path = sent_run / "energy.csv"
        rows = path.read_text().splitlines()
        assert rows[1] == "0,0,0,0,0,0,1"
        for row, want in [
            (
                "0,5,7,1,2,3,1",
                "step 0: E csv=5.0 recomputed=0.0\nstep 0: sum_D csv=7.0 recomputed=0.0\n"
                "step 0: delta csv=1.0 recomputed=0.0\nstep 0: LB csv=2.0 recomputed=0.0\n"
                "step 0: UB csv=3.0 recomputed=0.0\n",
            ),
            ("0,0,0,0,0,0,0", "step 0: passed flag csv=False recomputed=True\n"),
        ]:
            path.write_text("\n".join([rows[0], row, *rows[2:]]) + "\n")
            assert self.audit_of(sent_run, capsys) == (1, want)

    def test_missing_snapshot_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", *SENT_RUN, "--out", str(out)])
        (out / "snapshots" / "step_000003.vtk").unlink()
        capsys.readouterr()
        assert main(["check-energy", str(out)]) == 2
        err = capsys.readouterr().err
        assert "cannot load run outputs: " in err and "step_000003.vtk" in err

    def test_older_run_json_refused(self, sent_run, capsys):
        # run.json of an older version gave the moduli in kN/mm^2 under
        # other keys: the audit refuses it, naming the first unknown key,
        # and gives no verdict
        path = sent_run / "run.json"
        log = json.loads(path.read_text())
        material = log["config"]["material"]
        material["lam_kn"] = "%.17g" % (float(material.pop("lam")) / 1e3)
        material["mu_kn"] = "%.17g" % (float(material.pop("mu")) / 1e3)
        path.write_text(json.dumps(log))
        assert self.audit_of(sent_run, capsys) == (
            2, "cannot load run outputs: unknown config key material.lam_kn, material.mu_kn\n"
        )

    def test_aborted_run_says_so(self, tmp_path, monkeypatch, capsys):
        # the audit of an aborted run passes on its accepted steps and names
        # the abort in its summary
        real_solve = driver.alternate_minimize
        solves = []

        def solve(*args):
            if len(solves) == 2:
                raise StepFailure("scripted failure")
            solves.append(real_solve(*args))
            return solves[-1]

        monkeypatch.setattr(driver, "alternate_minimize", solve)
        out = tmp_path / "out"
        assert main(["run", *SENT_RUN, "--out", str(out)]) == 3
        capsys.readouterr()
        assert main(["check-energy", str(out)]) == 0
        assert capsys.readouterr().out == (
            "energy audit ok (2 steps)"
            "; the run aborted after 2 accepted steps: scripted failure\n"
        )

    def test_abort_before_first_step(self, tmp_path, capsys):
        # one alternation is too few for step 1: the run keeps step 0's
        # outputs, which the audit passes and whose summary names the abort
        out = tmp_path / "out"
        argv = ["run", "--preset", "sent", "--scale", "0.05", "--steps", "3", "--set", "solver.max_alt=1"]
        assert main(argv + ["--out", str(out)]) == 3
        assert sorted(f.relative_to(out).as_posix() for f in out.rglob("*") if f.is_file()) == [
            "energy.csv", "intermediates.csv", "load_disp.csv", "run.json", "snapshots/step_000000.vtk",
        ]
        assert (out / "load_disp.csv").read_text() == "step,w,reaction\n0,0,0\n"
        assert (out / "energy.csv").read_text() == "step,E,sum_D,delta,LB,UB,passed\n0,0,0,0,0,0,1\n"
        assert (out / "intermediates.csv").read_text() == "target_step,w,b,passed,delta,LB,UB,reaction\n"
        mesh = load_preset("sent", 0.05).mesh
        disp, damage = read_field_snapshot(out / "snapshots" / "step_000000.vtk", mesh, grid_text(mesh))
        assert not disp.any() and not damage.any() and not np.signbit(disp).any()
        capsys.readouterr()
        assert main(["check-energy", str(out)]) == 0
        assert capsys.readouterr().out == (
            "energy audit ok (0 steps); the run aborted after 0 accepted steps: "
            "alternate_minimize: no convergence in 1 alternations\n"
        )

    def test_bad_run_config_exit_2(self, tmp_path, capsys):
        # the audit reads the config from run.json and rejects what a run
        # would, and a run.json of another shape than a run writes
        out = tmp_path / "out"
        assert main(["run", *SENT_RUN, "--out", str(out)]) == 0
        good = json.loads((out / "run.json").read_text())

        def keyed(section, key, value):
            log = json.loads(json.dumps(good))
            log["config"].setdefault(section, {})[key] = value
            return log

        bad = [
            (keyed("run", "preset", "nope"), "run.preset = 'nope' is unknown; choose from sent, sens, lshape, bend3d"),
            (keyed("program", "dw", "0"), "program.dw = 0.0 must not be 0: the program loads nothing"),
            # the key of an older run.json whose run read a mesh file
            (keyed("run", "mesh", "x.msh"), "unknown config key run.mesh"),
            # more accepted steps than the program has
            (keyed("program", "n_steps", "4"), "5 accepted steps, more than program.n_steps = 4"),
            ({**good, "config": []}, "run.json config is a list, not an object of sections"),
            ({**good, "config": {"run": "sent"}}, "run.json config section [run] is a str, not an object"),
            ({**good, "config": {"run": {"preset": 5}}}, "run.json config key run.preset = 5 is not a string"),
            ({**good, "accepted_steps": "1"}, "run.json accepted_steps = '1' is not an integer"),
            ([], "run.json holds a list, not an object"),
            # an abort without its reason
            ({**{k: v for k, v in good.items() if k != "abort_reason"}, "aborted": True}, "'abort_reason'"),
            ({**good, "aborted": "no"}, "run.json aborted = 'no' is not a boolean"),
            ({**good, "abort_reason": 5}, "run.json abort_reason = 5 is not a string"),
        ]
        for log, named in bad:
            (out / "run.json").write_text(json.dumps(log))
            capsys.readouterr()
            assert main(["check-energy", str(out)]) == 2, log
            err = capsys.readouterr().err
            assert "cannot load run outputs" in err and named in err

    @pytest.mark.parametrize(
        "section,key,value,named",
        [
            ("solver_counters", "alternations", 999999, "all_solves.alternations = {all} is fewer than the accepted chain's 999999"),
            ("all_solves", "solves", -3, "all_solves.solves = -3 is not an integer >= 0"),
            ("all_solves", "solves", 4, "all_solves.solves = 4 is fewer than the accepted chain's 5"),
            ("solver_counters", "newton_u", 2.0, "solver_counters.newton_u = 2.0 is not an integer >= 0"),
            ("all_solves", "trials_beta", True, "all_solves.trials_beta = True is not an integer >= 0"),
            ("solver_counters", "trials_u", None, "solver_counters has no trials_u"),
            ("all_solves", "solves", None, "all_solves has no solves"),
            ("all_solves", None, [], "all_solves is a list, not an object"),
        ],
    )
    def test_run_json_counters_a_run_writes(self, sent_run, capsys, section, key, value, named):
        # each counter is an integer >= 0, and every accepted step is one
        # of all_solves' solves: a count that no run writes is unreadable
        # output, named by its key
        path = sent_run / "run.json"
        log = json.loads(path.read_text())
        named = named.format(all=log["all_solves"]["alternations"])
        if key is None:
            log[section] = value
        elif value is None:
            del log[section][key]
        else:
            log[section][key] = value
        path.write_text(json.dumps(log))
        assert self.audit_of(sent_run, capsys) == (2, f"cannot load run outputs: run.json {named}\n")

    @pytest.fixture
    def sent_run(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", *SENT_RUN, "--out", str(out)]) == 0
        return out

    def audit_of(self, out, capsys):
        capsys.readouterr()
        code = main(["check-energy", str(out)])
        return code, capsys.readouterr().err

    def test_unreadable_outputs_exit_2(self, sent_run, capsys):
        # an output the audit cannot read is no audit mismatch
        snap = sent_run / "snapshots" / "step_000003.vtk"
        kept = snap.read_bytes()
        snap.write_bytes(drop_line(kept, "CELLS"))
        code, err = self.audit_of(sent_run, capsys)
        assert code == 2 and err.startswith("cannot load run outputs: snapshot (") and f" in {snap}\n" in err
        snap.write_bytes(kept)
        path = sent_run / "energy.csv"
        rows = path.read_text().splitlines()
        original = list(rows)
        rows[2] = rows[2].replace(rows[2].split(",")[1], "abc", 1)
        path.write_text("\n".join(rows) + "\n")
        code, err = self.audit_of(sent_run, capsys)
        assert code == 2 and "cannot load run outputs" in err
        # a passed flag other than 0 or 1 does not parse either
        rows = list(original)
        rows[2] = rows[2][: rows[2].rindex(",")] + ",yes"
        path.write_text("\n".join(rows) + "\n")
        code, err = self.audit_of(sent_run, capsys)
        assert code == 2 and f"cannot load run outputs: energy.csv row {rows[2]!r}: passed flag 'yes'" in err

    def test_ascii_snapshot_refused(self, sent_run, capsys):
        # a snapshot in the legacy VTK ASCII of earlier versions is no
        # output of this version: unreadable, named by its path
        snap = sent_run / "snapshots" / "step_000002.vtk"
        snap.write_text(
            "# vtk DataFile Version 3.0\npffrac field snapshot\nASCII\nDATASET UNSTRUCTURED_GRID\n"
            "POINTS 1 double\n0 0 0\n"
        )
        code, err = self.audit_of(sent_run, capsys)
        assert code == 2 and err.startswith("cannot load run outputs: ")
        assert "not legacy VTK BINARY: line 3 reads 'ASCII'" in err and str(snap) in err

    @pytest.mark.parametrize(
        "edit", ["bare_points_header", "one_node_fewer", "appended_bytes", "points_byte", "cells_byte"]
    )
    def test_malformed_snapshot_exit_2(self, sent_run, capsys, edit):
        # a snapshot that is not the bytes the run writes of its mesh: a
        # header without its count, another node count than the mesh's,
        # bytes after the damage block, or points or cells that are not the
        # mesh's, is unreadable output and no audit mismatch
        snap = sent_run / "snapshots" / "step_000002.vtk"
        data = snap.read_bytes()
        n = int(data.split(b"\nPOINTS ", 1)[1].split()[0])
        if edit == "bare_points_header":
            data = data.replace(f"\nPOINTS {n} double\n".encode(), b"\nPOINTS\n")
        elif edit == "appended_bytes":
            data += b"\n"
        elif edit in ("points_byte", "cells_byte"):
            header = b"\nPOINTS " if edit == "points_byte" else b"\nCELLS "
            at = data.index(b"\n", data.index(header) + 1) + 1 + 30
            data = data[:at] + bytes([data[at] ^ 1]) + data[at + 1 :]
        else:
            # the header of n - 1 points, and the last node's values cut
            # from the points and from both field blocks
            for header, size in [(b"\nPOINTS ", 24), (b"\nVECTORS ", 24), (b"\nLOOKUP_TABLE ", 8)]:
                start = data.index(b"\n", data.index(header) + 1) + 1
                end = start + n * size
                data = data[: end - size] + data[end:]
            data = data.replace(f"\nPOINTS {n} double\n".encode(), f"\nPOINTS {n - 1} double\n".encode())
            data = data.replace(f"\nPOINT_DATA {n}\n".encode(), f"\nPOINT_DATA {n - 1}\n".encode())
        snap.write_bytes(data)
        code, err = self.audit_of(sent_run, capsys)
        assert code == 2 and err.startswith("cannot load run outputs: ") and str(snap) in err

    @pytest.mark.parametrize("edit", ["header_only", "drop_step_2", "swap_steps_2_3"])
    def test_energy_rows_are_the_accepted_steps(self, sent_run, capsys, edit):
        # energy.csv must hold steps 0..accepted_steps once each, in order
        path = sent_run / "energy.csv"
        header, *rows = path.read_text().splitlines()
        if edit == "header_only":
            rows = []
        elif edit == "drop_step_2":
            del rows[2]
        else:
            rows[2], rows[3] = rows[3], rows[2]
        path.write_text("\n".join([header, *rows]) + "\n")
        code, err = self.audit_of(sent_run, capsys)
        assert code == 2 and "cannot load run outputs: energy.csv holds steps" in err

    @pytest.mark.parametrize("name,header", [("energy.csv", "step,A,B,C,D,E,ok"), ("load_disp.csv", "s,x,y")])
    def test_csv_header_is_the_runs(self, sent_run, capsys, name, header):
        # a CSV whose header is not the one the run writes is unreadable
        # output, named, even with its field count
        path = sent_run / name
        rows = path.read_text().splitlines()
        path.write_text("\n".join([header, *rows[1:]]) + "\n")
        code, err = self.audit_of(sent_run, capsys)
        assert code == 2 and err.startswith(f"cannot load run outputs: {name} does not start with the header ")

    @pytest.mark.parametrize("name", ["step_000007.vtk", "step_2.vtk"])
    def test_snapshot_outside_the_chain_exit_2(self, sent_run, capsys, name):
        # the run keeps snapshots/ equal to the accepted chain: a snapshot
        # (step_, digits, .vtk) that is not the one the run writes of a
        # chain step, past the chain's end or named with other digits, is
        # unreadable output, named by its path
        snap = sent_run / "snapshots" / name
        snap.write_bytes((sent_run / "snapshots" / "step_000002.vtk").read_bytes())
        code, err = self.audit_of(sent_run, capsys)
        assert code == 2 and err.startswith(f"cannot load run outputs: snapshot {snap} ")

    def test_load_disp_w_is_the_programs(self, sent_run, capsys):
        # each load_disp.csv row holds the w of its step: another is an
        # audit mismatch (its reaction is not recomputed)
        path = sent_run / "load_disp.csv"
        rows = path.read_text().splitlines()
        step, w, reaction = rows[2].split(",")
        rows[2] = f"{step},{2.0 * float(w)!r},{reaction}"
        path.write_text("\n".join(rows) + "\n")
        assert self.audit_of(sent_run, capsys) == (1, f"step 1: w csv={2.0 * float(w)!r} program={float(w)!r}\n")

    @pytest.mark.parametrize("edit", ["deleted", "drop_step_2", "extra_step", "nan_reaction", "bad_field"])
    def test_load_disp_rows_are_the_accepted_steps(self, sent_run, capsys, edit):
        # load_disp.csv must hold energy.csv's steps, once each and in
        # order, as three fields that parse with a finite reaction: a
        # missing file, a missing or extra row, a field that does not parse
        # or a reaction that is not finite is unreadable output, named
        path = sent_run / "load_disp.csv"
        header, *rows = path.read_text().splitlines()
        if edit == "deleted":
            path.unlink()
        else:
            if edit == "drop_step_2":
                del rows[2]
            elif edit == "extra_step":
                rows.append("6,0.5,1.0")
            else:
                step, w, reaction = rows[1].split(",")
                rows[1] = f"{step},{w},nan" if edit == "nan_reaction" else f"{step},{w},1.0,2.0"
            path.write_text("\n".join([header, *rows]) + "\n")
        code, err = self.audit_of(sent_run, capsys)
        assert code == 2 and err.startswith("cannot load run outputs: ") and "load_disp.csv" in err

    def with_intermediate(self, out, **edit) -> str:
        """Append to intermediates.csv a well-formed row of step 3: its w,
        b = 1, passed 0 and finite figures, each field named in ``edit``
        replaced by its value or, for None, dropped.  Returns step 3's w."""
        w = (out / "load_disp.csv").read_text().splitlines()[4].split(",")[1]
        row = {"target_step": "3", "w": w, "b": "1", "passed": "0"}
        row.update({"delta": "1.5", "LB": "-0.5", "UB": "2.5", "reaction": "10"}, **edit)
        path = out / "intermediates.csv"
        path.write_text(path.read_text() + ",".join(v for v in row.values() if v is not None) + "\n")
        return w

    def test_intermediates_rows_are_read_as_written(self, sent_run, capsys):
        # a row of a back-step round is checked, not recomputed: a
        # well-formed one passes, and a w other than its step's is an audit
        # mismatch, as in load_disp.csv
        assert self.audit_of(sent_run, capsys) == (0, "")
        w = self.with_intermediate(sent_run)
        assert self.audit_of(sent_run, capsys) == (0, "")
        self.with_intermediate(sent_run, w=repr(2.0 * float(w)))
        want = f"intermediates.csv step 3: w csv={2.0 * float(w)!r} program={float(w)!r}\n"
        assert self.audit_of(sent_run, capsys) == (1, want)

    @pytest.mark.parametrize(
        "edit",
        [
            "deleted", "empty", "header", "seven_fields", "nine_fields", "step_0", "step_past_program",
            "b_negative", "b_past_k_back", "passed_yes", "nan_delta", "inf_reaction", "nan_w",
        ],
    )
    def test_intermediates_rows_parse(self, sent_run, capsys, edit):
        # intermediates.csv must be there, with the header the run writes
        # and rows of eight fields: a step in 1..program.n_steps, a b in
        # 0..backtrack.k_back, a passed flag of 0 or 1 and finite figures;
        # anything else is unreadable output, named
        path = sent_run / "intermediates.csv"
        k_back = int(json.loads((sent_run / "run.json").read_text())["config"]["backtrack"]["k_back"])
        fields = {
            "seven_fields": {"reaction": None},
            "nine_fields": {"reaction": "10,11"},
            "step_0": {"target_step": "0"},
            "step_past_program": {"target_step": "6"},
            "b_negative": {"b": "-1"},
            "b_past_k_back": {"b": str(k_back + 1)},
            "passed_yes": {"passed": "yes"},
            "nan_delta": {"delta": "nan"},
            "inf_reaction": {"reaction": "inf"},
            "nan_w": {"w": "nan"},
        }
        if edit == "deleted":
            path.unlink()
        elif edit == "empty":
            path.write_text("")
        elif edit == "header":
            path.write_text("step,w,b,passed,delta,LB,UB,reaction\n")
        else:
            self.with_intermediate(sent_run, **fields[edit])
        code, err = self.audit_of(sent_run, capsys)
        assert code == 2 and err.startswith("cannot load run outputs: ") and "intermediates.csv" in err

    def test_missing_dir_exit_2(self, tmp_path):
        assert main(["check-energy", str(tmp_path / "nope")]) == 2

    def test_bulk_energy_reused_between_checked_pairs(self, sent_run, monkeypatch):
        # each snapshot is one evaluated state: its lifting (from the run's
        # one load vector), bulk energy, gradient energy, degradation
        # weights and dissipation are computed once, the last two from one
        # interpolation of its damage, and a check reads two states: it
        # decomposes only its two cross-lifting strains, so the audit costs
        # one spectrum per snapshot plus two per step pair, one damage
        # interpolation, dissipation, gradient energy and set of weights per
        # snapshot and one load vector; each report is bit for bit the one
        # with every figure evaluated afresh
        calls = []

        def counting(real, name):
            def wrapper(*args):
                calls.append(name)
                return real(*args)

            return wrapper

        real_check = cli.check_two_sided
        real_read = cli.read_field_snapshot
        per_check = []
        damages = []  # of the snapshots read so far

        def reading(*args):
            disp, a = real_read(*args)
            damages.append(a)
            return disp, a

        def checking(curr, nxt, kernels, p, eta):
            n0 = len(calls)
            report = real_check(curr, nxt, kernels, p, eta)
            n1 = len(calls)
            per_check.append(tuple(calls[n0:n1].count(name) for name in names))
            a_n, a_next = damages[-2:]
            assert report == fresh_check(curr.u, curr.u_d, a_n, nxt.u, nxt.u_d, a_next, kernels, p, eta)
            del calls[n1:]  # the fresh evaluation is not the audit's
            return report

        names = ("spectrum", "beta", "dis", "grad", "weights", "load")
        interpolation = counting(fem.beta_at_qp, "beta")
        grad = counting(energetics.grad_term, "grad")
        monkeypatch.setattr(energetics, "strain_spectrum", counting(energetics.strain_spectrum, "spectrum"))
        for module in (fem, energetics, cli):
            monkeypatch.setattr(module, "beta_at_qp", interpolation)
        monkeypatch.setattr(energetics, "dis", counting(energetics.dis, "dis"))
        monkeypatch.setattr(energetics, "grad_term", grad)
        monkeypatch.setattr(cli, "dis_from_beta", counting(cli.dis_from_beta, "dis"))
        monkeypatch.setattr(cli, "grad_term", grad)
        monkeypatch.setattr(cli, "weights_from_beta", counting(cli.weights_from_beta, "weights"))
        monkeypatch.setattr(cli, "build_dofmap", counting(cli.build_dofmap, "load"))
        monkeypatch.setattr(cli, "read_field_snapshot", reading)
        monkeypatch.setattr(cli, "check_two_sided", checking)
        assert main(["check-energy", str(sent_run)]) == 0
        assert per_check == [(2, 0, 0, 0, 0, 0)] * 5
        assert [calls.count(name) for name in names] == [16, 6, 6, 6, 6, 1]


def test_patterns_are_built_in_the_first_solve(tmp_path, monkeypatch):
    # the benchmark ends a run's set-up at its first call of
    # driver.alternate_minimize: the node graph and both patterns are built
    # after it, once each, and the audit builds none
    built, at_first_solve = [], []
    real_graph, real_build, real_solve = fem.NodeGraph, fem.SparsityPattern.build, driver.alternate_minimize

    def graph(*args):
        built.append("graph")
        return real_graph(*args)

    def build(*args):
        built.append("pattern")
        return real_build(*args)

    def solve(*args):
        at_first_solve.append(list(built))
        return real_solve(*args)

    monkeypatch.setattr(fem, "NodeGraph", graph)
    monkeypatch.setattr(fem.SparsityPattern, "build", build)
    monkeypatch.setattr(driver, "alternate_minimize", solve)
    out = tmp_path / "out"
    assert main(["run", *SENT_RUN, "--out", str(out)]) == 0
    assert at_first_solve[0] == [] and built == ["graph", "pattern", "pattern"]
    built.clear()
    assert main(["check-energy", str(out)]) == 0
    assert built == []


def test_bend3d_runs_and_audits_without_lapack_eigensolver(tmp_path, monkeypatch):
    def refuse(*args, **kw):
        raise AssertionError("LAPACK eigensolver called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    out = tmp_path / "out"
    argv = ["run", "--preset", "bend3d", "--scale", "0.1", "--steps", "1", "--k-back", "0"]
    assert main(argv + ["--out", str(out)]) == 0
    assert main(["check-energy", str(out)]) == 0


def test_over_budget_band_aborts_before_any_band(tmp_path, monkeypatch, capsys):
    # bend3d@0.1's displacement band: bandwidth 119 over 2,724 dofs, in
    # float32 (1,307,520 bytes); its damage band (352,512 bytes) still fits
    # one byte below it
    setup = load_preset("bend3d", 0.1)
    dofmap = driver.build_dofmap(setup.mesh, setup.program)
    o = fem.u_pattern(fem.build_kernels(setup.mesh), dofmap).ordering
    band = (o.bandwidth + 1) * o.n * o.precision.itemsize
    assert (o.bandwidth, o.n, band) == (119, 2724, 1_307_520)

    def refuse(*args):
        raise AssertionError("band factored")

    monkeypatch.setattr(linsolve, "BAND_BYTES_BUDGET", band - 1)
    monkeypatch.setattr(linsolve, "_banded_factor", refuse)
    out = tmp_path / "out"
    argv = ["run", "--preset", "bend3d", "--scale", "0.1", "--steps", "1", "--out", str(out)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert f"band of {band} bytes (bandwidth 119," in err
    assert f"budget of {band - 1} bytes" in err
    info = json.loads((out / "run.json").read_text())
    assert info["aborted"] and info["accepted_steps"] == 0
    assert f"band of {band} bytes" in info["abort_reason"]
