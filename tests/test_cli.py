import os
import subprocess
import sys

import numpy as np
import pytest

from qexpfam.cli import main
from qexpfam.config import RunConfig, emit_element, parse_element, parse_state
from qexpfam.errors import PreconditionError
from qexpfam.linalg import Algebra


class TestConfig:
    def test_roundtrip_canonical(self):
        cfg = RunConfig(
            block_dims=(2, 1),
            family_name="cone:0.5",
            tol=1e-11,
            param_cap=40.0,
            max_iter=321,
            n_angles=360,
            out_dir="somewhere",
            seed=17,
            quiet=True,
            phi_list=(0.0, 0.25),
        )
        text = cfg.emit()
        again = RunConfig.parse(text)
        assert again == cfg
        assert RunConfig.parse(again.emit()) == again

    def test_element_roundtrip(self, rng):
        from qexpfam.sampling import random_hermitian

        a = random_hermitian(Algebra((2, 1)), rng)
        text = emit_element(a)
        again = parse_element(Algebra((2, 1)), text)
        assert (a - again).norm() < 1e-15

    def test_roundtrip_beyond_sixteen_generators(self, rng):
        from qexpfam.config import build_family
        from qexpfam.sampling import random_traceless

        gens = tuple(emit_element(random_traceless(Algebra((5,)), rng)) for _ in range(20))
        cfg = RunConfig(block_dims=(5,), family_name="custom", custom_generators=gens)
        assert RunConfig.parse(cfg.emit()) == cfg
        # keys are read in numeric order, whatever order the file lists them in
        text = "[algebra]\nblocks = 5\n[family]\nname = custom\n" + "".join(
            f"generator{k} = {gens[k - 1]}\n" for k in range(20, 0, -1)
        )
        again = RunConfig.parse(text)
        assert again.custom_generators == gens
        assert build_family(again).dim == 20

    def test_bad_family_rejected(self):
        with pytest.raises(PreconditionError):
            RunConfig.parse("[family]\nname = nonsense\n")

    def test_custom_family_needs_generators(self):
        with pytest.raises(PreconditionError):
            RunConfig.parse("[family]\nname = custom\n")

    def test_state_specs(self):
        cfg = RunConfig()
        assert parse_state(cfg, "circle:0.3").support_rank == 1
        assert parse_state(cfg, "apex").support_rank == 1
        assert parse_state(cfg, "c").support_rank == 2
        assert parse_state(cfg, "tracial").support_rank == 3
        assert parse_state(cfg, "member:0.1,0.2").support_rank == 3
        tau = parse_state(cfg, "tau:0.5")
        assert tau.support_rank == 2
        with pytest.raises(PreconditionError):
            parse_state(cfg, "bogus:1")


class TestCliExitCodes:
    def test_bad_family_exits_2(self, tmp_path, capsys):
        code = main(["distance", "--family", "nonsense", "--state", "c",
                     "--out", str(tmp_path)])
        assert code == 2

    def test_bad_config_file_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[family]\nname = nonsense\n")
        code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2

    def test_under_resolved_sweep_exits_3(self, tmp_path):
        code = main(["sweep", "--phi", str(np.pi / 6.0), "--angles", "4",
                     "--out", str(tmp_path)])
        assert code == 3

    def test_report_ok_exits_0(self, tmp_path):
        code = main(["report", "--which", "cone", "--out", str(tmp_path), "--quiet"])
        assert code == 0
        assert (tmp_path / "report_cone.csv").exists()

    @pytest.mark.parametrize("family", ["staffelberg", "swallow", "cone:0.7"])
    def test_closures_report_exits_0(self, tmp_path, family):
        code = main(["report", "--which", "closures", "--family", family,
                     "--out", str(tmp_path), "--quiet"])
        assert code == 0


class TestSweepCommand:
    def test_writes_csv_and_svg(self, tmp_path, capsys):
        code = main(["sweep", "--phi", "0.5235987755982988", "--out", str(tmp_path),
                     "--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        assert "nonexposed=2" in out
        csvs = list(tmp_path.glob("boundary_*.csv"))
        svgs = list(tmp_path.glob("boundary_*.svg"))
        assert len(csvs) == 1 and len(svgs) == 1
        header = csvs[0].read_text().splitlines()[0]
        assert header == "alpha,support_value,x1,x2,face_dim,nonexposed_flag"
        svg = svgs[0].read_text()
        assert 'viewBox="0 0 800 800"' in svg

    def test_custom_abelian_polygon(self, tmp_path):
        cfg = tmp_path / "abelian.cfg"
        cfg.write_text(
            "[algebra]\nblocks = 1,1,1\n"
            "[family]\nname = custom\n"
            "generator1 = 1,0 -1,0 0,0\n"
            "generator2 = 1,0 1,0 -2,0\n"
            "[sweep]\nn_angles = 360\n"
        )
        code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path), "--quiet"])
        assert code == 0
        text = (tmp_path / "boundary_custom.csv").read_text()
        # a simplex projection carries segment faces (the polygon edges)
        assert any(line.split(",")[4] == "1" for line in text.splitlines()[1:])


class TestDistanceCommand:
    def test_staffelberg_rho0(self, tmp_path, capsys):
        code = main(["distance", "--family", "staffelberg", "--state", "circle:0",
                     "--out", str(tmp_path), "--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        assert "attained=0" in out
        # direct value reaches ln 2 = 0.6931..., the exact path gives ln 2 too
        direct = [l for l in out.splitlines() if l.startswith("distance ")][0]
        assert "0.6931" in direct
        exact = [l for l in out.splitlines() if l.startswith("exact_path ")][0]
        assert "0.6931" in exact
        assert (tmp_path / "distance.csv").exists()

    def test_family_member_zero(self, tmp_path, capsys):
        code = main(["distance", "--family", "staffelberg", "--state",
                     "member:0.2,0.1", "--out", str(tmp_path), "--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        assert "distance value=0 attained=1" in out

    def test_swallow_rho0_exact_path_zero(self, tmp_path, capsys):
        code = main(["distance", "--family", "swallow", "--state", "circle:0",
                     "--cap", "200", "--out", str(tmp_path), "--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        exact = [l for l in out.splitlines() if l.startswith("exact_path ")][0]
        value = float(exact.split("value=")[1])
        assert value <= 1e-2
        ladder = [float(l.split("value=")[1].split()[0])
                  for l in out.splitlines() if l.startswith("continuation ")]
        assert all(b <= a + 1e-9 for a, b in zip(ladder, ladder[1:]))


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        d1, d2 = tmp_path / "run1", tmp_path / "run2"
        for d in (d1, d2):
            code = main(["report", "--which", "maximizer", "--seed", "42",
                         "--out", str(d), "--quiet"])
            assert code == 0
        for name in ("report_maximizer.csv", "maximizer_table.csv", "certificates.csv"):
            a = (d1 / name).read_bytes()
            b = (d2 / name).read_bytes()
            assert a == b, name

    def test_byte_identical_sweeps(self, tmp_path):
        d1, d2 = tmp_path / "s1", tmp_path / "s2"
        for d in (d1, d2):
            assert main(["sweep", "--phi", "1.0", "--out", str(d), "--quiet"]) == 0
        names = [p.name for p in d1.iterdir()]
        for name in names:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


class TestInstalledEntryPoint:
    def test_module_invocation(self, tmp_path):
        import qexpfam

        src = os.path.dirname(os.path.dirname(qexpfam.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-m", "qexpfam.cli", "distance", "--family",
             "staffelberg", "--state", "c", "--out", str(tmp_path), "--quiet"],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0
        assert "distance value=" in result.stdout


class TestMetamorphosisSweep:
    def test_seven_shape_svgs(self, tmp_path, capsys):
        phis = ",".join(str(k * np.pi / 12.0) for k in range(7))
        code = main(["sweep", "--phi", phis, "--out", str(tmp_path), "--quiet"])
        assert code == 0
        assert len(list(tmp_path.glob("boundary_*.svg"))) == 7
        out = capsys.readouterr().out.splitlines()
        shapes = [line.split("shape=")[1].split()[0] for line in out]
        assert shapes == (
            ["triangle"] + ["ellipse_with_corner"] * 3 + ["ellipse"] * 3
        )
        counts = [int(line.split("nonexposed=")[1].split()[0]) for line in out]
        assert counts == [0, 2, 2, 2, 0, 0, 0]
