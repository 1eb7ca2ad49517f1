import os
import subprocess
import sys
import warnings
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

from qexpfam.cli import main
from qexpfam.config import RunConfig, emit_element, parse_element, parse_state
from qexpfam.errors import PreconditionError
from qexpfam.linalg import Algebra, HermitianElement


class TestConfig:
    def test_roundtrip_canonical(self):
        # one literal config that sets every key, each to a value other than its default
        text = (
            "[algebra]\nblocks = 1,1,1\n"
            "[family]\nname = custom\n"
            "generator1 = 1,0 -1,0 0,0\n"
            "generator2 = 1,0 1,0 -2,0\n"
            "[solver]\nparam_cap = 40\n"
            "[sweep]\nn_angles = 360\nphi = 0, 0.25\n"
            "[output]\ndir = somewhere\n"
            "[run]\nseed = 17\nquiet = true\n"
        )
        cfg = RunConfig.parse(text)
        assert cfg == RunConfig(
            block_dims=(1, 1, 1),
            family_name="custom",
            custom_generators=("1,0 -1,0 0,0", "1,0 1,0 -2,0"),
            param_cap=40.0,
            n_angles=360,
            out_dir="somewhere",
            seed=17,
            quiet=True,
            phi_list=(0.0, 0.25),
        )
        default = RunConfig()
        assert all(getattr(cfg, f.name) != getattr(default, f.name) for f in fields(RunConfig))

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
        # keys are read in numeric order, whatever order the file lists them in
        text = "[algebra]\nblocks = 5\n[family]\nname = custom\n" + "".join(
            f"generator{k} = {gens[k - 1]}\n" for k in range(20, 0, -1)
        )
        cfg = RunConfig.parse(text)
        assert cfg == RunConfig(block_dims=(5,), family_name="custom", custom_generators=gens)
        assert build_family(cfg).dim == 20

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


ABELIAN_CONFIG = (
    "[algebra]\nblocks = 1,1,1\n"
    "[family]\nname = custom\n"
    "generator1 = 1,0 -1,0 0,0\n"
    "generator2 = 1,0 1,0 -2,0\n"
    "[sweep]\nn_angles = 360\n"
)


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

    @pytest.mark.parametrize("generators", [
        "generator1 = 1,0 0,0 0,0 -1,0 0\n",
        "generator1 = 0,0 1,0 0,0 0,0 0,0\n",
        "generator1 = 1,0 0,0 0,0 -1,0 0,0\ngenerator2 = 2,0 0,0 0,0 -2,0 0,0\n",
        "generator1 = nan,0 0,0 0,0 -1,0 0,0\ngenerator2 = 0,0 1,0 1,0 0,0 0,0\n",
    ], ids=["malformed-pair", "not-hermitian", "dependent", "non-finite"])
    def test_bad_custom_generators_exit_2(self, tmp_path, capsys, generators):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[family]\nname = custom\n" + generators)
        code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("args", [
        ["--state", "tau:3"],
        ["--state", "circle:x"],
        ["--state", "diag:0.5,0.6,-0.1"],
        ["--state", "member:1"],
        ["--family", "cone:abc", "--state", "c"],
        ["--state", "diag:nan,0.5,0.5"],
        ["--state", "tau:nan"],
        ["--state", "member:nan,0"],
        ["--state", "raw:inf,0 0,0 0,0 0,0 0.5,0"],
        ["--state", "circle:nan"],
        ["--state", "circle:inf"],
        ["--state", "c", "--cap", "nan"],
        ["--state", "c", "--cap", "inf"],
        ["--state", "tau:inf"],
        ["--state", "member:inf,0"],
        ["--state", "member:1e400,0"],
        ["--state", "apex:3"],
        ["--state", "c:1"],
        ["--state", "tracial:abc"],
    ])
    def test_malformed_distance_input_exits_2(self, tmp_path, capsys, args):
        # one error line and no numpy warning; a non-finite number in a
        # state spec is named as such, not as the NaN state it would build
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["distance", *args, "--out", str(tmp_path)])
        assert code == 2 and caught == []
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        if args[1] in ("tau:nan", "tau:inf", "member:nan,0", "member:inf,0", "member:1e400,0",
                       "circle:nan", "circle:inf"):
            assert err.endswith(" is not finite\n")

    @pytest.mark.parametrize("phi", [",", "", "config"])
    def test_angle_list_without_angle_exits_2(self, tmp_path, capsys, phi):
        # a phi that names no angle, from --phi or from the config file, is
        # a config error, not a sweep of the default family
        args = ["sweep", "--out", str(tmp_path / "out")]
        if phi == "config":
            path = tmp_path / "phi.cfg"
            path.write_text("[sweep]\nphi = ,\n")
            args += ["--config", str(path)]
        else:
            args += ["--phi", phi]
        assert main(args) == 2
        assert capsys.readouterr().err.endswith(" names no angle\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config, args", [
        ("[algebra]\nblocks = 1,1,1\n", ["distance", "--state", "tracial"]),
        ("[algebra]\nblocks = 1,1,1\n", ["report", "--which", "maximizer"]),
        (ABELIAN_CONFIG, ["distance", "--state", "apex"]),
    ])
    def test_algebra_mismatch_exits_2(self, tmp_path, capsys, config, args):
        # the named families and the cone states live in blocks = 2,1 only
        path = tmp_path / "x.cfg"
        path.write_text(config)
        code = main([*args, "--config", str(path), "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("which", ["cone", "maximizer"])
    @pytest.mark.parametrize("source", ["option", "config"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, which, source):
        # numpy rejects negative seeds; the config must reject them first
        args = ["report", "--which", which, "--out", str(tmp_path)]
        if source == "option":
            args += ["--seed", "-1"]
        else:
            path = tmp_path / "seed.cfg"
            path.write_text("[run]\nseed = -1\n")
            args += ["--config", str(path)]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("args", [["sweep", "--phi", "0.5"],
                                      ["distance", "--state", "c"]])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, args):
        # an existing file where the output directory should be
        out = tmp_path / "taken"
        out.write_text("kept")
        assert main([*args, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert out.read_text() == "kept"

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


class TestParser:
    def test_options_do_not_leak_between_calls(self, tmp_path, capsys):
        from qexpfam import cli

        assert cli._build_parser() is cli._build_parser()
        outs = [tmp_path / name for name in ("seeded", "plain", "default_seed")]
        assert main(["report", "--which", "cone", "--seed", "3", "--quiet",
                     "--out", str(outs[0])]) == 0
        quiet = capsys.readouterr().out
        assert main(["report", "--which", "cone", "--out", str(outs[1])]) == 0
        loud = capsys.readouterr().out
        assert "finding check=" not in quiet and "finding check=" in loud
        assert main(["report", "--which", "cone", "--seed", str(RunConfig().seed),
                     "--out", str(outs[2])]) == 0
        seeded, plain, default = ((d / "report_cone.csv").read_bytes() for d in outs)
        assert plain == default != seeded
        with pytest.raises(SystemExit) as bad:
            main(["report", "--out", str(tmp_path)])
        assert bad.value.code == 2
        assert main(["sweep", "--phi", "0.5", "--angles", "64", "--quiet",
                     "--out", str(tmp_path)]) == 0


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
        cfg.write_text(ABELIAN_CONFIG)
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

    @pytest.mark.parametrize("family, state, expected", [
        ("staffelberg", "circle:0", np.log(2.0)),
        ("staffelberg", "apex", np.log(2.0)),
        ("staffelberg", "circle:0.3", 0.0),
        ("staffelberg", "c", 0.0),
        ("swallow", "circle:0", 0.0),
    ])
    def test_headline_is_the_exact_distance(self, tmp_path, capsys, family, state,
                                            expected):
        # the parameter cap leaves ln 2 + 7e-11 at circle:0 and apex, 0.093 at
        # circle:0.3 and 0.135 at swallow circle:0; the face chain gives the
        # exact value
        code = main(["distance", "--family", family, "--state", state,
                     "--out", str(tmp_path), "--quiet"])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        direct = [l for l in out if l.startswith("distance ")][0]
        if expected == 0.0:
            assert direct.startswith("distance value=0 ")
        else:
            assert abs(float(direct.split("value=")[1].split()[0]) - expected) <= 1e-15
        rows = (tmp_path / "distance.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["direct"] * 4 + ["final"]

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

    def test_ladder_attained_on_an_empty_face_chain(self, tmp_path, capsys):
        # rho_t = (1 - t) rho(0) + t 1/3 in swallow at t = 1e-4: full rank, so
        # its face chain is empty, and every rung of the cap-10000 ladder
        # converges (|theta| = 620.65), as does the uncapped exact solve
        state = ("raw:0.49998333333333317,0 0,-0.49994999999999984 "
                 "0,0.49994999999999984 0.49998333333333317,0 3.3333333333333335e-05,0")
        code = main(["distance", "--family", "swallow", "--state", state, "--cap", "10000",
                     "--out", str(tmp_path), "--quiet"])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert "distance value=0.062091914908774685 attained=1" in out
        ladder = [l for l in out if l.startswith("continuation ")]
        assert len(ladder) == 4 and all(l.endswith(" attained=1") for l in ladder)
        rows = [r.split(",") for r in (tmp_path / "distance.csv").read_text().splitlines()[1:]]
        assert [(r[0], r[3]) for r in rows] == [("direct", "1")] * 4 + [("final", "1")]
        assert rows[-1] == ["final", "inf", "0.062091914908774685", "1"]


    def test_superfamily_rho0_exact_path_zero(self, tmp_path, capsys):
        # {s1 + 1, s2 + 1, s3} contains the swallow family; rho(0) keeps
        # entropy distance zero through its two-step face chain
        cfg = tmp_path / "super.cfg"
        cfg.write_text(
            "[family]\nname = custom\n"
            "generator1 = 0,0 1,0 1,0 0,0 1,0\n"
            "generator2 = 0,0 0,-1 0,1 0,0 1,0\n"
            "generator3 = 1,0 0,0 0,0 -1,0 0,0\n"
        )
        code = main(["distance", "--config", str(cfg), "--state", "circle:0",
                     "--out", str(tmp_path), "--quiet"])
        assert code == 0
        assert "exact_path value=0" in capsys.readouterr().out.splitlines()


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

    def test_maximizer_report_projects_each_state_once(self, tmp_path, monkeypatch):
        # per solve, its rows and whether its family is compressed: the 12
        # certificates (which also give the derivatives) in one 12-row solve,
        # the 24 finite-difference distances in one 24-row solve, and 14
        # single face-search solves, each in the compressed family
        from qexpfam import family

        calls, ladder = [], family._project_ladder
        monkeypatch.setattr(family, "_project_ladder", lambda *a, **k: calls.append(
            (len(a[0]), a[1].support is not None)) or ladder(*a, **k))
        assert main(["report", "--which", "maximizer", "--seed", "0",
                     "--out", str(tmp_path), "--quiet"]) == 0
        assert sorted(calls) == [(1, True)] * 14 + [(12, False), (24, False)]

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


class TestCheckedConstruction:
    """Elements are checked where they enter the package: the checked
    HermitianElement constructor runs only in the functions that build
    elements from outside data, and every element computed from elements
    is built by HermitianElement._trusted."""

    ENTRY = {"zero", "identity", "embed_block", "diagonal", "from_coords", "parse_element"}
    COMMANDS = [
        ["report", "--which", "closures", "--family", "staffelberg"],
        ["report", "--which", "swallow"],
        ["report", "--which", "maximizer"],
        ["distance", "--family", "swallow", "--state", "circle:0.001"],
        ["sweep", "--family", "swallow"],
    ]

    def test_only_entry_points_run_the_checked_constructor(self, tmp_path, monkeypatch, capsys):
        callers = Counter()
        checked = HermitianElement.__init__

        def counted(self, *args, **kwargs):
            callers[sys._getframe(1).f_code.co_name] += 1
            checked(self, *args, **kwargs)

        monkeypatch.setattr(HermitianElement, "__init__", counted)
        for args in self.COMMANDS:
            assert main([*args, "--out", str(tmp_path)]) == 0, args
        assert set(callers) <= self.ENTRY, callers
