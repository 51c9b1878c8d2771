"""Tests for configuration, parsing, export, and the command-line interface."""

import dataclasses
import json
import math

import numpy as np
import pytest

import stmmap.cli as cli
from stmmap.cli import (
    ConfigError,
    RunConfig,
    load_config,
    main,
    make_emulation_case,
    parse_global_frame,
    parse_landmarks_csv,
    parse_points_csv,
    write_manifest,
)
from stmmap.distributions import SingularMarginalization
from stmmap.geometry import MAX_DEPTH
from stmmap.mapgraph import incremental_update
from stmmap.oracle import ChainConfig
from stmmap.simulate import MIN_STEPS


class TestLoadConfig:
    def test_default_keyword(self):
        cfg = load_config("default")
        assert cfg == RunConfig()

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/path.ini")

    def test_round_trip(self, tmp_path):
        p = tmp_path / "cfg.ini"
        p.write_text(
            "[map]\ndepth = 3\nwindow = 2\n"
            "[prior]\nrho = 0.75\nsigma2 = 10\n"
            "[run]\nseed = 42\nsensor = lidar\n"
            "[scenario]\nsteps = 4\n"
        )
        cfg = load_config(str(p))
        assert cfg.depth == 3
        assert cfg.window == 2
        assert cfg.rho == 0.75
        assert cfg.sigma2 == 10.0
        assert cfg.seed == 42
        assert cfg.sensor == "lidar"
        assert cfg.steps == 4
        # untouched fields keep defaults
        assert cfg.a_p == RunConfig().a_p

    def test_unknown_section(self, tmp_path):
        p = tmp_path / "cfg.ini"
        p.write_text("[mystery]\nx = 1\n")
        with pytest.raises(ConfigError, match="unknown config section"):
            load_config(str(p))

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "cfg.ini"
        p.write_text("[map]\ndeepness = 3\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(str(p))

    def test_every_setting_has_one_key(self):
        keys = [key for section in cli._CONFIG_SCHEMA.values() for key in section]
        assert sorted(keys) == sorted(f.name for f in dataclasses.fields(RunConfig))
        assert len(keys) == 15

    def test_retired_batch_size_is_an_unknown_key(self, tmp_path, capsys):
        p = tmp_path / "cfg.ini"
        p.write_text("[run]\nbatch_size = 4\n")
        assert main(["simulate", "--scenario", "pushbroom", "--config", str(p), "--out", str(tmp_path / "s")]) == 2
        assert capsys.readouterr().err == "config error: unknown key 'batch_size' in section [run]\n"
        assert not list(tmp_path.glob("s.*"))

    def test_bad_type(self, tmp_path):
        p = tmp_path / "cfg.ini"
        p.write_text("[map]\ndepth = five\n")
        with pytest.raises(ConfigError):
            load_config(str(p))

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("map", "depth", "-1"),
            ("map", "depth", "99"),
            ("map", "depth", str(MAX_DEPTH + 1)),
            ("map", "window", "0"),
            ("prior", "rho", "1.0"),
            ("prior", "sigma2", "0"),
            ("prior", "a_p", "-2"),
            ("prior", "rho", "nan"),
            ("prior", "sigma2", "nan"),
            ("prior", "sigma2", "inf"),
            ("prior", "a_p", "inf"),
            ("prior", "b_p", "nan"),
            ("prior", "b_p", "inf"),
            ("convergence", "kl_threshold", "0"),
            ("convergence", "kl_threshold", "nan"),
            ("convergence", "kl_threshold", "inf"),
            ("convergence", "max_sweeps", "0"),
            ("run", "sensor", "sonar"),
            ("run", "seed", "-1"),
            ("scenario", "surface_seed", "-1"),
            ("scenario", "steps", "1"),
            ("scenario", "density", "0"),
            ("scenario", "density", "inf"),
            ("scenario", "amplitude", "nan"),
            ("scenario", "amplitude", "inf"),
        ],
    )
    def test_out_of_range(self, tmp_path, section, key, value):
        p = tmp_path / "cfg.ini"
        p.write_text(f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ConfigError):
            load_config(str(p))


class TestManifest:
    def test_contents_and_reproducibility(self, tmp_path):
        cfg = load_config("default")
        write_manifest(str(tmp_path / "a"), "simulate", cfg)
        write_manifest(str(tmp_path / "b"), "simulate", cfg)
        a = (tmp_path / "a.manifest.json").read_bytes()
        b = (tmp_path / "b.manifest.json").read_bytes()
        assert a == b
        doc = json.loads(a)
        assert doc["format_version"] == 1
        assert doc["seed"] == cfg.seed
        assert len(doc["config_hash"]) == 64
        assert "numpy" in doc["versions"]

    def test_hash_tracks_config(self, tmp_path):
        c1 = RunConfig()
        c2 = RunConfig(depth=3)
        write_manifest(str(tmp_path / "a"), "x", c1)
        write_manifest(str(tmp_path / "b"), "x", c2)
        h1 = json.loads((tmp_path / "a.manifest.json").read_text())["config_hash"]
        h2 = json.loads((tmp_path / "b.manifest.json").read_text())["config_hash"]
        assert h1 != h2


class TestParsePoints:
    def test_isotropic_form(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("x,y,z,sigma\n1,2,3,0.5\n4,5,6,2\n")
        res = parse_points_csv(str(p))
        assert res.means.shape == (2, 3)
        np.testing.assert_allclose(res.covs[0], 0.25 * np.eye(3))
        np.testing.assert_allclose(res.covs[1], 4.0 * np.eye(3))
        assert res.warnings == []
        assert res.n_total_rows == 2

    def test_full_covariance_form(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text(
            "x,y,z,sxx,syy,szz,sxy,sxz,syz\n"
            "0,0,1,2,3,4,0.1,0.2,0.3\n"
        )
        res = parse_points_csv(str(p))
        cov = res.covs[0]
        np.testing.assert_allclose(cov, cov.T)
        assert cov[0, 0] == 2 and cov[1, 1] == 3 and cov[2, 2] == 4
        assert cov[0, 1] == 0.1 and cov[0, 2] == 0.2 and cov[1, 2] == 0.3

    def test_bad_rows_warned_with_line_numbers(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text(
            "x,y,z,sigma\n1,2,3,0.5\n1,2,nope,0.5\n1,2,3,-1\n4,5,6,1\n"
            "1,2,3,nan\nnan,2,3,0.5\n1,2,nan,0.5\n1,2,inf,0.5\n"
        )
        res = parse_points_csv(str(p))
        assert len(res.means) == 2
        assert len(res.warnings) == 6
        for k, line in enumerate((3, 4, 6, 7, 8, 9)):
            assert f":{line}:" in res.warnings[k]
        assert res.n_total_rows == 8

    def test_non_psd_covariance_skipped(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text(
            "x,y,z,sxx,syy,szz,sxy,sxz,syz\n"
            "0,0,0,1,1,1,0,0,0\n"
            "0,0,0,1,1,1,5,0,0\n"
        )
        res = parse_points_csv(str(p))
        assert len(res.means) == 1
        assert len(res.warnings) == 1

    def test_unknown_header(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ConfigError, match="unrecognized header"):
            parse_points_csv(str(p))

    def test_blank_lines_ignored(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("x,y,z,sigma\n1,2,3,0.5\n\n ,\n4,5,6,1\n")
        res = parse_points_csv(str(p))
        assert len(res.means) == 2
        assert res.warnings == []


class TestMixedMalformedRows:
    # each bad row names its first fault: a field that is not a number, a
    # non-finite value, the column count, then sigma or the covariance
    FORMS = {
        "full": ("x,y,z,sxx,syy,szz,sxy,sxz,syz", [
            ("0.1,0.2,0.3,1,1,1,0,0,0", None),
            ("0,0,abc,1,1,1,0,0,0", "could not convert string to float: 'abc'"),
            ("0,0,nan,1,1,1,0,0,0", "non-finite value"),
            ("0,0,0,1,1,1,0,0", "expected 9 columns, got 8"),
            ("nan,0,0,1,1,1,0,0", "non-finite value"),
            ("0,0,0,1,1,1,5,0,0", "covariance is not positive definite"),
            ("", None),
            ("1,2,3,2,2,2,0.1,0.2,0.3", None),
            ("0,0,0,1,1,1,0,0,0,7,x", "could not convert string to float: 'x'"),
            ("0,0,0,0,0,0,0,0,0", "covariance is not positive definite"),
            ("0,0,0,1,1,inf,0,0,0", "non-finite value"),
            ("0,0,0,1,-1,1,0,0,0", "covariance is not positive definite"),
        ]),
        "iso": ("x,y,z,sigma", [
            ("1,2,3,0.5", None),
            ("1,2,3,0", "sigma must be positive"),
            ("1,2,3,-1", "sigma must be positive"),
            ("1,2", "expected 4 columns, got 2"),
            ("1,inf,3", "non-finite value"),
            ("1,2,3,zz", "could not convert string to float: 'zz'"),
            ("1,2,3,nan", "non-finite value"),
            (" , ", None),
            ("4,5,6,1", None),
            ("q,2,3,-1,5", "could not convert string to float: 'q'"),
            ("-inf,1,2,3,4", "non-finite value"),
        ]),
    }

    @pytest.mark.parametrize("form", sorted(FORMS))
    def test_warnings_keep_text_order_and_precedence(self, tmp_path, form):
        header, rows = self.FORMS[form]
        p = tmp_path / "pts.csv"
        p.write_text("\n".join([header] + [r for r, _ in rows]) + "\n")
        res = parse_points_csv(str(p))
        assert res.warnings == [f"{p}:{line}: skipping row: {fault}"
                                for line, (_, fault) in enumerate(rows, start=2) if fault]
        assert res.n_total_rows == sum(1 for r, _ in rows if r.strip(" ,"))
        good = [[float(v) for v in r.split(",")] for r, fault in rows if not fault and r.strip(" ,")]
        assert res.means.tolist() == [g[:3] for g in good]
        if form == "iso":
            assert res.covs.tolist() == [(g[3] * g[3] * np.eye(3)).tolist() for g in good]
        else:
            assert res.covs.tolist() == [[[g[3], g[6], g[7]], [g[6], g[4], g[8]], [g[7], g[8], g[5]]]
                                         for g in good]

    @pytest.mark.parametrize("n_bad, code", [(5, 0), (6, 4)])
    def test_build_exit_code_at_ten_percent(self, tmp_path, capsys, n_bad, code):
        # 5 bad rows of 55 are 9.1 %, 6 of 56 are 10.7 %: over 10 % exits 4
        pts = tmp_path / "pts.csv"
        write_plane_points(pts, np.random.default_rng(7), n=50)
        bad = [r for r, fault in self.FORMS["iso"][1] if fault][:n_bad]
        pts.write_text(pts.read_text() + "\n".join(bad) + "\n")
        assert main(["build", "--points", str(pts), "--global-frame", "0,0,1,1",
                     "--depth", "1", "--out", str(tmp_path / "m")]) == code
        captured = capsys.readouterr()
        assert [line.split(":")[1] for line in captured.err.splitlines() if "skipping row" in line] == \
            [str(52 + k) for k in range(n_bad)]
        assert captured.out.startswith(f"ingested 50 of 50 points ({n_bad} rows skipped, ")


class TestParseLandmarks:
    def test_three_rows(self, tmp_path):
        p = tmp_path / "lm.csv"
        p.write_text("id,x,y,z\n0,0,0,0\n1,2,0,0\n2,0,2,0\n")
        lm = parse_landmarks_csv(str(p))
        np.testing.assert_allclose(lm, [[0, 0, 0], [2, 0, 0], [0, 2, 0]])

    def test_wrong_count(self, tmp_path):
        p = tmp_path / "lm.csv"
        p.write_text("id,x,y,z\n0,0,0,0\n1,2,0,0\n")
        with pytest.raises(ConfigError, match="exactly 3"):
            parse_landmarks_csv(str(p))

    def test_bad_header(self, tmp_path):
        p = tmp_path / "lm.csv"
        p.write_text("x,y,z\n0,0,0\n")
        with pytest.raises(ConfigError, match="id,x,y,z"):
            parse_landmarks_csv(str(p))

    @pytest.mark.parametrize("row", ["1,1,0", "1,1,0,0,0", "1,1,0,nan", "1,inf,0,0"])
    def test_bad_row(self, tmp_path, row):
        p = tmp_path / "lm.csv"
        p.write_text(f"id,x,y,z\n0,0,0,0\n{row}\n2,0,2,0\n")
        with pytest.raises(ConfigError, match=":3: bad landmark row"):
            parse_landmarks_csv(str(p))

    def test_global_frame(self):
        np.testing.assert_allclose(
            parse_global_frame("0,1,2,3"), [[0, 1, 0], [2, 1, 0], [0, 3, 0]]
        )
        for text in ("0,0,1", "0,0,a,1", "0,0,1,1,1", "0,0,nan,1", "0,0,1,inf"):
            with pytest.raises(ConfigError, match="--global-frame"):
                parse_global_frame(text)


def write_plane_points(path, rng, n=200, sigma=0.05):
    """Points on z = 0.2 + 0.3x - 0.1y over the unit right triangle."""
    lines = ["x,y,z,sigma"]
    for _ in range(n):
        while True:
            x, y = rng.uniform(0, 1, 2)
            if x + y <= 1:
                break
        z = 0.2 + 0.3 * x - 0.1 * y + rng.normal(0, sigma)
        lines.append(f"{x},{y},{z},{sigma}")
    path.write_text("\n".join(lines) + "\n")


class TestBuildCommand:
    def test_build_recovers_plane(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        write_plane_points(pts, np.random.default_rng(0))
        out = tmp_path / "map"
        code = main([
            "build", "--points", str(pts), "--global-frame", "0,0,1,1",
            "--depth", "2", "--out", str(out),
        ])
        assert code == 0
        assert (tmp_path / "map.ply").exists()
        assert (tmp_path / "map.manifest.json").exists()
        doc = json.loads((tmp_path / "map.map.json").read_text())
        assert doc["grid"]["depth"] == 2
        assert sum(s["n_meas"] for s in doc["surfels"]) > 150
        # vertex means in the PLY near the generating plane
        ply = (tmp_path / "map.ply").read_text().splitlines()
        n_vert = int(next(l for l in ply if l.startswith("element vertex")).split()[-1])
        start = ply.index("end_header") + 1
        for line in ply[start:start + n_vert]:
            x, y, z, std = (float(v) for v in line.split())
            assert abs(z - (0.2 + 0.3 * x - 0.1 * y)) < 0.2
        assert "ms/measurement" in capsys.readouterr().out

    def test_one_update_takes_every_point(self, tmp_path, monkeypatch, capsys):
        batches = []

        def update(stm, batch):
            batches.append(batch)
            return incremental_update(stm, batch)

        monkeypatch.setattr(cli, "incremental_update", update)
        pts = tmp_path / "pts.csv"
        write_plane_points(pts, np.random.default_rng(7), n=40)
        assert main(["build", "--points", str(pts), "--global-frame", "0,0,1,1", "--depth", "2",
                     "--out", str(tmp_path / "m")]) == 0
        [batch] = batches
        assert batch.ids.tolist() == list(range(40))
        assert capsys.readouterr().out.startswith("ingested 40 of 40 points")

    @pytest.mark.parametrize("text, code", [("", 2), ("x,y,z,sigma\n", 0)], ids=["no-header", "header-only"])
    def test_empty_points_file(self, tmp_path, capsys, text, code):
        pts = tmp_path / "pts.csv"
        pts.write_text(text)
        assert main(["build", "--points", str(pts), "--global-frame", "0,0,1,1", "--depth", "1",
                     "--out", str(tmp_path / "m")]) == code
        out, err = capsys.readouterr()
        if code == 2:  # no header: nothing is written
            assert err == f"config error: {pts}: empty points file\n"
            assert not list(tmp_path.glob("m.*"))
        else:  # a header alone: an empty map
            assert out.startswith("ingested 0 of 0 points (0 rows skipped")
            assert all(s["n_meas"] == 0 for s in json.loads((tmp_path / "m.map.json").read_text())["surfels"])

    def test_build_with_landmarks(self, tmp_path):
        pts = tmp_path / "pts.csv"
        write_plane_points(pts, np.random.default_rng(1), n=50)
        lm = tmp_path / "lm.csv"
        lm.write_text("id,x,y,z\n0,0,0,0\n1,1,0,0\n2,0,1,0\n")
        code = main([
            "build", "--points", str(pts), "--landmarks", str(lm),
            "--depth", "1", "--out", str(tmp_path / "m"),
        ])
        assert code == 0

    def test_too_many_bad_rows_exit_4(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        rows = ["x,y,z,sigma"] + ["0.2,0.2,0.1,0.1"] * 5 + ["bad,row,here,0.1"] * 5
        pts.write_text("\n".join(rows) + "\n")
        code = main([
            "build", "--points", str(pts), "--global-frame", "0,0,1,1",
            "--depth", "0", "--out", str(tmp_path / "m"),
        ])
        assert code == 4
        assert "unparseable" in capsys.readouterr().err

    def test_non_finite_row_skipped(self, tmp_path):
        pts = tmp_path / "pts.csv"
        write_plane_points(pts, np.random.default_rng(3), n=50)
        clean = pts.read_text()
        outputs = []
        for name, text in (("clean", clean), ("nan", clean + "0.2,0.2,0.1,nan\n")):
            path = tmp_path / f"{name}.csv"
            path.write_text(text)
            code = main([
                "build", "--points", str(path), "--global-frame", "0,0,1,1",
                "--depth", "1", "--out", str(tmp_path / name),
            ])
            assert code == 0
            outputs.append([(tmp_path / f"{name}{ext}").read_bytes()
                            for ext in (".map.json", ".ply")])
        assert outputs[0] == outputs[1]

    def test_rows_the_map_rejects_are_reported(self, tmp_path, capsys):
        # a covariance with a Cholesky factor but no inverse passes the parser;
        # the map rejects it, and the summary counts it apart from the used rows
        pts = tmp_path / "pts.csv"
        write_plane_points(pts, np.random.default_rng(5), n=30)
        c = [[0.008583898172182396, -0.00143644858117874, -0.0031768363768153473],
             [-0.00143644858117874, 0.00854291232040117, -0.003222481615708486],
             [-0.0031768363768153473, -0.003222481615708486, 0.0028731895074164326]]
        lines = ["x,y,z,sxx,syy,szz,sxy,sxz,syz"]
        for line in pts.read_text().splitlines()[1:]:
            x, y, z, sigma = (float(v) for v in line.split(","))
            lines.append(",".join(repr(v) for v in (x, y, z, sigma**2, sigma**2, sigma**2, 0.0, 0.0, 0.0)))
        clean = "\n".join(lines) + "\n"
        singular = ",".join(repr(v) for v in (0.3, 0.1, 0.1, c[0][0], c[1][1], c[2][2],
                                               c[0][1], c[0][2], c[1][2]))
        outputs = []
        for name, text in (("clean", clean), ("mixed", clean + singular + "\n")):
            path = tmp_path / f"{name}.csv"
            path.write_text(text)
            code = main(["build", "--points", str(path), "--global-frame", "0,0,1,1",
                         "--depth", "1", "--out", str(tmp_path / name)])
            assert code == 0
            outputs.append([(tmp_path / f"{name}{ext}").read_bytes() for ext in (".map.json", ".ply")])
        assert outputs[0] == outputs[1]
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("ingested 30 of 30 points (0 rows skipped, 0 outside the submap, "
                                 "0 rejected by the map)")
        assert out[1].startswith("ingested 30 of 31 points (0 rows skipped, 0 outside the submap, "
                                 "1 rejected by the map)")

    def test_parser_and_map_share_one_definiteness_rule(self, tmp_path, capsys):
        # two rank-deficient covariances: the first has a Cholesky factor but an
        # eigenvalue of -1.1e-17, the second no factor but eigenvalues > 0. In an
        # identity frame the map sees the CSV's own matrices, and the parser
        # warns, by line number, about each row the map would not take.
        factor = [[0.1374603057125131, -0.3213001973172262, 0.4558287383674801],
                  [-0.3213001973172262, 0.7617043601591322, -0.9445650347146318],
                  [0.4558287383674801, -0.9445650347146318, 2.8778984561812555]]
        no_factor = [[1.1880067641954772, 1.281952002210307, -0.9540550932671584],
                     [1.281952002210307, 1.3945296789144381, -1.026683129299515],
                     [-0.9540550932671584, -1.026683129299515, 0.76688322232458]]
        rows = ["x,y,z,sxx,syy,szz,sxy,sxz,syz"] + ["0.2,0.3,0.1,0.01,0.01,0.01,0,0,0"] * 20
        for x, c in ((0.3, factor), (0.4, no_factor)):
            rows.append(",".join(repr(v) for v in (x, 0.1, 0.1, c[0][0], c[1][1], c[2][2],
                                                   c[0][1], c[0][2], c[1][2])))
        pts = tmp_path / "pts.csv"
        pts.write_text("\n".join(rows) + "\n")
        assert main(["build", "--points", str(pts), "--global-frame", "0,0,1,1", "--depth", "0",
                     "--out", str(tmp_path / "m")]) == 0
        out, err = capsys.readouterr()
        assert err == "".join(f"{pts}:{line}: skipping row: covariance is not positive definite\n"
                              for line in (22, 23))
        assert out.startswith("ingested 20 of 20 points (2 rows skipped, 0 outside the submap, "
                              "0 rejected by the map)")

    def test_an_update_that_raises_leaves_no_file(self, tmp_path, monkeypatch):
        def update(stm, batch):
            raise SingularMarginalization("non-finite 3x3 block")

        monkeypatch.setattr(cli, "incremental_update", update)
        write_plane_points(tmp_path / "pts.csv", np.random.default_rng(8), n=20)
        with pytest.raises(SingularMarginalization):
            main(["build", "--points", str(tmp_path / "pts.csv"), "--global-frame", "0,0,1,1",
                  "--depth", "1", "--out", str(tmp_path / "m")])
        assert not list(tmp_path.glob("m.*"))

    @pytest.mark.parametrize("depth", [MAX_DEPTH + 1, -1])
    def test_depth_flag_is_validated(self, tmp_path, capsys, depth):
        pts = tmp_path / "pts.csv"
        write_plane_points(pts, np.random.default_rng(6), n=10)
        code = main(["build", "--points", str(pts), "--global-frame", "0,0,1,1",
                     "--depth", str(depth), "--out", str(tmp_path / "m")])
        assert code == 2
        assert "config error: depth must be in" in capsys.readouterr().err
        assert not list(tmp_path.glob("m.*"))

    @pytest.mark.parametrize("flag, value", [
        ("--global-frame", "0,0,1"),
        ("--global-frame", "0,0,a,1"),
        ("--global-frame", "0,0,0,1"),
        ("--landmarks", "1,1,0"),
        ("--landmarks", "1,1,0,nan"),
    ])
    def test_bad_frame_exit_2(self, tmp_path, capsys, flag, value):
        pts = tmp_path / "pts.csv"
        write_plane_points(pts, np.random.default_rng(4), n=10)
        if flag == "--landmarks":  # value is the second landmark row
            lm = tmp_path / "lm.csv"
            lm.write_text(f"id,x,y,z\n0,0,0,0\n{value}\n2,0,1,0\n")
            value = str(lm)
        code = main(["build", "--points", str(pts), flag, value, "--depth", "0",
                     "--out", str(tmp_path / "m")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, bad, opened, reason", [
        ("--points", "missing.csv", "missing.csv", "No such file or directory"),
        ("--points", "dir", "dir", "Is a directory"),
        ("--landmarks", "missing.csv", "missing.csv", "No such file or directory"),
        ("--out", "missing/m", "missing/m.manifest.json", "No such file or directory"),
        ("--out", "dir/m", "dir/m.manifest.json", "Is a directory"),
    ])
    def test_a_path_that_cannot_be_opened_exits_2(self, tmp_path, capsys, flag, bad, opened, reason):
        write_plane_points(tmp_path / "pts.csv", np.random.default_rng(2), n=10)
        (tmp_path / "lm.csv").write_text("id,x,y,z\n0,0,0,0\n1,1,0,0\n2,0,1,0\n")
        (tmp_path / "dir" / "m.manifest.json").mkdir(parents=True)
        paths = {"--points": "pts.csv", "--landmarks": "lm.csv", "--out": "m", flag: bad}
        code = main(["build", "--depth", "1", *(x for k, v in paths.items() for x in (k, str(tmp_path / v)))])
        assert (code, capsys.readouterr().err) == (2, f"config error: {tmp_path / opened}: {reason}\n")
        assert not [p for p in tmp_path.rglob("m.*") if p.name != "m.manifest.json" or not p.is_dir()]

    def test_missing_config_exit_2(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        write_plane_points(pts, np.random.default_rng(2), n=10)
        code = main([
            "build", "--points", str(pts), "--global-frame", "0,0,1,1",
            "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path / "m"),
        ])
        assert code == 2
        assert "config error" in capsys.readouterr().err


class TestSimulateCommand:
    def _small_cfg(self, tmp_path, extra=""):
        p = tmp_path / "cfg.ini"
        p.write_text(
            "[map]\ndepth = 2\n[scenario]\nsteps = 3\ndensity = 5\nn_eval = 200\n"
            "[convergence]\nkl_threshold = 0.3\n" + extra
        )
        return str(p)

    def test_reobserve_outputs_and_determinism(self, tmp_path):
        cfg = self._small_cfg(tmp_path)
        for name in ("a", "b"):
            code = main(["simulate", "--scenario", "reobserve",
                         "--config", cfg, "--out", str(tmp_path / name)])
            assert code == 0
        for ext in (".csv", ".json", ".ply", ".map.json"):
            assert (tmp_path / ("a" + ext)).read_bytes() == \
                (tmp_path / ("b" + ext)).read_bytes()
        header = (tmp_path / "a.csv").read_text().splitlines()[0]
        assert "step" in header

    def test_pushbroom_runs(self, tmp_path):
        cfg = self._small_cfg(tmp_path)
        code = main(["simulate", "--scenario", "pushbroom",
                     "--config", cfg, "--out", str(tmp_path / "p")])
        assert code == 0
        doc = json.loads((tmp_path / "p.map.json").read_text())
        assert doc["metrics"]["message_count"] > 0

    @pytest.mark.parametrize("scenario", sorted(MIN_STEPS))
    def test_scenario_files_round_trip(self, tmp_path, scenario):
        out = tmp_path / "s"
        assert main(["simulate", "--scenario", scenario, "--config", self._small_cfg(tmp_path),
                     "--out", str(out)]) == 0
        text = (tmp_path / "s.json").read_text()
        doc = json.loads(text)
        assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert (doc["format_version"], doc["scenario"], len(doc["steps"])) == (1, scenario, 3)
        assert doc["total_measurements"] == sum(s["n_new"] for s in doc["steps"]) > 0
        assert doc["total_messages"] == sum(s["messages"] for s in doc["steps"])
        lines = (tmp_path / "s.csv").read_text().splitlines()
        assert lines[0] == "step,n_new,messages,normalized,total_kl"
        assert lines[1:] == [f"{s['step']},{s['n_new']},{s['messages']},{s['normalized']:.6f},{s['total_kl']:.6e}"
                             for s in doc["steps"]]

    def test_unopenable_scenario_file_exit_2(self, tmp_path, capsys):
        (tmp_path / "p.csv").mkdir()
        assert main(["simulate", "--scenario", "pushbroom", "--config", self._small_cfg(tmp_path),
                     "--out", str(tmp_path / "p")]) == 2
        assert capsys.readouterr().err == f"config error: {tmp_path / 'p.csv'}: Is a directory\n"
        assert not (tmp_path / "p.manifest.json").exists()

    @pytest.mark.parametrize("scenario", sorted(MIN_STEPS))
    def test_steps_below_the_scenario_minimum_exit_2(self, tmp_path, capsys, scenario):
        least = MIN_STEPS[scenario]
        for steps, code in ((least - 1, 2), (least, 0)):
            cfg = tmp_path / f"{steps}.ini"
            cfg.write_text(f"[map]\ndepth = 1\n[scenario]\nsteps = {steps}\ndensity = 2\n")
            out = tmp_path / f"out{steps}"
            assert main(["simulate", "--scenario", scenario, "--config", str(cfg), "--out", str(out)]) == code
            assert bool(list(tmp_path.glob(f"{out.name}.*"))) == (code == 0)
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"config error: steps must be >= {least}")

    @pytest.mark.parametrize("section, key", [("run", "seed"), ("scenario", "surface_seed")])
    def test_negative_seed_exit_2(self, tmp_path, capsys, section, key):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"[map]\ndepth = 1\n[{section}]\n{key} = -1\n")
        assert main(["simulate", "--scenario", "pushbroom", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 2
        assert capsys.readouterr().err == "config error: seed and surface_seed must be >= 0\n"
        assert not list(tmp_path.glob("s.*"))

    def test_no_evaluable_point_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[scenario]\nn_eval = 1\ndensity = 2\n")
        assert main(["simulate", "--scenario", "accuracy2d", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: n_eval = 1: no evaluable points")

    @pytest.mark.parametrize("scenario, divisions", [("accuracy2d", 6), ("accuracy3d", 4)])
    def test_accuracy_outputs_and_determinism(self, tmp_path, scenario, divisions):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[scenario]\ndensity = 3\nn_eval = 200\n")
        for name in ("a", "b"):
            assert main(["simulate", "--scenario", scenario, "--config", str(cfg),
                         "--out", str(tmp_path / name)]) == 0
        for ext in (".csv", ".json", ".manifest.json"):
            assert (tmp_path / ("a" + ext)).read_bytes() == (tmp_path / ("b" + ext)).read_bytes()
        rows = json.loads((tmp_path / "a.json").read_text())["rows"]
        assert [r["division"] for r in rows] == list(range(1, divisions + 1))
        assert len((tmp_path / "a.csv").read_text().splitlines()) == 1 + divisions
        for r in rows:
            assert math.isfinite(r["mse_stm"]) and math.isfinite(r["mse_elevation"])
            assert math.isnan(r["loglik_ratio"]) == (scenario == "accuracy3d")


class TestOracleCommand:
    def test_writes_the_four_variable_comparison(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "ChainConfig",
                            lambda seed: ChainConfig(n_samples=5_000, adapt_interval=500, seed=seed))
        assert main(["oracle", "--case", "lidar", "--out", str(tmp_path / "o")]) == 0
        doc = json.loads((tmp_path / "o.json").read_text())
        assert (doc["case"], list(doc["acceptance"])) == ("lidar", ["m"])
        assert sorted(doc["variables"]) == ["h0", "h_alpha", "h_beta", "nu"]
        assert all(math.isfinite(v["mh_mean"]) for v in doc["variables"].values())
        assert len(capsys.readouterr().out.splitlines()) == 4
        assert (tmp_path / "o.manifest.json").exists()

    def test_adaptation_failure_exit_5(self, tmp_path, monkeypatch, capsys):
        # the lidar chain of 4,000 iterations leaves the latent points at 0.02 acceptance
        monkeypatch.setattr(cli, "ChainConfig",
                            lambda seed: ChainConfig(n_samples=4_000, adapt_interval=500, seed=3))
        assert main(["oracle", "--case", "lidar", "--out", str(tmp_path / "o")]) == 5
        assert "post-adaptation acceptance" in capsys.readouterr().err
        assert not list(tmp_path.glob("o.*"))  # no manifest of a run that failed


class TestEmulationCases:
    def test_cases_deterministic_and_distinct(self):
        a = make_emulation_case("stereo")
        b = make_emulation_case("stereo")
        assert len(a) == 100
        for m1, m2 in zip(a, b):
            np.testing.assert_array_equal(m1.mean, m2.mean)
            np.testing.assert_array_equal(m1.cov, m2.cov)
        c = make_emulation_case("lidar")
        assert len(c) == 10
        # lidar noise is much tighter than stereo
        assert np.mean([np.trace(m.cov) for m in c]) < \
            np.mean([np.trace(m.cov) for m in a])

    def test_points_inside_submap(self):
        for name in ("stereo", "lidar"):
            for m in make_emulation_case(name):
                assert -0.5 < m.mean[0] and -0.5 < m.mean[1]
                assert m.mean[0] + m.mean[1] < 1.5
