import os
import struct
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from shapeseg import cli, descent, energy, field, io, shape_prior, synth
from shapeseg.cli import run_cli
from shapeseg.descent import DescentConfig
from shapeseg.energy import EnergyWeights


def write_scene(tmp_path, **kwargs):
    spec = synth.SceneSpec(width=64, height=64,
                           shape=("disk", 31.5, 31.5, 12.0), **kwargs)
    p = tmp_path / "scene.txt"
    p.write_text(synth.scene_to_kv(spec))
    return p, spec


def write_config(tmp_path, w=None, cfg=None):
    p = tmp_path / "config.txt"
    p.write_text(descent.config_to_kv(w or EnergyWeights(),
                                      cfg or DescentConfig()))
    return p


def pack_smdl_v1(model, n_training, flag, centre=None):
    """A version-1 SMDL file laid out field by field, with the given trailer.

    The centre defaults to the grid's centre, as every writer stored it.
    """
    h, w = model.mean.shape
    return b"".join([b"SMDL", struct.pack("<IIIII", 1, w, h, n_training, model.p),
                     model.mean.astype("<f8").tobytes(), model.modes.astype("<f8").tobytes(),
                     model.variances.astype("<f8").tobytes(),
                     struct.pack("<ddd", flag, *(centre or ((w - 1) / 2.0, (h - 1) / 2.0)))])


class TestSynthCommand:
    def test_renders_and_reruns_identically(self, tmp_path, capsys):
        scene, spec = write_scene(tmp_path, noise_std=4.0, noise_seed=7)
        img, truth = tmp_path / "img.pgm", tmp_path / "truth.pgm"
        assert run_cli(["synth", "--spec", str(scene), "--out-image", str(img),
                        "--out-truth", str(truth)]) == 0
        assert "rendered" in capsys.readouterr().out
        first = img.read_bytes(), truth.read_bytes()
        assert run_cli(["synth", "--spec", str(scene), "--out-image", str(img),
                        "--out-truth", str(truth)]) == 0
        assert (img.read_bytes(), truth.read_bytes()) == first
        want_img, want_truth = synth.render(spec)
        assert np.array_equal(io.read_pgm(img), np.clip(np.rint(want_img), 0, 255))
        assert np.array_equal(io.read_pgm(truth) > 127, want_truth)


class TestBuildModelCommand:
    def test_builds_readable_model(self, tmp_path, capsys):
        paths = []
        for i, m in enumerate(synth.ellipse_training_set(5, (10, 20), (8, 14), 64, 64)):
            p = tmp_path / f"m{i}.pgm"
            io.write_pgm(np.where(m, 255.0, 0.0), p)
            paths.append(str(p))
        out = tmp_path / "model.smdl"
        assert run_cli(["build-model", "--masks", *paths,
                        "--modes", "2", "--out", str(out)]) == 0
        assert "variance share" in capsys.readouterr().out
        model = shape_prior.read_smdl(out)
        assert model.p == 2 and model.mean.shape == (64, 64) and model.n_training == 5
        again = tmp_path / "again.smdl"
        shape_prior.write_smdl(model, again)
        assert again.read_bytes() == out.read_bytes()

    def test_model_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # the same masks must give the same file whatever thread count BLAS
        # runs with; a threaded dot product sums in a thread-dependent order
        paths = []
        for r in range(14, 27, 2):
            p = tmp_path / f"m{r}.pgm"
            io.write_pgm(np.where(synth.truth_mask(synth.SceneSpec(
                width=128, height=128, shape=("disk", 63.5, 63.5, float(r)))), 255.0, 0.0), p)
            paths.append(str(p))
        src = str(Path(cli.__file__).resolve().parents[1])
        files = []
        for threads in ("1", "2"):
            out = tmp_path / f"model{threads}.smdl"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
            proc = subprocess.run(
                [sys.executable, "-c", "from shapeseg.cli import main; main()",
                 "build-model", "--masks", *paths, "--modes", "2", "--out", str(out)],
                capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            files.append(out.read_bytes())
        assert files[0] == files[1]

    @pytest.mark.parametrize("maxval", [1, 65535])
    def test_mask_inside_is_above_half_of_maxval(self, tmp_path, maxval):
        # a pixel was inside when above 127 whatever the maxval, so a binary mask
        # with maxval 1 was all outside: exit 2, degenerate mask
        def build(mv):
            paths = []
            for r in (8, 11):
                inside = synth.truth_mask(synth.SceneSpec(
                    width=32, height=32, shape=("disk", 15.5, 15.5, float(r))))
                p = tmp_path / f"m{r}-{mv}.pgm"
                p.write_text(f"P2\n32 32\n{mv}\n"
                             + "\n".join(" ".join(map(str, row)) for row in inside * mv) + "\n")
                paths.append(str(p))
            out = tmp_path / f"model{mv}.smdl"
            assert run_cli(["build-model", "--masks", *paths, "--modes", "1",
                            "--out", str(out)]) == 0
            return out.read_bytes()

        assert build(maxval) == build(255)


class TestEnergyCommand:
    def test_matches_library_prior_free(self, tmp_path, capsys):
        scene, spec = write_scene(tmp_path)
        img_p = tmp_path / "img.pgm"
        run_cli(["synth", "--spec", str(scene), "--out-image", str(img_p),
                 "--out-truth", str(tmp_path / "t.pgm")])
        phi = descent.default_init_phi((64, 64))
        phi_p = tmp_path / "phi.sfld"
        field.write_sfld(phi, phi_p)
        cfg_p = write_config(tmp_path)
        capsys.readouterr()  # drop the synth command's output
        assert run_cli(["energy", "--image", str(img_p), "--phi", str(phi_p),
                        "--config", str(cfg_p)]) == 0
        out = capsys.readouterr().out
        got = dict(kv.split("=") for kv in out.split())
        image = io.read_pgm(img_p)
        w = EnergyWeights()
        g = energy.edge_indicator(image, w.eta, w.sigma)
        bd = energy.total_energy(phi, image, g, None, None, None, w)
        assert float(got["f1"]) == bd.f1
        assert float(got["total"]) == bd.total
        assert float(got["f4"]) == 0.0

    @pytest.mark.parametrize("extra", [
        [],
        ["--lambda", "0.7", "-0.4"],
        ["--lambda", "0.7", "-0.4", "--pose", "1.1", "0.2", "0.6", "-0.3"],
    ])
    def test_with_model_prints_the_reference_recipe(self, tmp_path, capsys, extra):
        scene, _ = write_scene(tmp_path, noise_std=6.0, noise_seed=3)
        img_p = tmp_path / "img.pgm"
        run_cli(["synth", "--spec", str(scene), "--out-image", str(img_p),
                 "--out-truth", str(tmp_path / "t.pgm")])
        masks = [synth.truth_mask(synth.SceneSpec(width=64, height=64,
                                                  shape=("disk", 31.5, 31.5, float(r))))
                 for r in (9, 11, 13, 15)]
        model = shape_prior.build_shape_model([shape_prior.sdf_from_mask(m) for m in masks], p=2)
        model_p = tmp_path / "m.smdl"
        shape_prior.write_smdl(model, model_p)
        phi = descent.default_init_phi((64, 64)) + 0.3
        phi_p = tmp_path / "phi.sfld"
        field.write_sfld(phi, phi_p)
        # a stiff smoothness weight: 100 sweeps stop short of the fixed point,
        # so the sweep count and the warm start show in the output
        w = EnergyWeights(gamma=0.05, mu=50.0)
        cfg_p = write_config(tmp_path, w=w)
        capsys.readouterr()
        assert run_cli(["energy", "--image", str(img_p), "--phi", str(phi_p),
                        "--model", str(model_p), "--config", str(cfg_p), *extra]) == 0
        # the reference recipe: prior, region weight, 100 sweeps from the image mean
        image = io.read_pgm(img_p)
        g = energy.edge_indicator(image, w.eta, w.sigma)
        lam = np.array([0.7, -0.4]) if "--lambda" in extra else np.zeros(2)
        pose = shape_prior.Pose(1.1, 0.2, 0.6, -0.3) if "--pose" in extra else shape_prior.Pose()
        pw = descent.prior_field(model, lam, pose)
        wgt = energy.heaviside_eps(-pw, w.eps)
        i_in = descent.solve_smooth_approximant(image, wgt, w.mu, 100,
                                                np.full_like(image, image.mean()))
        i_out = descent.solve_smooth_approximant(image, 1 - wgt, w.mu, 100,
                                                 np.full_like(image, image.mean()))
        bd = energy.total_energy(phi, image, g, pw, i_in, i_out, w)
        assert capsys.readouterr().out == (
            f"f1={bd.f1:.17g} f2={bd.f2:.17g} f3={bd.f3:.17g} "
            f"f4={bd.f4:.17g} total={bd.total:.17g}\n")

    def test_shape_mismatch_is_data_error(self, tmp_path):
        scene, _ = write_scene(tmp_path)
        img_p = tmp_path / "img.pgm"
        run_cli(["synth", "--spec", str(scene), "--out-image", str(img_p),
                 "--out-truth", str(tmp_path / "t.pgm")])
        phi_p = tmp_path / "phi.sfld"
        field.write_sfld(np.zeros((32, 32)), phi_p)
        code = run_cli(["energy", "--image", str(img_p), "--phi", str(phi_p),
                        "--config", str(write_config(tmp_path))])
        assert code == 2


class TestReinitCommand:
    def test_improves_gradient(self, tmp_path):
        phi0 = 4.0 * descent.default_init_phi((48, 48))
        p_in, p_out = tmp_path / "in.sfld", tmp_path / "out.sfld"
        field.write_sfld(phi0, p_in)
        assert run_cli(["reinit", "--phi", str(p_in), "--iters", "50",
                        "--out", str(p_out)]) == 0
        out = field.read_sfld(p_out)
        band = np.abs(out) < 8
        m = field.grad_magnitude(out)
        assert np.mean(np.abs(m[band] - 1.0) < 0.2) > 0.9


class TestSegmentCommand:
    def test_outputs_and_determinism(self, tmp_path, capsys):
        scene, _ = write_scene(tmp_path, noise_std=2.0)
        img_p = tmp_path / "img.pgm"
        run_cli(["synth", "--spec", str(scene), "--out-image", str(img_p),
                 "--out-truth", str(tmp_path / "t.pgm")])
        cfg_p = write_config(tmp_path, cfg=DescentConfig(max_iters=10))
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        for out in (out1, out2):
            assert run_cli(["segment", "--image", str(img_p),
                            "--config", str(cfg_p), "--out-dir", str(out)]) == 0
        assert "10 iterations (max_iters)" in capsys.readouterr().out
        names = ["phi.sfld", "contours.csv", "overlay.pgm", "trace.csv", "config.txt"]
        for name in names:
            assert (out1 / name).exists()
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        trace = (out1 / "trace.csv").read_text().splitlines()
        assert trace[0] == "iter,f1,f2,f3,f4,total"
        assert len(trace) == 11
        totals = [float(r.split(",")[-1]) for r in trace[1:]]
        assert all(b <= a * (1 + 1e-6) for a, b in zip(totals, totals[1:]))
        # the written config resolves every default
        w2, c2 = descent.config_from_kv((out1 / "config.txt").read_text())
        assert w2 == EnergyWeights() and c2 == DescentConfig(max_iters=10)

    def test_final_energy_is_the_last_iterate(self, tmp_path, capsys):
        # the printed energy is that of the written phi, re-evaluated from the file
        scene, _ = write_scene(tmp_path)
        img_p = tmp_path / "img.pgm"
        run_cli(["synth", "--spec", str(scene), "--out-image", str(img_p),
                 "--out-truth", str(tmp_path / "t.pgm")])
        cfg_p = write_config(tmp_path, cfg=DescentConfig(max_iters=12))
        out = tmp_path / "run"
        assert run_cli(["segment", "--image", str(img_p), "--config", str(cfg_p),
                        "--out-dir", str(out)]) == 0
        printed = capsys.readouterr().out.split("final energy ")[1].strip()
        assert run_cli(["energy", "--image", str(img_p), "--phi", str(out / "phi.sfld"),
                        "--config", str(cfg_p)]) == 0
        total = float(capsys.readouterr().out.split("total=")[1])
        assert printed == f"{total:.6g}"

    def test_with_model(self, tmp_path):
        scene, _ = write_scene(tmp_path)
        img_p = tmp_path / "img.pgm"
        run_cli(["synth", "--spec", str(scene), "--out-image", str(img_p),
                 "--out-truth", str(tmp_path / "t.pgm")])
        masks = synth.ellipse_training_set(4, (9, 15), (9, 15), 64, 64)
        sdfs = [shape_prior.sdf_from_mask(m) for m in masks]
        model_p = tmp_path / "m.smdl"
        shape_prior.write_smdl(shape_prior.build_shape_model(sdfs, p=2), model_p)
        cfg_p = write_config(tmp_path, cfg=DescentConfig(max_iters=5))
        out = tmp_path / "run"
        assert run_cli(["segment", "--image", str(img_p), "--model", str(model_p),
                        "--config", str(cfg_p), "--out-dir", str(out)]) == 0
        assert (out / "phi.sfld").exists()

    def test_version_1_file_segments_like_its_model(self, tmp_path):
        # a file laid out as every earlier writer laid it out (trailer flag 1.0)
        # loads as the model it stores and segments bit-identically to it
        scene, _ = write_scene(tmp_path)
        img_p = tmp_path / "img.pgm"
        run_cli(["synth", "--spec", str(scene), "--out-image", str(img_p),
                 "--out-truth", str(tmp_path / "t.pgm")])
        masks = synth.ellipse_training_set(4, (9, 15), (9, 15), 64, 64)
        model = shape_prior.build_shape_model(
            [shape_prior.sdf_from_mask(m) for m in masks], p=2)
        model_p = tmp_path / "m.smdl"
        model_p.write_bytes(pack_smdl_v1(model, 4, 1.0))
        written = tmp_path / "written.smdl"
        shape_prior.write_smdl(model, written)
        assert written.read_bytes() == model_p.read_bytes()
        cfg_p = write_config(tmp_path, cfg=DescentConfig(max_iters=5))
        out = tmp_path / "run"
        assert run_cli(["segment", "--image", str(img_p), "--model", str(model_p),
                        "--config", str(cfg_p), "--out-dir", str(out)]) == 0
        w, cfg = descent.config_from_kv(cfg_p.read_text())
        state = descent.segment(io.read_pgm(img_p), model, w, cfg)
        field.write_sfld(state.phi, tmp_path / "want.sfld")
        assert (out / "phi.sfld").read_bytes() == (tmp_path / "want.sfld").read_bytes()


class TestExitCodes:
    def test_usage_errors(self, capsys):
        assert run_cli([]) == 1
        assert run_cli(["segment"]) == 1
        assert run_cli(["synth", "--bogus", "x"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, tmp_path):
        assert run_cli(["reinit", "--phi", str(tmp_path / "nope.sfld"),
                        "--iters", "1", "--out", str(tmp_path / "o.sfld")]) == 2

    def test_bad_format_is_data_error(self, tmp_path):
        p = tmp_path / "bad.pgm"
        p.write_bytes(b"P7\n1 1\n255\n\x00")
        assert run_cli(["energy", "--image", str(p), "--phi", str(p),
                        "--config", str(p)]) == 2

    def test_non_finite_config_is_data_error(self, tmp_path, capsys):
        scene, _ = write_scene(tmp_path)
        img_p = tmp_path / "img.pgm"
        run_cli(["synth", "--spec", str(scene), "--out-image", str(img_p),
                 "--out-truth", str(tmp_path / "t.pgm")])
        cfg = tmp_path / "nan.txt"
        cfg.write_text("alpha=nan\ntol=nan\n")
        capsys.readouterr()
        code = run_cli(["segment", "--image", str(img_p), "--config", str(cfg),
                        "--out-dir", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "finite" in err[0]

    def test_truncated_model_is_data_error(self, tmp_path, capsys):
        masks = []
        for r in (8, 10, 12):
            p = tmp_path / f"m{r}.pgm"
            io.write_pgm(np.where(synth.truth_mask(synth.SceneSpec(
                width=32, height=32, shape=("disk", 15.5, 15.5, float(r)))), 255.0, 0.0), p)
            masks.append(str(p))
        model = tmp_path / "model.smdl"
        assert run_cli(["build-model", "--masks", *masks, "--modes", "2",
                        "--out", str(model)]) == 0
        data = model.read_bytes()
        phi = tmp_path / "phi.sfld"
        field.write_sfld(np.zeros((32, 32)), phi)
        for cut in (10, 24 + 8 * 32 * 32, len(data) - 1):
            model.write_bytes(data[:cut])
            capsys.readouterr()
            code = run_cli(["energy", "--image", masks[0], "--phi", str(phi),
                            "--model", str(model),
                            "--config", str(write_config(tmp_path))])
            assert code == 2
            assert "truncated SMDL" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [
        ["--pose", "nan", "0", "0", "0"],
        ["--pose", "1", "0", "inf", "0"],
        ["--pose", "1", "inf", "0", "0"],
        ["--pose", "1", "0", "0", "nan"],
        ["--lambda", "nan", "0"],
        ["--lambda", "0", "inf"],
    ])
    def test_non_finite_pose_or_lambda_is_data_error(self, tmp_path, capsys, extra):
        masks = []
        for r in (8, 10, 12):
            p = tmp_path / f"m{r}.pgm"
            io.write_pgm(np.where(synth.truth_mask(synth.SceneSpec(
                width=32, height=32, shape=("disk", 15.5, 15.5, float(r)))), 255.0, 0.0), p)
            masks.append(str(p))
        model = tmp_path / "model.smdl"
        assert run_cli(["build-model", "--masks", *masks, "--modes", "2",
                        "--out", str(model)]) == 0
        phi = tmp_path / "phi.sfld"
        field.write_sfld(descent.default_init_phi((32, 32)), phi)
        capsys.readouterr()
        code = run_cli(["energy", "--image", masks[0], "--phi", str(phi),
                        "--model", str(model), "--config", str(write_config(tmp_path)),
                        *extra])
        assert code == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and "finite" in err[0]
        assert "nan" not in captured.out

    @pytest.mark.parametrize("line, message", [
        ("fg=nan\nbg=inf", "finite"), ("noise_std=-3", "finite"), ("noise_std=nan", "finite"),
        ("shape=disk,nan,15.5,8", "finite"), ("occlusion=arc,0,inf", "finite"),
        ("occlusion=arc,1", "occlusion arc takes 2 parameters"),
        ("occlusion=arc,1,2,3", "occlusion arc takes 2 parameters"),
        ("occlusion=box,1,2,3", "occlusion box takes 4 parameters"),
        ("width=abc", "scene key 'width'"), ("shape=disk,15.5,x,8", "scene key 'shape'"),
        ("shape=halfplane,1,0,16\nocclusion=arc,0,1",
         "an arc occlusion needs a disk or ellipse, not a halfplane"),
        # inf - inf leaves the side of some pixels unknown
        ("shape=halfplane,1e308,-1e308,5", "halfplane normal overflows"),
        # 79 of the 1024 pixels would be +-inf
        ("noise_std=1e308", "noise_std overflows"),
    ])
    def test_bad_scene_is_data_error(self, tmp_path, capsys, line, message):
        spec = tmp_path / "scene.txt"
        spec.write_text(f"width=32\nheight=32\nshape=disk,15.5,15.5,8\n{line}\n")
        img, truth = tmp_path / "img.pgm", tmp_path / "truth.pgm"
        code = run_cli(["synth", "--spec", str(spec), "--out-image", str(img),
                        "--out-truth", str(truth)])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and message in err[0]
        assert not img.exists() and not truth.exists()

    @pytest.mark.parametrize("exc, shown", [
        (MemoryError(), "error: out of memory"),
        (MemoryError("Unable to allocate 74.5 GiB"), "error: Unable to allocate 74.5 GiB"),
    ])
    def test_out_of_memory_is_one_data_error(self, tmp_path, capsys, monkeypatch, exc, shown):
        # a 100000x100000 scene fails this way; raised here without allocating
        def render(spec):
            raise exc

        monkeypatch.setattr(synth, "render", render)
        scene, _ = write_scene(tmp_path)
        img, truth = tmp_path / "img.pgm", tmp_path / "truth.pgm"
        code = run_cli(["synth", "--spec", str(scene), "--out-image", str(img),
                        "--out-truth", str(truth)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [shown] and captured.out == ""
        assert not img.exists() and not truth.exists()

    @pytest.mark.parametrize("spec", [
        "width=0\nheight=32\nshape=halfplane,1,0,5",
        "width=32\nheight=32\nshape=disk,15.5,15.5,-5",
        "width=32\nheight=32\nshape=ellipse,15.5,15.5,0,5,0",
        "width=32\nheight=32\nshape=disk,15.5,15.5",
    ])
    def test_degenerate_scene_is_data_error(self, tmp_path, capsys, spec):
        p = tmp_path / "scene.txt"
        p.write_text(spec + "\n")
        img, truth = tmp_path / "img.pgm", tmp_path / "truth.pgm"
        code = run_cli(["synth", "--spec", str(p), "--out-image", str(img),
                        "--out-truth", str(truth)])
        assert code == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and captured.out == ""
        assert not img.exists() and not truth.exists()

    def _energy_inputs(self, tmp_path):
        scene, _ = write_scene(tmp_path)
        img_p = tmp_path / "img.pgm"
        run_cli(["synth", "--spec", str(scene), "--out-image", str(img_p),
                 "--out-truth", str(tmp_path / "t.pgm")])
        phi_p = tmp_path / "phi.sfld"
        field.write_sfld(descent.default_init_phi((64, 64)), phi_p)
        return img_p, phi_p, write_config(tmp_path)

    @pytest.mark.parametrize("extra", [
        ["--lambda", "5", "7"],
        ["--pose", "3", "0", "0", "0"],
        ["--lambda", "5", "7", "--pose", "3", "0", "0", "0"],
        ["--lambda"],
    ])
    def test_lambda_or_pose_without_model_is_usage_error(self, tmp_path, capsys, extra):
        img_p, phi_p, cfg_p = self._energy_inputs(tmp_path)
        capsys.readouterr()
        code = run_cli(["energy", "--image", str(img_p), "--phi", str(phi_p),
                        "--config", str(cfg_p), *extra])
        assert code == 1
        captured = capsys.readouterr()
        errors = [ln for ln in captured.err.splitlines() if ln.startswith("usage error:")]
        assert len(errors) == 1 and "--model" in errors[0]
        assert captured.out == ""

    @pytest.mark.parametrize("extra", [
        ["--lambda"],
        ["--lambda", "--pose", "1", "0", "0", "0"],
        ["--pose", "1", "0", "0", "0", "--lambda"],
    ])
    def test_lambda_without_values_is_usage_error(self, tmp_path, capsys, extra):
        # an empty --lambda used to print the energy at lambda = 0
        img_p, phi_p, cfg_p = self._energy_inputs(tmp_path)
        masks = [synth.truth_mask(synth.SceneSpec(width=64, height=64,
                                                  shape=("disk", 31.5, 31.5, float(r))))
                 for r in (9, 11, 13)]
        model_p = tmp_path / "m.smdl"
        shape_prior.write_smdl(shape_prior.build_shape_model(
            [shape_prior.sdf_from_mask(m) for m in masks], p=2), model_p)
        capsys.readouterr()
        code = run_cli(["energy", "--image", str(img_p), "--phi", str(phi_p),
                        "--model", str(model_p), "--config", str(cfg_p), *extra])
        assert code == 1
        captured = capsys.readouterr()
        errors = [ln for ln in captured.err.splitlines() if ln.startswith("usage error:")]
        assert len(errors) == 1 and "--lambda" in errors[0]
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["segment", "energy"])
    def test_model_grid_mismatch_is_one_data_error(self, tmp_path, capsys, command):
        # a model of 48x40 masks on a 64x64 image used to fail with NumPy's
        # "operands could not be broadcast together" text
        img_p, phi_p, cfg_p = self._energy_inputs(tmp_path)
        masks = [synth.truth_mask(synth.SceneSpec(width=48, height=40,
                                                  shape=("disk", 23.5, 19.5, float(r))))
                 for r in (9, 11, 13)]
        model_p = tmp_path / "m.smdl"
        shape_prior.write_smdl(shape_prior.build_shape_model(
            [shape_prior.sdf_from_mask(m) for m in masks], p=2), model_p)
        out = tmp_path / "run"
        argv = {"segment": ["--out-dir", str(out)], "energy": ["--phi", str(phi_p)]}[command]
        capsys.readouterr()
        code = run_cli([command, "--image", str(img_p), "--model", str(model_p),
                        "--config", str(cfg_p), *argv])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: model grid 48x40 does not match image grid 64x64"]
        assert captured.out == ""
        assert not (out / "phi.sfld").exists()

    def test_bad_config_value_names_its_key(self, tmp_path, capsys):
        img_p, _, cfg_p = self._energy_inputs(tmp_path)
        cfg_p.write_text(cfg_p.read_text() + "max_iters=1.5\n")
        capsys.readouterr()
        code = run_cli(["segment", "--image", str(img_p), "--config", str(cfg_p),
                        "--out-dir", str(tmp_path / "run")])
        assert code == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and "config key 'max_iters'" in err[0]
        assert captured.out == ""

    # a RuntimeWarning raised inside the command fails these (pyproject's filterwarnings)
    @pytest.mark.parametrize("command", ["segment", "energy"])
    @pytest.mark.parametrize("with_model", [False, True])
    @pytest.mark.parametrize("eps", ["1e-200", "1e-320"])
    def test_eps_whose_square_underflows_warns_nothing(self, tmp_path, capsys, command,
                                                       with_model, eps):
        img_p, phi_p, cfg_p = self._energy_inputs(tmp_path)
        cfg_p.write_text(cfg_p.read_text() + f"eps={eps}\nmax_iters=3\n")
        argv = ["--config", str(cfg_p)]
        if with_model:
            model_p = tmp_path / "m.smdl"
            shape_prior.write_smdl(self._disk_model(), model_p)
            argv += ["--model", str(model_p)]
        argv += {"segment": ["--out-dir", str(tmp_path / "run")],
                 "energy": ["--phi", str(phi_p)]}[command]
        capsys.readouterr()
        code = run_cli([command, "--image", str(img_p), *argv])
        captured = capsys.readouterr()
        if command == "segment":
            # eps^2 = 0 divides the Dirac derivative: the checked gradient aborts the run
            assert code == 3
            assert captured.err == "numerical abort: non-finite level-set gradient\n"
        else:
            # H and the Dirac weight take their exact step limits
            assert code == 0 and captured.err == ""

    def test_huge_eta_warns_nothing(self, tmp_path, capsys):
        # eta*|grad|^2 overflows on the edges, where g = 0 is the exact limit
        img_p, _, cfg_p = self._energy_inputs(tmp_path)
        cfg_p.write_text(cfg_p.read_text() + "eta=1e308\nmax_iters=3\n")
        capsys.readouterr()
        code = run_cli(["segment", "--image", str(img_p), "--config", str(cfg_p),
                        "--out-dir", str(tmp_path / "run")])
        assert code == 0 and capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["segment", "energy"])
    def test_solver_overflow_is_one_numerical_abort(self, tmp_path, capsys, command):
        # mu*weight overflows in the approximant solver; the F4 check reports it
        img_p, phi_p, cfg_p = self._energy_inputs(tmp_path)
        cfg_p.write_text(cfg_p.read_text() + "mu=1e308\nmax_iters=2\n")
        model_p = tmp_path / "m.smdl"
        shape_prior.write_smdl(self._disk_model(), model_p)
        argv = {"segment": ["--out-dir", str(tmp_path / "run")],
                "energy": ["--phi", str(phi_p)]}[command]
        capsys.readouterr()
        code = run_cli([command, "--image", str(img_p), "--model", str(model_p),
                        "--config", str(cfg_p), *argv])
        assert code == 3
        assert capsys.readouterr().err == "numerical abort: non-finite energy term f4\n"

    @pytest.mark.parametrize("command", ["segment", "energy"])
    def test_sigma_whose_deviation_underflows_warns_nothing(self, tmp_path, capsys, command):
        # a standard deviation of 2.2e-162 overflows the kernel's square: no smoothing
        img_p, phi_p, cfg_p = self._energy_inputs(tmp_path)
        cfg_p.write_text(cfg_p.read_text() + "sigma=5e-324\nmax_iters=2\n")
        argv = {"segment": ["--out-dir", str(tmp_path / "run")],
                "energy": ["--phi", str(phi_p)]}[command]
        capsys.readouterr()
        code = run_cli([command, "--image", str(img_p), "--config", str(cfg_p), *argv])
        assert code == 0 and capsys.readouterr().err == ""

    @pytest.mark.parametrize("key", ["step_lambda", "dt_phi"])
    def test_retired_config_key_through_the_entry_point(self, tmp_path, key):
        # a config file written before the schedule shrank to three keys, or to two
        img_p, _, cfg_p = self._energy_inputs(tmp_path)
        cfg_p.write_text(cfg_p.read_text() + f"{key}=0.5\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.run(
            [sys.executable, "-c", "from shapeseg.cli import main; main()", "segment",
             "--image", str(img_p), "--config", str(cfg_p), "--out-dir", str(tmp_path / "run")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr == f"error: unknown config key '{key}'\n"
        assert proc.stdout == ""

    @staticmethod
    def _disk_model():
        masks = [synth.truth_mask(synth.SceneSpec(width=64, height=64,
                                                  shape=("disk", 31.5, 31.5, float(r))))
                 for r in (9, 11, 13)]
        return shape_prior.build_shape_model([shape_prior.sdf_from_mask(m) for m in masks], p=2)

    def _bad_model_error(self, tmp_path, capsys, command, flag, centre=None, edit=None):
        """The stderr lines of ``command`` on a model file with the given trailer.

        ``edit``, if given, changes the model's arrays in place before it is written.
        """
        img_p, phi_p, cfg_p = self._energy_inputs(tmp_path)
        model = self._disk_model()
        if edit is not None:
            edit(model)
        model_p = tmp_path / "m.smdl"
        model_p.write_bytes(pack_smdl_v1(model, 3, flag, centre))
        out = tmp_path / "run"
        argv = {"segment": ["--out-dir", str(out)], "energy": ["--phi", str(phi_p)]}[command]
        capsys.readouterr()
        code = run_cli([command, "--image", str(img_p), "--model", str(model_p),
                        "--config", str(cfg_p), *argv])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert not (out / "phi.sfld").exists()
        return captured.err.splitlines()

    @pytest.mark.parametrize("command", ["segment", "energy"])
    def test_origin_centred_model_is_one_data_error(self, tmp_path, capsys, command):
        assert self._bad_model_error(tmp_path, capsys, command, 0.0) == [
            "error: origin-centred SMDL models are not supported"]

    @pytest.mark.parametrize("command", ["segment", "energy"])
    def test_off_centre_model_is_one_data_error(self, tmp_path, capsys, command):
        assert self._bad_model_error(tmp_path, capsys, command, 1.0, (5.0, -7.0)) == [
            "error: SMDL centre (5.0, -7.0) is not the grid centre (31.5, 31.5)"]

    @pytest.mark.parametrize("command", ["segment", "energy"])
    @pytest.mark.parametrize("array,value", [
        ("mean", np.nan), ("modes", np.inf), ("variances", -5.0), ("variances", np.nan),
    ])
    def test_non_finite_or_negative_variance_model_is_one_data_error(
            self, tmp_path, capsys, command, array, value):
        def edit(model):
            getattr(model, array).flat[-1] = value

        assert self._bad_model_error(tmp_path, capsys, command, 1.0, edit=edit) == [
            "error: SMDL mean, modes and variances must be finite, with variances >= 0"]

    @pytest.mark.parametrize("tau,shown", [("100", "100"), ("0.1", "0.1"), ("inf", "inf")])
    def test_pose_tau_out_of_range_is_one_data_error(self, tmp_path, capsys, tau, shown):
        img_p, phi_p, cfg_p = self._energy_inputs(tmp_path)
        model_p = tmp_path / "m.smdl"
        shape_prior.write_smdl(self._disk_model(), model_p)
        capsys.readouterr()
        code = run_cli(["energy", "--image", str(img_p), "--phi", str(phi_p), "--model",
                        str(model_p), "--config", str(cfg_p), "--pose", tau, "0", "0", "0"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: --pose tau {shown} is outside [0.25, 4]"]

    def test_non_finite_sfld_is_data_error(self, tmp_path, capsys):
        img_p, phi_p, cfg_p = self._energy_inputs(tmp_path)
        data = bytearray(phi_p.read_bytes())
        data[12 + 8 * 100:12 + 8 * 101] = np.array([np.nan], dtype="<f8").tobytes()
        phi_p.write_bytes(bytes(data))
        capsys.readouterr()
        code = run_cli(["energy", "--image", str(img_p), "--phi", str(phi_p),
                        "--config", str(cfg_p)])
        assert code == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and "non-finite" in err[0]
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["reinit", "energy"])
    def test_sfld_header_larger_than_file_is_one_data_error(self, tmp_path, capsys, command):
        img_p, phi_p, cfg_p = self._energy_inputs(tmp_path)
        phi_p.write_bytes(field.SFLD_MAGIC + struct.pack("<II", 2**32 - 1, 2**32 - 1)
                          + bytes(64))
        out_p = tmp_path / "out.sfld"
        args = {"reinit": ["--iters", "1", "--out", str(out_p)],
                "energy": ["--image", str(img_p), "--config", str(cfg_p)]}[command]
        capsys.readouterr()
        assert run_cli([command, "--phi", str(phi_p), *args]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: truncated SFLD data"]
        assert captured.out == "" and not out_p.exists()

    @pytest.mark.parametrize("sample", ["nan", "300", "1.5"])
    def test_bad_p2_sample_is_data_error(self, tmp_path, capsys, sample):
        img_p, phi_p, cfg_p = self._energy_inputs(tmp_path)
        vals = ["50"] * (64 * 64)
        vals[1000] = sample
        img_p.write_text("P2\n64 64\n255\n" + " ".join(vals) + "\n")
        capsys.readouterr()
        code = run_cli(["energy", "--image", str(img_p), "--phi", str(phi_p),
                        "--config", str(cfg_p)])
        assert code == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and "sample" in err[0]
        assert captured.out == ""

    def test_non_finite_energy_is_numerical_abort(self, tmp_path, capsys):
        # finite samples whose squared gradient overflows: F1 is inf
        img_p, phi_p, cfg_p = self._energy_inputs(tmp_path)
        xs, ys = np.meshgrid(np.arange(64), np.arange(64))
        field.write_sfld(np.where((xs + ys) % 2 == 0, 1e300, -1e300), phi_p)
        capsys.readouterr()
        code = run_cli(["energy", "--image", str(img_p), "--phi", str(phi_p),
                        "--config", str(cfg_p)])
        assert code == 3
        captured = capsys.readouterr()
        assert "numerical abort" in captured.err and captured.out == ""

    def test_numerical_abort_prints_one_line(self, tmp_path):
        # NumPy warnings go to the real stderr, so run the command in a child process
        img_p, phi_p, cfg_p = self._energy_inputs(tmp_path)
        xs, ys = np.meshgrid(np.arange(64), np.arange(64))
        field.write_sfld(np.where((xs + ys) % 2 == 0, 1e300, -1e300), phi_p)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from shapeseg.cli import main; main()",
             "energy", "--image", str(img_p), "--phi", str(phi_p), "--config", str(cfg_p)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 3
        assert proc.stderr == "numerical abort: non-finite energy term f1\n"
        assert proc.stdout == ""

    def test_negative_reinit_iters_is_data_error(self, tmp_path, capsys):
        p_in, p_out = tmp_path / "in.sfld", tmp_path / "out.sfld"
        field.write_sfld(descent.default_init_phi((16, 16)), p_in)
        code = run_cli(["reinit", "--phi", str(p_in), "--iters", "-5",
                        "--out", str(p_out)])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "iters" in err[0]
        assert not p_out.exists()

    @pytest.mark.parametrize("huge", ["one_pixel", "signs"])
    def test_reinit_overflow_is_one_numerical_abort(self, tmp_path, capsys, huge):
        phi = descent.default_init_phi((16, 16))
        if huge == "one_pixel":
            phi[3, 3] = 1e200
        else:
            phi = np.where(phi < 0, -1e200, 1e200)
        p_in, p_out = tmp_path / "in.sfld", tmp_path / "out.sfld"
        field.write_sfld(phi, p_in)
        code = run_cli(["reinit", "--phi", str(p_in), "--iters", "5", "--out", str(p_out)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["numerical abort: non-finite re-initialized field"]
        assert captured.out == "" and not p_out.exists()

    def test_numerical_abort_code(self, tmp_path, monkeypatch, capsys):
        scene, _ = write_scene(tmp_path)
        img_p = tmp_path / "img.pgm"
        run_cli(["synth", "--spec", str(scene), "--out-image", str(img_p),
                 "--out-truth", str(tmp_path / "t.pgm")])

        def boom(*a, **k):
            raise descent.NumericalAbort("induced")

        monkeypatch.setattr(descent, "segment", boom)
        code = run_cli(["segment", "--image", str(img_p),
                        "--config", str(write_config(tmp_path)),
                        "--out-dir", str(tmp_path / "o")])
        assert code == 3
        assert "numerical abort" in capsys.readouterr().err

    def test_version(self, capsys):
        assert run_cli(["--version"]) == 0
        assert cli.__version__ in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["synth", "build-model", "segment", "energy", "reinit"])
    def test_subcommand_help(self, command, capsys):
        assert run_cli([command, "--help"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(f"usage: shapeseg {command} ")
        assert captured.err == ""

    def test_module_run_is_warning_free(self):
        # importing the package must not import shapeseg.cli ahead of runpy
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "shapeseg.cli", "--version"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0
        assert proc.stdout == "0.1.0\n"
        assert proc.stderr == ""


def _config_extremes():
    """(command, key, value, with_model) for every float key of the run config."""
    keys = [f.name for cls in (EnergyWeights, DescentConfig) for f in fields(cls)
            if f.type is float]
    return [(command, key, value, with_model) for key in keys
            for value in ("1e308", "5e-324") for command in ("segment", "energy")
            for with_model in (False, True)]


# one line of each scene key and kind; a later key overrides the base scene's
_SCENE_LINES = ["fg=200", "bg=50", "noise_std=3", "shape=disk,15.5,15.5,8",
                "shape=ellipse,15.5,15.5,8,5,0.3", "shape=halfplane,1,0.5,16",
                "occlusion=arc,0,1", "occlusion=box,4,4,10,10"]


def _scene_extremes():
    """Scene lines with each numeric parameter, in turn, at +-1e308 and 1e-300."""
    out = []
    for line in _SCENE_LINES:
        key, text = line.split("=")
        parts = text.split(",")
        for i in range(1 if key in ("shape", "occlusion") else 0, len(parts)):
            for value in ("1e308", "-1e308", "1e-300"):
                edited = ",".join([*parts[:i], value, *parts[i + 1:]])
                out.append(f"{key}={edited}")
    return out


class TestExtremeValues:
    """Every numeric input at the ends of the float range: one line and a known code.

    pyproject's filterwarnings turns a leaked NumPy warning into an exception,
    so a warning fails these as a traceback would.
    """

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("extremes")
        spec = synth.SceneSpec(width=16, height=16, shape=("disk", 7.5, 7.5, 4.0),
                               noise_std=5.0)
        image, _ = synth.render(spec)
        io.write_pgm(image, d / "img.pgm")
        field.write_sfld(descent.default_init_phi((16, 16)), d / "phi.sfld")
        masks = [synth.truth_mask(replace(spec, shape=("disk", 7.5, 7.5, r))) for r in (3.0, 4.0, 5.0)]
        model = shape_prior.build_shape_model([shape_prior.sdf_from_mask(m) for m in masks], p=2)
        shape_prior.write_smdl(model, d / "m.smdl")
        return d

    def _check(self, capsys, argv):
        capsys.readouterr()
        code = run_cli(argv)
        err = capsys.readouterr().err.splitlines()
        assert code in (0, 2, 3) and len(err) <= 1, (code, err)

    @pytest.mark.parametrize("command, key, value, with_model", _config_extremes())
    def test_config(self, inputs, tmp_path, capsys, command, key, value, with_model):
        cfg_p = write_config(tmp_path, cfg=DescentConfig(max_iters=2))
        cfg_p.write_text(cfg_p.read_text() + f"{key}={value}\n")
        argv = [command, "--image", str(inputs / "img.pgm"), "--config", str(cfg_p)]
        argv += ["--model", str(inputs / "m.smdl")] if with_model else []
        argv += {"segment": ["--out-dir", str(tmp_path / "run")],
                 "energy": ["--phi", str(inputs / "phi.sfld")]}[command]
        self._check(capsys, argv)

    @pytest.mark.parametrize("line", _scene_extremes())
    def test_scene(self, tmp_path, capsys, line):
        spec = tmp_path / "scene.txt"
        spec.write_text(f"width=32\nheight=32\nshape=disk,15.5,15.5,8\nnoise_std=3\n{line}\n")
        self._check(capsys, ["synth", "--spec", str(spec), "--out-image",
                             str(tmp_path / "img.pgm"), "--out-truth", str(tmp_path / "t.pgm")])
