import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import special

from conftest import make_digit_corpus
import nlpca.cli
import nlpca.gibbs
import nlpca.mrf
import nlpca.pca
import nlpca.stiefel
import nlpca.vmf
from nlpca.cli import main
from nlpca.datasets import (
    export_matrix_csv,
    import_matrix_csv,
    write_idx,
)
from nlpca.gibbs import FRAME_KERNEL, LATENT_UPDATE

SPHERE_FAST = ["--sweeps", "40", "--burn-in", "20", "--thin", "2", "--n", "30"]
TINY_CHAIN = ["--sweeps", "3", "--burn-in", "1", "--thin", "1", "--seed", "1"]
SRC = Path(__file__).resolve().parents[1] / "src"


def read_summary(out_dir):
    return json.loads((out_dir / "summary.json").read_text())


def write_digit_files(tmp_path, rng, per_class=60):
    images, labels = make_digit_corpus(rng, per_class)
    img_path = tmp_path / "train-images.idx3-ubyte"
    lbl_path = tmp_path / "train-labels.idx1-ubyte"
    write_idx(img_path, images.reshape(-1, 28, 28))
    write_idx(lbl_path, labels)
    return img_path, lbl_path


class TestSphereDemo:
    def test_emits_all_artifacts(self, tmp_path):
        out = tmp_path / "out"
        code = main(["sphere-demo", *SPHERE_FAST, "--seed", "1", "--out", str(out)])
        assert code == 0
        for name in (
            "raw_points.csv",
            "reconstructions.csv",
            "hist_data_to_sphere.csv",
            "hist_recon_to_sphere.csv",
            "hist_recon_errors.csv",
            "trace.csv",
            "summary.json",
        ):
            assert (out / name).exists(), name
        doc = read_summary(out)
        assert doc["n"] == 30
        assert doc["seed"] == 1
        assert doc["pca_total_sq_error"] == pytest.approx(
            doc["pca_total_sq_error_analytic"], rel=1e-8
        )
        raw, _ = import_matrix_csv(out / "raw_points.csv")
        assert raw.shape == (30, 3)
        trace_lines = (out / "trace.csv").read_text().splitlines()
        assert len(trace_lines) == 41  # header + one row per sweep

    def test_seed_determinism_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["sphere-demo", *SPHERE_FAST, "--seed", "9", "--out", str(out)]) == 0
            outs.append(out)
        for f in sorted(p.name for p in outs[0].iterdir()):
            assert (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes(), f

    def test_different_seeds_differ(self, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        main(["sphere-demo", *SPHERE_FAST, "--seed", "1", "--out", str(out1)])
        main(["sphere-demo", *SPHERE_FAST, "--seed", "2", "--out", str(out2)])
        assert (out1 / "raw_points.csv").read_bytes() != (out2 / "raw_points.csv").read_bytes()

    def test_invalid_chain_flags_fail_before_output(self, tmp_path):
        out = tmp_path / "never"
        for flags in (
            ["--sweeps", "10", "--burn-in", "20"],
            ["--noise", "nan"],
            ["--noise", "inf"],
            ["--noise", "-0.1"],
            ["--noise", "1e200"],
            ["--seed", "-1"],
        ):
            assert main(["sphere-demo", *flags, "--out", str(out)]) == 1, flags
            assert not out.exists()

    def test_histograms_cover_their_values(self, tmp_path):
        out = tmp_path / "out"
        assert main(["sphere-demo", *SPHERE_FAST, "--seed", "3", "--out", str(out)]) == 0
        sphere_distances = {
            "hist_data_to_sphere.csv": "raw_points.csv",
            "hist_recon_to_sphere.csv": "reconstructions.csv",
        }
        for name in (*sphere_distances, "hist_recon_errors.csv"):
            table, _ = import_matrix_csv(out / name)
            left, right, counts = table.T
            assert table.shape == (20, 3), name
            assert counts.sum() == 30, name
            assert np.all(left < right) and np.array_equal(left[1:], right[:-1]), name
            if name in sphere_distances:
                points, _ = import_matrix_csv(out / sphere_distances[name])
                dist = np.abs(np.linalg.norm(points, axis=1) - 1.0)
                assert (left[0], right[-1]) == (dist.min(), dist.max()), name

    def test_square_frame_refused_before_output(self, tmp_path, capsys):
        out = tmp_path / "never"
        assert main(["sphere-demo", "--n", "30", "--dim", "3", *TINY_CHAIN,
                     "--out", str(out)]) == 1
        assert "p = 3" in capsys.readouterr().err
        assert not out.exists()

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NLPCA_SEED", "77")
        out = tmp_path / "env"
        assert main(["sphere-demo", *SPHERE_FAST, "--out", str(out)]) == 0
        assert read_summary(out)["seed"] == 77

    def test_bad_env_seed_is_usage_error(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "bad"
        for value in ("not-a-number", "-5"):
            monkeypatch.setenv("NLPCA_SEED", value)
            assert main(["sphere-demo", *SPHERE_FAST, "--out", str(out)]) == 1, value
            assert "NLPCA_SEED" in capsys.readouterr().err, value
            assert not out.exists()

    def test_out_naming_a_file_is_io_error(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("keep me\n")
        assert main(["sphere-demo", *SPHERE_FAST, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("nlpca: I/O error")
        assert out.read_text() == "keep me\n"

    def test_failure_inside_the_chain_is_numerical(self, tmp_path, monkeypatch, capsys):
        # run looks sweep up once per sweep, so the patch reaches the chain.
        def lose_orthonormality(*args):
            raise ArithmeticError("orthonormality lost during sweep")

        monkeypatch.setattr(nlpca.gibbs, "sweep", lose_orthonormality)
        out = tmp_path / "out"
        assert main(["sphere-demo", *SPHERE_FAST, "--out", str(out)]) == 3
        assert "numerical failure" in capsys.readouterr().err


class TestDigitsDemo:
    @pytest.fixture(scope="class")
    def digit_files(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("idx")
        return write_digit_files(tmp, np.random.default_rng(123))

    def test_latent_csv_and_counts(self, tmp_path, digit_files, capsys):
        img, lbl = digit_files
        out = tmp_path / "out"
        code = main(
            [
                "digits-demo",
                "--images", str(img),
                "--labels", str(lbl),
                "--sweeps", "30",
                "--burn-in", "10",
                "--thin", "2",
                "--seed", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        for name in ("pca_latents.csv", "model_latents.csv", "trace.csv", "summary.json"):
            assert (out / name).exists(), name
        lines = (out / "model_latents.csv").read_text().splitlines()
        assert lines[0] == "latent_1,latent_2,label"
        assert len(lines) == 151
        matrix, labels = import_matrix_csv(out / "model_latents.csv")
        assert matrix.shape == (150, 2)
        assert sorted(set(labels.tolist())) == [1, 2, 3]
        for cls in (1, 2, 3):
            assert int(np.sum(labels == cls)) == 50
        doc = read_summary(out)
        assert doc["mnist_paper_pca_mismatch"] == 53
        assert doc["mnist_paper_model_mismatch"] == 25
        assert "reference_pca_mismatch" not in doc
        assert "(the paper's MNIST values: model 25 vs PCA 53)" in capsys.readouterr().out
        assert 0 <= doc["model_nn_mismatch"] <= 150
        assert 0 <= doc["pca_nn_mismatch"] <= 150

    def test_same_seed_same_counts(self, tmp_path, digit_files):
        img, lbl = digit_files
        docs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            code = main(
                [
                    "digits-demo",
                    "--images", str(img),
                    "--labels", str(lbl),
                    "--sweeps", "12",
                    "--burn-in", "6",
                    "--seed", "5",
                    "--out", str(out),
                ]
            )
            assert code == 0
            docs.append(read_summary(out))
        assert docs[0] == docs[1]

    def test_missing_file_is_io_error(self, tmp_path):
        code = main(
            [
                "digits-demo",
                "--images", str(tmp_path / "nope.idx"),
                "--labels", str(tmp_path / "nope2.idx"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert not (tmp_path / "out").exists()

    def test_corrupt_file_is_io_error(self, tmp_path):
        img = tmp_path / "bad.idx"
        img.write_bytes(b"\x00\x00\x08\x01" + b"\x00" * 64)  # label magic
        lbl = tmp_path / "bad-labels.idx"
        lbl.write_bytes(b"\x00\x00\x08\x01\x00\x00\x00\x00")
        code = main(
            ["digits-demo", "--images", str(img), "--labels", str(lbl),
             "--out", str(tmp_path / "out")]
        )
        assert code == 2
        assert not (tmp_path / "out").exists()

    def test_too_few_digits_is_input_error_before_output(self, tmp_path, capsys):
        img, lbl = write_digit_files(tmp_path, np.random.default_rng(4), per_class=10)
        out = tmp_path / "out"
        code = main(["digits-demo", "--images", str(img), "--labels", str(lbl),
                     "--out", str(out)])
        assert code == 2
        assert "only 10 instances" in capsys.readouterr().err
        assert not out.exists()

    def test_label_outside_digits_is_input_error_before_output(self, tmp_path, capsys):
        images, labels = make_digit_corpus(np.random.default_rng(4), 50)
        labels[0] = 11
        img = tmp_path / "images.idx3-ubyte"
        lbl = tmp_path / "labels.idx1-ubyte"
        write_idx(img, images.reshape(-1, 28, 28))
        write_idx(lbl, labels)
        out = tmp_path / "out"
        code = main(["digits-demo", "--images", str(img), "--labels", str(lbl),
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "digits 0-9" in err
        assert str(lbl) in err
        assert not out.exists()

    @pytest.mark.parametrize("rows, cols", [(20, 20), (28, 14)])
    def test_irreducible_image_size_is_usage_error_before_output(
        self, tmp_path, capsys, rows, cols
    ):
        img, lbl = tmp_path / "images.idx3-ubyte", tmp_path / "labels.idx1-ubyte"
        write_idx(img, np.zeros((150, rows, cols), dtype=np.uint8))
        write_idx(lbl, np.repeat(np.array([1, 2, 3], dtype=np.uint8), 50))
        out = tmp_path / "out"
        code = main(["digits-demo", "--images", str(img), "--labels", str(lbl),
                     "--out", str(out)])
        assert code == 1
        assert "not reducible to 14x14" in capsys.readouterr().err
        assert not out.exists()

    def test_mean_pooling_run(self, tmp_path, digit_files):
        img, lbl = digit_files
        out = tmp_path / "out"
        code = main(["digits-demo", "--images", str(img), "--labels", str(lbl),
                     "--pool", "mean", *TINY_CHAIN, "--out", str(out)])
        assert code == 0
        assert read_summary(out)["pool"] == "mean"


class TestFit:
    def make_input(self, tmp_path, rng, n=6, p=3, labels=False):
        matrix = rng.standard_normal((n, p))
        path = tmp_path / "input.csv"
        export_matrix_csv(
            path, matrix, labels=rng.integers(0, 2, n) if labels else None, prefix="x"
        )
        return path

    def test_small_fit_completes_quickly(self, tmp_path):
        import time

        rng = np.random.default_rng(0)
        path = self.make_input(tmp_path, rng, n=4, p=3)
        out = tmp_path / "out"
        t0 = time.perf_counter()
        code = main(
            ["fit", str(path), "--dim", "1", "--sweeps", "50", "--burn-in", "25",
             "--seed", "2", "--out", str(out)]
        )
        elapsed = time.perf_counter() - t0
        assert code == 0
        assert elapsed < 5.0
        for name in ("mean_latents.csv", "trace.csv", "checkpoint.json", "summary.json"):
            assert (out / name).exists(), name
        latents, _ = import_matrix_csv(out / "mean_latents.csv")
        assert latents.shape == (4, 1)

    @pytest.mark.parametrize("scale", [1e-160, 1e-165])
    def test_tiny_scale_data_fit(self, tmp_path, scale):
        # At 1e-165 the latents' squared distances underflow to zero, which
        # read as identical points before default_bandwidth scaled them.
        rng = np.random.default_rng(9)
        path = tmp_path / "input.csv"
        export_matrix_csv(path, scale * rng.standard_normal((30, 5)), prefix="x")
        code = main(
            ["fit", str(path), "--dim", "2", "--sweeps", "4", "--burn-in", "2",
             "--seed", "1", "--out", str(tmp_path / "out")]
        )
        assert code == 0

    @pytest.mark.parametrize("rows, flags", [
        ([[k * 1e150 - 3.5e150, 0.0] for k in range(1, 7)], ["--dim", "1", "--sweeps", "3"]),
        ([[k * 1e100] + [0.0] * 5 for k in range(40)], ["--sweeps", "4"]),
    ], ids=["line_1e150", "line_1e100"])
    def test_noise_free_large_scale_data_fit(self, tmp_path, rows, flags):
        # PCA leaves no residual here, so tau^2 and sigma^2 sit at their floors,
        # which scale with the data: an absolute floor let y x^T / sigma^2 overflow.
        path = tmp_path / "input.csv"
        export_matrix_csv(path, np.array(rows), prefix="x")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["fit", str(path), *flags, "--burn-in", "1", "--thin", "1",
                         "--out", str(out)])
        assert code == 0
        trace = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)
        assert trace.shape == (int(flags[-1]), 3) and np.all(np.isfinite(trace))

    @pytest.mark.parametrize("offset", [3e8, 1e10])
    def test_large_offset_data_fit(self, tmp_path, offset):
        # Centring such data leaves column means far above any absolute
        # tolerance; they are still centred relative to the data's size.
        rng = np.random.default_rng(8)
        path = tmp_path / "input.csv"
        export_matrix_csv(path, offset + rng.standard_normal((50, 3)), prefix="x")
        code = main(
            ["fit", str(path), "--dim", "2", "--sweeps", "4", "--burn-in", "2",
             "--seed", "1", "--out", str(tmp_path / "out")]
        )
        assert code == 0

    def test_dim_out_of_range_fails_before_output(self, tmp_path):
        rng = np.random.default_rng(1)
        path = self.make_input(tmp_path, rng, n=4, p=3)
        out = tmp_path / "out"
        code = main(["fit", str(path), "--dim", "4", "--out", str(out)])
        assert code == 1
        assert not out.exists()

    @pytest.mark.parametrize("p", [5, 1])
    def test_square_frame_refused_before_output(self, tmp_path, capsys, p):
        path = self.make_input(tmp_path, np.random.default_rng(2), n=30, p=p)
        out = tmp_path / "out"
        code = main(["fit", str(path), "--dim", str(p), *TINY_CHAIN, "--out", str(out)])
        assert code == 1
        assert f"p = {p}" in capsys.readouterr().err
        assert not out.exists()

    def test_parse_error_reports_line(self, tmp_path, capsys):
        path = tmp_path / "broken.csv"
        path.write_text("x_1,x_2\n1.0,2.0\noops,4.0\n")
        code = main(["fit", str(path), "--dim", "1", "--out", str(tmp_path / "out")])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    def test_label_beyond_int64_is_input_error_before_output(self, tmp_path, capsys):
        path = tmp_path / "labelled.csv"
        path.write_text("x_1,x_2,x_3,label\n1.0,2.0,3.0,1\n4.0,5.0,7.0,{}\n".format(10**30))
        out = tmp_path / "out"
        code = main(["fit", str(path), "--dim", "1", *TINY_CHAIN, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(path) in err and "line 3" in err
        assert not out.exists()

    def test_blank_lines_after_header_fit_as_without(self, tmp_path):
        path = self.make_input(tmp_path, np.random.default_rng(8), n=20, p=4)
        head, *rows = path.read_text().splitlines(keepends=True)
        blank = tmp_path / "blank.csv"
        blank.write_text(head + "".join(rows[:10]) + "\n" + "".join(rows[10:]) + "\n")
        checkpoints = []
        for name in (path, blank):
            out = tmp_path / f"out-{name.stem}"
            assert main(["fit", str(name), "--dim", "1", *TINY_CHAIN, "--out", str(out)]) == 0
            checkpoints.append((out / "checkpoint.json").read_bytes())
        assert checkpoints[0] == checkpoints[1]
        # A header followed only by blank lines holds no data.
        only = tmp_path / "only.csv"
        only.write_text(head + "\n\n")
        out = tmp_path / "never"
        assert main(["fit", str(only), "--dim", "1", *TINY_CHAIN, "--out", str(out)]) == 2
        assert not out.exists()

    def test_headerless_csv_is_input_error_before_output(self, tmp_path, capsys):
        # np.savetxt writes no header: its first row must not be taken for one,
        # also behind the byte-order mark that Excel's "CSV UTF-8" writes.
        rows = np.random.default_rng(9).standard_normal((30, 4))
        for encoding in ("ascii", "utf-8-sig"):
            path = tmp_path / f"plain-{encoding}.csv"
            np.savetxt(path, rows, delimiter=",", encoding=encoding)
            out = tmp_path / f"out-{encoding}"
            code = main(["fit", str(path), *TINY_CHAIN, "--out", str(out)])
            assert code == 2, encoding
            assert "line 1" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("value", [0.0, 0.1, 3.0])
    @pytest.mark.parametrize("extra", [[], ["--w", "1"], ["--w", "1", "--a2", "inf"]],
                             ids=["defaults", "w1", "w1-a2inf"])
    def test_data_without_variation_is_input_error_before_output(
        self, tmp_path, capsys, value, extra
    ):
        # Identical rows centre to identical (at 0.1, not exactly zero) rows.
        path = tmp_path / "flat.csv"
        export_matrix_csv(path, np.full((30, 5), value), prefix="x")
        out = tmp_path / "out"
        code = main(["fit", str(path), *TINY_CHAIN, *extra, "--out", str(out)])
        assert code == 2
        assert "do not vary" in capsys.readouterr().err
        assert not out.exists()

    def test_one_row_is_input_error_before_output(self, tmp_path, capsys):
        # One centred row is all zeros: a fault in the data, not in the flags.
        path = tmp_path / "one.csv"
        export_matrix_csv(path, np.array([[1.0, 2.0, 3.0]]), prefix="x")
        out = tmp_path / "out"
        code = main(["fit", str(path), "--dim", "1", *TINY_CHAIN, "--out", str(out)])
        assert code == 2
        assert "do not vary" in capsys.readouterr().err
        assert not out.exists()

    def test_bandwidth_small_against_data_scale_fits(self, tmp_path):
        # Squared latent distances of ~1e292 over 2 w^2 = 2e-16 overflow the
        # weights' exponent; its limit, -inf, gives the exact weight 0.
        path = tmp_path / "input.csv"
        export_matrix_csv(path, 1e146 * np.random.default_rng(9).standard_normal((30, 3)),
                          prefix="x")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["fit", str(path), "--dim", "1", "--w", "1e-8", *TINY_CHAIN,
                         "--out", str(out)])
        assert code == 0
        trace = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)
        assert trace.shape == (3, 3) and np.all(np.isfinite(trace))

    @pytest.mark.parametrize("scale, code", [(1e153, 0), (1e154, 2), (1e160, 2),
                                             pytest.param(None, 2, id="rows_8e153")])
    @pytest.mark.parametrize("extra", [[], ["--a2", "inf"]], ids=["defaults", "a2inf"])
    def test_data_too_large_to_square_is_input_error_before_output(
        self, tmp_path, capsys, scale, code, extra
    ):
        # The pilot tau^2 squares the residuals; above ~1e154 scale the sum
        # overflows, and the chain would fail only after --out exists.  The
        # rows (8e153, 1) and (-8e153, -1) square to a finite sum, 1.28e308,
        # but their squared distance, 2.56e308, overflows in the weights.
        path = tmp_path / "large.csv"
        if scale is None:
            matrix, dim = np.array([[8e153, 1.0], [-8e153, -1.0]]), ["--dim", "1"]
        else:
            matrix, dim = scale * np.random.default_rng(9).standard_normal((30, 4)), []
        export_matrix_csv(path, matrix, prefix="x")
        out = tmp_path / "out"
        assert main(["fit", str(path), *TINY_CHAIN, *dim, *extra, "--out", str(out)]) == code
        if code:
            expected = "sum of squares" if scale else "squared distance between two rows"
            assert f"{expected} overflows" in capsys.readouterr().err
        assert out.exists() == (code == 0)

    @pytest.mark.parametrize("column, message", [
        ([1e308, 1e308, -1e308], "sum of squares overflows"),
        ([1.7e308, 1.7e308, -1.7e308], "centring them overflows"),
    ])
    def test_column_sum_beyond_float_range_is_input_error_before_output(
        self, tmp_path, capsys, column, message
    ):
        # Finite data whose column sum overflows: the means are taken without
        # overflow, and the pilot or the centring refuses the data.
        path = tmp_path / "huge.csv"
        export_matrix_csv(path, np.column_stack([column, [1.0, 2.0, 3.0]]), prefix="x")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["fit", str(path), *TINY_CHAIN, "--dim", "1", "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("c, code", [("1e152", 0), ("3.4e152", 0), ("3.5e152", 1),
                                         ("1e153", 1)])
    def test_coupling_beyond_overflow_bound_is_usage_error_before_output(
        self, tmp_path, capsys, c, code
    ):
        # The frame step squares column norms of up to (n - 1) c; n = 30 puts
        # the bound 1e154 / 29 between 3.4e152 and 3.5e152.
        path = self.make_input(tmp_path, np.random.default_rng(9), n=30, p=4)
        out = tmp_path / "out"
        assert main(["fit", str(path), *TINY_CHAIN, "--c", c, "--out", str(out)]) == code
        if code:
            assert "1e154" in capsys.readouterr().err
        assert out.exists() == (code == 0)

    def test_final_log_posterior_is_last_trace_value(self, tmp_path):
        path = self.make_input(tmp_path, np.random.default_rng(11), n=8, p=4)
        half, full = tmp_path / "half", tmp_path / "full"
        assert main(["fit", str(path), "--sweeps", "10", "--burn-in", "5", "--seed", "4",
                     "--out", str(half)]) == 0
        assert main(["fit", str(path), "--sweeps", "20", "--burn-in", "5",
                     "--resume", str(half / "checkpoint.json"), "--out", str(full)]) == 0
        for out in (half, full):
            last = (out / "trace.csv").read_text().splitlines()[-1].split(",")
            assert read_summary(out)["final_log_posterior"] == float(last[2])

    @pytest.mark.parametrize("text", ["auto", "inf", "Infinity", "1e400", "7.5"])
    def test_a2_spellings_in_summary(self, tmp_path, text):
        path = self.make_input(tmp_path, np.random.default_rng(12), n=8, p=4)
        out = tmp_path / "out"
        assert main(["fit", str(path), *TINY_CHAIN, "--a2", text, "--out", str(out)]) == 0
        pilot = float(nlpca.pca.center(import_matrix_csv(path)[0]).y.var(axis=0, ddof=1).mean())
        expected = {"auto": pilot, "7.5": 7.5}.get(text, "inf")
        assert read_summary(out)["a2"] == expected

    def test_resume_reproduces_unbroken_run(self, tmp_path):
        rng = np.random.default_rng(3)
        path = self.make_input(tmp_path, rng, n=8, p=4, labels=True)
        full_out = tmp_path / "full"
        assert main(
            ["fit", str(path), "--dim", "2", "--sweeps", "30", "--burn-in", "20",
             "--seed", "6", "--out", str(full_out)]
        ) == 0

        half_out = tmp_path / "half"
        assert main(
            ["fit", str(path), "--dim", "2", "--sweeps", "15", "--burn-in", "10",
             "--seed", "6", "--out", str(half_out)]
        ) == 0
        resumed_out = tmp_path / "resumed"
        assert main(
            ["fit", str(path), "--dim", "2", "--sweeps", "30", "--burn-in", "20",
             "--seed", "0", "--resume", str(half_out / "checkpoint.json"),
             "--out", str(resumed_out)]
        ) == 0

        # The final checkpoint must be bit-identical to the unbroken run's.
        assert (resumed_out / "checkpoint.json").read_bytes() == (
            full_out / "checkpoint.json"
        ).read_bytes()
        # The resumed trace must equal the tail of the unbroken trace.
        full_rows = (full_out / "trace.csv").read_text().splitlines()[1:]
        resumed_rows = (resumed_out / "trace.csv").read_text().splitlines()[1:]
        assert resumed_rows == full_rows[15:]
        # The resumed run counts only its own 15 sweeps, and keeps the same
        # sweeps as the unbroken run: t = 20 and 25 at the default --thin 5.
        resumed, full = read_summary(resumed_out), read_summary(full_out)
        assert resumed["total_draws"] == 8 * 15
        assert resumed["kept_sweeps"] == full["kept_sweeps"] == 2
        assert resumed["final_log_posterior"] == full["final_log_posterior"]

    def test_resume_keeping_no_sweep_is_usage_error_before_output(self, tmp_path, capsys):
        rng = np.random.default_rng(10)
        path = self.make_input(tmp_path, rng)
        first = tmp_path / "first"
        assert main(["fit", str(path), "--sweeps", "10", "--burn-in", "5", "--thin", "100",
                     "--out", str(first)]) == 0
        out = tmp_path / "out"
        # The checkpoint's counter is 10: --sweeps 20 keeps only sweep 5, which
        # it has passed, and --sweeps 10 and 8 leave it no sweep to run.
        for sweeps in ("20", "10", "8"):
            code = main(["fit", str(path), "--sweeps", sweeps, "--burn-in", "5",
                         "--thin", "100", "--resume", str(first / "checkpoint.json"),
                         "--out", str(out)])
            assert code == 1
            err = capsys.readouterr().err
            assert all(flag in err for flag in ("--sweeps", "--burn-in", "--thin"))
            assert not out.exists()

    def test_resume_shape_mismatch_is_usage_error(self, tmp_path):
        rng = np.random.default_rng(4)
        path = self.make_input(tmp_path, rng, n=8, p=4)
        out1 = tmp_path / "o1"
        assert main(
            ["fit", str(path), "--dim", "2", "--sweeps", "10", "--burn-in", "5",
             "--seed", "1", "--out", str(out1)]
        ) == 0
        code = main(
            ["fit", str(path), "--dim", "1", "--sweeps", "20", "--burn-in", "5",
             "--resume", str(out1 / "checkpoint.json"), "--out", str(tmp_path / "o2")]
        )
        assert code == 1

    def test_missing_input_is_io_error(self, tmp_path):
        code = main(["fit", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_nan_input_is_io_error_before_output(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        path.write_text("x_1,x_2\n1.0,2.0\nnan,4.0\n0.5,0.1\n")
        out = tmp_path / "out"
        code = main(["fit", str(path), "--dim", "1", "--out", str(out)])
        assert code == 2
        assert "line 3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--c", "--w"])
    def test_non_finite_coupling_is_usage_error(self, tmp_path, flag):
        rng = np.random.default_rng(5)
        path = self.make_input(tmp_path, rng)
        out = tmp_path / "out"
        # --w below the kernel-width floor is refused, not clamped.
        for value in ("inf", "1e-9") if flag == "--w" else ("inf",):
            code = main(["fit", str(path), "--dim", "1", flag, value, "--out", str(out)])
            assert code == 1, value
            assert not out.exists()

    def fit_half_chain(self, tmp_path, path):
        half = tmp_path / "half"
        assert main(
            ["fit", str(path), "--dim", "2", "--sweeps", "6", "--burn-in", "2",
             "--seed", "3", "--out", str(half)]
        ) == 0
        return half / "checkpoint.json"

    @pytest.mark.parametrize(
        "corruption",
        ["frame_scaled", "nan_latent", "negative_sigma2", "negative_seed", "negative_counter",
         "fractional_seed", "boolean_counter", "missing_eta", "sigma2_list", "null_sigma2",
         "string_sigma2", "string_latent", "transformations_object", "top_level_list",
         "negative_n", "boolean_latent", "wrong_n", "ragged_latent", "huge_int_latent",
         "huge_int_sigma2"],
    )
    def test_corrupt_checkpoint_is_input_error_before_output(
        self, tmp_path, capsys, corruption
    ):
        rng = np.random.default_rng(8)
        path = self.make_input(tmp_path, rng, n=8, p=4)
        checkpoint = self.fit_half_chain(tmp_path, path)
        doc = json.loads(checkpoint.read_text())
        if corruption == "frame_scaled":
            doc["transformations"][0] = [2.0 * v for v in doc["transformations"][0]]
        elif corruption == "nan_latent":
            doc["latents"][0][0] = math.nan
        elif corruption == "negative_sigma2":
            doc["sigma2"] = -1.0
        elif corruption == "fractional_seed":
            doc["seed"] = 3.9
        elif corruption == "boolean_counter":
            doc["counter"] = True
        elif corruption == "missing_eta":
            del doc["eta"]
        elif corruption == "sigma2_list":
            doc["sigma2"] = [doc["sigma2"]]
        elif corruption == "null_sigma2":
            doc["sigma2"] = None
        elif corruption == "string_sigma2":
            doc["sigma2"] = str(doc["sigma2"])
        elif corruption == "string_latent":
            doc["latents"][0][0] = str(doc["latents"][0][0])
        elif corruption == "transformations_object":
            doc["transformations"] = {"a": 1}
        elif corruption == "top_level_list":
            doc = [doc]
        elif corruption == "boolean_latent":
            doc["latents"][0][0] = True
        elif corruption == "wrong_n":
            doc["n"] -= 1
        elif corruption == "ragged_latent":
            doc["latents"][0].append(0.5)
        elif corruption == "huge_int_latent":
            doc["latents"][0][0] = 10**400
        elif corruption == "huge_int_sigma2":
            doc["sigma2"] = 10**400
        else:
            doc[corruption.removeprefix("negative_")] = -1
        checkpoint.write_text(json.dumps(doc))
        out = tmp_path / "resumed"
        code = main(
            ["fit", str(path), "--dim", "2", "--sweeps", "12", "--burn-in", "2",
             "--resume", str(checkpoint), "--out", str(out)]
        )
        assert code == 2
        assert str(checkpoint) in capsys.readouterr().err
        assert not out.exists()

    def test_resume_with_different_c_is_refused(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        path = self.make_input(tmp_path, rng, n=8, p=4)
        checkpoint = self.fit_half_chain(tmp_path, path)
        out = tmp_path / "resumed"
        for flag, value in (("--c", "0.5"), ("--w", "0.5"), ("--a2", "inf")):
            code = main(
                ["fit", str(path), "--dim", "2", "--sweeps", "12", "--burn-in", "2",
                 flag, value, "--resume", str(checkpoint), "--out", str(out)]
            )
            assert code == 1, flag
            err = capsys.readouterr().err
            assert flag in err and "differ" in err, flag
            assert not out.exists()

    def test_resume_with_different_data_is_refused(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        path = self.make_input(tmp_path, rng, n=8, p=4)
        checkpoint = self.fit_half_chain(tmp_path, path)
        other = tmp_path / "other.csv"
        export_matrix_csv(other, rng.standard_normal((8, 4)), prefix="x")
        out = tmp_path / "resumed"
        code = main(
            ["fit", str(other), "--dim", "2", "--sweeps", "12", "--burn-in", "2",
             "--resume", str(checkpoint), "--out", str(out)]
        )
        assert code == 1
        assert "input data" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", ["sphere-demo", "digits-demo", "fit"])
def test_chain_commands_share_summary_and_trace(tmp_path, command):
    rng = np.random.default_rng(8)
    if command == "sphere-demo":
        inputs, n = ["--n", "12"], 12
    elif command == "digits-demo":
        img, lbl = write_digit_files(tmp_path, rng)
        inputs, n = ["--images", str(img), "--labels", str(lbl)], 150
    else:
        path = tmp_path / "input.csv"
        export_matrix_csv(path, rng.standard_normal((9, 4)), prefix="x")
        inputs, n = [str(path)], 9
    out = tmp_path / "out"
    code = main(
        [command, *inputs, "--sweeps", "6", "--burn-in", "2", "--thin", "2",
         "--seed", "4", "--out", str(out)]
    )
    assert code == 0
    doc = read_summary(out)
    assert {
        "a2", "eta", "tau2", "c_strength", "bandwidth", "frame_kernel", "latent_update"
    } <= doc.keys()
    assert (doc["seed"], doc["d"], doc["sweeps"], doc["burn_in"], doc["thin"]) == (
        4, 2, 6, 2, 2
    )
    assert (doc["frame_kernel"], doc["latent_update"]) == (FRAME_KERNEL, LATENT_UPDATE)
    assert doc["kept_sweeps"] == 2
    assert doc["total_draws"] == n * 6
    rows = (out / "trace.csv").read_text().splitlines()
    assert rows[0] == "sweep,sigma2,log_posterior"
    assert [row.split(",")[0] for row in rows[1:]] == [str(t) for t in range(6)]
    if command == "fit":
        # The final values in summary.json are the last trace row's, bit for bit.
        _, sigma2, log_posterior = map(float, rows[-1].split(","))
        assert (doc["final_sigma2"], doc["final_log_posterior"]) == (sigma2, log_posterior)


def test_each_chain_command_fits_pca_once(tmp_path, monkeypatch):
    # The pilot study's hyperparameters, start state and PCA baseline all come
    # from one fit.  Every nlpca module that binds pca_fit gets the counting
    # wrapper, as the bench's tracer rebinds it.
    calls = []
    original = nlpca.pca.pca_fit

    def counting_fit(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("nlpca.") and getattr(module, "pca_fit", None) is original:
            monkeypatch.setattr(module, "pca_fit", counting_fit)
    img, lbl = write_digit_files(tmp_path, np.random.default_rng(11))
    csv_path = tmp_path / "input.csv"
    export_matrix_csv(csv_path, np.random.default_rng(12).standard_normal((9, 4)), prefix="x")
    commands = {
        "sphere-demo": ["sphere-demo", "--n", "12", "--sweeps", "3"],
        "digits-demo": ["digits-demo", "--images", str(img), "--labels", str(lbl),
                        "--sweeps", "3"],
        "fit": ["fit", str(csv_path), "--sweeps", "3"],
        "fit --resume": ["fit", str(csv_path), "--sweeps", "6",
                         "--resume", str(tmp_path / "fit" / "checkpoint.json")],
    }
    counts = {}
    for label, argv in commands.items():
        calls.clear()
        out = tmp_path / label.replace(" --", "-")
        assert main([*argv, "--burn-in", "1", "--thin", "1", "--seed", "1",
                     "--out", str(out)]) == 0, label
        counts[label] = len(calls)
    assert counts == dict.fromkeys(commands, 1)


def test_no_command_builds_validated_frames_or_weights(tmp_path, monkeypatch):
    # Every command holds its frames and its weights as plain arrays.  Each
    # nlpca module that binds polar_project or thin_svd gets the refusing
    # stand-in, as the bench's tracer rebinds them, and StiefelPoint and
    # InteractionWeights refuse construction.
    def refuse(*args, **kwargs):
        raise AssertionError("a command built a validated frame or weights record")

    monkeypatch.setattr(nlpca.stiefel.StiefelPoint, "__post_init__", refuse)
    monkeypatch.setattr(nlpca.mrf.InteractionWeights, "__post_init__", refuse)
    for original in (nlpca.stiefel.polar_project, nlpca.stiefel.thin_svd):
        for name, module in list(sys.modules.items()):
            if name == "nlpca" or name.startswith("nlpca."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, refuse)
    img, lbl = write_digit_files(tmp_path, np.random.default_rng(13))
    csv_path = tmp_path / "input.csv"
    export_matrix_csv(csv_path, np.random.default_rng(14).standard_normal((9, 4)), prefix="x")
    commands = {
        "sphere-demo": ["sphere-demo", "--n", "12", "--sweeps", "4"],
        "digits-demo": ["digits-demo", "--images", str(img), "--labels", str(lbl),
                        "--sweeps", "4"],
        "fit": ["fit", str(csv_path), "--sweeps", "4"],
        "fit --resume": ["fit", str(csv_path), "--sweeps", "8",
                         "--resume", str(tmp_path / "fit" / "checkpoint.json")],
    }
    for label, argv in commands.items():
        out = tmp_path / label.replace(" --", "-")
        assert main([*argv, "--burn-in", "1", "--thin", "2", "--seed", "1",
                     "--out", str(out)]) == 0, label
    assert main(["vmf-diag", "--p", "3", "--d-frame", "2", "--kappa", "2",
                 "--samples", "50", "--seed", "6"]) == 0


def diag_fields(out):
    return dict(line.split(": ") for line in out.strip().splitlines() if ": " in line)


class TestVmfDiag:
    @pytest.mark.parametrize(
        "kappa, samples, seed",
        [
            pytest.param("0", 500, 1, id="kappa0"),
            pytest.param("1e-6", 4000, 8, id="kappa1e-6"),
            pytest.param("3", 4000, 9, id="kappa3"),
            pytest.param("200", 200, 3, id="kappa200"),
            pytest.param("1e4", 4000, 10, id="kappa1e4"),
            pytest.param("1e6", 4000, 11, id="kappa1e6"),
            pytest.param("1e8", 2000, 4, id="kappa1e8"),
            pytest.param("1e15", 4000, 5, id="kappa1e15"),
            pytest.param("1e16", 200, 6, id="kappa1e16"),
            pytest.param("1e150", 4000, 7, id="kappa1e150"),
        ],
    )
    def test_kernel_matches_exact_mean_resultant(self, capsys, kappa, samples, seed):
        code = main(["vmf-diag", "--p", "2", "--d-frame", "1", "--kappa", kappa,
                     "--samples", str(samples), "--seed", str(seed)])
        assert code == 0
        fields = diag_fields(capsys.readouterr().out)
        assert fields["frame_kernel"] == FRAME_KERNEL == "column_gibbs_1pass_from_current"
        assert float(fields["z_score"]) <= 3.0

    def test_detects_kernel_drawing_at_half_kappa(self, capsys, monkeypatch):
        # At kappa = 1e16 the spread of x[0, 0] is below the spacing of doubles
        # near 1, so only a test on the gap 1 - x[0, 0] can see this bias.
        draw = nlpca.vmf._vmf_vector_draw
        monkeypatch.setattr(
            nlpca.vmf, "_vmf_vector_draw", lambda mu, kappa, rng: draw(mu, 0.5 * kappa, rng)
        )
        code = main(["vmf-diag", "--p", "2", "--d-frame", "1", "--kappa", "1e16",
                     "--samples", "4000", "--seed", "0"])
        assert code == 0
        assert float(diag_fields(capsys.readouterr().out)["z_score"]) > 5.0

    def test_detects_von_mises_angle_at_half_kappa(self, capsys, monkeypatch):
        # Inside the band the circle's angle is Generator.vonmises.  A
        # generator whose vonmises halves kappa, and nothing else, must show.
        class HalfKappa(np.random.Generator):
            def vonmises(self, mu, kappa, size=None):
                return super().vonmises(mu, 0.5 * kappa, size)

        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: HalfKappa(np.random.PCG64(seed)))
        code = main(["vmf-diag", "--p", "2", "--d-frame", "1", "--kappa", "100",
                     "--samples", "4000", "--seed", "0"])
        assert code == 0
        assert float(diag_fields(capsys.readouterr().out)["z_score"]) > 5.0

    @pytest.mark.parametrize("kappa", [0.0, 1e-8, 0.5, 2.0, 10.0, 100.0, 1e4, 1e5, 1e6])
    def test_oracle_matches_bessel_ratio(self, kappa):
        # Above kappa = 100 SciPy's own form cancels (off by up to 6e-11 at
        # 1e6 against 40-digit values), so the bound there is looser.
        i0 = special.i0e(kappa)
        expected = float((i0 - special.i1e(kappa)) / i0)
        rtol = 1e-14 if kappa <= 100 else 1e-9
        assert nlpca.cli._circle_mean_gap(kappa) == pytest.approx(expected, rel=rtol, abs=0)

    def test_oracle_rule_meets_series_at_switch(self):
        # The midpoint rule serves kappa <= 1e6 and the series the next double.
        rule = nlpca.cli._circle_mean_gap(1e6)
        series = nlpca.cli._circle_mean_gap(math.nextafter(1e6, math.inf))
        assert series == pytest.approx(rule, rel=1e-12, abs=0)

    def test_moderate_kappa_matches_quadrature(self, capsys):
        code = main(["vmf-diag", "--p", "2", "--d-frame", "1", "--kappa", "2",
                     "--samples", "10000", "--seed", "2"])
        assert code == 0
        out = capsys.readouterr().out
        fields = dict(
            line.split(": ") for line in out.strip().splitlines() if ": " in line
        )
        z = float(fields["z_score"])
        assert z <= 3.0

    @pytest.mark.parametrize("p, d, kappa", [(3, 2, "30"), (3, 2, "1e16")])
    def test_reports_lag1_autocorrelation(self, capsys, p, d, kappa):
        code = main(["vmf-diag", "--p", str(p), "--d-frame", str(d), "--kappa", kappa,
                     "--samples", "2000", "--seed", "5"])
        assert code == 0
        fields = diag_fields(capsys.readouterr().out)
        assert -1.0 < float(fields["lag1_autocorrelation"]) < 1.0
        assert "z_score" not in fields

    def test_never_calls_rejection_sampler(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("vmf-diag must run the chain's frame kernel")

        for target in ("nlpca.vmf.vmf_sample", "nlpca.vmf.vmf_sample_rejection",
                       "nlpca.cli.vmf_sample", "nlpca.cli.vmf_sample_rejection"):
            monkeypatch.setattr(target, refuse, raising=False)
        for p, d in ((2, 1), (3, 2)):
            assert main(["vmf-diag", "--p", str(p), "--d-frame", str(d), "--kappa", "2",
                         "--samples", "50", "--seed", "6"]) == 0

    def test_invalid_dimensions(self):
        assert main(["vmf-diag", "--p", "1", "--kappa", "1"]) == 1
        assert main(["vmf-diag", "--p", "3", "--d-frame", "4", "--kappa", "1"]) == 1
        assert main(["vmf-diag", "--p", "3", "--d-frame", "3", "--kappa", "1"]) == 1
        for kappa in ("nan", "inf", "-1"):
            assert main(["vmf-diag", "--p", "2", "--kappa", kappa]) == 1, kappa
        assert main(["vmf-diag", "--p", "2", "--kappa", "1", "--samples", "1"]) == 1

    def test_out_of_memory_is_numerical_failure(self):
        # 1e13 samples of two doubles are 146 TiB, beyond any user address
        # space, so the allocation fails at once.
        argv = ["vmf-diag", "--p", "2", "--kappa", "1", "--samples", "10000000000000"]
        proc = run_fresh("import sys; from nlpca.cli import main; sys.exit(main(sys.argv[1:]))",
                         *argv)
        assert proc.returncode == 3, proc.stderr
        assert "out of memory" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_kappa_beyond_overflow_limit_is_usage_error(self, capsys, monkeypatch):
        # Above 1e154 the frame step's squared column norm is infinite; the
        # flag is refused before the first pass.
        def refuse(*args, **kwargs):
            raise AssertionError("vmf-diag drew before refusing --kappa")

        monkeypatch.setattr(nlpca.cli, "column_gibbs_pass", refuse)
        for p, d in ((2, 1), (3, 2)):
            assert main(["vmf-diag", "--p", str(p), "--d-frame", str(d),
                         "--kappa", "1e200"]) == 1
            assert "1e154" in capsys.readouterr().err


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert main([]) == 1

    def test_unknown_flag_is_usage_error(self):
        assert main(["sphere-demo", "--does-not-exist"]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0


def run_fresh(script, *argv):
    """Run script in a new interpreter with the package under src on its
    path, so no module this test session has already imported can leak in."""
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
        )},
        capture_output=True,
        text=True,
        timeout=120,
    )


# Runs each command given as one JSON argv, then prints the scipy modules
# loaded in this interpreter.
_CLI_SCRIPT = """
import json, sys
import nlpca
from nlpca.cli import main
for argv in sys.argv[1:]:
    code = main(json.loads(argv))
    if code != 0:
        sys.exit(f"exit {code}: {argv}")
print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))
"""


class TestFreshInterpreter:
    """The suite's conftest imports scipy, so the checks that no command loads
    it need an interpreter of their own."""

    def test_chain_commands_load_no_scipy(self, tmp_path):
        img, lbl = write_digit_files(tmp_path, np.random.default_rng(5), per_class=50)
        csv_path = tmp_path / "data.csv"
        export_matrix_csv(csv_path, np.random.default_rng(6).standard_normal((12, 4)))
        commands = [
            ["sphere-demo", "--n", "20", *TINY_CHAIN, "--out", str(tmp_path / "s")],
            ["digits-demo", "--images", str(img), "--labels", str(lbl),
             *TINY_CHAIN, "--out", str(tmp_path / "d")],
            ["fit", str(csv_path), "--dim", "2", *TINY_CHAIN, "--out", str(tmp_path / "f")],
        ]
        proc = run_fresh(_CLI_SCRIPT, *(json.dumps(argv) for argv in commands))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == []

    def test_vmf_diag_oracle_loads_no_scipy(self):
        argv = ["vmf-diag", "--p", "2", "--d-frame", "1", "--kappa", "2",
                "--samples", "200", "--seed", "1"]
        proc = run_fresh(_CLI_SCRIPT, json.dumps(argv))
        assert proc.returncode == 0, proc.stderr
        assert "mean_resultant_exact: " in proc.stdout
        assert json.loads(proc.stdout.splitlines()[-1]) == []

    def test_vmf_diag_without_oracle_loads_no_scipy(self):
        argv = ["vmf-diag", "--p", "3", "--d-frame", "2", "--kappa", "2",
                "--samples", "200", "--seed", "1"]
        proc = run_fresh(_CLI_SCRIPT, json.dumps(argv))
        assert proc.returncode == 0, proc.stderr
        assert "lag1_autocorrelation: " in proc.stdout
        assert json.loads(proc.stdout.splitlines()[-1]) == []
