import json
import math

import numpy as np
import pytest

from conftest import make_digit_corpus
from nlpca.cli import main
from nlpca.datasets import (
    export_matrix_csv,
    import_matrix_csv,
    load_checkpoint,
    write_idx_images,
    write_idx_labels,
)
from nlpca.gibbs import FRAME_KERNEL, LATENT_UPDATE

SPHERE_FAST = ["--sweeps", "40", "--burn-in", "20", "--thin", "2", "--n", "30"]


def read_summary(out_dir):
    return json.loads((out_dir / "summary.json").read_text())


def write_digit_files(tmp_path, rng, per_class=60):
    images, labels = make_digit_corpus(rng, per_class)
    img_path = tmp_path / "train-images.idx3-ubyte"
    lbl_path = tmp_path / "train-labels.idx1-ubyte"
    write_idx_images(img_path, images, 28, 28)
    write_idx_labels(lbl_path, labels)
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
        code = main(
            ["sphere-demo", "--sweeps", "10", "--burn-in", "20", "--out", str(out)]
        )
        assert code == 1
        assert not out.exists()

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NLPCA_SEED", "77")
        out = tmp_path / "env"
        assert main(["sphere-demo", *SPHERE_FAST, "--out", str(out)]) == 0
        assert read_summary(out)["seed"] == 77

    def test_bad_env_seed_is_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NLPCA_SEED", "not-a-number")
        out = tmp_path / "bad"
        assert main(["sphere-demo", *SPHERE_FAST, "--out", str(out)]) == 1
        assert not out.exists()


class TestDigitsDemo:
    @pytest.fixture(scope="class")
    def digit_files(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("idx")
        return write_digit_files(tmp, np.random.default_rng(123))

    def test_latent_csv_and_counts(self, tmp_path, digit_files):
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
        assert doc["reference_pca_mismatch"] == 53
        assert doc["reference_model_mismatch"] == 25
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

    def test_dim_out_of_range_fails_before_output(self, tmp_path):
        rng = np.random.default_rng(1)
        path = self.make_input(tmp_path, rng, n=4, p=3)
        out = tmp_path / "out"
        code = main(["fit", str(path), "--dim", "4", "--out", str(out)])
        assert code == 1
        assert not out.exists()

    def test_parse_error_reports_line(self, tmp_path, capsys):
        path = tmp_path / "broken.csv"
        path.write_text("x_1,x_2\n1.0,2.0\noops,4.0\n")
        code = main(["fit", str(path), "--dim", "1", "--out", str(tmp_path / "out")])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

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
        code = main(["fit", str(path), "--dim", "1", flag, "inf", "--out", str(out)])
        assert code == 1
        assert not out.exists()

    def fit_half_chain(self, tmp_path, path):
        half = tmp_path / "half"
        assert main(
            ["fit", str(path), "--dim", "2", "--sweeps", "6", "--burn-in", "2",
             "--seed", "3", "--out", str(half)]
        ) == 0
        return half / "checkpoint.json"

    @pytest.mark.parametrize("corruption", ["frame_scaled", "nan_latent", "negative_sigma2"])
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
        else:
            doc["sigma2"] = -1.0
        checkpoint.write_text(json.dumps(doc))
        out = tmp_path / "resumed"
        code = main(
            ["fit", str(path), "--dim", "2", "--sweeps", "12", "--burn-in", "2",
             "--resume", str(checkpoint), "--out", str(out)]
        )
        assert code == 2
        assert "checkpoint" in capsys.readouterr().err
        assert not out.exists()

    def test_resume_with_different_c_is_refused(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        path = self.make_input(tmp_path, rng, n=8, p=4)
        checkpoint = self.fit_half_chain(tmp_path, path)
        out = tmp_path / "resumed"
        code = main(
            ["fit", str(path), "--dim", "2", "--sweeps", "12", "--burn-in", "2",
             "--c", "0.5", "--resume", str(checkpoint), "--out", str(out)]
        )
        assert code == 1
        assert "--c" in capsys.readouterr().err
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


class TestVmfDiag:
    def test_zero_kappa_full_acceptance(self, capsys):
        code = main(["vmf-diag", "--p", "2", "--d-frame", "1", "--kappa", "0",
                     "--samples", "500", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "acceptance_rate: 1.000000" in out
        assert "fallback_engaged: False" in out

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

    def test_huge_kappa_reports_fallback(self, capsys):
        code = main(["vmf-diag", "--p", "2", "--d-frame", "1", "--kappa", "200",
                     "--samples", "200", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fallback_engaged: True" in out
        assert "fallback_fraction: 1.000000" in out

    def test_invalid_dimensions(self):
        assert main(["vmf-diag", "--p", "1", "--kappa", "1"]) == 1
        assert main(["vmf-diag", "--p", "3", "--d-frame", "4", "--kappa", "1"]) == 1


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert main([]) == 1

    def test_unknown_flag_is_usage_error(self):
        assert main(["sphere-demo", "--does-not-exist"]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
