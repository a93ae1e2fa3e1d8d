import json
import math

import numpy as np
import pytest

from nlpca.datasets import (
    CheckpointData,
    IdxFormatError,
    RawImageSet,
    export_histogram_csv,
    export_matrix_csv,
    generate_sphere,
    import_matrix_csv,
    load_checkpoint,
    load_idx_images,
    load_idx_labels,
    load_image_set,
    save_checkpoint,
    select_digit_subset,
    subsample_images,
    to_dataset,
    write_idx_images,
    write_idx_labels,
)
from nlpca.metrics import histogram


def make_image_set(rng, n=30, rows=28, cols=28, classes=(1, 2, 3)):
    images = rng.integers(0, 256, size=(n, rows * cols), dtype=np.uint8)
    labels = rng.choice(classes, size=n)
    return RawImageSet(images=images, rows=rows, cols=cols, labels=labels)


class TestGenerateSphere:
    def test_noiseless_points_have_unit_norm(self):
        rng = np.random.default_rng(0)
        raw, _ = generate_sphere(200, 0.0, rng)
        assert np.max(np.abs(np.linalg.norm(raw, axis=1) - 1.0)) <= 1e-12

    def test_seed_reproducible(self):
        a, _ = generate_sphere(50, 0.05, np.random.default_rng(7))
        b, _ = generate_sphere(50, 0.05, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_mean_radial_deviation(self):
        # First-order radial noise is N(0, sigma^2): E|r - 1| = sigma
        # sqrt(2/pi), up to an O(sigma^2) tangential bias.
        rng = np.random.default_rng(1)
        sigma = 0.05
        n = 1_000_000
        raw, _ = generate_sphere(n, sigma, rng)
        mean_dev = np.abs(np.linalg.norm(raw, axis=1) - 1.0).mean()
        target = sigma * math.sqrt(2.0 / math.pi)
        se = sigma * math.sqrt((1.0 - 2.0 / math.pi) / n)
        assert abs(mean_dev - target) <= 3 * se + sigma**2

    def test_dataset_is_centered(self):
        rng = np.random.default_rng(2)
        raw, ds = generate_sphere(100, 0.05, rng)
        assert np.max(np.abs(ds.y.mean(axis=0))) <= 1e-12
        assert np.allclose(ds.y + ds.column_means, raw)

    def test_validates_arguments(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            generate_sphere(0, 0.1, rng)
        with pytest.raises(ValueError):
            generate_sphere(5, -0.1, rng)


class TestIdxRoundTrip:
    def test_images_round_trip_bytes(self, tmp_path):
        rng = np.random.default_rng(4)
        images = rng.integers(0, 256, size=(2, 28 * 28), dtype=np.uint8)
        path = tmp_path / "imgs.idx3-ubyte"
        write_idx_images(path, images, 28, 28)
        loaded, rows, cols = load_idx_images(path)
        assert (rows, cols) == (28, 28)
        assert np.array_equal(loaded, images)

    def test_labels_round_trip(self, tmp_path):
        labels = np.array([1, 2, 3, 9, 0], dtype=np.uint8)
        path = tmp_path / "labels.idx1-ubyte"
        write_idx_labels(path, labels)
        assert np.array_equal(load_idx_labels(path), labels)

    def test_label_magic_on_image_load(self, tmp_path):
        path = tmp_path / "mixed.idx"
        write_idx_labels(path, np.array([1, 2], dtype=np.uint8))
        with pytest.raises(IdxFormatError, match="wrong magic"):
            load_idx_images(path)

    def test_image_magic_on_label_load(self, tmp_path):
        path = tmp_path / "mixed.idx"
        write_idx_images(path, np.zeros((1, 4), dtype=np.uint8), 2, 2)
        with pytest.raises(IdxFormatError, match="wrong magic"):
            load_idx_labels(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "trunc.idx"
        write_idx_images(path, np.zeros((2, 9), dtype=np.uint8), 3, 3)
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(IdxFormatError, match="truncated"):
            load_idx_images(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "trail.idx"
        write_idx_images(path, np.zeros((2, 9), dtype=np.uint8), 3, 3)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(IdxFormatError, match="trailing"):
            load_idx_images(path)

    def test_header_fuzzing_rejected(self, tmp_path):
        # Any single-byte corruption of the 16-byte header must be rejected:
        # it changes the magic or makes the declared payload size wrong.
        rng = np.random.default_rng(5)
        path = tmp_path / "good.idx"
        write_idx_images(path, rng.integers(0, 256, (3, 25), dtype=np.uint8), 5, 5)
        good = bytearray(path.read_bytes())
        bad_path = tmp_path / "bad.idx"
        for offset in range(16):
            for _ in range(4):
                corrupted = bytearray(good)
                new_byte = int(rng.integers(0, 256))
                if new_byte == good[offset]:
                    new_byte = (new_byte + 1) % 256
                corrupted[offset] = new_byte
                bad_path.write_bytes(bytes(corrupted))
                with pytest.raises(IdxFormatError):
                    load_idx_images(bad_path)

    @pytest.mark.parametrize(
        "magic, fields, index, name",
        [
            (0x00000803, (1, 28, 28), 0, "count"),
            (0x00000803, (1, 28, 28), 1, "rows"),
            (0x00000803, (1, 28, 28), 2, "cols"),
            (0x00000801, (1,), 0, "count"),
        ],
        ids=["images-count", "images-rows", "images-cols", "labels-count"],
    )
    def test_dimension_overflow(self, tmp_path, magic, fields, index, name):
        import struct

        fields = list(fields)
        fields[index] = 0xFFFFFFFF
        path = tmp_path / "huge.idx"
        header = struct.pack(f">{1 + len(fields)}I", magic, *fields)
        path.write_bytes(header + b"\x00" * 100)
        load = load_idx_images if magic == 0x00000803 else load_idx_labels
        offset = 4 + 4 * index
        with pytest.raises(IdxFormatError, match=f"{name} 4294967295 at offset {offset} overflow"):
            load(path)

    def test_load_image_set_count_mismatch(self, tmp_path):
        rng = np.random.default_rng(6)
        write_idx_images(tmp_path / "i.idx", rng.integers(0, 256, (3, 4), dtype=np.uint8), 2, 2)
        write_idx_labels(tmp_path / "l.idx", np.array([1, 2], dtype=np.uint8))
        with pytest.raises(IdxFormatError, match="labels"):
            load_image_set(tmp_path / "i.idx", tmp_path / "l.idx")


class TestSubsample:
    def test_factor_one_identity(self):
        rng = np.random.default_rng(7)
        s = make_image_set(rng, n=4, rows=6, cols=6)
        out = subsample_images(s, 1)
        assert np.array_equal(out.images, s.images)

    def test_constant_image_stays_constant(self):
        s = RawImageSet(np.full((1, 16), 77, dtype=np.uint8), 4, 4, np.array([1]))
        out = subsample_images(s, 2)
        assert out.rows == out.cols == 2
        assert np.all(out.images == 77)

    def test_checkerboard_keeps_phase(self):
        grid = np.indices((4, 4)).sum(axis=0) % 2  # 0 at (0, 0)
        img = (grid * 255).astype(np.uint8).reshape(1, 16)
        s = RawImageSet(img, 4, 4, np.array([2]))
        out = subsample_images(s, 2)
        assert np.all(out.images == 0)  # kept phase is the (even, even) pixels

    def test_mnist_shape(self):
        rng = np.random.default_rng(8)
        s = make_image_set(rng, n=5, rows=28, cols=28)
        out = subsample_images(s, 2)
        assert (out.rows, out.cols) == (14, 14)
        assert out.images.shape == (5, 196)
        imgs = s.images.reshape(5, 28, 28)
        assert np.array_equal(out.images.reshape(5, 14, 14), imgs[:, ::2, ::2])

    def test_mean_pooling(self):
        img = np.arange(16, dtype=np.uint8).reshape(1, 16)
        s = RawImageSet(img, 4, 4, np.array([3]))
        out = subsample_images(s, 2, mode="mean")
        blocks = img.reshape(1, 2, 2, 2, 2).astype(float).mean(axis=(2, 4))
        assert np.array_equal(out.images.reshape(1, 2, 2), np.rint(blocks).astype(np.uint8))

    def test_non_divisible_factor(self):
        rng = np.random.default_rng(9)
        s = make_image_set(rng, n=2, rows=6, cols=6)
        with pytest.raises(ValueError):
            subsample_images(s, 4)


class TestSelectSubset:
    def test_counts_per_class(self):
        rng = np.random.default_rng(10)
        s = make_image_set(rng, n=400, rows=4, cols=4, classes=(1, 2, 3, 7))
        out = select_digit_subset(s, [1, 2, 3], 50, np.random.default_rng(0))
        assert out.n == 150
        for cls in (1, 2, 3):
            assert int(np.sum(out.labels == cls)) == 50

    def test_zero_per_class(self):
        rng = np.random.default_rng(11)
        s = make_image_set(rng, n=20, rows=4, cols=4)
        out = select_digit_subset(s, [1, 2], 0, np.random.default_rng(0))
        assert out.n == 0

    def test_seed_reproducible(self):
        rng = np.random.default_rng(12)
        s = make_image_set(rng, n=200, rows=4, cols=4)
        a = select_digit_subset(s, [1, 2, 3], 20, np.random.default_rng(5))
        b = select_digit_subset(s, [1, 2, 3], 20, np.random.default_rng(5))
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_insufficient_instances(self):
        rng = np.random.default_rng(13)
        s = make_image_set(rng, n=10, rows=4, cols=4, classes=(1,))
        with pytest.raises(ValueError, match="class 2"):
            select_digit_subset(s, [1, 2], 3, np.random.default_rng(0))

    def test_selected_images_keep_their_labels(self):
        rng = np.random.default_rng(14)
        n = 90
        images = np.zeros((n, 4), dtype=np.uint8)
        labels = rng.choice([1, 2, 3], size=n)
        images[:, 0] = labels * 10  # image content encodes the label
        s = RawImageSet(images, 2, 2, labels)
        out = select_digit_subset(s, [1, 2, 3], 10, np.random.default_rng(1))
        assert np.array_equal(out.images[:, 0], out.labels * 10)


class TestToDataset:
    def test_dimension(self):
        rng = np.random.default_rng(15)
        s = make_image_set(rng, n=6, rows=14, cols=14)
        ds = to_dataset(s)
        assert ds.p == 196
        assert ds.n == 6
        assert np.array_equal(ds.labels, s.labels)

    def test_all_black_becomes_zero(self):
        s = RawImageSet(np.zeros((3, 9), dtype=np.uint8), 3, 3, np.array([1, 2, 3]))
        ds = to_dataset(s)
        assert np.all(ds.y == 0.0)

    def test_column_means_vanish(self):
        rng = np.random.default_rng(16)
        ds = to_dataset(make_image_set(rng, n=10, rows=8, cols=8))
        assert np.max(np.abs(ds.y.mean(axis=0))) <= 1e-10

    def test_values_scaled_to_unit_range(self):
        s = RawImageSet(np.full((2, 4), 255, dtype=np.uint8), 2, 2, np.array([1, 1]))
        ds = to_dataset(s)
        assert np.allclose(ds.column_means, 1.0)


class TestCsvRoundTrip:
    def test_matrix_with_labels(self, tmp_path):
        rng = np.random.default_rng(17)
        matrix = rng.standard_normal((12, 3))
        labels = rng.integers(0, 5, size=12)
        path = tmp_path / "latents.csv"
        export_matrix_csv(path, matrix, labels=labels)
        header = path.read_text().splitlines()[0]
        assert header == "latent_1,latent_2,latent_3,label"
        back, back_labels = import_matrix_csv(path)
        assert np.array_equal(back, matrix)  # repr round-trip is exact
        assert np.array_equal(back_labels, labels)

    def test_matrix_without_labels(self, tmp_path):
        matrix = np.array([[1.5, -2.25]])
        path = tmp_path / "m.csv"
        export_matrix_csv(path, matrix)
        assert path.read_text().splitlines()[0] == "latent_1,latent_2"
        back, labels = import_matrix_csv(path)
        assert labels is None
        assert np.array_equal(back, matrix)

    def test_empty_matrix_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        export_matrix_csv(path, np.empty((0, 2)))
        lines = path.read_text().splitlines()
        assert lines == ["latent_1,latent_2"]
        back, _ = import_matrix_csv(path)
        assert back.shape == (0, 2)

    def test_non_finite_value_names_line(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("latent_1,latent_2\n1.0,inf\n")
        with pytest.raises(ValueError, match="line 2: non-finite"):
            import_matrix_csv(path)

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("latent_1,latent_2\n1.0,2.0\nx,3.0\n")
        with pytest.raises(ValueError, match="line 3"):
            import_matrix_csv(path)

    def test_histogram_export(self, tmp_path):
        edges, counts = histogram(np.array([0.0, 0.5, 1.0]), 2)
        path = tmp_path / "h.csv"
        export_histogram_csv(path, edges, counts)
        lines = path.read_text().splitlines()
        assert lines[0] == "bin_left,bin_right,count"
        assert len(lines) == 3


FINGERPRINT = {
    "c_strength": 0.1, "bandwidth": 1.0 / 3.0, "a2": "inf", "eta": 2.0,
    "data_sha256": "ab" * 32,
}


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(18)
        n, p, d = 4, 3, 2
        v = np.linalg.qr(rng.standard_normal((n, p, d)))[0]
        x = rng.standard_normal((n, d))
        path = tmp_path / "ck.json"
        save_checkpoint(
            path, transformations=v, latents=x, sigma2=0.125, seed=42, counter=17,
            fingerprint=FINGERPRINT,
        )
        ck = load_checkpoint(path)
        assert isinstance(ck, CheckpointData)
        assert ck.transformations.shape == (n, p, d)
        assert ck.sigma2 == 0.125
        assert (ck.seed, ck.counter) == (42, 17)
        assert np.array_equal(ck.transformations, v)
        assert np.array_equal(ck.latents, x)
        assert ck.fingerprint == FINGERPRINT
        assert [f.name for f in tmp_path.iterdir()] == ["ck.json"]

    def test_schema_fields_present(self, tmp_path):
        path = tmp_path / "ck.json"
        save_checkpoint(
            path,
            transformations=np.zeros((2, 3, 1)),
            latents=np.zeros((2, 1)),
            sigma2=1.0,
            seed=0,
            counter=0,
            fingerprint=FINGERPRINT,
        )
        doc = json.loads(path.read_text())
        assert set(doc) == {
            "n", "p", "d", "sigma2", "seed", "counter", "transformations", "latents",
            "c_strength", "bandwidth", "a2", "eta", "data_sha256",
        }
        assert len(doc["transformations"]) == 2
        assert len(doc["transformations"][0]) == 3

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 1}')
        with pytest.raises(ValueError, match="missing"):
            load_checkpoint(path)
