import json
import math

import numpy as np
import pytest

from conftest import traced_peak
from nlpca.datasets import (
    CheckpointData,
    export_histogram_csv,
    export_matrix_csv,
    generate_sphere,
    import_matrix_csv,
    load_checkpoint,
    load_image_set,
    save_checkpoint,
    select_digit_subset,
    shrink_images,
    to_dataset,
    write_idx,
)


def make_image_set(rng, n=30, rows=28, cols=28, classes=(1, 2, 3)):
    images = rng.integers(0, 256, size=(n, rows, cols), dtype=np.uint8)
    labels = rng.choice(classes, size=n)
    return images, labels


def write_partners(tmp_path, n):
    """A valid n-image file and a valid n-label file, partners for a file under test."""
    img, lbl = tmp_path / "partner-images.idx", tmp_path / "partner-labels.idx"
    write_idx(img, np.zeros((n, 2, 2), dtype=np.uint8))
    write_idx(lbl, np.ones(n, dtype=np.uint8))
    return img, lbl


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
        images = rng.integers(0, 256, size=(2, 28, 28), dtype=np.uint8)
        path = tmp_path / "imgs.idx3-ubyte"
        write_idx(path, images)
        loaded, _ = load_image_set(path, write_partners(tmp_path, 2)[1])
        assert loaded.shape == (2, 28, 28)
        assert np.array_equal(loaded, images)

    def test_labels_round_trip(self, tmp_path):
        labels = np.array([1, 2, 3, 9, 0], dtype=np.uint8)
        path = tmp_path / "labels.idx1-ubyte"
        write_idx(path, labels)
        _, loaded = load_image_set(write_partners(tmp_path, 5)[0], path)
        assert np.array_equal(loaded, labels)

    def test_whole_values_of_any_dtype_write_the_uint8_bytes(self, tmp_path):
        values = np.array([[0, 1], [254, 255]])
        write_idx(tmp_path / "int.idx", values)
        write_idx(tmp_path / "float.idx", values.astype(float))
        write_idx(tmp_path / "uint8.idx", values.astype(np.uint8))
        expected = (tmp_path / "uint8.idx").read_bytes()
        assert (tmp_path / "int.idx").read_bytes() == expected
        assert (tmp_path / "float.idx").read_bytes() == expected

    def test_uint8_array_written_without_a_copy(self, tmp_path):
        # MNIST's 28x28 images: a copy, a float test or a boolean mask of
        # the array would each hold at least half its bytes again.
        images = np.random.default_rng(6).integers(0, 256, (2000, 28, 28), dtype=np.uint8)
        path = tmp_path / "images.idx"
        assert traced_peak(lambda: write_idx(path, images)) < 0.5 * images.nbytes
        assert path.read_bytes()[16:] == images.tobytes()

    @pytest.mark.parametrize(
        "bad", [[300], [-1], [-1.5], [0.5], [255.5], [np.nan], [np.inf], [-np.inf]]
    )
    def test_out_of_range_values_refused_before_the_file_opens(self, tmp_path, bad):
        path = tmp_path / "bad.idx"
        with pytest.raises(ValueError, match="0..255"):
            write_idx(path, np.array([7, *bad]))
        assert not path.exists()

    def test_label_magic_on_image_load(self, tmp_path):
        path = tmp_path / "mixed.idx"
        write_idx(path, np.array([1, 2], dtype=np.uint8))
        with pytest.raises(ValueError, match="wrong magic"):
            load_image_set(path, write_partners(tmp_path, 2)[1])

    def test_image_magic_on_label_load(self, tmp_path):
        path = tmp_path / "mixed.idx"
        write_idx(path, np.zeros((1, 2, 2), dtype=np.uint8))
        with pytest.raises(ValueError, match="wrong magic"):
            load_image_set(write_partners(tmp_path, 1)[0], path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "trunc.idx"
        write_idx(path, np.zeros((2, 3, 3), dtype=np.uint8))
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(ValueError, match="truncated"):
            load_image_set(path, write_partners(tmp_path, 2)[1])

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "trail.idx"
        write_idx(path, np.zeros((2, 3, 3), dtype=np.uint8))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            load_image_set(path, write_partners(tmp_path, 2)[1])

    def test_pick_reads_the_picked_rows_in_its_order(self, tmp_path):
        rng = np.random.default_rng(14)
        images, labels = make_image_set(rng, n=12, rows=4, cols=4)
        write_idx(tmp_path / "i.idx", images)
        write_idx(tmp_path / "l.idx", labels.astype(np.uint8))
        seen = []

        def pick(all_labels):
            seen.append(all_labels.copy())
            return np.array([11, 0, 5, 4])

        got_images, got_labels = load_image_set(tmp_path / "i.idx", tmp_path / "l.idx", pick)
        assert np.array_equal(seen[0], labels)
        assert np.array_equal(got_images, images[[11, 0, 5, 4]])
        assert np.array_equal(got_labels, labels[[11, 0, 5, 4]])

    @pytest.mark.parametrize("index", [-1, 3])
    def test_pick_outside_the_file_refused(self, tmp_path, index):
        # A seek outside the payload would read header or end-of-file bytes.
        img, lbl = write_partners(tmp_path, 3)
        with pytest.raises(IndexError, match=r"in 0\.\.2"):
            load_image_set(img, lbl, lambda labels: np.array([0, index]))

    @pytest.mark.parametrize(
        "edit, match",
        [(lambda data: data[:-5], "truncated"), (lambda data: data + b"\x00", "trailing")],
        ids=["truncated", "trailing"],
    )
    def test_size_refused_whichever_rows_are_picked(self, tmp_path, edit, match):
        # The picked first two rows are whole in both files; the size check
        # reads the file's length, not the rows, and runs before the pick.
        path = tmp_path / "images.idx"
        write_idx(path, np.zeros((4, 3, 3), dtype=np.uint8))
        path.write_bytes(edit(path.read_bytes()))
        picks = []
        with pytest.raises(ValueError, match=match):
            load_image_set(path, write_partners(tmp_path, 4)[1],
                           lambda labels: picks.append(1) or np.array([0, 1]))
        assert picks == []

    def test_header_fuzzing_rejected(self, tmp_path):
        # Any single-byte corruption of the 16-byte header must be rejected:
        # it changes the magic or makes the declared payload size wrong.
        rng = np.random.default_rng(5)
        path = tmp_path / "good.idx"
        write_idx(path, rng.integers(0, 256, (3, 5, 5), dtype=np.uint8))
        labels_path = write_partners(tmp_path, 3)[1]
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
                with pytest.raises(ValueError):
                    load_image_set(bad_path, labels_path)

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
        img, lbl = write_partners(tmp_path, 1)
        paths = (path, lbl) if magic == 0x00000803 else (img, path)
        offset = 4 + 4 * index
        with pytest.raises(ValueError, match=f"{name} 4294967295 at offset {offset} overflow"):
            load_image_set(*paths)

    def test_load_image_set_count_mismatch(self, tmp_path):
        rng = np.random.default_rng(6)
        write_idx(tmp_path / "i.idx", rng.integers(0, 256, (3, 2, 2), dtype=np.uint8))
        write_idx(tmp_path / "l.idx", np.array([1, 2], dtype=np.uint8))
        with pytest.raises(ValueError, match="labels"):
            load_image_set(tmp_path / "i.idx", tmp_path / "l.idx")


class TestSubsample:
    def test_factor_one_identity(self):
        rng = np.random.default_rng(7)
        images, _ = make_image_set(rng, n=4, rows=6, cols=6)
        out = shrink_images(images, 6)
        assert np.array_equal(out, images)

    def test_constant_image_stays_constant(self):
        out = shrink_images(np.full((1, 4, 4), 77, dtype=np.uint8), 2)
        assert out.shape[1:] == (2, 2)
        assert np.all(out == 77)

    def test_checkerboard_keeps_phase(self):
        grid = np.indices((4, 4)).sum(axis=0) % 2  # 0 at (0, 0)
        img = (grid * 255).astype(np.uint8).reshape(1, 4, 4)
        out = shrink_images(img, 2)
        assert np.all(out == 0)  # kept phase is the (even, even) pixels

    def test_mnist_shape(self):
        rng = np.random.default_rng(8)
        images, _ = make_image_set(rng, n=5, rows=28, cols=28)
        out = shrink_images(images, 14)
        assert out.shape == (5, 14, 14)
        assert np.array_equal(out, images[:, ::2, ::2])

    def test_mean_pooling(self):
        img = np.arange(16, dtype=np.uint8).reshape(1, 4, 4)
        out = shrink_images(img, 2, mode="mean")
        blocks = img.reshape(1, 2, 2, 2, 2).astype(float).mean(axis=(2, 4))
        assert np.array_equal(out, np.rint(blocks).astype(np.uint8))

    def test_non_divisible_factor(self):
        rng = np.random.default_rng(9)
        images, _ = make_image_set(rng, n=2, rows=6, cols=6)
        with pytest.raises(ValueError):
            shrink_images(images, 4)


class TestSelectSubset:
    def test_counts_per_class(self):
        rng = np.random.default_rng(10)
        _, labels = make_image_set(rng, n=400, rows=4, cols=4, classes=(1, 2, 3, 7))
        idx = select_digit_subset(labels, [1, 2, 3], 50, np.random.default_rng(0))
        assert idx.size == 150
        for cls in (1, 2, 3):
            assert int(np.sum(labels[idx] == cls)) == 50

    def test_zero_per_class(self):
        rng = np.random.default_rng(11)
        _, labels = make_image_set(rng, n=20, rows=4, cols=4)
        idx = select_digit_subset(labels, [1, 2], 0, np.random.default_rng(0))
        assert idx.size == 0

    def test_seed_reproducible(self):
        rng = np.random.default_rng(12)
        images, labels = make_image_set(rng, n=200, rows=4, cols=4)
        a = select_digit_subset(labels, [1, 2, 3], 20, np.random.default_rng(5))
        b = select_digit_subset(labels, [1, 2, 3], 20, np.random.default_rng(5))
        assert np.array_equal(images[a], images[b])
        assert np.array_equal(labels[a], labels[b])

    def test_insufficient_instances(self):
        rng = np.random.default_rng(13)
        _, labels = make_image_set(rng, n=10, rows=4, cols=4, classes=(1,))
        with pytest.raises(ValueError, match="class 2"):
            select_digit_subset(labels, [1, 2], 3, np.random.default_rng(0))

    def test_selected_images_keep_their_labels(self):
        rng = np.random.default_rng(14)
        n = 90
        images = np.zeros((n, 2, 2), dtype=np.uint8)
        labels = rng.choice([1, 2, 3], size=n)
        images[:, 0, 0] = labels * 10  # image content encodes the label
        idx = select_digit_subset(labels, [1, 2, 3], 10, np.random.default_rng(1))
        assert np.array_equal(images[idx][:, 0, 0], labels[idx] * 10)


class TestToDataset:
    def test_dimension(self):
        rng = np.random.default_rng(15)
        images, labels = make_image_set(rng, n=6, rows=14, cols=14)
        ds = to_dataset(images, labels)
        assert ds.p == 196
        assert ds.n == 6
        assert np.array_equal(ds.labels, labels)

    def test_all_black_becomes_zero(self):
        ds = to_dataset(np.zeros((3, 3, 3), dtype=np.uint8), np.array([1, 2, 3]))
        assert np.all(ds.y == 0.0)

    def test_column_means_vanish(self):
        rng = np.random.default_rng(16)
        ds = to_dataset(*make_image_set(rng, n=10, rows=8, cols=8))
        assert np.max(np.abs(ds.y.mean(axis=0))) <= 1e-10

    def test_values_scaled_to_unit_range(self):
        ds = to_dataset(np.full((2, 2, 2), 255, dtype=np.uint8), np.array([1, 1]))
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
        # Excel's "CSV UTF-8" starts the file with a byte-order mark.
        bom = tmp_path / "latents_bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        bom_back, bom_labels = import_matrix_csv(bom)
        assert np.array_equal(bom_back, matrix)
        assert np.array_equal(bom_labels, labels)
        # Blank lines after the header are skipped: one inside, one at the end.
        head, *rows = path.read_text().splitlines(keepends=True)
        blank = tmp_path / "latents_blank.csv"
        blank.write_text(head + "".join(rows[:5]) + "\n" + "".join(rows[5:]) + "\n")
        blank_back, blank_labels = import_matrix_csv(blank)
        assert np.array_equal(blank_back, matrix)
        assert np.array_equal(blank_labels, labels)

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
        counts, edges = np.histogram(np.array([0.0, 0.5, 1.0]), 2)
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
        save_checkpoint(path, CheckpointData(v, x, 0.125, 42, 17, FINGERPRINT))
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
            path, CheckpointData(np.zeros((2, 3, 1)), np.zeros((2, 1)), 1.0, 0, 0, FINGERPRINT)
        )
        doc = json.loads(path.read_text())
        assert set(doc) == {
            "n", "p", "d", "sigma2", "seed", "counter", "transformations", "latents",
            "c_strength", "bandwidth", "a2", "eta", "data_sha256",
        }
        assert len(doc["transformations"]) == 2
        assert len(doc["transformations"][0]) == 3

    def test_load_then_save_rewrites_identical_bytes(self, tmp_path):
        rng = np.random.default_rng(19)
        v = np.linalg.qr(rng.standard_normal((5, 4, 2)))[0]
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_checkpoint(first, CheckpointData(
            v, rng.standard_normal((5, 2)), 0.1 + 0.2, 3, 250, FINGERPRINT))
        save_checkpoint(second, load_checkpoint(first))
        assert second.read_bytes() == first.read_bytes()

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 1}')
        with pytest.raises(ValueError, match="missing"):
            load_checkpoint(path)
