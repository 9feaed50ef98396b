import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from samt import data
from samt.data import (
    CLASSIFICATION,
    REGRESSION,
    SYNTH_BLOCK_PIXELS,
    VARIANCE_FLOOR,
    Dataset,
    load_csv,
    load_idx,
    meta_subset,
    sample_minibatch,
    standardize,
    synth_classification,
    synth_regression,
    write_idx,
)
from samt.errors import DataFormatError
from samt.numerics import make_rng


def write_fixture_pair(tmp_path, images, labels):
    ip, lp = tmp_path / "imgs.idx", tmp_path / "labels.idx"
    write_idx(ip, lp, images, labels)
    return ip, lp


class TestLoadIdx:
    def test_hand_built_labels(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        ip, lp = write_fixture_pair(tmp_path, images, np.array([7, 2], dtype=np.uint8))
        ds = load_idx(ip, lp)
        assert list(ds.targets) == [7, 2]

    def test_hand_built_pixels(self, tmp_path):
        images = np.array([[[0, 255], [0, 255]]], dtype=np.uint8)
        ip, lp = write_fixture_pair(tmp_path, images, np.array([3], dtype=np.uint8))
        ds = load_idx(ip, lp)
        assert np.array_equal(ds.features[:, 0], [0.0, 1.0, 0.0, 1.0])

    def test_round_trip_exact(self, tmp_path):
        rng = make_rng(0)
        images = rng.integers(0, 256, (5, 3, 4)).astype(np.uint8)
        labels = rng.integers(0, 10, 5).astype(np.uint8)
        ip, lp = write_fixture_pair(tmp_path, images, labels)
        ds = load_idx(ip, lp)
        assert np.array_equal(ds.targets, labels)
        assert np.array_equal(
            (ds.features.T.reshape(5, 3, 4) * 255).round().astype(np.uint8), images
        )

    def test_bad_image_magic(self, tmp_path):
        ip, lp = write_fixture_pair(
            tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), np.zeros(1, dtype=np.uint8)
        )
        raw = bytearray(ip.read_bytes())
        raw[:4] = struct.pack(">I", 0xDEADBEEF)
        ip.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="deadbeef"):
            load_idx(ip, lp)

    def test_truncated_file(self, tmp_path):
        ip, lp = write_fixture_pair(
            tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), np.zeros(2, dtype=np.uint8)
        )
        ip.write_bytes(ip.read_bytes()[:-3])
        with pytest.raises(DataFormatError, match="truncated"):
            load_idx(ip, lp)

    @pytest.mark.parametrize(
        "damage,match",
        [
            ("image_header", "truncated header"),
            ("label_magic", "bad label magic 0xdeadbeef"),
            ("label_data", "truncated label data"),
        ],
    )
    def test_malformed_file_raises_naming_it(self, tmp_path, damage, match):
        ip, lp = write_fixture_pair(
            tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), np.zeros(2, dtype=np.uint8)
        )
        if damage == "image_header":
            ip.write_bytes(ip.read_bytes()[:10])
        elif damage == "label_magic":
            lp.write_bytes(struct.pack(">I", 0xDEADBEEF) + lp.read_bytes()[4:])
        else:
            lp.write_bytes(lp.read_bytes()[:-1])
        with pytest.raises(DataFormatError, match=match) as info:
            load_idx(ip, lp)
        assert str(info.value).startswith(f"{ip if damage == 'image_header' else lp}: ")

    def test_count_mismatch(self, tmp_path):
        ip, _ = write_fixture_pair(
            tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), np.zeros(2, dtype=np.uint8)
        )
        lp = tmp_path / "other.idx"
        write_idx(tmp_path / "unused.idx", lp, np.zeros((3, 2, 2), dtype=np.uint8), np.zeros(3, dtype=np.uint8))
        with pytest.raises(DataFormatError, match="2 images but 3 labels"):
            load_idx(ip, lp)

    def test_limit_takes_head(self, tmp_path):
        images = np.arange(4 * 4, dtype=np.uint8).reshape(4, 2, 2)
        ip, lp = write_fixture_pair(tmp_path, images, np.array([0, 1, 2, 3], dtype=np.uint8))
        ds = load_idx(ip, lp, limit=2)
        assert ds.num_samples == 2 and list(ds.targets) == [0, 1]

    def test_limit_equals_the_index_copy_and_holds_only_its_samples(self, tmp_path):
        rng = make_rng(4)
        images = rng.integers(0, 256, (6, 3, 3)).astype(np.uint8)
        ip, lp = write_fixture_pair(tmp_path, images, rng.integers(0, 10, 6).astype(np.uint8))
        full, head = load_idx(ip, lp), load_idx(ip, lp, limit=4)
        copy = full.take(np.arange(4))
        for got, want in ((head.features, copy.features), (head.targets, copy.targets)):
            assert got.dtype == want.dtype and got.shape == want.shape and got.strides == want.strides
            assert got.tobytes() == want.tobytes()
            owner = got if got.base is None else got.base
            assert owner.shape[-1] == 4  # not a slice of all six samples

    def test_limit_keeps_no_scaled_copy_of_the_whole_file(self, tmp_path):
        images, labels = synth_classification(0, 600, side=10)
        ip, lp = write_fixture_pair(tmp_path, images, labels)
        load_idx(ip, lp, limit=10)  # warm numpy's caches outside the trace
        tracemalloc.start()
        try:
            head = load_idx(ip, lp, limit=100)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # the 100 kept samples' floats; scaling all 600 first would hold 6x that
        assert held < 1.25 * (head.features.nbytes + head.targets.nbytes)


class TestLoadCsv:
    def test_two_row_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,y\n1,2,3\n3,4,5\n", encoding="utf-8")
        ds = load_csv(p, "y")
        assert ds.features.shape == (2, 2)
        assert np.array_equal(ds.features, [[1.0, 3.0], [2.0, 4.0]])
        assert np.array_equal(ds.targets, [[3.0, 5.0]])

    def test_constant_column_standardizes_to_zero(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,y\n5,1,0\n5,2,1\n5,3,2\n", encoding="utf-8")
        ds = load_csv(p, "y")
        train, _ = standardize(ds, ds)
        assert np.allclose(train.features[0], 0.0)

    def test_missing_target_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b\n1,2\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="'y'"):
            load_csv(p, "y")

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,y\n1,2,3\n1,oops,3\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="row 3.*column b"):
            load_csv(p, "y")

    @pytest.mark.parametrize(
        "text,match",
        [
            ("", "empty file"),
            ("a,b,y\n1,2,3\n1,2\n", "row 3 has 2 cells, expected 3"),
            ("a,b,y\n", "no data rows"),
        ],
    )
    def test_malformed_file_raises_naming_it(self, tmp_path, text, match):
        p = tmp_path / "d.csv"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(DataFormatError, match=match) as info:
            load_csv(p, "y")
        assert str(info.value).startswith(f"{p}: ")

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # a BOM is legal UTF-8; it read as part of the first column's name
        p, q = tmp_path / "bom.csv", tmp_path / "plain.csv"
        p.write_bytes(b"\xef\xbb\xbfy,x1\n1,2\n3,4\n")
        q.write_bytes(b"y,x1\n1,2\n3,4\n")
        with_bom, plain = load_csv(p, "y"), load_csv(q, "y")
        assert with_bom.targets.tolist() == [[1.0, 3.0]] and with_bom.features.tolist() == [[2.0, 4.0]]
        assert with_bom.features.tobytes() == plain.features.tobytes()

    def test_reusing_train_stats(self, tmp_path):
        p = tmp_path / "train.csv"
        p.write_text("a,y\n0,0\n2,1\n4,2\n", encoding="utf-8")
        q = tmp_path / "test.csv"
        q.write_text("a,y\n2,9\n", encoding="utf-8")
        _, test = standardize(load_csv(p, "y"), load_csv(q, "y"))
        assert test.features[0, 0] == pytest.approx(0.0)  # (2 - mean 2) / sd
        assert test.targets.tolist() == [[9.0]]


class TestStandardize:
    def test_bitwise_the_hand_computed_train_statistics(self):
        rng = make_rng(13)
        x_train, x_test = rng.normal(3.0, 2.0, (4, 9)), rng.normal(3.0, 2.0, (4, 5))
        x_train[2], x_test[2] = 7.0, -1.0  # a constant training row meets the variance floor
        y_train, y_test = rng.standard_normal((1, 9)), rng.standard_normal((1, 5))
        train, test = standardize(Dataset(x_train, y_train, REGRESSION), Dataset(x_test, y_test, REGRESSION))

        mean = x_train.mean(axis=1)
        scale = np.sqrt(np.maximum(x_train.var(axis=1), VARIANCE_FLOOR))
        assert scale[2] == np.sqrt(VARIANCE_FLOOR)
        for got, x, y in ((train, x_train, y_train), (test, x_test, y_test)):
            assert got.features.tobytes() == ((x - mean[:, None]) / scale[:, None]).tobytes()
            assert got.targets is y and got.kind == REGRESSION
        assert np.all(train.features[2] == 0.0)


class TestSynthRegression:
    def test_noiseless_exact_fit(self):
        ds, w = synth_regression(0, n=50, d=3, noise_sd=0.0)
        assert np.allclose(w @ ds.features, ds.targets, atol=1e-12)

    def test_deterministic(self):
        a, _ = synth_regression(5, 20, 4, 0.1)
        b, _ = synth_regression(5, 20, 4, 0.1)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.targets, b.targets)

    def test_true_weights_achieve_noise_floor(self):
        n, noise_sd = 20000, 0.3
        ds, w = synth_regression(7, n=n, d=5, noise_sd=noise_sd)
        residual = ds.targets - w @ ds.features
        mse = float((residual**2).mean())
        assert mse == pytest.approx(noise_sd**2, rel=3.0 / np.sqrt(n))

    def test_no_samples_give_an_empty_dataset(self):
        ds, w = synth_regression(3, 0, 3, 0.1)
        assert ds.num_samples == 0
        assert ds.features.shape == (3, 0) and ds.targets.shape == (1, 0) and w.shape == (1, 3)


class TestSampleMinibatch:
    def test_singleton_source(self):
        ds, _ = synth_regression(1, n=1, d=2, noise_sd=0.0)
        x, y = sample_minibatch(ds, 1, make_rng(0))
        assert np.array_equal(x, ds.features)
        assert np.array_equal(y, ds.targets)

    def test_uniform_frequencies(self):
        # feature value encodes the sample index, so draws are countable
        n = 20
        ds = Dataset(np.arange(n, dtype=float).reshape(1, n), np.zeros((1, n)), "regression")
        rng = make_rng(3)
        draws = 100_000
        x, _ = sample_minibatch(ds, draws, rng)
        counts = np.bincount(x[0].astype(int), minlength=n)
        expected = draws / n
        sigma = np.sqrt(draws * (1 / n) * (1 - 1 / n))
        assert np.all(np.abs(counts - expected) <= 3.5 * sigma)
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert scipy_stats.chi2.sf(chi2, df=n - 1) > 0.001

    def test_same_seed_same_sequence(self):
        ds, _ = synth_regression(4, n=30, d=2, noise_sd=0.1)
        seq_a = [sample_minibatch(ds, 4, make_rng(9))[0] for _ in range(3)]
        seq_b = [sample_minibatch(ds, 4, make_rng(9))[0] for _ in range(3)]
        for a, b in zip(seq_a, seq_b):
            assert np.array_equal(a, b)

    def test_empty_batch_rejected(self):
        ds, _ = synth_regression(5, n=3, d=2, noise_sd=0.0)
        with pytest.raises(ValueError):
            sample_minibatch(ds, 0, make_rng(0))

    def test_empty_dataset_rejected(self):
        # the generator refuses the empty range [0, 0)
        ds, _ = synth_regression(5, n=0, d=2, noise_sd=0.0)
        with pytest.raises(ValueError):
            sample_minibatch(ds, 1, make_rng(0))


# (features, targets) of n samples: 1-D int labels, or a (k, n) matrix with k >= 1
@st.composite
def datasets(draw):
    n = draw(st.integers(1, 12))
    k = draw(st.sampled_from([None, 1, 3]))
    rng = make_rng(draw(st.integers(0, 2**16)))
    targets = rng.integers(0, 5, n) if k is None else rng.standard_normal((k, n))
    return Dataset(rng.standard_normal((draw(st.integers(1, 4)), n)), targets,
                   CLASSIFICATION if k is None else REGRESSION)


def per_layout(targets, idx):
    return targets[idx] if targets.ndim == 1 else targets[:, idx]


class TestLastAxisIndexing:
    @settings(max_examples=60, deadline=None)
    @given(ds=datasets(), start=st.integers(0, 12), stop=st.integers(0, 12), step=st.integers(1, 3))
    def test_take_of_a_slice_is_a_view_equal_to_per_layout_indexing(self, ds, start, stop, step):
        s = slice(start, stop, step)
        got = ds.take(s)
        for a, want in ((got.features, ds.features[:, s]), (got.targets, per_layout(ds.targets, s))):
            assert a.dtype == want.dtype and a.shape == want.shape and a.tobytes() == want.tobytes()
        assert got.features.base is not None and got.targets.base is not None

    @settings(max_examples=60, deadline=None)
    @given(ds=datasets(), seed=st.integers(0, 2**16), b=st.integers(1, 20))
    def test_take_and_sample_minibatch_equal_per_layout_indexing(self, ds, seed, b):
        idx = make_rng(seed).integers(0, ds.num_samples, size=b)
        x, y = sample_minibatch(ds, b, make_rng(seed))
        taken = ds.take(idx)
        want_y = per_layout(ds.targets, idx)
        for a, want in ((x, ds.features[:, idx]), (y, want_y), (taken.features, x), (taken.targets, want_y)):
            assert a.dtype == want.dtype and a.shape == want.shape and a.tobytes() == want.tobytes()

    def test_mismatched_sample_counts_rejected_for_both_layouts(self):
        for targets in (np.zeros(4, dtype=np.int64), np.zeros((2, 4))):
            with pytest.raises(DataFormatError, match="3 feature columns but 4 targets"):
                Dataset(np.zeros((2, 3)), targets, CLASSIFICATION)


class TestMetaSubset:
    def test_stride_two_indices(self):
        ds = Dataset(np.arange(10.0).reshape(2, 5), np.arange(5), CLASSIFICATION)
        sub = meta_subset(ds)
        assert sub.features.tolist() == [[0.0, 2.0, 4.0], [5.0, 7.0, 9.0]]
        assert sub.targets.tolist() == [0, 2, 4]
        assert np.shares_memory(sub.features, ds.features) and np.shares_memory(sub.targets, ds.targets)

    def test_empty_dataset_gives_an_empty_subset(self):
        ds = Dataset(np.zeros((2, 0)), np.zeros(0, dtype=np.int64), CLASSIFICATION)
        sub = meta_subset(ds)
        assert sub.num_samples == 0 and sub.features.shape == (2, 0) and sub.targets.shape == (0,)

    def test_singleton(self):
        ds, _ = synth_regression(7, n=1, d=2, noise_sd=0.0)
        sub = meta_subset(ds)
        assert sub.num_samples == 1 and np.array_equal(sub.features, ds.features)
        assert np.shares_memory(sub.features, ds.features)

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 11])
    def test_size_is_ceil_half(self, n):
        ds, _ = synth_regression(8, n=n, d=2, noise_sd=0.0)
        sub = meta_subset(ds)
        assert sub.num_samples == (n + 1) // 2
        assert np.array_equal(sub.features, ds.features[:, ::2])
        assert np.array_equal(sub.targets, ds.targets[:, ::2])
        assert np.shares_memory(sub.features, ds.features) and np.shares_memory(sub.targets, ds.targets)

    def test_sampling_from_subset_uses_even_rows(self):
        ds, _ = synth_regression(9, n=10, d=2, noise_sd=0.0)
        sub = meta_subset(ds)
        x, _ = sample_minibatch(sub, 64, make_rng(10))
        even_columns = ds.features[:, ::2]
        for col in x.T:
            assert any(np.array_equal(col, c) for c in even_columns.T)

    def test_draws_are_the_parents_even_samples(self):
        # the same generator call as an index into the parent, 2 * i, gives the same batch
        ds, _ = synth_regression(11, n=11, d=3, noise_sd=0.1)
        x, y = sample_minibatch(meta_subset(ds), 32, make_rng(12))
        i = 2 * make_rng(12).integers(0, 6, size=32)
        assert x.tobytes() == ds.features[:, i].tobytes() and y.tobytes() == ds.targets[:, i].tobytes()


def test_synth_classification_rejects_a_side_below_two():
    with pytest.raises(ValueError, match="side >= 2"):
        synth_classification(0, 5, side=1)


def test_synth_classification_shapes_and_determinism():
    imgs, labels = synth_classification(0, n=100, side=8, num_classes=4)
    assert imgs.shape == (100, 8, 8) and imgs.dtype == np.uint8
    assert labels.shape == (100,) and labels.max() < 4
    imgs2, labels2 = synth_classification(0, n=100, side=8, num_classes=4)
    assert np.array_equal(imgs, imgs2) and np.array_equal(labels, labels2)


def whole_corpus_glyphs(seed, n, side=28, num_classes=10, noise_sd=0.5):
    """The glyph generator as one whole-corpus pass: every per-sample
    array, the noise draw included, is (n, side * side) at once."""
    rng = np.random.default_rng(seed)
    d = side * side

    def smooth(img_rows):
        imgs = img_rows.reshape(-1, side, side)
        for _ in range(2):
            acc = np.zeros_like(imgs)
            for off in range(-2, 3):
                acc += np.roll(imgs, off, axis=1) + np.roll(imgs, off, axis=2)
            imgs = acc / 10.0
        return imgs.reshape(-1, d)

    base = smooth(rng.standard_normal((num_classes, d)))
    cut = np.quantile(base, 0.7, axis=1, keepdims=True)
    prototypes = np.maximum(base - cut, 0.0)
    prototypes *= 1.0 / prototypes.max(axis=1, keepdims=True)
    prototypes = prototypes.reshape(num_classes, side, side)

    labels = rng.integers(0, num_classes, size=n).astype(np.uint8)
    max_shift = side // 7
    shifts = rng.integers(-max_shift, max_shift + 1, size=(n, 2))
    gain = rng.uniform(0.6, 1.4, size=(n, 1))
    glyphs = prototypes[labels]
    rows = (np.arange(side)[None, :, None] - shifts[:, 0, None, None]) % side
    cols = (np.arange(side)[None, None, :] - shifts[:, 1, None, None]) % side
    glyphs = glyphs[np.arange(n)[:, None, None], rows, cols].reshape(n, d)
    noise = smooth(rng.standard_normal((n, d)))
    pixels = np.clip(gain * glyphs + noise_sd * noise, 0.0, 1.0)
    images = np.round(pixels * 255.0).astype(np.uint8).reshape(n, side, side)
    return images, labels


class TestSynthClassification:
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("side, num_classes", [(28, 10), (8, 4)])
    @pytest.mark.parametrize("blocks", [0, 0.5, 2, 2.25])
    def test_bytes_are_the_whole_corpus_generators(self, seed, side, num_classes, blocks):
        # n = 0, below one block, an exact multiple of it and a tail
        n = int(blocks * (SYNTH_BLOCK_PIXELS // side**2))
        images, labels = synth_classification(seed, n, side=side, num_classes=num_classes)
        want_images, want_labels = whole_corpus_glyphs(seed, n, side=side, num_classes=num_classes)
        assert images.shape == (n, side, side) and images.dtype == np.uint8
        assert images.tobytes() == want_images.tobytes()
        assert labels.dtype == np.uint8 and labels.tobytes() == want_labels.tobytes()

    @pytest.mark.parametrize("block_images", [1, 7, 64])
    def test_bytes_do_not_depend_on_the_block_size(self, monkeypatch, block_images):
        monkeypatch.setattr(data, "SYNTH_BLOCK_PIXELS", block_images * 8 * 8)
        images, labels = synth_classification(3, 100, side=8, num_classes=4, noise_sd=0.8)
        want_images, want_labels = whole_corpus_glyphs(3, 100, side=8, num_classes=4, noise_sd=0.8)
        assert images.tobytes() == want_images.tobytes() and labels.tobytes() == want_labels.tobytes()

    def test_peak_memory_stays_below_half_a_float_corpus(self):
        n, d = 4000, 28 * 28
        synth_classification(0, 8)  # warm numpy's caches outside the trace
        tracemalloc.start()
        try:
            synth_classification(0, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the uint8 corpus is n * d bytes; one float64 corpus would be 8x that
        assert peak < n * d * 8 / 2
