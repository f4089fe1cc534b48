import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import autolabel as al
from autolabel.data import idx_labels_path

from conftest import four_blobs, label_everything, whole_pool
from oracles import write_rawf32


# ---------------------------------------------------------------------------
# core containers


def test_dataset_validation():
    feats = np.zeros((3, 2), dtype=np.float32)
    ds = al.Dataset(feats, [0, 1, 1], 2)
    assert ds.n == 3 and ds.dim == 2
    with pytest.raises(al.RowCountMismatchError):
        al.Dataset(feats, [0, 1], 2)
    with pytest.raises(al.LabelOutOfRangeError):
        al.Dataset(feats, [0, 1, 2], 2)
    with pytest.raises(ValueError):
        al.Dataset(feats, [0, 1, 1], 1)


def test_labeled_set_validation():
    ds = four_blobs(n=20)
    with pytest.raises(ValueError, match="duplicate"):
        al.LabeledSet(ds, [1, 1], [0, 0])
    with pytest.raises(al.LabelOutOfRangeError):
        al.LabeledSet(ds, [1, 2], [0, 7])
    with pytest.raises(IndexError):
        al.LabeledSet(ds, [1, 20], [0, 0])
    with pytest.raises(ValueError, match="align"):
        al.LabeledSet(ds, [1, 2], [0])


@pytest.mark.parametrize("ids", [[3, 1, 3, 0], [2, 2, 0, 1], [0, 1, 5, 5]])
def test_repeated_indices_are_rejected(ids):
    """Repeats anywhere, not only next to each other, name the container."""
    ds = four_blobs(n=20)
    with pytest.raises(ValueError, match=r"^duplicate indices in LabeledSet$"):
        al.LabeledSet(ds, ids, [0] * 4)
    with pytest.raises(ValueError, match=r"^duplicate indices in pool$"):
        al.Pool(ds, ids)
    distinct = [0, 1, 2, 3]
    al.LabeledSet(ds, distinct, [0] * 4)
    al.Pool(ds, distinct[::-1])


def test_labeled_set_from_oracle_and_concat():
    ds = four_blobs(n=30)
    a = al.LabeledSet.from_oracle(ds, [0, 1, 2])
    b = al.LabeledSet(ds, [5, 6], [3, 3])
    both = a.merged_with(b)
    assert len(both) == 5
    assert both.indices.tolist() == [0, 1, 2, 5, 6]
    assert np.array_equal(both.labels[:3], ds.hidden_labels[[0, 1, 2]])
    assert both.labels[3:].tolist() == [3, 3]
    empty = al.LabeledSet.empty(ds)
    assert a.merged_with(empty) is a and empty.merged_with(b) is b
    elsewhere = al.LabeledSet.from_oracle(four_blobs(n=30), [0])
    with pytest.raises(ValueError, match="different datasets"):
        a.merged_with(elsewhere)


def test_pool_without():
    ds = four_blobs(n=10)
    pool = whole_pool(ds)
    smaller = pool.without([3, 4])
    assert smaller.size == 8
    assert 3 not in smaller.active
    with pytest.raises(ValueError):
        smaller.without([3])


# ---------------------------------------------------------------------------
# sampling


def test_random_query_properties():
    ds = four_blobs(n=50)
    pool = whole_pool(ds)
    got, rest = al.random_query(pool, 20, seed=3)
    assert len(got) == 20 and rest.size == 30
    assert np.all(np.diff(got.indices) > 0)
    assert np.array_equal(got.labels, ds.hidden_labels[got.indices])
    assert set(got.indices) | set(rest.active) == set(range(50))
    again, _ = al.random_query(pool, 20, seed=3)
    assert np.array_equal(got.indices, again.indices)
    other, _ = al.random_query(pool, 20, seed=4)
    assert not np.array_equal(got.indices, other.indices)
    with pytest.raises(ValueError):
        al.random_query(rest, 31, seed=0)


@given(m=st.integers(2, 150), frac=st.floats(0.01, 0.99), seed=st.integers(0, 99))
@settings(max_examples=60, deadline=None)
def test_random_split_partitions(m, frac, seed):
    ds = four_blobs(n=150)
    labeled = label_everything(ds).take(np.arange(m))
    first, second = (labeled.take(pos)
                     for pos in al.random_split(len(labeled), frac, seed))
    assert len(first) >= 1 and len(second) >= 1
    assert len(first) + len(second) == m
    expect = min(max(int(np.floor(frac * m + 0.5)), 1), m - 1)
    assert len(first) == expect
    assert set(first.indices) | set(second.indices) == set(labeled.indices)
    assert set(first.indices).isdisjoint(second.indices)


def test_random_split_bad_inputs():
    ds = four_blobs(n=10)
    labeled = label_everything(ds)
    with pytest.raises(ValueError):
        al.random_split(len(labeled), 1.5, 0)
    with pytest.raises(ValueError):
        al.random_split(len(labeled.take([0])), 0.5, 0)


# ---------------------------------------------------------------------------
# synthesis


def test_synth_mixture_counts_and_determinism():
    means = np.array([[0.0], [5.0], [10.0]])
    ds = al.synth_gaussian_mixture(3, 1, means, 0.5, 11, seed=9)
    counts = np.bincount(ds.hidden_labels, minlength=3)
    # 11 = 3*3 + 2: the remainder goes to the lowest class indices
    assert list(counts) == [4, 4, 3]
    again = al.synth_gaussian_mixture(3, 1, means, 0.5, 11, seed=9)
    assert np.array_equal(ds.features, again.features)
    assert np.array_equal(ds.hidden_labels, again.hidden_labels)


def test_synth_mixture_input_validation():
    with pytest.raises(ValueError):
        al.synth_gaussian_mixture(2, 2, np.zeros((3, 2)), 1.0, 10, 0)
    with pytest.raises(ValueError):
        al.synth_gaussian_mixture(2, 2, np.zeros((2, 2)), 0.0, 10, 0)
    with pytest.raises(ValueError):
        al.synth_gaussian_mixture(4, 2, np.zeros((4, 2)), 1.0, 3, 0)


def test_carve_disjoint_and_sized():
    a, b, c = al.carve(100, [20, 30, 40], seed=5)
    assert (len(a), len(b), len(c)) == (20, 30, 40)
    rows = np.concatenate([a, b, c])
    assert len(set(rows.tolist())) == 90
    assert rows.min() >= 0 and rows.max() < 100
    # each set ascending: the draw's slices, sorted
    perm = np.random.default_rng(5).permutation(100)
    for got, at, size in ((a, 0, 20), (b, 20, 30), (c, 50, 40)):
        assert np.array_equal(got, np.sort(perm[at:at + size]))
    with pytest.raises(ValueError):
        al.carve(100, [60, 60], seed=5)


def test_carve_refuses_a_negative_size():
    # a slice of length -1 is empty, and the next set would start a row
    # early, at a row the set before it already holds
    with pytest.raises(ValueError, match="^cannot carve a set of -1 points$"):
        al.carve(10, [2, -1, 3], seed=0)


# ---------------------------------------------------------------------------
# idx format


def write_idx_pair(tmp_path, images, labels, image_magic=0x803,
                   label_magic=0x801, truncate_images=0, label_count=None):
    images = np.asarray(images, dtype=np.uint8)
    n, rows, cols = images.shape
    img_path = tmp_path / "t10k-images-idx3-ubyte"
    payload = struct.pack(">iiii", image_magic, n, rows, cols) + images.tobytes()
    if truncate_images:
        payload = payload[:-truncate_images]
    img_path.write_bytes(payload)
    lab_path = tmp_path / "t10k-labels-idx1-ubyte"
    labels = np.asarray(labels, dtype=np.uint8)
    lc = label_count if label_count is not None else labels.shape[0]
    lab_path.write_bytes(struct.pack(">ii", label_magic, lc) + labels.tobytes())
    return str(img_path)


def test_idx_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(5, 3, 4), dtype=np.uint8)
    labels = np.array([0, 1, 2, 1, 0], dtype=np.uint8)
    path = write_idx_pair(tmp_path, images, labels)
    ds = al.load_dataset(path, "idx", num_classes=3)
    assert ds.n == 5 and ds.dim == 12 and ds.num_classes == 3
    assert np.allclose(ds.features, images.reshape(5, 12) / 255.0)
    assert np.array_equal(ds.hidden_labels, labels)


def test_idx_infers_num_classes(tmp_path):
    images = np.zeros((4, 2, 2), dtype=np.uint8)
    path = write_idx_pair(tmp_path, images, [0, 3, 1, 2])
    assert al.load_dataset(path, "idx").num_classes == 4


def test_idx_labels_path_derivation():
    assert idx_labels_path("/d/train-images-idx3-ubyte") == \
        "/d/train-labels-idx1-ubyte"
    with pytest.raises(FileNotFoundError):
        idx_labels_path("/d/blob.bin")


def test_idx_bad_magic(tmp_path):
    images = np.zeros((2, 2, 2), dtype=np.uint8)
    path = write_idx_pair(tmp_path, images, [0, 1], image_magic=0x0666)
    with pytest.raises(al.MagicNumberError):
        al.load_dataset(path, "idx")


def test_idx_truncated(tmp_path):
    images = np.zeros((2, 2, 2), dtype=np.uint8)
    path = write_idx_pair(tmp_path, images, [0, 1], truncate_images=3)
    with pytest.raises(al.TruncatedPayloadError):
        al.load_dataset(path, "idx")


def test_idx_row_count_mismatch(tmp_path):
    images = np.zeros((3, 2, 2), dtype=np.uint8)
    path = write_idx_pair(tmp_path, images, [0, 1], label_count=2)
    with pytest.raises(al.RowCountMismatchError):
        al.load_dataset(path, "idx")


def test_idx_labels_file_without_items_is_a_row_count_mismatch(tmp_path):
    path = write_idx_pair(tmp_path, np.zeros((2, 2, 2), np.uint8), [])
    with pytest.raises(al.RowCountMismatchError):
        al.load_dataset(path, "idx")


def test_idx_label_out_of_range(tmp_path):
    images = np.zeros((2, 2, 2), dtype=np.uint8)
    path = write_idx_pair(tmp_path, images, [0, 9])
    with pytest.raises(al.LabelOutOfRangeError):
        al.load_dataset(path, "idx", num_classes=5)


def test_idx_features_are_the_pixels_over_255(tmp_path):
    images = np.arange(2 * 16 * 8, dtype=np.int64).reshape(2, 16, 8) % 256
    path = write_idx_pair(tmp_path, images, [0, 1])
    ds = al.load_dataset(path, "idx")
    want = images.astype(np.uint8).reshape(2, 128).astype(np.float32) / 255.0
    assert ds.features.dtype == np.float32
    assert ds.features.tobytes() == want.tobytes()


@pytest.mark.parametrize("file, what", [("images", "image"),
                                        ("labels", "label")])
def test_idx_trailing_bytes(tmp_path, file, what):
    path = write_idx_pair(tmp_path, np.zeros((2, 2, 2), np.uint8), [0, 1])
    target = path if file == "images" else idx_labels_path(path)
    with open(target, "ab") as f:
        f.write(b"\x00")
    with pytest.raises(al.DataFormatError) as err:
        al.load_dataset(path, "idx")
    assert type(err.value) is al.DataFormatError
    assert str(err.value) == f"trailing bytes after idx {what} payload"


def test_idx_header_cut_inside_its_dims(tmp_path):
    path = write_idx_pair(tmp_path, np.zeros((2, 2, 2), np.uint8), [0, 1])
    with open(path, "r+b") as f:
        f.truncate(10)
    with pytest.raises(al.TruncatedPayloadError) as err:
        al.load_dataset(path, "idx")
    assert str(err.value) == \
        "idx image header: expected 12 bytes, file ended after 6"


@pytest.mark.parametrize("size", [0, 2])
def test_idx_images_file_cut_inside_its_magic(tmp_path, size):
    # an empty file is not mapped; it reads as a file that ended at once
    path = write_idx_pair(tmp_path, np.zeros((2, 2, 2), np.uint8), [0, 1])
    with open(path, "r+b") as f:
        f.truncate(size)
    with pytest.raises(al.TruncatedPayloadError) as err:
        al.load_dataset(path, "idx")
    assert str(err.value) == \
        f"idx image header: expected 4 bytes, file ended after {size}"


def test_idx_bad_dims(tmp_path):
    path = write_idx_pair(tmp_path, np.zeros((2, 2, 2), np.uint8), [0, 1])
    with open(path, "r+b") as f:
        f.write(struct.pack(">iiii", 0x803, 2, 0, 2))
    with pytest.raises(al.DataFormatError, match="^bad idx dims 2x0x2$"):
        al.load_dataset(path, "idx")
    path = write_idx_pair(tmp_path, np.zeros((2, 2, 2), np.uint8), [0, 1],
                          label_count=-1)
    with pytest.raises(al.DataFormatError,
                       match="^negative idx label count -1$"):
        al.load_dataset(path, "idx")


def test_idx_dims_beyond_any_file_are_a_truncated_payload(tmp_path):
    # the byte count is an exact product, however large the dims
    path = tmp_path / "t10k-images-idx3-ubyte"
    big = 2**31 - 1
    path.write_bytes(struct.pack(">iiii", 0x803, big, big, big) + b"\x00")
    with pytest.raises(al.TruncatedPayloadError) as err:
        al.load_dataset(str(path), "idx")
    assert str(err.value) == (f"idx image payload: expected {big ** 3} "
                              "bytes, file ended after 1")


@pytest.mark.parametrize("num_classes", [None, 3])
def test_idx_pair_without_items(tmp_path, num_classes):
    # like a csv header with no rows; without num_classes the inferred class
    # count used to be numpy's max of an empty array
    path = write_idx_pair(tmp_path, np.zeros((0, 2, 2), np.uint8), [])
    with pytest.raises(al.DataFormatError, match="^idx pair holds no items$"):
        al.load_dataset(path, "idx", num_classes=num_classes)


# ---------------------------------------------------------------------------
# csv format


def test_csv_roundtrip(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text("f0,f1,label\n0.5,1.5,0\n-1.0,2.0,1\n0.0,0.0,1\n")
    ds = al.load_dataset(str(p), "csv")
    assert ds.n == 3 and ds.dim == 2 and ds.num_classes == 2
    assert np.allclose(ds.features, [[0.5, 1.5], [-1.0, 2.0], [0.0, 0.0]])
    assert list(ds.hidden_labels) == [0, 1, 1]


@pytest.mark.parametrize("text,match", [
    ("", "empty"),
    ("f0,f1,lbl\n1,2,0\n", "label"),
    ("f0,label\n1,0\n1,2,0\n", "fields"),
    ("f0,label\noops,0\n", "non-numeric"),
    ("f0,label\n1.0,zero\n", "non-integer"),
    ("f0,label\n", "no data"),
])
def test_csv_malformed(tmp_path, text, match):
    p = tmp_path / "bad.csv"
    p.write_text(text)
    with pytest.raises(al.DataFormatError, match=match):
        al.load_dataset(str(p), "csv")


# ---------------------------------------------------------------------------
# rawf32 format


def test_rawf32_roundtrip_exact(tmp_path):
    ds = four_blobs(n=25)
    path = str(tmp_path / "blob.f32")
    write_rawf32(ds, path)
    back = al.load_dataset(path, "rawf32")
    assert back.features.dtype == np.float32
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.hidden_labels, ds.hidden_labels)
    assert back.num_classes == ds.num_classes


def test_rawf32_truncated(tmp_path):
    ds = four_blobs(n=10)
    path = str(tmp_path / "blob.f32")
    write_rawf32(ds, path)
    raw = open(path, "rb").read()
    open(path, "wb").write(raw[:-4])
    with pytest.raises(al.TruncatedPayloadError) as err:
        al.load_dataset(path, "rawf32")
    assert str(err.value) == (
        "rawf32 feature payload: expected 80 bytes, file ended after 76")


def test_rawf32_empty_feature_file(tmp_path):
    ds = al.Dataset(np.zeros((2, 4), np.float32), np.array([0, 1]), 2)
    path = str(tmp_path / "blob.f32")
    write_rawf32(ds, path)
    open(path, "wb").close()
    with pytest.raises(al.TruncatedPayloadError) as err:
        al.load_dataset(path, "rawf32")
    assert str(err.value) == (
        "rawf32 feature payload: expected 32 bytes, file ended after 0")


def test_rawf32_trailing_feature_bytes(tmp_path):
    ds = four_blobs(n=10)
    path = str(tmp_path / "blob.f32")
    write_rawf32(ds, path)
    open(path, "ab").write(b"\0")
    with pytest.raises(al.DataFormatError) as err:
        al.load_dataset(path, "rawf32")
    assert type(err.value) is al.DataFormatError
    assert str(err.value) == "trailing bytes after rawf32 features"


def test_rawf32_zero_rows_load(tmp_path):
    ds = al.Dataset(np.zeros((0, 3), np.float32), np.zeros(0, np.int64), 4)
    path = str(tmp_path / "empty.f32")
    write_rawf32(ds, path)
    back = al.load_dataset(path, "rawf32")
    assert back.features.shape == (0, 3) and back.num_classes == 4
    assert back.hidden_labels.shape == (0,)


def test_rawf32_features_are_read_only(tmp_path):
    ds = four_blobs(n=10)
    path = str(tmp_path / "blob.f32")
    write_rawf32(ds, path)
    back = al.load_dataset(path, "rawf32")
    assert not back.features.flags.writeable
    with pytest.raises(ValueError):
        back.features[0, 0] = 1.0


def test_materialized_splits_index_the_loaded_features(tmp_path,
                                                       monkeypatch):
    from autolabel import config, runner
    from autolabel.config import parse_config_dict

    write_rawf32(four_blobs(n=60), str(tmp_path / "world.f32"))
    loaded = []

    def load_and_keep(*args):
        loaded.append(al.load_dataset(*args))
        return loaded[-1]

    monkeypatch.setattr(config, "load_dataset", load_and_keep)
    cfg = parse_config_dict({
        "master_seed": 3, "repeats": 1, "output_dir": "out",
        "dataset": {"kind": "file", "path": "world.f32", "format": "rawf32",
                    "pool_size": 30, "val_size": 20, "hyp_size": 10},
        "tbal": {"train_budget": 10, "seed_size": 5, "query_batch": 5},
    }, base_dir=str(tmp_path))
    pool, val, hyp = runner.materialize_dataset(cfg)
    mapped = loaded[0].features
    # every split is a row set of the map, never a copy of it
    for split, rows in ((pool, pool.active), (val, val.indices),
                        (hyp, hyp.indices)):
        assert split.dataset is loaded[0]
        assert np.shares_memory(split.dataset.features, mapped)
        assert np.array_equal(split.features, mapped[rows])
    assert sorted(np.concatenate([pool.active, val.indices, hyp.indices])) \
        == list(range(60))


def test_rawf32_label_out_of_range(tmp_path):
    ds = four_blobs(n=10)
    path = str(tmp_path / "blob.f32")
    write_rawf32(ds, path)
    labels = np.full(10, 77, dtype="<u4")
    open(path + ".labels", "wb").write(labels.tobytes())
    with pytest.raises(al.LabelOutOfRangeError):
        al.load_dataset(path, "rawf32")


@pytest.mark.parametrize("meta,payload,key", [
    ("n=-2\nd=-3\nk=4\n", 24, "n=-2"),
    ("n=-1\nd=3\nk=4\n", 0, "n=-1"),
    ("n=2\nd=0\nk=4\n", 0, "d=0"),
    ("n=2\nd=1\nk=1\n", 8, "k=1"),
], ids=["n-and-d-negative", "n-negative", "d-zero", "k-one"])
def test_rawf32_meta_out_of_range_is_refused_by_key(tmp_path, meta, payload,
                                                    key):
    # a negative n, a d below 1 or a k below 2 is a typed error naming the
    # key, whatever the payload sizes; n=0 loads (test_rawf32_zero_rows_load)
    path = str(tmp_path / "blob.f32")
    open(path, "wb").write(bytes(payload))
    open(path + ".labels", "wb").write(bytes(8))
    open(path + ".meta", "w").write(meta)
    with pytest.raises(al.DataFormatError,
                       match=rf"\.meta: {key}, must be >= "):
        al.load_dataset(path, "rawf32")


def test_rawf32_missing_meta_key(tmp_path):
    ds = four_blobs(n=10)
    path = str(tmp_path / "blob.f32")
    write_rawf32(ds, path)
    open(path + ".meta", "w").write("n=10\nd=2\n")
    with pytest.raises(al.DataFormatError, match="missing k="):
        al.load_dataset(path, "rawf32")


@pytest.mark.parametrize("meta,line,what", [
    ("n=10\nd=2\nk=4\nn=5\n", 4, "repeated key 'n'"),
    ("n=10\n# sizes\nd=2\nd = 2\nk=4\n", 4, "repeated key 'd'"),
    ("n=10\nd=2\nk=4\nsize=7\n", 4, "unknown key 'size'"),
    ("N=10\nd=2\nk=4\n", 1, "unknown key 'N'"),
], ids=["repeated-n", "repeated-d-spaced", "unknown-size", "unknown-case"])
def test_rawf32_meta_refuses_repeated_and_unknown_keys(tmp_path, meta, line,
                                                       what):
    # a repeated key must not win silently, nor an unknown one be dropped:
    # each is a typed error naming the key and its line
    ds = four_blobs(n=10)
    path = str(tmp_path / "blob.f32")
    write_rawf32(ds, path)
    open(path + ".meta", "w").write(meta)
    with pytest.raises(al.DataFormatError,
                       match=rf"\.meta:{line}: {what}$"):
        al.load_dataset(path, "rawf32")


@pytest.mark.parametrize("format", ["csv", "rawf32"])
def test_a_labels_path_is_refused_where_the_data_holds_its_labels(tmp_path,
                                                                  format):
    path = str(tmp_path / "data")
    if format == "csv":
        open(path, "w").write("f0,label\n0.5,0\n1.5,1\n")
    else:
        write_rawf32(four_blobs(n=10), path)
    assert al.load_dataset(path, format).n in (2, 10)
    with pytest.raises(ValueError, match=rf"^labels_path .*a {format} "):
        al.load_dataset(path, format, labels_path="/nonexistent/labels")


def write_format(tmp_path, format, labels):
    """A file of ``format`` holding ``labels``; rawf32's meta says k=5."""
    n = len(labels)
    if format == "idx":
        return write_idx_pair(tmp_path, np.zeros((n, 2, 2), np.uint8), labels)
    path = str(tmp_path / "data")
    if format == "csv":
        open(path, "w").write("f0,label\n"
                              + "".join(f"0.5,{c}\n" for c in labels))
    else:
        write_rawf32(al.Dataset(np.zeros((n, 2), np.float32), labels, 5),
                     path)
    return path


@pytest.mark.parametrize("format", ["idx", "csv", "rawf32"])
def test_one_class_count_rule_for_every_format(tmp_path, format):
    # the file's own count, which a given one must match; else the given
    # one; else the largest label plus one
    path = write_format(tmp_path, format, [0, 2, 1, 2])
    declared = 5 if format == "rawf32" else None
    assert al.load_dataset(path, format).num_classes == (declared or 3)
    if declared:
        assert al.load_dataset(path, format, 5).num_classes == 5
        with pytest.raises(al.DataFormatError,
                           match="^meta says k=5 but num_classes=6 "
                                 "requested$"):
            al.load_dataset(path, format, num_classes=6)
    else:
        assert al.load_dataset(path, format, 6).num_classes == 6


def test_a_truncated_rawf32_reports_its_truncation_before_its_k(tmp_path):
    # the reader's checks come first; the class-count rule is load_dataset's
    path = write_format(tmp_path, "rawf32", [0, 2, 1, 2])
    with open(path, "r+b") as f:
        f.truncate(4)
    with pytest.raises(al.TruncatedPayloadError):
        al.load_dataset(path, "rawf32", num_classes=6)


def test_unknown_format():
    with pytest.raises(ValueError, match="unknown format"):
        al.load_dataset("x", "parquet")
