import hashlib

import numpy as np
import pytest

from autolabel.rng import child_seed, stream


def test_child_seed_matches_independent_derivation():
    # the derivation contract: sha256 over "master/tag1/tag2...", low 8 bytes
    expected = int.from_bytes(
        hashlib.sha256(b"7/3/train").digest()[:8], "little")
    assert child_seed(7, 3, "train") == expected


def test_child_seed_distinguishes_tag_boundaries():
    assert child_seed(0, "a", 1) != child_seed(0, "a1")
    assert child_seed(0, "ab") != child_seed(0, "a", "b")
    assert child_seed(1, "x") != child_seed(11, "x")


def test_child_seed_accepts_numpy_integers():
    assert child_seed(np.int64(7), 3, "train") == child_seed(7, 3, "train")


@pytest.mark.parametrize("master", [2.5, 1.0, 5.5, True, False, np.False_,
                                    "7", None])
def test_child_seed_rejects_a_master_that_is_not_an_integer(master):
    # every seed a run draws from derives through child_seed: a float would
    # be truncated and a bool would pass as 0 or 1
    with pytest.raises(ValueError, match=r"^seed must be an integer"):
        child_seed(master, 0)
    with pytest.raises(ValueError, match=r"^seed must be an integer"):
        stream(master)


def test_stream_reproducible():
    a = stream(42, 5, "shuffle").permutation(100)
    b = stream(42, 5, "shuffle").permutation(100)
    assert np.array_equal(a, b)
    c = stream(42, 6, "shuffle").permutation(100)
    assert not np.array_equal(a, c)


def test_purposes_are_independent_streams():
    draws = {p: stream(3, 1, p).uniform(size=4) for p in
             ("train", "split", "posthoc", "active")}
    vals = list(draws.values())
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            assert not np.allclose(vals[i], vals[j])
