"""Tests for the (seed, index)-keyed random streams."""

import re

import numpy as np
import pytest

from csiaug.rng import check_int, check_ints, check_seed, check_str, derive_seed, make_generator


def test_swapped_seed_and_index_name_different_streams():
    assert not np.array_equal(make_generator(0, 1).random(8), make_generator(1, 0).random(8))
    assert derive_seed(0, 1) != derive_seed(1, 0)


def test_stream_key_packs_seed_and_index():
    seed, index = 2**64 - 1, 2**63 + 5
    key = np.array([seed, index], dtype=np.uint64)
    want = np.random.Generator(np.random.Philox(key=key)).random(8)
    assert np.array_equal(make_generator(seed, index).random(8), want)
    # Stream (s, 0) is the stream a bare 64-bit key gives.
    for s in (0, 7, 3001):
        plain = np.random.Generator(np.random.Philox(key=s)).random(8)
        assert np.array_equal(make_generator(s, 0).random(8), plain)


def test_derive_seed_is_first_word_of_stream():
    word = derive_seed(20260823, 4)
    assert 0 <= word < 2**64
    assert word == int(np.random.Philox(key=20260823 | 4 << 64).random_raw())


@pytest.mark.parametrize("seed,index", [(0, 2**64), (-1, 0), (0, -1), (2**64, 0)])
def test_out_of_range_words_rejected(seed, index):
    with pytest.raises(ValueError, match="64 unsigned bits"):
        make_generator(seed, index)
    with pytest.raises(ValueError, match="64 unsigned bits"):
        derive_seed(seed, index)


def test_check_int_takes_integers_and_names_the_field():
    for value in (0, -3, 2**70, np.int8(5), np.uint64(2**64 - 1)):
        got = check_int(value, "n")
        assert type(got) is int and got == value
    for value in (True, np.True_, 2.0, 2.5, np.float64(3), "4", None, [1]):
        with pytest.raises(ValueError, match="count must be an integer"):
            check_int(value, "count")
    with pytest.raises(ValueError, match="seed must be an integer"):
        check_seed(3001.7)
    # An optional lower bound, judged after the type.
    assert check_int(0, "shift", 0) == 0
    assert check_int(np.int64(3), "block size", 1) == 3
    assert check_int(-7, "offset") == -7  # no bound unless one is given
    for value, low in ((-1, 0), (0, 1), (np.int8(-2), 0), (np.uint64(4), 5)):
        with pytest.raises(ValueError, match=f"n must be at least {low}, got {int(value)}"):
            check_int(value, "n", low)
    # The type is judged before the bound.
    with pytest.raises(ValueError, match="n must be an integer"):
        check_int(-1.5, "n", 0)


def test_check_int_upper_bound_and_check_str():
    assert check_int(50, "--seeds", 1, 50) == 50
    assert check_int(2**70, "n", None, None) == 2**70
    with pytest.raises(ValueError, match="--seeds must be at most 50, got 51"):
        check_int(51, "--seeds", 1, 50)
    with pytest.raises(ValueError, match="n must be at most 3, got 4"):
        check_int(np.uint8(4), "n", high=3)
    assert check_str("rg", "method") == "rg"
    assert check_str("", "label") == ""
    # Strings are checked, never converted from other JSON values.
    for value in (None, 0.25, 5, True, ["rg"], {"a": 1}, b"rg"):
        with pytest.raises(ValueError, match=re.escape(f"label must be a string, got {value!r}")):
            check_str(value, "label")


def test_check_ints_reads_distinct_comma_separated_integers():
    assert check_ints("0,1,2,3", "--values", "shift steps") == [0, 1, 2, 3]
    assert check_ints(" 2, -1,,", "--values", "shift steps") == [2, -1]
    for text in ("a,b", "1.5", "1;2"):
        with pytest.raises(ValueError, match=re.escape(
                f"--values must be comma-separated integers, got {text!r}")):
            check_ints(text, "--values", "shift steps")
    for text in ("", ",", " , ", "1,1", "3,2,3"):
        with pytest.raises(ValueError, match=re.escape(
                f"--values must name distinct block values, got {text!r}")):
            check_ints(text, "--values", "block values")
