import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stirlingperms import words
from conftest import compositions_up_to, oracle_words

PAPER_WORD = (1, 5, 5, 6, 5, 3, 3, 3, 1, 2, 4, 4, 1, 1)
PAPER_PARTS = (4, 1, 3, 2, 3, 1)


def test_is_stirling_examples():
    assert words.is_stirling((1, 2, 2, 1), (2, 2))
    assert not words.is_stirling((1, 2, 1, 2), (2, 2))
    assert words.is_stirling(PAPER_WORD, PAPER_PARTS)
    # content mismatch is False, not an error
    assert not words.is_stirling((1, 1), (2, 2))
    assert not words.is_stirling((1, 2, 2, 3), (2, 2))
    # so is a letter 0, which no word holds
    assert not words.is_stirling((1, 0, 1), (2,))


def test_enumerate_small():
    assert words.enumerate_words(()) == [()]
    assert words.enumerate_words((2, 2)) == [(1, 1, 2, 2), (1, 2, 2, 1), (2, 2, 1, 1)]
    assert len(words.enumerate_words((2, 2, 2))) == 15


def test_count_examples():
    assert words.count_words(()) == 1
    assert words.count_words((2, 2, 2)) == 15
    assert words.count_words((1, 1, 1, 1)) == 24


@pytest.mark.parametrize("parts", compositions_up_to(7))
def test_enumeration_matches_brute_force(parts):
    assert words.enumerate_words(parts) == oracle_words(parts)


@pytest.mark.parametrize("parts", compositions_up_to(7))
def test_counting_consistency(parts):
    ws = words.enumerate_words(parts)
    assert len(ws) == len(set(ws)) == words.count_words(parts)
    assert all(words.is_stirling(w, parts) for w in ws)


@pytest.mark.parametrize("parts", compositions_up_to(6))
def test_reverse_is_involution_onto_word_set(parts):
    ws = words.enumerate_words(parts)
    assert {w[::-1] for w in ws} == set(ws)


def test_parse_and_format():
    assert words.parse_word("1,5,5,6") == (1, 5, 5, 6)
    assert words.parse_word("15565") == (1, 5, 5, 6, 5)
    assert words.parse_word("") == ()
    assert words.format_word((1, 12, 3)) == "1,12,3"
    # letters >= 10 only round-trip through the comma form
    assert words.parse_word("1,12,3") == (1, 12, 3)
    with pytest.raises(ValueError):
        words.parse_word("1,x")
    with pytest.raises(ValueError):
        words.parse_word("0,1")
    with pytest.raises(ValueError, match="comma-separated letters or digits"):
        words.parse_word("1a")


def test_parse_composition():
    assert words.parse_composition("2,2") == (2, 2)
    assert words.parse_composition("") == ()
    with pytest.raises(ValueError):
        words.parse_composition("2,0")
    with pytest.raises(ValueError):
        words.parse_composition("a,b")


def test_composition_of():
    assert words.composition_of(PAPER_WORD) == PAPER_PARTS
    assert words.composition_of(()) == ()
    with pytest.raises(ValueError):
        words.composition_of((1, 3))  # letter 2 missing
    with pytest.raises(ValueError, match="positive"):
        words.composition_of((1, 0, 1))


@pytest.mark.parametrize("fn, args", [
    (words.enumerate_words, ((1, 1.5),)),
    (words.count_words, ((1, 1.5),)),
    (words.is_stirling, ((1,), (1.5,))),
], ids=["enumerate_words", "count_words", "is_stirling"])
def test_non_integer_part_raises(fn, args):
    # int() would truncate 1.5 to 1 and answer for another composition
    with pytest.raises(TypeError):
        fn(*args)


def test_composition_of_rejects_a_large_gap_without_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="without gaps"):
            words.composition_of((1, 10**7))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("total", range(13))
def test_compositions_match_the_sorted_construction(total):
    # every composition by recursion on the first part, then sorted by
    # the reversed part sequences
    def gen(t):
        if t == 0:
            yield ()
        for head in range(1, t + 1):
            for rest in gen(t - head):
                yield (head,) + rest

    assert words.compositions_of(total) == sorted(gen(total), key=lambda c: c[::-1])


def test_compositions_of_rejects_a_negative_total():
    with pytest.raises(ValueError, match="nonnegative"):
        words.compositions_of(-1)


def test_compositions_order_is_colex():
    # colex compares the reversed sequences, so (2,1) precedes (1,2)
    assert words.compositions_of(3) == [(1, 1, 1), (2, 1), (1, 2), (3,)]
    assert words.compositions_up_to(2) == [(), (1,), (1, 1), (2,)]


@given(st.lists(st.integers(1, 3), min_size=0, max_size=4))
@settings(max_examples=60, deadline=None)
def test_word_text_round_trip(parts):
    for w in words.enumerate_words(tuple(parts)):
        assert words.parse_word(words.format_word(w)) == w
