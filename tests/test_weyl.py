"""Symmetric group layer, checked against brute-force order oracles."""

from itertools import combinations

import pytest

import oracles
from crystalposets import weyl


def test_length_examples():
    assert oracles.length(weyl.identity(4)) == 0
    assert oracles.length((2, 4, 1, 3)) == 3
    assert oracles.length((4, 3, 2, 1)) == 6


def test_length_matches_double_loop():
    for w in oracles.all_permutations(4):
        count = sum(
            1 for i in range(4) for j in range(i + 1, 4) if w[i] > w[j]
        )
        assert oracles.length(w) == count


def test_left_multiply_examples():
    assert weyl.left_multiply(1, (1, 2, 3, 4)) == (2, 1, 3, 4)
    assert weyl.left_multiply(2, (2, 1, 3, 4)) == (3, 1, 2, 4)


def test_left_multiply_is_involution():
    for w in oracles.all_permutations(4):
        for i in range(1, 4):
            assert weyl.left_multiply(i, weyl.left_multiply(i, w)) == w


def test_length_changes_by_one():
    for w in oracles.all_permutations(4):
        for i in range(1, 4):
            assert abs(oracles.length(weyl.left_multiply(i, w)) - oracles.length(w)) == 1


def test_left_weak_examples():
    for w in oracles.all_permutations(4):
        assert oracles.left_weak_leq((1, 2, 3, 4), w)
    assert oracles.left_weak_leq((2, 1, 3, 4), (3, 2, 1, 4))
    assert not oracles.left_weak_leq((2, 1, 3, 4), (1, 3, 2, 4))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_left_weak_leq_matches_cover_reachability(n):
    perms = oracles.all_permutations(n)
    upsets = {u: oracles.left_weak_upset(u) for u in perms}
    for u in perms:
        for w in perms:
            assert oracles.left_weak_leq(u, w) == (w in upsets[u])


def test_strong_bruhat_examples():
    assert weyl.strong_bruhat_leq((1, 2, 3, 4), (4, 3, 2, 1))
    assert weyl.strong_bruhat_leq((2, 1, 4, 3), (3, 4, 1, 2))
    assert not weyl.strong_bruhat_leq((3, 4, 1, 2), (2, 1, 4, 3))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_strong_bruhat_matches_reflection_closure(n):
    pairs = oracles.strong_order_pairs(n)
    for u in oracles.all_permutations(n):
        for w in oracles.all_permutations(n):
            assert weyl.strong_bruhat_leq(u, w) == ((u, w) in pairs)


def test_join_examples():
    assert weyl.left_weak_join([(2, 4, 1, 3)]) == (2, 4, 1, 3)
    assert weyl.left_weak_join([(2, 1, 3), (1, 3, 2)]) == (3, 2, 1)
    assert weyl.left_weak_join([(2, 1, 3, 4), (1, 2, 4, 3)]) == (2, 1, 4, 3)


def test_join_matches_brute_force_on_s4_pairs():
    perms = oracles.all_permutations(4)
    for u, w in combinations(perms, 2):
        assert weyl.left_weak_join([u, w]) == oracles.brute_left_weak_join([u, w])


@pytest.mark.parametrize("n", [3, 4, 5])
def test_join_bounds_all_pairs(n):
    perms = oracles.all_permutations(n)
    # one inversion mask per permutation, as oracles.left_weak_leq reads it
    inv = {p: weyl._inverse_inversions(p) for p in perms}
    for u, w in combinations(perms, 2):
        j = weyl.left_weak_join([u, w])
        assert oracles.left_weak_leq(u, j) and oracles.left_weak_leq(w, j)
        # least among upper bounds: any common upper bound is above the join
        for z in perms:
            if not inv[u] & ~inv[z] and not inv[w] & ~inv[z]:
                assert not inv[j] & ~inv[z]


def test_join_of_triples_s4():
    perms = oracles.all_permutations(4)
    import random

    rng = random.Random(7)
    for _ in range(50):
        triple = rng.sample(perms, 3)
        assert weyl.left_weak_join(triple) == oracles.brute_left_weak_join(triple)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_join_of_atoms_is_longest_parabolic(n):
    # the join of the simple reflections indexed by J is the block reversal
    indices = list(range(1, n))
    for r in range(1, len(indices) + 1):
        for sub in combinations(indices, r):
            atoms = [weyl.left_multiply(j, weyl.identity(n)) for j in sub]
            assert weyl.left_weak_join(atoms) == weyl.longest_parabolic(set(sub), n)


@pytest.mark.parametrize("n", [3, 4])
def test_atoms_below_are_right_descents(n):
    for w in oracles.all_permutations(n):
        below = {
            j for j in range(1, n)
            if oracles.left_weak_leq(weyl.left_multiply(j, weyl.identity(n)), w)
        }
        assert below == weyl.left_descents(weyl.inverse(w))


def test_join_rejects_empty_and_mismatched():
    with pytest.raises(ValueError):
        weyl.left_weak_join([])
    with pytest.raises(ValueError):
        weyl.left_weak_join([(1, 2), (1, 2, 3)])


def test_longest_parabolic():
    assert weyl.longest_parabolic(set(), 4) == (1, 2, 3, 4)
    assert weyl.longest_parabolic({1, 3}, 4) == (2, 1, 4, 3)
    assert weyl.longest_parabolic({1, 2}, 3) == (3, 2, 1)
    assert weyl.longest_parabolic({2}, 4) == (1, 3, 2, 4)


def test_longest_parabolic_length_is_block_inversions():
    # length of the block reversal = number of positive roots of the sub-system
    assert oracles.length(weyl.longest_parabolic({1, 2, 3}, 4)) == 6
    assert oracles.length(weyl.longest_parabolic({1, 3}, 4)) == 2


def test_classify_roundtrip_all_subsets():
    # J is recovered from its longest element as the atoms below it
    for n in (3, 4):
        indices = list(range(1, n))
        for r in range(len(indices) + 1):
            for sub in combinations(indices, r):
                w = weyl.longest_parabolic(set(sub), n)
                atoms = {
                    j for j in indices
                    if oracles.left_weak_leq(weyl.left_multiply(j, weyl.identity(n)), w)
                }
                assert atoms == set(sub)


@pytest.mark.parametrize("n", [3, 4])
def test_classify_iff_weak_interval_equals_strong_interval(n):
    # w is a longest parabolic element exactly when the elements below it
    # are the same in left weak and in strong Bruhat order
    strong = oracles.strong_order_pairs(n)
    indices = range(1, n)
    parabolic = {
        weyl.longest_parabolic(sub, n)
        for r in range(n) for sub in combinations(indices, r)
    }
    for w in oracles.all_permutations(n):
        weak_down = {
            u for u in oracles.all_permutations(n) if oracles.left_weak_leq(u, w)
        }
        strong_down = {u for u in oracles.all_permutations(n) if (u, w) in strong}
        assert (w in parabolic) == (weak_down == strong_down)


def test_reduced_words_examples():
    assert oracles.reduced_words((1, 2, 3)) == {()}
    assert oracles.reduced_words((3, 2, 1)) == {(1, 2, 1), (2, 1, 2)}
    assert len(oracles.reduced_words((4, 3, 2, 1))) == 16


def test_reduced_word_cap(monkeypatch):
    assert oracles.MAX_REDUCED_WORDS == 1_000_000
    assert oracles.reduced_word_count((6, 5, 4, 3, 2, 1)) == 292_864
    assert oracles.reduced_word_count((2, 4, 1, 3)) == len(oracles.reduced_words((2, 4, 1, 3)))

    def enumerate_words(w):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(oracles, "MAX_REDUCED_WORDS", 16)
    assert len(oracles.reduced_words((4, 3, 2, 1))) == 16
    monkeypatch.setattr(oracles, "MAX_REDUCED_WORDS", 15)
    with pytest.raises(oracles.ReducedWordCapError):
        oracles.reduced_words((4, 3, 2, 1))
    monkeypatch.setattr(oracles, "MAX_REDUCED_WORDS", 1_000_000)
    monkeypatch.setattr(oracles, "_reduced_words", enumerate_words)
    w0 = tuple(range(7, 0, -1))  # 1,100,742,656 reduced words
    with pytest.raises(oracles.ReducedWordCapError):
        oracles.reduced_words(w0)
    assert issubclass(oracles.ReducedWordCapError, ValueError)


def test_reduced_words_find_each_descent_set_once(monkeypatch):
    # w0 in S_5: 768 words; counting and enumerating each visit the 120
    # permutations below w0 once
    calls = 0
    left_descents = weyl.left_descents

    def counted(w):
        nonlocal calls
        calls += 1
        return left_descents(w)

    monkeypatch.setattr(weyl, "left_descents", counted)
    assert len(oracles.reduced_words((5, 4, 3, 2, 1))) == 768
    assert calls <= 240


@pytest.mark.parametrize("n", [3, 4])
def test_reduced_words_match_product_search_and_braid_connect(n):
    for w in oracles.all_permutations(n):
        words = oracles.reduced_words(w)
        assert words == oracles.brute_reduced_words(w)
        assert oracles.braid_connected(words)


def test_serialization():
    assert weyl.permutation_to_string((2, 4, 1, 3)) == "2413"
    assert weyl.permutation_from_string("2413") == (2, 4, 1, 3)
    big = tuple([10] + list(range(1, 10)))
    assert weyl.permutation_from_string(weyl.permutation_to_string(big)) == big
    with pytest.raises(ValueError):
        weyl.permutation_from_string("1224")


def test_validation():
    with pytest.raises(ValueError):
        weyl.check_permutation((1, 1, 2))
    with pytest.raises(ValueError):
        weyl.check_permutation(tuple(range(1, 14)))
