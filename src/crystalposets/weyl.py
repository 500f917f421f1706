"""
Symmetric group layer: permutations in one-line notation, left descents,
the strong Bruhat order, left weak order joins, and longest elements of
parabolic subgroups.

A permutation of {1, ..., n} is represented by the tuple
(w(1), ..., w(n)).  All functions are pure and all values immutable, so
everything here is safe to share across threads.

Simple reflections act on the left by swapping the *values* i and i+1:
``left_multiply(i, w)`` is the one-line word of s_i * w.

Orders used throughout:

- left weak order: covers w < s_i * w whenever the length goes up; joins
  work on the inversion sets of the inverses, held as int bitmasks.
- strong Bruhat order: tested via the sorted-prefix (Ehresmann) criterion.
"""

from __future__ import annotations

from typing import Iterable, Sequence

Permutation = tuple[int, ...]

# Everything here is exact and intended for desk-scale exploration; S_12 has
# ~479M elements and anything bigger than that is a mistake, not a use case.
MAX_N = 12


def check_permutation(w: Permutation, n: int | None = None) -> Permutation:
    """Validate one-line notation, of size n when n is given; return the
    tuple unchanged."""
    w = tuple(w)
    size = len(w)
    if size == 0 or size > MAX_N:
        raise ValueError(f"permutation size must be between 1 and {MAX_N}, got {size}")
    if n is not None and size != n:
        raise ValueError(f"permutation {w} has size {size}, expected n={n}")
    if sorted(w) != list(range(1, size + 1)):
        raise ValueError(f"not a permutation of 1..{size}: {w}")
    return w


def identity(n: int) -> Permutation:
    return tuple(range(1, n + 1))


def inverse(w: Permutation) -> Permutation:
    inv = [0] * len(w)
    for pos, val in enumerate(w):
        inv[val - 1] = pos + 1
    return tuple(inv)


def left_multiply(i: int, w: Permutation) -> Permutation:
    """One-line word of s_i * w: swap the values i and i+1 wherever they occur.

    >>> left_multiply(1, (1, 2, 3, 4))
    (2, 1, 3, 4)
    >>> left_multiply(2, (2, 1, 3, 4))
    (3, 1, 2, 4)
    """
    return tuple(i + 1 if x == i else i if x == i + 1 else x for x in w)


def _same_n(u: Permutation, w: Permutation) -> None:
    if len(u) != len(w):
        raise ValueError(f"mismatched sizes: {len(u)} vs {len(w)}")


def _offset(b: int) -> int:
    """Inversion sets are ints with one bit per value pair a < b, at bit
    _offset(b) + a - 1: grouped by the larger value b, so the layout does
    not depend on n, and S_MAX_N needs 66 bits."""
    return (b - 1) * (b - 2) // 2


def _inverse_inversions(w: Permutation) -> int:
    """Inv(w^-1) as a mask: the pairs (a, b), a < b, with w(a) > w(b)."""
    mask = off = 0
    for b, wb in enumerate(w):  # off == _offset(b + 1)
        for a in range(b):
            if w[a] > wb:
                mask |= 1 << (off + a)
        off += b
    return mask


def strong_bruhat_leq(u: Permutation, w: Permutation) -> bool:
    """u <= w in strong Bruhat order, via the sorted-prefix criterion.

    >>> strong_bruhat_leq((2, 1, 4, 3), (3, 4, 1, 2))
    True
    >>> strong_bruhat_leq((3, 4, 1, 2), (2, 1, 4, 3))
    False
    """
    _same_n(u, w)
    n = len(u)
    for k in range(1, n):
        for a, b in zip(sorted(u[:k]), sorted(w[:k])):
            if a > b:
                return False
    return True


def left_weak_join(ws: Iterable[Permutation]) -> Permutation:
    """Least upper bound in left weak order of a nonempty set.

    Inv(j^-1) of the join j is the transitive closure of the union of the
    sets Inv(w^-1) (Bjorner-Brenti, GTM 231, ch. 3): the pairs (a, c)
    with w(a) > w(c) are closed under (a, b), (b, c) => (a, c).  Grouped by
    c, each group is closed by or-ing in the groups of its members, in
    increasing c; c then takes its place among 1..c-1 from the size of its
    group.

    >>> left_weak_join([(2, 1, 3), (1, 3, 2)])
    (3, 2, 1)
    >>> left_weak_join([(2, 1, 3, 4), (1, 2, 4, 3)])
    (2, 1, 4, 3)
    """
    ws = [tuple(w) for w in ws]
    if not ws:
        raise ValueError("join of an empty set")
    n = len(ws[0])
    union = 0
    for w in ws:
        _same_n(ws[0], w)
        union |= _inverse_inversions(w)
    # above[c]: bit a-1 set when the join sends a < c above c; order: the
    # positions seen so far, sorted by their value under the join
    above = [0] * (n + 1)
    order: list[int] = []
    closed_mask = 0
    for c in range(1, n + 1):
        group = union >> _offset(c) & ((1 << (c - 1)) - 1)
        closed = group
        while group:
            low = group & -group
            closed |= above[low.bit_length()]
            group ^= low
        above[c] = closed
        closed_mask |= closed << _offset(c)
        order.insert(c - 1 - closed.bit_count(), c)
    join = [0] * n
    for value, c in enumerate(order, 1):
        join[c - 1] = value
    join = tuple(join)
    if _inverse_inversions(join) != closed_mask:
        raise ValueError("pair set is not the inversion set of any permutation")
    return join


def longest_parabolic(indices: Iterable[int], n: int) -> Permutation:
    """Longest element of the parabolic subgroup generated by {s_j : j in indices}.

    In one-line notation this reverses each maximal block of consecutive
    values determined by the index set and fixes everything else.

    >>> longest_parabolic({1, 3}, 4)
    (2, 1, 4, 3)
    >>> longest_parabolic({1, 2}, 3)
    (3, 2, 1)
    """
    idx = sorted(set(indices))
    if idx and not (1 <= idx[0] and idx[-1] <= n - 1):
        raise ValueError(f"parabolic indices {idx} out of range for n={n}")
    word = list(range(1, n + 1))
    start = 0
    while start < len(idx):
        stop = start
        while stop + 1 < len(idx) and idx[stop + 1] == idx[stop] + 1:
            stop += 1
        lo, hi = idx[start], idx[stop] + 1  # block of values lo..hi
        word[lo - 1 : hi] = reversed(word[lo - 1 : hi])
        start = stop + 1
    return tuple(word)


def left_descents(w: Permutation) -> frozenset[int]:
    """Indices i with the value i appearing after i+1 in the word.

    >>> sorted(left_descents((2, 4, 1, 3)))
    [1, 3]
    """
    pos = inverse(w)
    return frozenset(i for i in range(1, len(w)) if pos[i - 1] > pos[i])


def permutation_to_string(w: Sequence[int]) -> str:
    """Serialize a word of positive letters: a digit string when every
    letter is at most 9, comma-separated otherwise.  A permutation of 1..n
    in one-line notation is such a word, written as digits exactly when
    n <= 9; the CLI writes chain labels with it too.

    >>> permutation_to_string((2, 4, 1, 3))
    '2413'
    >>> permutation_to_string((10, 2, 1)), permutation_to_string(())
    ('10,2,1', '')
    """
    if max(w, default=0) <= 9:
        return "".join(str(x) for x in w)
    return ",".join(str(x) for x in w)


def permutation_from_string(text: str) -> Permutation:
    """Inverse of :func:`permutation_to_string`.

    >>> permutation_from_string("2413")
    (2, 4, 1, 3)
    >>> permutation_from_string("10,2,1,3,4,5,6,7,8,9")[0]
    10
    """
    text = text.strip()
    if "," in text:
        word = tuple(int(part) for part in text.split(","))
    else:
        word = tuple(int(ch) for ch in text)
    return check_permutation(word)
