"""Gram ranks of the level-L subspace of the highest-weight module.

The Gram matrix pairs bra words with ket words through
w_mode_matrix_element; its exact rank over Q(s) is the dimension that the
words span at level L.  At a generic weight it is p_{N-1}(L), the number of
(N-1)-coloured partitions of L; the default weight at N = 4 and the point
(3/2, 5/3) has a_3/a_2 = t and loses one word at level 2."""

import pytest

from deformedw.context import ScalarCtx
from deformedw.exact import rat
from deformedw.fock import HighestWeight
from deformedw.wcurrents import w_mode_matrix_element


def descending_words(level: int, ranks):
    """Words of (rank, mode) with modes summing to `level`, each word
    sorted descending by (mode, rank), so every multiset appears once."""
    letters = sorted(((r, n) for n in range(1, level + 1) for r in ranks),
                     key=lambda x: (x[1], x[0]), reverse=True)
    out = []

    def extend(word, start, left):
        if not left:
            out.append(tuple(word))
            return
        for k in range(start, len(letters)):
            r, n = letters[k]
            if n <= left:
                extend(word + [(r, n)], k, left - n)

    extend([], 0, level)
    return out


def exact_rank(rows) -> int:
    """Rank of a matrix of exact field scalars by Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                c = rows[i][col] * inv
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def gram_rank(ctx, words) -> int:
    hw = HighestWeight.generic(ctx)
    return exact_rank([[w_mode_matrix_element(
        ctx, hw, list(bra), [(r, -n) for r, n in ket]) for ket in words]
        for bra in words])


@pytest.mark.parametrize("N, level, point, rank1, ranks, words", [
    (3, 2, (rat(3, 2), rat(5, 3)), 2, 5, 5),
    (3, 3, (rat(3, 2), rat(5, 3)), 3, 10, 10),
    # the degenerate default weight: a_3/a_2 = 5/3 = t
    (4, 2, (rat(3, 2), rat(5, 3)), 2, 8, 9),
    (4, 2, (rat(2, 7), rat(3, 5)), 2, 9, 9),
])
def test_gram_ranks_of_descending_words(N, level, point, rank1, ranks,
                                        words):
    # W^1 words against all-rank words, W^1 to W^{N-1}; there are
    # p_{N-1}(level) of the latter
    ctx = ScalarCtx.generic(N, *point)
    every = descending_words(level, range(1, N))
    assert len(every) == words
    assert gram_rank(ctx, descending_words(level, [1])) == rank1
    assert gram_rank(ctx, every) == ranks
