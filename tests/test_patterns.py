from itertools import combinations, permutations
from math import comb

import pytest

from permcross.patterns import (
    BoundExceededError,
    ClassSpec,
    avoids,
    class_size,
    class_spec,
    class_words,
    enumerate_class,
    filtered_words,
    occurrence_positions,
    occurrences,
    pattern_of,
    pruned_words,
)
from permcross.perm import (
    SYMMETRIES,
    Permutation,
    apply_symmetry,
    apply_symmetry_to_patterns,
    direct_sum,
)

ALL3 = [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]


def test_pattern_of():
    assert pattern_of((6, 2, 5)) == (3, 1, 2)
    assert pattern_of((9,)) == (1,)
    assert pattern_of((1, 2, 3, 4)) == (1, 2, 3, 4)


def test_occurrences_worked_example():
    # The printed walkthrough for 4162375/312 claims five witnesses starting
    # with "312", but 3 appears after 1 so that subsequence does not exist;
    # the definition yields these six (412 and 413 replace the bogus entry).
    count, witnesses = occurrences((4, 1, 6, 2, 3, 7, 5), (3, 1, 2))
    assert count == 6
    assert set(witnesses) == {
        (4, 1, 2),
        (4, 1, 3),
        (4, 2, 3),
        (6, 2, 3),
        (6, 2, 5),
        (6, 3, 5),
    }
    assert avoids((4, 1, 6, 2, 3, 7, 5), [(3, 2, 1)])


def test_occurrence_positions_match_witnesses():
    w = (4, 1, 6, 2, 3, 7, 5)
    positions = occurrence_positions(w, (3, 1, 2))
    _, witnesses = occurrences(w, (3, 1, 2))
    assert tuple(tuple(w[i - 1] for i in idx) for idx in positions) == witnesses


def test_occurrences_trivia():
    for w in permutations(range(1, 5)):
        assert occurrences(w, (1,))[0] == len(w)
    assert avoids((2, 4, 1, 3), [])
    assert not avoids((4, 7, 3, 5, 1, 2, 6), [(1, 2, 3)])


def test_class_spec_validation():
    with pytest.raises(ValueError):
        class_spec(3, one_at=4)
    with pytest.raises(ValueError):
        class_spec(3, ends_with=0)
    with pytest.raises(ValueError):
        class_spec(3, maxdrop_le=-1)
    with pytest.raises(ValueError):
        class_spec(3, one_at=1, tail=1)
    with pytest.raises(ValueError):
        ClassSpec(-1)
    with pytest.raises(ValueError):
        class_spec(3, avoid=[(1, 1)])
    # patterns are deduplicated and sorted
    spec = class_spec(4, avoid=[(2, 1), (1, 2), (2, 1)])
    assert spec.forbidden == ((1, 2), (2, 1))


def test_enumerate_small():
    assert [p.word for p in enumerate_class(class_spec(1))] == [(1,)]
    assert class_size(class_spec(0, avoid=[(1, 2, 3)])) == 1
    for pat in ALL3:
        members = list(enumerate_class(class_spec(4, avoid=[pat])))
        assert len(members) == 14
        assert all(isinstance(p, Permutation) for p in members)
        words = [p.word for p in members]
        assert words == sorted(words)


def test_class_sizes():
    assert class_size(class_spec(5, avoid=[(1, 3, 2)])) == 42
    for n in range(1, 11):
        assert class_size(class_spec(n, avoid=[(1, 2, 3), (1, 3, 2)])) == 2 ** (n - 1)


def test_catalan_sizes_all_patterns():
    for pat in ALL3:
        for n in range(8):
            assert class_size(class_spec(n, avoid=[pat])) == comb(2 * n, n) // (n + 1)


# the paper's four pattern pairs and their eight dihedral images each
PAPER_PAIRS = [
    ((1, 2, 3), (1, 3, 2)),
    ((1, 2, 3), (2, 1, 3)),
    ((2, 1, 3), (3, 1, 2)),
    ((1, 3, 2), (3, 1, 2)),
]
ORACLE_PATTERN_SETS = [
    pats for size in (1, 2, 3) for pats in combinations(ALL3, size)
] + [((1,),), ((2, 1),), ((1, 2),), ((1, 2, 3, 4),), ((2, 4, 1, 3), (3, 1, 4, 2)), ((1, 3, 2), (4, 2, 3, 1))]


@pytest.mark.parametrize(
    "spec",
    [
        class_spec(8),
        class_spec(8, avoid=[(3, 2, 1)]),
        class_spec(8, avoid=[(2, 1, 3), (3, 1, 2)], tail=3),
        class_spec(8, one_at=3),
        class_spec(8, ends_with=5),
        class_spec(8, maxdrop_le=1),
        class_spec(8, avoid=[(2, 3, 1), (3, 2, 1)], maxdrop_le=2),
    ]
    + sorted(
        {
            class_spec(8, avoid=apply_symmetry_to_patterns(tag, pair))
            for pair in PAPER_PAIRS
            for tag in SYMMETRIES
        },
        key=lambda s: s.forbidden,
    ),
    ids=lambda s: f"{s.forbidden}/{s.constraint}",
)
def test_generators_agree_at_eight(spec):
    assert list(class_words(spec)) == list(filtered_words(spec))


@pytest.mark.parametrize("pats", ORACLE_PATTERN_SETS, ids=str)
def test_generators_agree_small_pattern_classes(pats):
    for n in range(8):
        spec = class_spec(n, avoid=pats)
        assert list(class_words(spec)) == list(filtered_words(spec))


def test_generators_agree_small_all_constraints():
    for n in range(8):
        specs = []
        for pats in [(), ((2, 3, 1),), ((1, 2, 3), (2, 1, 3)), ((2, 4, 1, 3), (3, 1, 4, 2))]:
            specs += [class_spec(n, avoid=pats)]
            specs += [class_spec(n, avoid=pats, maxdrop_le=d) for d in range(4)]
            for k in range(1, n + 1):
                specs += [
                    class_spec(n, avoid=pats, one_at=k),
                    class_spec(n, avoid=pats, ends_with=k),
                    class_spec(n, avoid=pats, tail=k),
                ]
        for spec in specs:
            assert list(class_words(spec)) == list(filtered_words(spec)), spec


def test_pruned_words_refuses_pattern_classes():
    with pytest.raises(ValueError, match="pattern-free"):
        next(pruned_words(class_spec(4, avoid=[(3, 2, 1)])))
    with pytest.raises(ValueError, match="maxdrop bound only"):
        next(pruned_words(class_spec(4, one_at=2)))


def test_bounds():
    with pytest.raises(BoundExceededError, match="n <= 10"):
        list(class_words(class_spec(11)))
    with pytest.raises(BoundExceededError, match="n <= 12"):
        list(class_words(class_spec(13, avoid=[(3, 2, 1)])))
    # explicit bound overrides
    stream = class_words(class_spec(11), bound=11)
    assert next(stream) == tuple(range(1, 12))


def test_pattern_class_beyond_one_byte_letters_is_refused():
    # the generating tree packs one letter per byte; the error comes before
    # any enumeration
    spec = class_spec(256, avoid=[(2, 1)])
    with pytest.raises(ValueError, match="n=256 exceeds 255"):
        class_words(spec, bound=256)
    assert next(class_words(class_spec(255, avoid=[(2, 1)]), bound=255)) == tuple(range(1, 256))


def test_length_one_pattern_empties_classes():
    assert class_size(class_spec(3, avoid=[(1,)])) == 0
    assert class_size(class_spec(0, avoid=[(1,)])) == 1


# ---------------------------------------------------------------------------
# structure of the named classes


def test_one_sits_late_in_the_123_132_class():
    for n in range(2, 8):
        for w in class_words(class_spec(n, avoid=[(1, 2, 3), (1, 3, 2)])):
            assert w.index(1) + 1 in (n - 1, n)


def test_213_312_class_starts_or_ends_with_one():
    for n in range(1, 8):
        for w in class_words(class_spec(n, avoid=[(2, 1, 3), (3, 1, 2)])):
            assert w[0] == 1 or w[-1] == 1


def test_321_231_class_structure():
    # every member is 1 (+) pi or j 1 2 ... (j-1) (+) pi
    for n in range(1, 8):
        for w in class_words(class_spec(n, avoid=[(3, 2, 1), (2, 3, 1)])):
            j = w[0]
            if j == 1:
                rest = tuple(v - 1 for v in w[1:])
            else:
                head = (j,) + tuple(range(1, j))
                assert w[:j] == head
                rest = tuple(v - j for v in w[j:])
            assert direct_sum(w[: j if j > 1 else 1], rest).word == w


def test_one_at_equals_rci_of_ends_with():
    for n in range(1, 7):
        for k in range(1, n + 1):
            one_at = {w for w in class_words(class_spec(n, one_at=k))}
            ends = {w for w in class_words(class_spec(n, ends_with=k))}
            assert {apply_symmetry("rci", w) for w in one_at} == ends


def test_maxdrop_class_matches_avoider_class():
    for n in range(7):
        assert list(class_words(class_spec(n, maxdrop_le=1))) == list(
            class_words(class_spec(n, avoid=[(3, 2, 1), (2, 3, 1)]))
        )
