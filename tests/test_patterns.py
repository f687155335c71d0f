import gc
import sys
import threading
import tracemalloc
from collections import Counter
from itertools import combinations, permutations, zip_longest
from math import comb, factorial

import pytest

from permcross import patterns, perm
from permcross.patterns import (
    P132_312,
    P213_312,
    BoundExceededError,
    ClassSpec,
    _class_table,
    avoids,
    class_blocks,
    class_size,
    class_spec,
    class_words,
    filtered_words,
    occurrence_positions,
    occurrences,
    pattern_of,
)
from permcross.perm import (
    SYMMETRIES,
    Permutation,
    apply_symmetry,
    apply_symmetry_to_patterns,
    crossing_count,
    stat_columns,
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
    # every pattern is read before any is looked for, so an empty one is refused
    with pytest.raises(ValueError, match="size >= 1"):
        avoids((1, 2), [(1, 2), ()])
    assert avoids((1, 2, 3), [(2, 5)])  # a sequence that is no pattern occurs nowhere


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
    assert list(class_words(class_spec(1))) == [(1,)]
    assert class_size(class_spec(0, avoid=[(1, 2, 3)])) == 1
    for pat in ALL3:
        words = list(class_words(class_spec(4, avoid=[pat])))
        assert len(words) == 14
        assert all(Permutation(w).word == w for w in words)
        assert words == sorted(words)


def test_class_sizes():
    assert class_size(class_spec(5, avoid=[(1, 3, 2)])) == 42
    for n in range(1, 11):
        assert class_size(class_spec(n, avoid=[(1, 2, 3), (1, 3, 2)])) == 2 ** (n - 1)


def test_catalan_sizes_all_patterns():
    for pat in ALL3:
        for n in range(8):
            assert class_size(class_spec(n, avoid=[pat])) == comb(2 * n, n) // (n + 1)


def simion_schmidt(pats, n: int) -> int | None:
    """|S_n(T)| for a set T of one to three length-3 patterns (Simion and
    Schmidt, "Restricted permutations", Europ. J. Combin. 6, 1985), n >= 1;
    None where the closed form gives no single value (n < 5 for a triple
    that holds both 123 and 321)."""
    t, up, down = set(pats), (1, 2, 3), (3, 2, 1)
    fib = [1, 1]  # fib[n] = F_(n+1)
    while len(fib) <= n:
        fib.append(fib[-1] + fib[-2])
    if len(t) == 1:
        return comb(2 * n, n) // (n + 1)
    if t == {up, down}:
        return (1, 2, 4, 4)[n - 1] if n < 5 else 0
    if len(t) == 2:
        if t in ({up, (2, 3, 1)}, {up, (3, 1, 2)}, {(1, 3, 2), down}, {(2, 1, 3), down}):
            return comb(n, 2) + 1
        return 2 ** (n - 1)
    if t in ({up, (1, 3, 2), (2, 1, 3)}, {(2, 3, 1), (3, 1, 2), down}):
        return fib[n]
    if {up, down} <= t:
        return 0 if n >= 5 else None
    return n


def test_simion_schmidt_counts_to_12():
    # the 41 sets of one to three length-3 patterns; the Catalan levels pass
    # BLOCK_WORDS members from n = 10 on, where a table grows a level from
    # several chunks, past the reach of the oracle (n <= 8)
    _class_table.cache_clear()
    class_size.cache_clear()
    sets = [pats for size in (1, 2, 3) for pats in combinations(ALL3, size)]
    assert len(sets) == 41
    try:
        for pats in sets:
            for n in range(1, 13):
                want = simion_schmidt(pats, n)
                if want is None:
                    want = sum(1 for _ in filtered_words(class_spec(n, avoid=pats)))
                assert class_size(class_spec(n, avoid=pats)) == want, (pats, n)
    finally:
        _class_table.cache_clear()


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
# patterns of length 5 and 6, whose occurrences the tree grows four and five letters deep
LONG_PATTERN_SETS = [((2, 4, 1, 5, 3),), ((1, 3, 2), (4, 6, 5, 2, 1, 3))]


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
    + [class_spec(8, avoid=pats) for pats in LONG_PATTERN_SETS]
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


@pytest.mark.parametrize("pats", ORACLE_PATTERN_SETS + LONG_PATTERN_SETS, ids=str)
def test_generators_agree_small_pattern_classes(pats):
    for n in range(8):
        spec = class_spec(n, avoid=pats)
        assert list(class_words(spec)) == list(filtered_words(spec))


def test_generators_agree_small_all_constraints():
    for n in range(8):
        specs = []
        for pats in [(), ((2, 3, 1),), ((1, 2, 3), (2, 1, 3)), ((2, 4, 1, 3), (3, 1, 4, 2))]:
            specs += [class_spec(n, avoid=pats)]
            # every drop bound d = 0..n of bare S_n, built from threshold columns
            drops = range(max(4, n + 1)) if not pats else range(4)
            specs += [class_spec(n, avoid=pats, maxdrop_le=d) for d in drops]
            for k in range(1, n + 1):
                specs += [
                    class_spec(n, avoid=pats, one_at=k),
                    class_spec(n, avoid=pats, ends_with=k),
                    class_spec(n, avoid=pats, tail=k),
                ]
        for spec in specs:
            assert list(class_words(spec)) == list(filtered_words(spec)), spec


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


def test_refusals_come_before_the_table_is_touched():
    _class_table.cache_clear()
    packed = [
        lambda: class_blocks(class_spec(256), bound=256),
        lambda: class_blocks(class_spec(256, maxdrop_le=0), bound=256),
        lambda: class_blocks(class_spec(256, one_at=1), bound=256),
        lambda: class_blocks(class_spec(256, avoid=[(2, 1)]), bound=256),
        lambda: class_words(class_spec(256, maxdrop_le=3), bound=256),
        lambda: class_words(class_spec(256, avoid=[(2, 1)], tail=2), bound=256),
    ]
    for request in packed:
        with pytest.raises(ValueError, match="n=256 exceeds 255"):
            request()
    with pytest.raises(BoundExceededError, match="n <= 10"):
        class_blocks(class_spec(11, maxdrop_le=2))
    with pytest.raises(BoundExceededError, match="n <= 10"):
        class_blocks(class_spec(11))
    with pytest.raises(BoundExceededError, match="n <= 10"):
        class_blocks(class_spec(11, ends_with=4))
    with pytest.raises(BoundExceededError, match="n <= 8"):
        class_words(class_spec(9, tail=2), bound=8)
    with pytest.raises(BoundExceededError, match="n <= 12"):
        class_blocks(class_spec(13, avoid=[(3, 2, 1)], one_at=1))
    with pytest.raises(BoundExceededError, match="n <= 7"):
        class_blocks(class_spec(8, avoid=[(3, 2, 1)]), bound=7)
    assert _class_table.cache_info().currsize == 0


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
            assert sorted(rest) == list(range(1, len(rest) + 1))  # pi is a permutation


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


# ---------------------------------------------------------------------------
# the class table


#: Every nonempty set of at most two length-3 patterns, as ClassSpec stores it.
TABLE_SETS = [class_spec(0, avoid=pats).forbidden for k in (1, 2) for pats in combinations(ALL3, k)]
_ORACLE: dict = {}


def _oracle(n: int, forbidden) -> list:
    if (n, forbidden) not in _ORACLE:
        _ORACLE[n, forbidden] = list(filtered_words(ClassSpec(n, forbidden)))
    return _ORACLE[n, forbidden]


def unpacked(blocks) -> list:
    """The words of (columns, count) blocks, whose columns must each hold count letters."""
    assert all(all(len(c) == count for c in columns) for columns, count in blocks)
    return [w for columns, count in blocks for w in (zip(*columns) if columns else [()] * count)]


def _drop_tree(n: int, d: int):
    """The blocks of S_n, n >= 1, under the drop bound d from a table whose
    one pattern, longer than n, forbids nothing, so that every level takes
    the mask cut of the growth step; its last level streams."""
    table = patterns._ClassTable((tuple(range(1, n + 2)),), d)
    return patterns._reblocked(patterns._children(table.level(n - 1), n, table.rules, d), n)


def _obeys(w, kind: str, k: int) -> bool:
    """The positional constraints, from their definitions."""
    n = len(w)
    if kind == "one_at":
        return w[n - k] == 1
    if kind == "ends_with":
        return w[-1] == k
    if kind == "tail":
        return w[n - k :] == tuple(range(k, 0, -1))
    return all(i - v <= k for i, v in enumerate(w, 1))


@pytest.mark.parametrize("order", [(8, 5), (5, 8)], ids=["8-then-5", "5-then-8"])
def test_class_table_levels_match_the_oracle_in_any_request_order(order):
    for forbidden in TABLE_SETS:
        _class_table.cache_clear()
        for n in order:
            list(class_blocks(ClassSpec(n, forbidden)))
        table = _class_table(forbidden, None)
        assert len(table.levels) == 9  # grown once, to the largest size asked for
        for n in range(8):
            want = _oracle(n, forbidden)
            assert list(class_words(ClassSpec(n, forbidden))) == want, (n, forbidden)
            for kind in ("one_at", "ends_with", "tail", "maxdrop_le"):
                for k in range(0 if kind == "maxdrop_le" else 1, n + 1):
                    spec = ClassSpec(n, forbidden, (kind, k))
                    kept = [w for w in want if _obeys(w, kind, k)]
                    assert list(class_words(spec)) == kept, spec
                    blocks = list(class_blocks(spec))
                    assert unpacked(blocks) == kept, spec
                    assert sum(c for _, c in blocks) == len(kept), spec
        # one table per forbidden set and drop bound, whatever n, constraint or bound
        assert _class_table.cache_info().currsize == 1 + 8
        assert _class_table(forbidden, None) is table
    _class_table.cache_clear()


@pytest.mark.parametrize("block", [1, 7, 119, 120, 2048])
def test_class_table_blocks_at_block_edges(monkeypatch, block):
    # a table slice, bare S_n built by columns, where a block may span the
    # copies of S_(m-1) (the first letter changes every 120 words here), and
    # the streamed last level of S_n under a drop bound (6,144 words at n=8,
    # d=3), whose segments per first letter are cut into blocks; no
    # consumer may depend on where blocks end
    specs = (
        class_spec(7, avoid=[(2, 3, 1)], tail=1),
        class_spec(6),
        class_spec(7, one_at=3),
        class_spec(7, maxdrop_le=2),
        class_spec(8, maxdrop_le=3),
    )
    want = {spec: list(filtered_words(spec)) for spec in specs}
    monkeypatch.setattr(patterns, "BLOCK_WORDS", block)
    for spec in specs:
        blocks = list(class_blocks(spec))
        assert all(0 < count <= block and len(cols) == spec.n for cols, count in blocks)
        assert unpacked(blocks) == want[spec]
        # the boundaries of packed_blocks: BLOCK_WORDS words a block, the last one fewer
        assert blocks == list(patterns.packed_blocks(want[spec], spec.n))
        assert list(class_words(spec)) == want[spec]
        crs = Counter(v for cols, count in blocks for v in stat_columns(cols, count, ["crs"])[0])
        assert crs == Counter(map(crossing_count, want[spec]))


CHUNKED = (
    class_spec(7, avoid=[(2, 3, 1)]),
    class_spec(7, avoid=[(1, 2, 3, 4)]),
    class_spec(7, avoid=[(3, 2, 1)], maxdrop_le=1),
    class_spec(7, maxdrop_le=2),
    class_spec(8, maxdrop_le=3),
)


@pytest.mark.parametrize("chunk", [1, 7, 119, 120])
def test_class_tables_at_chunk_edges(monkeypatch, chunk):
    # the growth step cuts each size into chunks of BLOCK_WORDS members:
    # 132 and 429 members of 231-avoiders at sizes 6 and 7, 1,536 of S_7
    # under a drop bound of 3, grown by both cuts of the step
    want = {spec: list(filtered_words(spec)) for spec in CHUNKED}
    monkeypatch.setattr(patterns, "BLOCK_WORDS", chunk)
    _class_table.cache_clear()
    try:
        for spec in CHUNKED:
            assert unpacked(list(class_blocks(spec))) == want[spec], spec
            if not spec.forbidden:
                assert unpacked(list(_drop_tree(spec.n, spec.constraint[1]))) == want[spec], spec
    finally:
        _class_table.cache_clear()


def test_class_table_cache_clear_empties_it():
    _class_table.cache_clear()
    spec = class_spec(6, avoid=[(1, 3, 2)])
    assert class_size(spec) == 132
    first = _class_table(spec.forbidden, None)
    assert _class_table.cache_info().currsize == 1
    _class_table.cache_clear()
    assert _class_table.cache_info().currsize == 0
    assert _class_table(spec.forbidden, None) is not first
    _class_table.cache_clear()


def test_class_table_cache_is_found_by_introspection():
    # a cache is cleared by name wherever lru_caches are found on the module
    caches = {
        name
        for name, obj in vars(patterns).items()
        if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == "permcross.patterns"
    }
    assert "_class_table" in caches
    assert callable(_class_table.cache_clear)


def test_bare_symmetric_group_is_never_stored():
    _class_table.cache_clear()
    class_size.cache_clear()
    for spec in (class_spec(6), class_spec(6, maxdrop_le=2), class_spec(6, one_at=2)):
        assert sum(c for _, c in class_blocks(spec)) == class_size(spec) == len(
            list(class_words(spec))
        )
    assert _class_table.cache_info().currsize == 0
    class_size.cache_clear()


def test_group_blocks_match_the_oracle():
    # the class_words tests never reach the column builder for bare S_n
    tables, sizes = _class_table.cache_info().currsize, class_size.cache_info().currsize
    for n in range(9):
        cuts = [{kind: k} for k in range(1, n + 1) for kind in ("one_at", "ends_with", "tail")]
        for spec in [class_spec(n)] + [class_spec(n, **cut) for cut in cuts]:
            blocks = list(class_blocks(spec))
            want = list(filtered_words(spec))
            assert unpacked(blocks) == want, spec
            assert sum(c for _, c in blocks) == len(want), spec
    # the edges: one empty word, one letter, and no free letter at all
    assert list(class_blocks(class_spec(0))) == [([], 1)]
    assert list(class_words(class_spec(0))) == [()]
    assert list(class_blocks(class_spec(1))) == [([b"\x01"], 1)]
    assert list(class_blocks(class_spec(1, tail=1))) == [([b"\x01"], 1)]
    suffix = [bytes((v,)) for v in (5, 4, 3, 2, 1)]
    assert list(class_blocks(class_spec(5, tail=5))) == [(suffix, 1)]
    assert list(class_words(class_spec(4, tail=4))) == [(4, 3, 2, 1)]
    # S_(m-1) is held by the stream only, never in a cache
    assert _class_table.cache_info().currsize == tables
    assert class_size.cache_info().currsize == sizes
    # every enumeration path yields the one empty word: bare S_0, S_0 under drop
    # bounds, and pattern classes with and without a drop bound
    empty = [
        class_spec(0),
        class_spec(0, maxdrop_le=0),
        class_spec(0, maxdrop_le=3),
        class_spec(0, avoid=[(1,)]),
        class_spec(0, avoid=[(2, 1)]),
        class_spec(0, avoid=[(2, 1)], maxdrop_le=1),
    ]
    for spec in empty:
        assert list(class_blocks(spec)) == [([], 1)], spec
        assert class_size(spec) == 1, spec


@pytest.mark.parametrize("block", [1, 7, 119, 120, 2048])
def test_group_columns_match_group_blocks_and_permutations(monkeypatch, block):
    # S_5 copies of 24 and S_6 copies of 120 words: blocks that end inside a
    # copy, on its edge and past several copies; bare and cut S_n come from
    # the column builder with the block edges of packed_blocks
    monkeypatch.setattr(patterns, "BLOCK_WORDS", block)
    for n in range(8):
        cuts = [{kind: k} for k in range(1, n + 1) for kind in ("one_at", "ends_with", "tail")]
        for spec in [class_spec(n)] + [class_spec(n, **cut) for cut in cuts]:
            blocks = list(class_blocks(spec))
            assert blocks == list(patterns._group_columns(n, *patterns._fixed_run(spec))), spec
            assert all(len(cols) == n for cols, _ in blocks), spec
            keep = patterns._constraint_predicate(spec)
            want = [w for w in permutations(range(1, n + 1)) if keep(w)]
            assert unpacked(blocks) == want, spec
            assert blocks == list(patterns.packed_blocks(want, n)), spec


def test_group_columns_hold_one_copy_of_the_smaller_group():
    # the first block of S_9 needs S_8 held by columns, 8 * 8! = 322,560
    # bytes; joining S_8 from all of its blocks at once peaked at 633 KB
    tracemalloc.start()
    try:
        next(patterns._group_columns(9))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 500_000


def test_drop_stream_lets_each_piece_go_before_the_next():
    # S_10 under a drop bound of 3 streams its last level in pieces of at
    # most 8,192 words, the children of one first letter in one chunk of
    # the level below, and lets that level go once it is chunked: the fold
    # peaks at 597 KB traced, and at 819 KB with the level held beside its
    # chunks
    tracemalloc.start()
    try:
        for columns, count in class_blocks(class_spec(10, maxdrop_le=3)):
            stat_columns(columns, count, ("crs",))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 765_000


def test_growing_a_tree_keeps_no_lanes():
    # the levels of 321-avoiders up to size 11 take 0.88 MB; the lanes of
    # each chunk (x, xt and the letter edges) must go when its first
    # letters are found, not wait for the cyclic collector: held, they
    # took 2.5 MB more
    _class_table.cache_clear()
    gc.disable()
    tracemalloc.start()
    try:
        _class_table(((3, 2, 1),), None).level(11)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
        _class_table.cache_clear()
    assert held < 1_200_000


@pytest.mark.parametrize("n", [13, 14, 15, 16])
def test_positional_cuts_of_the_tail_pairs_by_count(n):
    # past the oracle's reach: a tail-k class of (213,312) or (132,312) has
    # 2^(n-1-k) members, 1 for k = n (Table 1 at q = 1), and 1 sits first or
    # last in a (213,312)-avoider, 2^(n-2) times each (eq-7, prop-4.1 at q = 1)
    cuts = [(pair, "tail", k) for pair in (P213_312, P132_312) for k in range(1, n + 1)]
    cuts += [(P213_312, "one_at", k) for k in range(1, n + 1)]
    for pair, kind, k in cuts:
        if kind == "tail":
            want, at, run = 2 ** (n - 1 - k) if k < n else 1, n - k, range(k, 0, -1)
        else:
            want, at, run = 2 ** (n - 2) if k in (1, n) else 0, n - k, (1,)
        spec = ClassSpec(n, pair, (kind, k))
        blocks = list(class_blocks(spec, bound=n))
        assert sum(count for _, count in blocks) == class_size(spec, bound=n) == want, spec
        for columns, count in blocks:  # the fixed letters are in place, and nowhere else
            assert columns[at : at + len(run)] == [bytes((v,)) * count for v in run], spec
            assert not any(v in c for c in columns[:at] + columns[at + len(run) :] for v in run)
    _class_table.cache_clear()


def test_lanes_of_several_bytes_at_sizes_past_23():
    # a member of size k is a lane of (k + 11) // 8 bytes, four bytes from
    # k = 21 on; S_n(123,132,213) has F_(n+1) members
    fib = [0, 1]
    while len(fib) < 28:
        fib.append(fib[-1] + fib[-2])
    forbidden = [(1, 2, 3), (1, 3, 2), (2, 1, 3)]
    for n in (24, 25, 26):
        spec = class_spec(n, avoid=forbidden)
        words = list(class_words(spec, bound=n))
        assert len(words) == class_size(spec, bound=n) == fib[n + 1]
        assert all(sorted(w) == list(range(1, n + 1)) for w in words)
        assert all(a < b for a, b in zip(words, words[1:]))  # lex order, no repeats
        # the definitional check on an even sample of the members, the ends included
        sample = words[:: len(words) // 40] + [words[-1]]
        assert all(avoids(w, forbidden) for w in sample)
    assert class_size(class_spec(30, maxdrop_le=0), bound=30) == 1
    _class_table.cache_clear()


def test_empty_levels_stay_empty():
    # (123,321) has no member of size 5 or more (Erdos-Szekeres)
    spec = class_spec(7, avoid=[(1, 2, 3), (3, 2, 1)])
    assert list(class_blocks(spec)) == []
    assert list(class_words(spec)) == []
    assert class_size(class_spec(4, avoid=[(1, 2, 3), (3, 2, 1)])) == 4
    assert list(class_blocks(class_spec(7, avoid=[(1, 2, 3), (3, 2, 1)], one_at=3))) == []


def test_threads_sharing_a_table_grow_each_level_once():
    # more threads than cores, switching often, ask one fresh table for
    # sizes in different orders; a level grown twice would shift every size
    forbidden = class_spec(0, avoid=[(1, 3, 2), (3, 2, 1)]).forbidden
    want = {n: _oracle(n, forbidden) for n in range(8)}
    _class_table.cache_clear()
    table = _class_table(forbidden, None)
    failures = []

    def ask(sizes):
        try:
            for n in sizes:
                assert list(class_words(ClassSpec(n, forbidden))) == want[n]
        except AssertionError as exc:
            failures.append(exc)

    orders = [range(8), range(7, -1, -1), (3, 7, 1, 5), (7,), (6, 2, 4, 0)]
    threads = [threading.Thread(target=ask, args=(sizes,)) for sizes in orders]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not failures
    assert _class_table(forbidden, None) is table and len(table.levels) == 8
    _class_table.cache_clear()


# ---------------------------------------------------------------------------
# S_n under a drop bound, grown by the tree's step from thresholds


def test_drop_columns_match_the_oracle():
    for n in range(9):
        for d in range(n + 1):
            spec = class_spec(n, maxdrop_le=d)
            blocks = list(class_blocks(spec))
            want = list(filtered_words(spec))
            assert unpacked(blocks) == want, spec
            assert blocks == list(patterns.packed_blocks(want, n)), spec


@pytest.mark.parametrize("n", range(2, 13))
def test_drop_columns_match_the_tree_block_for_block(n):
    # the one-translate cut of class_blocks against the mask cut of a table
    # whose pattern forbids nothing, and both against the closed form, since
    # the cuts share their thresholds; S_12 under d = 4 (9,375,000 words) is
    # left out for its memory
    for d in range(4 if n == 12 else 5):
        spec, words = class_spec(n, maxdrop_le=d), 0
        for a, b in zip_longest(class_blocks(spec, bound=n), _drop_tree(n, d)):
            assert a == b, d
            words += a[1]
        assert words == ((d + 1) ** (n - d) * factorial(d) if n > d else factorial(n)), d


def test_drop_bounds_past_n_minus_one_give_the_whole_group(monkeypatch):
    # no drop exceeds n-1, so those classes come as bare S_n, not by the tree
    def refuse(*args):
        raise AssertionError("S_n under a drop bound d >= n-1 went through the tree")

    monkeypatch.setattr(patterns, "_children", refuse)
    for n in range(10):
        whole = list(class_blocks(class_spec(n)))
        for d in range(max(n - 1, 0), n + 2):
            assert list(class_blocks(class_spec(n, maxdrop_le=d))) == whole, (n, d)


@pytest.mark.parametrize("block", [1, 3, 7])
def test_drop_columns_at_block_edges(monkeypatch, block):
    # the pieces of the last level differ in size (S_6 under a drop bound
    # of 2: 72, 72 and 36 words a first letter, cut by chunks of the level
    # below), so blocks straddle their edges
    monkeypatch.setattr(patterns, "BLOCK_WORDS", block)
    for n in range(1, 8):
        for d in range(4):
            spec = class_spec(n, maxdrop_le=d)
            blocks = list(class_blocks(spec))
            assert blocks == list(_drop_tree(n, d)), spec
            assert blocks == list(patterns.packed_blocks(filtered_words(spec), n)), spec


@pytest.mark.parametrize("n", [15, 16, 17])
def test_drop_columns_on_both_sides_of_one_byte_per_threshold_and_letter(n):
    # t and a letter share a byte up to size 15, so the last level of S_16
    # is the first one class_blocks grows by the mask cut.  A threshold too
    # high lets the class grow towards n!, so fail small first
    assert class_size(class_spec(9, maxdrop_le=1)) == 2 ** 8
    blocks = list(class_blocks(class_spec(n, maxdrop_le=1), bound=n))
    assert sum(count for _, count in blocks) == 2 ** (n - 1)
    assert blocks == list(_drop_tree(n, 1))


def test_drop_class_sizes_match_the_closed_form():
    # Chung, Claesson, Dukes and Graham: (d+1)^(n-d) d! words for n > d
    for n in range(11):
        for d in range(n + 2):
            want = (d + 1) ** (n - d) * factorial(d) if n > d else factorial(n)
            assert class_size(class_spec(n, maxdrop_le=d)) == want, (n, d)


def test_tree_growth_builds_no_popcount_masks():
    # a generating tree's lanes compare letters and never popcount, so
    # growing a table builds none of the popcount masks the crs folds keep
    perm._popcount_masks.cache_clear()
    patterns._ClassTable(((1, 3, 2),), None).level(9)
    assert perm._popcount_masks.cache_info().misses == 0
