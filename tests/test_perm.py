import random
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permcross.patterns import class_blocks, class_spec
from permcross.perm import (
    _LANE_KERNELS,
    _bump_table,
    _crossing_tables,
    _crs_cuts,
    _crs_lanes,
    _lane_constants,
    _Lanes,
    _packed_keys,
    _plane_table,
    _word_keys,
    MAX_PACKED_N,
    STAT_NAMES,
    STATISTICS,
    SYMMETRIES,
    apply_symmetry,
    crossing_count,
    crossings,
    format_word,
    identity,
    insert,
    insert_block,
    insert_of_inverse,
    inverse_block,
    invert,
    make_permutation,
    max_drop,
    nesting_count,
    nestings,
    parse_word,
    stat_bundle,
    stat_columns,
    symmetry_images,
    transients,
)


def oracle_crossing_pairs(w):
    """Literal transcription of the crossing definition, independent of the
    optimized arc-scan path."""
    n = len(w)
    out = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            si, sj = w[i - 1], w[j - 1]
            if (i < j < si < sj) or (si < sj <= i < j):
                out.append((i, j))
    return out


def oracle_nesting_pairs(w):
    """Literal transcription of the nesting definition, independent of the
    arc scans: an upper nesting i < j < w(j) < w(i), a lower one
    w(j) < w(i) <= i < j."""
    n = len(w)
    out = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            si, sj = w[i - 1], w[j - 1]
            if (i < j < sj < si) or (sj < si <= i < j):
                out.append((i, j))
    return out


# ---------------------------------------------------------------------------
# construction


def test_make_permutation_validates():
    p = make_permutation([4, 7, 3, 5, 1, 2, 6])
    assert p.n == 7
    assert make_permutation([]).n == 0
    with pytest.raises(ValueError, match="duplicate value 1 at position 2"):
        make_permutation([1, 1, 2])
    with pytest.raises(ValueError, match="out of range"):
        make_permutation([1, 3])
    with pytest.raises(ValueError, match="position 1"):
        make_permutation([0, 1])


def test_word_text_round_trip():
    assert parse_word("4735126") == (4, 7, 3, 5, 1, 2, 6)
    assert parse_word("") == ()
    long = tuple([10] + list(range(2, 10)) + [1])
    assert parse_word(format_word(long)) == long
    assert format_word((2, 1)) == "21"
    with pytest.raises(ValueError):
        parse_word("4,x,1")


# ---------------------------------------------------------------------------
# crossings / nestings / transients


def test_figure_values():
    word = (4, 7, 3, 5, 1, 2, 6)
    count, pairs = crossings(word)
    assert count == 3
    assert set(pairs) == {(1, 2), (5, 6), (6, 7)}
    ncount, npairs = nestings(word)
    assert ncount == 3
    assert set(npairs) == {(2, 4), (3, 5), (3, 6)}


def test_crossings_small_cases():
    assert crossings(identity(6)) == (0, ())
    assert crossings((3, 1, 2)) == (1, ((2, 3),))
    assert crossings((2, 3, 1))[0] == 0
    assert nestings(identity(5))[0] == 0
    assert nestings((3, 2, 1)) == (1, ((2, 3),))


def test_fast_count_matches_definition_exhaustively():
    for n in range(8):
        for w in permutations(range(1, n + 1)):
            oracle = oracle_crossing_pairs(w)
            assert crossing_count(w) == len(oracle)
            assert sorted(crossings(w)[1]) == sorted(oracle)
            nested = oracle_nesting_pairs(w)
            assert nesting_count(w) == len(nested)
            assert sorted(nestings(w)[1]) == sorted(nested)


def test_fast_count_matches_definition_random_large():
    rng = random.Random(7)
    for n in (10, 11):
        base = list(range(1, n + 1))
        for _ in range(200):
            rng.shuffle(base)
            w = tuple(base)
            assert crossing_count(w) == len(oracle_crossing_pairs(w))
            assert nesting_count(w) == len(oracle_nesting_pairs(w))


# ---------------------------------------------------------------------------
# column kernels over blocks of columns, against the per-word statistics


def pack(words):
    """A block of words as its columns."""
    return [bytes(c) for c in zip(*words)]


def stat_column(columns, count, stat):
    return stat_columns(columns, count, (stat,))[0]


def assert_columns_match(words):
    block = pack(words)
    for stat, fn in STATISTICS.items():
        assert list(stat_column(block, len(words), stat)) == [fn(w) for w in words], stat
    if words[0]:
        want = [w.index(1) + 1 for w in words]
        assert list(_Lanes(block, len(words)).position(1)) == want


@pytest.mark.parametrize("n", range(8))
def test_stat_columns_match_per_word_statistics(n):
    assert_columns_match(list(permutations(range(1, n + 1))))


@pytest.mark.parametrize("n", [22, 23, 24, 25])
def test_stat_columns_across_the_lane_width_boundary(n):
    # one-byte lanes hold n(n-1)/2 up to n = 23; inv of the decreasing word
    # is then 253, and 276 at n = 24 in two-byte lanes
    words = [tuple(range(n, 0, -1)), tuple(range(1, n + 1))]
    assert list(stat_column(pack(words), 2, "inv")) == [n * (n - 1) // 2, 0]
    assert_columns_match(words)


random_blocks = st.integers(10, 40).flatmap(
    lambda n: st.lists(st.permutations(range(1, n + 1)), min_size=1, max_size=8)
)


@settings(max_examples=60, deadline=None)
@given(random_blocks)
def test_stat_columns_match_on_random_words(words):
    assert_columns_match([tuple(w) for w in words])


@pytest.mark.parametrize("n", [*range(1, 10), *range(22, 41)])
def test_stat_columns_match_on_seeded_random_words(n):
    # one-byte lanes up to n = 23, two-byte lanes from 24 on
    rng = random.Random(1000 + n)
    words = [tuple(rng.sample(range(1, n + 1), n)) for _ in range(40)]
    assert_columns_match(words)
    names = list(STATISTICS)
    assert stat_columns(pack(words), len(words), names) == [
        stat_column(pack(words), len(words), stat) for stat in names
    ]


def test_stat_columns_at_the_packing_limit():
    n = MAX_PACKED_N
    words = [tuple(range(n, 0, -1)), tuple(range(1, n + 1))]
    assert_columns_match(words)


def assert_corteel(columns, count):
    # inv = exc + crs + 2 nes on every word (Corteel, Adv. Appl. Math. 38, 2007)
    inv, exc, crs, nes = stat_columns(columns, count, ("inv", "exc", "crs", "nes"))
    bad = [t for t in range(count) if inv[t] != exc[t] + crs[t] + 2 * nes[t]]
    assert not bad, tuple(c[bad[0]] for c in columns)


@pytest.mark.parametrize("n", range(1, 9))
def test_corteel_identity_on_the_blocks_of_s_n(n):
    for columns, count in class_blocks(class_spec(n)):
        assert_corteel(columns, count)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(9, 30).flatmap(
        lambda n: st.lists(st.permutations(range(1, n + 1)), min_size=1, max_size=16)
    )
)
@example([tuple(range(23, 0, -1)), tuple(range(1, 24))])
@example([tuple(range(24, 0, -1)), (2, 1, *range(3, 25))])
def test_corteel_identity_on_random_words(words):
    # one-byte lanes up to n = 23, two-byte lanes from 24 on
    assert_corteel(pack(words), len(words))


@pytest.mark.parametrize("n", range(1, 8))
def test_corteel_identity_per_word(n):
    inv, exc, crs, nes = (STATISTICS[s] for s in ("inv", "exc", "crs", "nes"))
    for w in permutations(range(1, n + 1)):
        assert inv(w) == exc(w) + crs(w) + 2 * nes(w), w


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 64).flatmap(lambda count: st.binary(min_size=2 * count, max_size=2 * count)))
def test_two_byte_lanes_unpack_to_their_values(raw):
    count = len(raw) // 2
    lanes = _Lanes([bytes(count)], count, min_width=2)
    assert lanes.unpack(int.from_bytes(raw, "little")) == _packed_keys([raw], count)


def lane_values(lanes, total):
    raw, step = lanes.as_bytes(total), lanes.width
    return [int.from_bytes(raw[t : t + step], "little") for t in range(0, len(raw), step)]


def test_crs_kernel_on_every_word_of_s8_in_full_blocks():
    words = list(permutations(range(1, 9)))
    for first in range(0, len(words), 2048):
        block = words[first : first + 2048]
        want = [crossing_count(w) for w in block]
        assert list(stat_column(pack(block), len(block), "crs")) == want, first


@pytest.mark.parametrize("n", [9, 10, 11, 17, 18, 19, 26, 27, 30])
def test_crs_kernel_where_the_letter_planes_cut_over(n):
    # the letters 2..n-1 fill one byte plane up to n = 10, two up to 18,
    # three up to 26 and four up to 34
    rng = random.Random(2000 + n)
    words = [tuple(rng.sample(range(1, n + 1), n)) for _ in range(600)]
    words += [tuple(range(n, 0, -1)), tuple(range(1, n + 1))]
    assert list(stat_column(pack(words), len(words), "crs")) == [crossing_count(w) for w in words]


@pytest.mark.parametrize("n", range(3, 31))
def test_crs_cuts_match_the_kernel_on_the_moved_column_blocks(n):
    # the shared terms of the cuts against one kernel pass per cut, across
    # the plane cut-overs at 10/11, 18/19 and 26/27 and the two-byte lanes
    # from n = 23; the last letter v varies from word to word
    rng = random.Random(5000 + n)
    words = []
    for _ in range(90):
        v = rng.randrange(2, n + 1)
        words.append((*rng.sample([u for u in range(2, n + 1) if u != v], n - 2), 1, v))
    columns = pack(words)
    rest, ones, last = columns[: n - 2], columns[n - 2], columns[n - 1]
    lanes = _Lanes(columns, len(words))
    cuts = _crs_cuts(lanes)
    assert len(cuts) == n - 1
    for p, total in enumerate(cuts, 1):
        moved = [*rest[: p - 1], ones, *rest[p - 1 :], last]
        assert total == _crs_lanes(_Lanes(moved, len(words))), (n, p)
        assert lane_values(lanes, total) == [crossing_count(w) for w in zip(*moved)], (n, p)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 9, 10, 11, 19, 23, 24, 30])
def test_crs_kernel_in_two_byte_lanes(n):
    # bijections.residual_columns widens the lanes of short words to hold sums
    rng = random.Random(3000 + n)
    words = [tuple(rng.sample(range(1, n + 1), n)) for _ in range(200)]
    lanes = _Lanes(pack(words), len(words), min_width=2)
    assert lanes.width == 2
    assert lane_values(lanes, lanes.stat("crs")) == [crossing_count(w) for w in words]


@settings(max_examples=40, deadline=None)
@given(st.binary(min_size=1, max_size=300), st.sampled_from([1, 2]))
def test_popcount_counts_the_bits_of_each_byte_in_the_lane_width(raw, width):
    lanes = _Lanes([bytes(len(raw))], len(raw), min_width=width)
    counted = lanes.popcount(int.from_bytes(raw, "little"))
    assert lane_values(lanes, counted) == [bin(v).count("1") for v in raw]


def test_lane_constants_are_cached_for_one_block_size_at_a_time():
    # bounded, since the last block of every class has a count of its own
    assert _lane_constants.cache_info().maxsize is not None
    for count in (1, 7, 300):
        lanes = _Lanes([bytes(count)] * 24, count)  # two-byte lanes
        assert lane_values(lanes, lanes.ones) == [1] * count
        assert lane_values(lanes, lanes.top) == [0x8000] * count


@pytest.mark.parametrize("n", [1, 2, 8, 9, 10, 16, 17, 18, 23, 24, 30])
def test_maxdrop_kernel_where_the_drop_planes_cut_over(n):
    # the drops 1..8 fill one byte plane, so a drop of n-1 reaches a second
    # plane from n = 10 on and a third from n = 18; 1 at position k+1 after
    # 2..k+1 is a word whose largest drop is k, for every k < n
    rng = random.Random(4000 + n)
    words = [tuple(rng.sample(range(1, n + 1), n)) for _ in range(300)]
    words += [(*range(2, k + 2), 1, *range(k + 2, n + 1)) for k in range(n)]
    words.append(tuple(range(n, 0, -1)))
    for width in (1, 2):
        lanes = _Lanes(pack(words), len(words), min_width=width)
        assert lane_values(lanes, lanes.stat("maxdrop")) == [max_drop(w) for w in words], width


def unpack(columns, count):
    assert all(len(c) == count for c in columns)
    return list(zip(*columns)) if columns else [()] * count


def assert_block_images_match(words):
    """The block inverse, the eight symmetries and insertions against the
    per-word maps: every insertion up to n = 6, the first, second, middle
    and last two positions and letters beyond."""
    block, count, n = pack(words), len(words), len(words[0])
    assert unpack(inverse_block(block, count), count) == [invert(w) for w in words]
    for tag, image in symmetry_images(block, count).items():
        assert unpack(image, count) == [apply_symmetry(tag, w) for w in words], tag
    slots = range(1, n + 2) if n <= 6 else sorted({1, 2, n // 2 + 1, n, n + 1})
    for a in slots:
        for b in slots:
            image = insert_block(block, count, a, b)
            assert unpack(image, count) == [insert(w, a, b).word for w in words], (a, b)


@pytest.mark.parametrize("n", range(8))
def test_block_images_match_per_word_maps(n):
    assert_block_images_match(list(permutations(range(1, n + 1))))


@pytest.mark.parametrize("n", [22, 23, 24, 25])
def test_block_images_across_the_lane_width_boundary(n):
    rng = random.Random(n)
    words = [tuple(range(n, 0, -1)), tuple(range(1, n + 1))]
    words += [tuple(rng.sample(range(1, n + 1), n)) for _ in range(6)]
    assert_block_images_match(words)


@settings(max_examples=40, deadline=None)
@given(random_blocks)
def test_block_images_match_on_random_words(words):
    assert_block_images_match([tuple(w) for w in words])


def test_block_images_reject_bad_blocks():
    with pytest.raises(ValueError, match="do not pack 2 words"):
        inverse_block([b"\x01\x02", b"\x02"], 2)
    with pytest.raises(ValueError, match="do not pack 0 words"):
        symmetry_images([], 0)
    with pytest.raises(ValueError, match="do not pack 0 words"):
        inverse_block([], 0)
    with pytest.raises(ValueError, match="position 4 out of range"):
        insert_block([b"\x01", b"\x02"], 1, 4, 1)
    with pytest.raises(ValueError, match="value 0 out of range"):
        insert_block([b"\x01", b"\x02"], 1, 1, 0)
    with pytest.raises(ValueError, match="n=256 exceeds 255"):
        insert_block([bytes((v,)) for v in range(1, 256)], 1, 1, 1)
    with pytest.raises(ValueError, match="n=256 exceeds 255"):
        inverse_block([b"\x01"] * 256, 1)
    with pytest.raises(ValueError, match="do not pack 2 words"):
        symmetry_images([b"\x01\x02", b"\x01"], 2)
    with pytest.raises(ValueError, match="do not pack 1 words"):
        insert_block([b"\x01", b"\x02\x01"], 1, 1, 1)


def test_symmetry_images_map_an_empty_level_to_itself():
    # S_0 holds one empty word, which has no columns
    assert symmetry_images([], 1) == {tag: [] for tag in SYMMETRIES}


def test_symmetry_images_match_the_per_word_maps():
    # every word of S_6 in one block, and seeded random blocks at n = 9, 10
    rng = random.Random(2026)
    blocks = [list(permutations(range(1, 7)))]
    blocks += [[tuple(rng.sample(range(1, n + 1), n)) for _ in range(500)] for n in (9, 10)]
    for words in blocks:
        images = symmetry_images(pack(words), len(words))
        assert list(images) == list(SYMMETRIES)
        for tag, image in images.items():
            assert unpack(image, len(words)) == [apply_symmetry(tag, w) for w in words], tag


def block_keys(words, size=2048):
    """The word keys of ``words`` cut into blocks of ``size`` words."""
    return [
        key
        for first in range(0, len(words), size)
        for key in _word_keys(pack(words[first : first + size]), len(words[first : first + size]))
    ]


@pytest.mark.parametrize("n", range(1, 11))
def test_word_keys_are_distinct_and_ordered_like_the_words(n):
    # all of S_n up to n = 7 (S_7 spans three blocks), else seeded random
    # words with both ends of the lex order
    if n <= 7:
        words = list(permutations(range(1, n + 1)))
    else:
        rng = random.Random(n)
        picked = {tuple(rng.sample(range(1, n + 1), n)) for _ in range(5000)}
        words = sorted(picked | {tuple(range(1, n + 1)), tuple(range(n, 0, -1))})
    keys = block_keys(words)
    assert all(a < b for a, b in zip(keys, keys[1:]))  # distinct, and lex order
    assert keys[-1] == sum(v * 16 ** (n - 1 - p) for p, v in enumerate(words[-1]))
    assert n > 7 or keys[-1] < 2**30  # one digit of a CPython int


def test_word_keys_across_a_block_edge_and_up_to_15_letters():
    rng = random.Random(15)
    for n in (8, 9, 15):
        words = sorted({tuple(rng.sample(range(1, n + 1), n)) for _ in range(40)})
        keys = block_keys(words, size=7)
        assert keys == block_keys(words) == sorted(keys) and len(set(keys)) == len(words)
    with pytest.raises(ValueError, match="n=16 is too long"):
        _word_keys([bytes((v,)) for v in range(16, 0, -1)], 1)


def test_stat_column_rejects_bad_blocks():
    with pytest.raises(ValueError, match="unknown statistic"):
        stat_columns([b"\x01"], 1, ["major"])
    with pytest.raises(ValueError, match="do not pack 2 words"):
        stat_columns([b"\x01\x02", b"\x02"], 2, ["crs"])
    with pytest.raises(ValueError, match="do not pack 2 words"):
        stat_columns([b"\x01\x02", b"\x02\x01", b"\x03"], 2, ["inv", "crs"])
    with pytest.raises(ValueError, match="do not pack 0 words"):
        stat_columns([], 0, ["crs"])
    with pytest.raises(ValueError, match="n=256 exceeds 255"):
        stat_columns([b"\x00"] * 256, 1, ["crs"])
    # the empty word: every statistic is 0
    assert list(stat_column([], 3, "maxdrop")) == [0, 0, 0]


def test_transients():
    assert transients(identity(5)) == (0, 0)
    assert transients((2, 3, 1)) == (1, 0)
    assert transients((3, 1, 2)) == (0, 1)


def test_lower_transients_are_crossings():
    # every lower transient index i yields the crossing pair (i, sigma^-1(i))
    for n in range(1, 7):
        for w in permutations(range(1, n + 1)):
            inv = invert(w)
            _, pairs = crossings(w)
            lt_indices = [i for i in range(1, n + 1) if w[i - 1] < i < inv[i - 1]]
            for i in lt_indices:
                assert (i, inv[i - 1]) in pairs
            assert crossing_count(w) >= len(lt_indices)


# ---------------------------------------------------------------------------
# classic statistics


def test_one_list_names_the_statistics():
    assert STAT_NAMES == tuple(STATISTICS)
    assert list(_LANE_KERNELS) == list(STATISTICS)


def test_stat_bundle_is_the_statistics():
    rng = random.Random(24)
    for n in range(13):
        for _ in range(20):
            w = tuple(rng.sample(range(1, n + 1), n))
            assert stat_bundle(w).as_dict() == {name: stat(w) for name, stat in STATISTICS.items()}


def _old_letter_table(b):
    return bytes(1 << (v - 1 - 8 * b) if 0 <= v - 1 - 8 * b < 8 else 0 for v in range(256))


def _old_bit_table(b):
    return bytes(1 << (v + 1 - 8 * b) if 0 <= v + 1 - 8 * b < 8 else 0 for v in range(256))


def _old_early_table(q, b):
    bits = [v - 2 - 8 * b if v > q + 1 else -1 for v in range(256)]
    return bytes(1 << bit if 0 <= bit < 8 else 0 for bit in bits)


def test_plane_table_is_the_three_tables_it_replaced():
    # the letter table (offset 1), the table of 2^(v+1) (offset -1, where
    # letter 0 keeps bit 1 of plane 0) and the early tables (offset 2)
    table = _plane_table.__wrapped__  # uncached, so the test fills no cache
    assert table(-1, 0)[0] == 2
    for b in range(33):
        assert table(1, b) == _old_letter_table(b)
        assert table(-1, b) == _old_bit_table(b)
        for q in range(256):
            assert table(2, b, q + 1) == _old_early_table(q, b)


def test_flip_table_is_the_plane_letters_with_the_letter_i_flipped():
    # the crs kernel's set X flips the bits of w_(I-1) and of the letter I at position I
    tables = _crossing_tables.__wrapped__  # uncached, so the test fills no cache
    for b in range(32):
        bits = [1 << v - 2 - 8 * b if 0 <= v - 2 - 8 * b < 8 else 0 for v in range(256)]
        for i in range(1, 255):
            assert tables(i, b)[0] == bytes(bit ^ bits[i] for bit in bits), (i, b)


def test_stat_bundle_examples():
    zeros = stat_bundle(identity(6))
    assert (zeros.exc, zeros.des, zeros.inv, zeros.maxdrop) == (0, 0, 0, 0)
    b21 = stat_bundle((2, 1))
    assert (b21.exc, b21.des, b21.inv, b21.maxdrop) == (1, 1, 1, 1)
    big = stat_bundle((4, 7, 3, 5, 1, 2, 6))
    assert big.inv == 12  # pair-scan recount below
    assert big.inv == sum(
        1
        for i in range(7)
        for j in range(i + 1, 7)
        if (4, 7, 3, 5, 1, 2, 6)[i] > (4, 7, 3, 5, 1, 2, 6)[j]
    )
    assert (big.exc, big.des, big.maxdrop) == (3, 2, 4)


def test_maxdrop_floor():
    assert max_drop(identity(4)) == 0
    assert max_drop(()) == 0
    assert max_drop((2, 3, 4, 1)) == 3


def test_pair_bound_invariant():
    for n in range(7):
        for w in permutations(range(1, n + 1)):
            b = stat_bundle(w)
            assert b.crs + b.nes <= n * (n - 1) // 2 + n


# ---------------------------------------------------------------------------
# symmetries


def test_symmetry_printed_examples():
    word = (4, 1, 3, 5, 7, 6, 2)
    assert apply_symmetry("r", word) == (2, 6, 7, 5, 3, 1, 4)
    assert apply_symmetry("c", word) == (4, 7, 5, 3, 1, 2, 6)
    assert apply_symmetry("i", word) == (2, 7, 3, 1, 4, 6, 5)
    assert apply_symmetry("rc", word) == (6, 2, 1, 3, 5, 7, 4)
    assert apply_symmetry("rci", word) == (3, 2, 4, 7, 5, 1, 6)
    assert apply_symmetry("id", word) == word
    with pytest.raises(ValueError):
        apply_symmetry("rr", word)


def test_involutions_square_to_identity():
    for n in range(1, 9):
        for w in permutations(range(1, n + 1)):
            for tag in ("id", "r", "c", "i", "rc", "rci"):  # not ri and ci, of order 4
                assert apply_symmetry(tag, apply_symmetry(tag, w)) == w


def test_rotations_have_order_four():
    word = (4, 1, 3, 5, 7, 6, 2)
    for tag in ("ri", "ci"):
        twice = apply_symmetry(tag, apply_symmetry(tag, word))
        assert twice != word
        assert apply_symmetry(tag, apply_symmetry(tag, twice)) == word


def test_composition_table_is_closed():
    words = [(2, 4, 1, 3), (4, 1, 3, 5, 7, 6, 2), (1, 3, 2)]
    reference = words[1]  # its eight images are pairwise distinct
    images = {apply_symmetry(tag, reference): tag for tag in SYMMETRIES}
    assert len(images) == len(SYMMETRIES)
    for f in SYMMETRIES:
        for g in SYMMETRIES:
            tag = images[apply_symmetry(f, apply_symmetry(g, reference))]
            for w in words:
                assert apply_symmetry(tag, w) == apply_symmetry(f, apply_symmetry(g, w))


def test_transient_exchange_under_inverse_and_rc():
    for n in range(1, 7):
        for w in permutations(range(1, n + 1)):
            ut, lt = transients(w)
            for tag in ("i", "rc"):
                ut2, lt2 = transients(apply_symmetry(tag, w))
                assert (ut2, lt2) == (lt, ut)


# ---------------------------------------------------------------------------
# insertion


def test_insert_examples():
    assert insert((3, 1, 4, 2), 2, 3).word == (4, 3, 1, 5, 2)
    assert insert((), 1, 1).word == (1,)
    assert insert((3, 1, 4, 2), 5, 1).word == (4, 2, 5, 3, 1)
    with pytest.raises(ValueError):
        insert((1, 2), 4, 1)
    with pytest.raises(ValueError):
        insert((1, 2), 1, 0)


def test_insert_of_inverse_examples():
    assert insert_of_inverse((3, 1, 4, 2), 2, 3).word == (2, 3, 5, 1, 4)
    # the inverse of 31542 is 25143; bump and place 1 at position 4
    assert insert_of_inverse((3, 1, 5, 4, 2), 4, 1).word == (3, 6, 2, 1, 5, 4)
    n = 4
    assert insert_of_inverse(identity(n), n + 1, 1).word == (2, 3, 4, 5, 1)


def test_bump_table_raises_the_letters_from_b_on():
    # sliced from the identity table; the definition, byte by byte, for every b
    for b in range(256):
        assert _bump_table(b) == bytes(min(v + (v >= b), 0xFF) for v in range(256)), b


def test_insert_remove_round_trip():
    def remove_value(word, b):  # drop b, pull every letter above it down by one
        return tuple(v - 1 if v > b else v for v in word if v != b)

    rng = random.Random(11)
    for n in range(5):
        for w in permutations(range(1, n + 1)):
            for a in range(1, n + 2):
                for b in range(1, n + 2):
                    assert remove_value(insert(w, a, b).word, b) == w
    for _ in range(100):
        n = rng.randint(6, 9)
        base = list(range(1, n + 1))
        rng.shuffle(base)
        a, b = rng.randint(1, n + 1), rng.randint(1, n + 1)
        assert remove_value(insert(tuple(base), a, b).word, b) == tuple(base)


# ---------------------------------------------------------------------------
# sums


def test_direct_sum_crossings_additive():
    for total in range(9):
        for a in range(total + 1):
            b = total - a
            for w1 in permutations(range(1, a + 1)):
                for w2 in permutations(range(1, b + 1)):
                    s = w1 + tuple(v + a for v in w2)  # w1, then w2 shifted above it
                    assert crossing_count(s) == crossing_count(w1) + crossing_count(w2)
