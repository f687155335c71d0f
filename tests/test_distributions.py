from collections import Counter
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permcross import distributions, patterns, perm
from permcross.checks import PATTERN_SUBSETS
from permcross.distributions import (
    CrsProfile,
    closed_form,
    crossing_cfrac_series,
    crossing_gf_by_class,
    crs_profile,
    crs_profiles,
    dist,
    dist_poly,
    joint_dist,
    joint_poly,
    tableau_value,
)
from permcross.patterns import (
    P123_132,
    P123_213,
    P132_312,
    P213_312,
    P321_231,
    class_size,
    class_spec,
    class_words,
)
from permcross.perm import STATISTICS, crossing_count
from permcross.polynomials import QPoly, YQPoly, ZSeries

PAPER_PAIRS = (P123_132, P123_213, P213_312, P132_312)


def test_dist_examples():
    report = dist(class_spec(3), "crs")
    assert report.poly == QPoly((5, 1))
    assert report.cardinality == 6
    assert dist(class_spec(0, avoid=[(1, 2, 3)]), "crs").poly == QPoly.one()
    for n in range(1, 9):
        assert dist(class_spec(n, avoid=P123_132), "crs").poly == closed_form("thm31", n)


def test_dist_rejects_unknown_stat():
    with pytest.raises(ValueError, match="unknown statistic"):
        dist(class_spec(2), "major")


def test_joint_dist_examples():
    report = joint_dist(class_spec(3, avoid=P321_231), ("exc", "crs"))
    assert report.poly == YQPoly(((0, 0, 1), (1, 0, 2), (1, 1, 1)))  # 1 + 2y + qy
    assert report.cardinality == 4
    # the singleton class: maxdrop 0 forces the identity
    single = joint_dist(class_spec(5, maxdrop_le=0), ("exc", "crs"))
    assert single.poly == YQPoly.one()
    assert single.cardinality == 1


# ---------------------------------------------------------------------------
# the block fold against a per-word reference fold


def reference_dist(words, stat):
    counts = Counter(STATISTICS[stat](w) for w in words)
    top = max(counts) + 1 if counts else 0
    return QPoly(tuple(counts[e] for e in range(top))), len(words)


def reference_joint(words, stat_y, stat_q):
    counts = Counter((STATISTICS[stat_y](w), STATISTICS[stat_q](w)) for w in words)
    return YQPoly(tuple((ey, eq, c) for (ey, eq), c in counts.items())), len(words)


def reference_profile(n, words):
    by_pos1 = [Counter() for _ in range(n)]
    by_last = [Counter() for _ in range(n)]
    for w in words:
        crs = crossing_count(w)
        by_pos1[w.index(1)][crs] += 1
        by_last[w[-1] - 1][crs] += 1
    pack = lambda c: QPoly(tuple(c[e] for e in range(max(c) + 1 if c else 0)))
    return [pack(c) for c in by_pos1], [pack(c) for c in by_last]


def assert_folds_match(spec, bound=None, pairs=(("exc", "crs"),)):
    words = list(class_words(spec, bound))
    for stat in STATISTICS:
        assert dist_poly(spec, stat, bound) == reference_dist(words, stat), stat
    for stat_y, stat_q in pairs:
        want = reference_joint(words, stat_y, stat_q)
        assert joint_poly(spec, stat_y, stat_q, bound) == want, (stat_y, stat_q)
    if spec.n and spec.constraint is None:
        prof = crs_profile(spec.n, spec.forbidden, bound)
        assert (list(prof.by_pos1), list(prof.by_last)) == reference_profile(spec.n, words)


ALL_PAIRS = tuple((a, b) for a in STATISTICS for b in STATISTICS)


@pytest.mark.parametrize("n", range(8))
def test_folds_match_per_word_reference_on_the_group(n):
    assert_folds_match(class_spec(n), pairs=ALL_PAIRS)


@pytest.mark.parametrize("pats", PAPER_PAIRS, ids=str)
def test_folds_match_per_word_reference_on_paper_pairs(pats):
    for n in range(9):
        assert_folds_match(class_spec(n, avoid=pats))
    assert_folds_match(class_spec(7, avoid=pats, tail=2))


@pytest.mark.parametrize("block", [120, 60, 119, 1, 7, 2048])
def test_fold_at_block_edges(monkeypatch, block):
    # S_5 has 120 words and S_6 720: whole blocks at 120 and 60, one word
    # past at 119, a short last block at 7, and one short block at 2048
    monkeypatch.setattr(patterns, "BLOCK_WORDS", block)
    for fold in (dist_poly, joint_poly, crs_profile):
        fold.cache_clear()
    try:
        assert_folds_match(class_spec(5))
        assert_folds_match(class_spec(6))
    finally:
        for fold in (dist_poly, joint_poly, crs_profile):
            fold.cache_clear()


def test_folds_of_an_empty_class():
    empty = class_spec(3, avoid=[(1,)])
    assert dist_poly(empty, "crs") == (QPoly(()), 0)
    assert joint_poly(empty, "exc", "crs") == (YQPoly(()), 0)
    profile = crs_profile(3, empty.forbidden)
    assert profile.total == QPoly(()) and set(profile.by_pos1 + profile.by_last) == {QPoly(())}


byte_strings = st.one_of(
    st.binary(max_size=5000),
    st.lists(st.integers(253, 255), max_size=5000).map(bytes),
)


@settings(max_examples=60, deadline=None)
@given(byte_strings)
def test_tally_counts_bytes_like_counter(raw):
    counts = Counter({0: 1})
    distributions._tally(counts, raw)
    assert counts == Counter(raw) + Counter({0: 1})


def byte_column(count: int, low: int, high: int):
    """``count`` bytes with values from low to high."""
    table = bytes(low + v % (high - low + 1) for v in range(256))
    return st.binary(min_size=count, max_size=count).map(lambda raw: raw.translate(table))


# one-byte statistics reach 253 at n = 23; a y column may hold one value in every word
byte_pairs = st.one_of(st.integers(0, 8), st.integers(0, 3000)).flatmap(
    lambda count: st.tuples(
        st.one_of(
            byte_column(count, 0, 9),
            byte_column(count, 0, 253),
            st.integers(0, 253).map(lambda v: bytes((v,)) * count),
        ),
        st.one_of(byte_column(count, 0, 20), byte_column(count, 240, 253)),
    )
)


@settings(max_examples=60, deadline=None)
@given(byte_pairs)
@example((bytes((4, 4, 9)), bytes((253, 0, 253))))
def test_tally_counts_byte_pairs_like_counter(pair):
    y, q = pair
    counts = Counter({0: 1})
    distributions._tally(counts, pair)
    assert counts == Counter(e | v << 8 for e, v in zip(y, q)) + Counter({0: 1})


def test_group_folds_do_not_depend_on_the_block_size(monkeypatch):
    # S_8's 40,320 words in 5 blocks at the default size and in 20 at 2,048
    spec = class_spec(8)

    def folds():
        for fold in (dist_poly, joint_poly, crs_profile):
            fold.cache_clear()
        out = [dist_poly(spec, stat) for stat in STATISTICS]
        return out + [joint_poly(spec, "exc", "crs"), crs_profile(8)]

    try:
        default = folds()
        monkeypatch.setattr(patterns, "BLOCK_WORDS", 2048)
        assert folds() == default
    finally:
        for fold in (dist_poly, joint_poly, crs_profile):
            fold.cache_clear()


@pytest.mark.parametrize("n", [23, 24])
def test_folds_across_the_lane_width_boundary(n):
    # the decreasing word has inv 253 at n = 23 (one-byte lanes) and 276 at 24
    down = class_spec(n, avoid=[(1, 2)])
    assert dist_poly(down, "inv", n)[0] == QPoly.monomial(n * (n - 1) // 2)
    for pats in ([(1, 2)], [(2, 1)]):
        assert_folds_match(class_spec(n, avoid=pats), bound=n, pairs=ALL_PAIRS)


@pytest.mark.parametrize("n", [24, 25, 26])
@pytest.mark.parametrize("pats", [[(1, 3, 2), (3, 2, 1)], [(1, 2, 3), (2, 3, 1)]], ids=str)
def test_packed_keys_with_two_byte_statistics(n, pats):
    # statistic lanes are two bytes wide from n = 24 on, so a joint key packs
    # two two-byte fields and a profile key 1 + 1 + 2 bytes; both classes
    # have C(n, 2) + 1 members
    spec = class_spec(n, avoid=pats)
    pairs = ALL_PAIRS if n == 24 else (("exc", "crs"), ("inv", "nes"), ("crs", "inv"))
    assert_folds_match(spec, bound=n, pairs=pairs)
    assert joint_poly(spec, "inv", "crs", n)[1] == comb(n, 2) + 1
    patterns._class_table.cache_clear()


def test_defaulted_and_explicit_arguments_share_one_cache_entry(monkeypatch):
    # every fold, by class blocks or by the cuts of S_n, and every class size
    # checks its bound once
    folds = []
    packable = patterns._check_packable
    monkeypatch.setattr(
        patterns, "_check_packable", lambda *args: folds.append(args) or packable(*args)
    )
    spec = class_spec(6, avoid=P213_312)
    calls = (
        (dist_poly, (spec, "crs"), (spec, "crs", None), {"bound": None}),
        (joint_poly, (spec, "exc", "crs"), (spec, "exc", "crs", None), {"bound": None}),
        (crs_profile, (6,), (6, ()), {"forbidden": (), "bound": None}),
        (class_size, (spec,), (spec, None), {"bound": None}),
    )
    for cached, defaulted, explicit, keywords in calls:
        cached.cache_clear()
        try:
            first = cached(*defaulted)
            assert cached(*explicit) is first
            assert cached(*defaulted, **keywords) is first
            assert cached(*defaulted) is first
            info = cached.cache_info()
            assert (info.misses, info.hits) == (1, 3)
        finally:
            cached.cache_clear()
    assert len(folds) == len(calls)


def test_memoized_folds_refuse_bad_arguments_before_the_cache():
    spec = class_spec(4)
    dist_poly.cache_clear()
    bad_calls = (
        ((spec,), {}),
        ((spec, "crs", None, 4), {}),
        ((spec, "crs"), {"stat": "crs"}),
        ((spec, "crs"), {"size": 4}),
        ((), {"stat": "crs"}),
    )
    for args, kwargs in bad_calls:
        with pytest.raises(TypeError):
            dist_poly(*args, **kwargs)
    assert dist_poly.cache_info().misses == 0
    assert dist_poly(stat="crs", spec=spec) is dist_poly(spec, "crs", None)
    dist_poly.cache_clear()


def test_crs_fold_never_builds_the_letter_lanes(monkeypatch):
    def refuse(lanes):
        raise AssertionError("the crs kernel read _Lanes.x")

    monkeypatch.setattr(perm._Lanes, "x", property(refuse))
    dist_poly.cache_clear()
    try:
        poly, size = dist_poly(class_spec(9), "crs")
    finally:
        dist_poly.cache_clear()
    assert size == 362880 and poly.evaluate(1) == size


@pytest.mark.parametrize("n", range(9))
def test_group_profile_matches_the_per_word_reference(n):
    words = list(class_words(class_spec(n)))
    prof = crs_profile(n)
    want = reference_profile(n, words) if n else ([], [])
    assert (list(prof.by_pos1), list(prof.by_last)) == want
    assert prof.total.evaluate(1) == len(words)


def test_group_profile_is_folded_over_its_cuts(monkeypatch):
    # every word of a cut shares its buckets, so none is keyed by its
    # position of 1 or its last letter
    def refuse(*args):
        raise AssertionError("the group profile keyed its words")

    monkeypatch.setattr(perm, "_packed_keys", refuse)
    monkeypatch.setattr(distributions, "_packed_keys", refuse)
    monkeypatch.setattr(perm._Lanes, "position", refuse)
    crs_profile.cache_clear()
    try:
        for n in (1, 2, 3, 9):
            prof = crs_profile(n)
            assert prof.total == dist_poly(class_spec(n), "crs")[0], n
    finally:
        crs_profile.cache_clear()


def cut_by_cut_profile(n):
    """The crossing profile of S_n with one crs kernel pass per cut: the
    words that end with 1, v, their column of 1s moved to each position p."""
    by_pos1, by_last = [Counter() for _ in range(n)], [Counter() for _ in range(n)]

    def add(p, v, columns, count):
        lanes = perm._Lanes(columns, count)
        cut = Counter(lanes.unpack(lanes.stat("crs")))
        by_pos1[p - 1].update(cut)
        by_last[v - 1].update(cut)

    for columns, count in patterns._group_columns(n, n - 1, b"\x01"):
        add(n, 1, columns, count)
    for v in range(2, n + 1):
        for columns, count in patterns._group_columns(n, n - 2, bytes((1, v))):
            rest, ones, last = columns[: n - 2], columns[n - 2], columns[n - 1]
            for p in range(1, n):
                add(p, v, [*rest[: p - 1], ones, *rest[p - 1 :], last], count)
    return distributions._profile(n, by_pos1, by_last)


@pytest.mark.parametrize("n", [1, 2, 3, 9, 10])
def test_group_profile_matches_the_cut_by_cut_fold(n):
    crs_profile.cache_clear()
    try:
        assert crs_profile(n) == cut_by_cut_profile(n)
    finally:
        crs_profile.cache_clear()


def test_group_profile_past_the_bound_is_refused_before_any_enumeration(monkeypatch):
    def refuse(*args):
        raise AssertionError("the group was enumerated past the bound")

    monkeypatch.setattr(patterns, "_group_columns", refuse)
    crs_profile.cache_clear()
    try:
        for n, bound in ((6, 5), (2, 1), (patterns.FULL_GROUP_BOUND + 1, None)):
            with pytest.raises(patterns.BoundExceededError):
                crs_profile(n, (), bound)
    finally:
        crs_profile.cache_clear()


def test_group_profile_past_the_packing_limit_is_refused_before_any_enumeration(monkeypatch):
    def refuse(*args):
        raise AssertionError("the group was enumerated past the packing limit")

    monkeypatch.setattr(patterns, "_group_columns", refuse)
    with pytest.raises(ValueError, match="n=256 exceeds 255"):
        crs_profile(256, (), 256)


def test_fold_refuses_words_past_the_packing_limit():
    with pytest.raises(ValueError, match="n=256 exceeds 255"):
        dist_poly(class_spec(256, maxdrop_le=0), "crs", 256)


def test_report_serialization():
    report = dist(class_spec(4, avoid=P213_312, tail=2), "crs")
    data = report.to_json()
    assert data["class"]["constraint"] == {"kind": "tail", "k": 2}
    assert data["poly_text"] == report.poly.to_text()
    row = report.to_csv_row()
    assert row[0] == "4"
    assert row[3] == "crs"


# ---------------------------------------------------------------------------
# tableau


def test_tableau_printed_cells():
    assert tableau_value(4, 0).to_text() == "7+q"
    assert tableau_value(5, 1).to_text() == "4+3q+q^2"
    assert tableau_value(6, 2).to_text() == "1+2q+3q^2+2q^3"
    assert tableau_value(6, 3).to_text() == "1+q+q^2+q^3"
    for n in range(13):
        assert tableau_value(n, n) == QPoly.one()


def test_tableau_powers_of_two():
    for n in range(13):
        for k in range(n):
            assert tableau_value(n, k).evaluate(1) == 2 ** (n - 1 - k)


def test_tableau_central_polygonal_at_zero():
    for n in range(13):
        assert tableau_value(n, 0).evaluate(0) == comb(n, 2) + 1


def test_tableau_value_cells():
    assert tableau_value(6, 0).to_text() == "16+9q+5q^2+2q^3"
    assert tableau_value(0, 0) == QPoly.one()
    with pytest.raises(ValueError):
        tableau_value(-1, 0)
    with pytest.raises(ValueError):
        tableau_value(3, 4)
    with pytest.raises(ValueError):
        tableau_value(2, 3)


def test_tableau_vs_class_small():
    # cell (n, k) is the crs distribution of both tail-k classes, of the
    # whole class at k = 0
    for n in range(7):
        for k in range(n + 1):
            for pats in (P213_312, P132_312):
                spec = class_spec(n, avoid=pats, tail=k or None)
                assert dist_poly(spec, "crs")[0] == tableau_value(n, k), spec
    # the printed middle cell, via enumeration on both pattern pairs
    want = QPoly((1, 2, 3, 2))
    assert dist_poly(class_spec(6, avoid=P213_312, tail=2), "crs")[0] == want
    assert tableau_value(6, 2) == want


# ---------------------------------------------------------------------------
# closed forms


def test_closed_forms():
    assert closed_form("thm31", 4) == QPoly((4, 3, 1))
    assert closed_form("thm31", 1) == QPoly.one()
    assert closed_form("main1", 2) == QPoly.one()
    assert closed_form("main1", 5) == QPoly((1, 1)) ** 3
    assert closed_form("cor32", 4) == QPoly((4, 3, 1))
    assert closed_form("cor34", 6) == QPoly((1, 1)) ** 4
    assert closed_form("dokos", 3) == QPoly((1, 2, 1))
    assert closed_form("cor53", 3) == QPoly((1, 3))
    assert closed_form("cor53", 3).to_text("y") == "1+3y"
    assert closed_form("thm31", 5).coefficient(1) == comb(4, 2)


def test_closed_form_range_errors():
    with pytest.raises(ValueError):
        closed_form("main1", 1)
    with pytest.raises(ValueError):
        closed_form("thm31", 0)
    with pytest.raises(ValueError):
        closed_form("nope", 3)


def test_cor32_coefficients_formula():
    for n in range(1, 9):
        poly = dist_poly(class_spec(n, avoid=P123_132), "crs")[0]
        for k in range(n):
            want = (1 if k == 0 else 0) + comb(n - 1, k + 1)
            assert poly.coefficient(k) == want


# ---------------------------------------------------------------------------
# profiles and identities at small scale


def test_profile_sums_match_dist():
    for n in range(1, 7):
        prof = crs_profile(n)
        total = QPoly.zero()
        for p in prof.by_pos1:
            total = total + p
        assert total == dist_poly(class_spec(n), "crs")[0]
        total_last = QPoly.zero()
        for p in prof.by_last:
            total_last = total_last + p
        assert total_last == prof.total


def test_crs_wilf_equivalence_small():
    for n in range(8):
        polys = {
            dist_poly(class_spec(n, avoid=[pat]), "crs")[0].to_text()
            for pat in [(3, 2, 1), (1, 3, 2), (2, 1, 3)]
        }
        assert len(polys) == 1


def test_one_at_one_and_two_identities():
    q, one = QPoly.var(), QPoly.one()
    for n in range(1, 8):
        prof = crs_profile(n + 1)
        f_n = crs_profile(n).total if n else one
        f_prev = crs_profile(n - 1).total if n > 1 else one
        assert prof.by_pos1[n] == f_n
        assert prof.by_pos1[n - 1] == q * f_n + (one - q) * f_prev


def test_cfrac_matches_enumeration():
    series = crossing_cfrac_series(5)
    for n in range(6):
        assert series.coefficient(n) == dist_poly(class_spec(n, avoid=[(3, 2, 1)]), "crs")[0]


def test_cfrac_specialization_commutes():
    # at q=1 the crossing fraction degenerates to the Catalan one
    series = crossing_cfrac_series(8)
    catalan = [1, 1, 2, 5, 14, 42, 132, 429, 1430]
    assert [series.coefficient(n).evaluate(1) for n in range(9)] == catalan


def test_gf_identity_for_312_vs_231():
    order = 6
    f312 = crossing_gf_by_class(((3, 1, 2),), order)
    f231 = crossing_gf_by_class(((2, 3, 1),), order)
    one = ZSeries.constant(QPoly, order)
    assert (one - f231.times_z()).reciprocal() == f312


def test_partition_identities_123_132():
    q, one = QPoly.var(), QPoly.one()
    for n in range(2, 8):
        whole = dist_poly(class_spec(n, avoid=P123_132), "crs")[0]
        last = dist_poly(class_spec(n, avoid=P123_132, one_at=1), "crs")[0]
        second = dist_poly(class_spec(n, avoid=P123_132, one_at=2), "crs")[0]
        prev = dist_poly(class_spec(n - 1, avoid=P123_132), "crs")[0]
        assert whole == last + second
        assert last == prev
        assert second == q * prev + one - q


def test_fibonacci_noncrossing_counts():
    counts = [
        dist_poly(class_spec(n, avoid=P321_231), "crs")[0].coefficient(0)
        for n in range(11)
    ]
    assert counts[:6] == [1, 1, 2, 3, 5, 8]
    for n in range(2, 11):
        assert counts[n] == counts[n - 1] + counts[n - 2]


def test_eulerian_refinement_small():
    for n in range(8):
        want = closed_form("cor53", n)
        assert dist_poly(class_spec(n, avoid=P321_231), "des")[0] == want
        assert dist_poly(class_spec(n, avoid=P321_231), "exc")[0] == want


@pytest.mark.parametrize("n", range(1, 9))
def test_cut_classes_match_the_crs_profile(n):
    # the cut classes the CLI and the pattern-class checks fold against the
    # profile that rel-3, thm-2.6 and conj-2.7 read
    for pats in PATTERN_SUBSETS:
        profile = crs_profile(n, pats)
        for k in range(1, n + 1):
            one_at = dist_poly(class_spec(n, avoid=pats, one_at=k), "crs")[0]
            ends_with = dist_poly(class_spec(n, avoid=pats, ends_with=k), "crs")[0]
            assert one_at == profile.by_pos1[n - k], (pats, k)
            assert ends_with == profile.by_last[k - 1], (pats, k)


@pytest.mark.parametrize("n", range(7))
def test_mixed_profiles_match_the_per_word_oracle(monkeypatch, n):
    # at 7 words a block the pattern classes of size n straddle blocks and
    # the blocks at class boundaries mix classes; each class's profile must
    # still be its own words' crossings by the position of 1 and last letter
    monkeypatch.setattr(patterns, "BLOCK_WORDS", 7)
    crs_profile.cache_clear()
    try:
        profiles = crs_profiles(n, PATTERN_SUBSETS)
        if n >= 2:  # a block with a class boundary holds words of two classes
            blocks = patterns._mixed_blocks(n, PATTERN_SUBSETS[1:])
            assert any(len(set(columns[-1])) > 1 for columns, _ in blocks)
        assert len(profiles) == len(PATTERN_SUBSETS)
        for pats, profile in zip(PATTERN_SUBSETS, profiles):
            if n == 0:
                assert profile == CrsProfile(0, (), (), QPoly.one())
                continue
            words = list(class_words(class_spec(n, avoid=pats)))
            want = reference_profile(n, words)
            assert (list(profile.by_pos1), list(profile.by_last)) == want, pats
            assert profile == crs_profile(n, pats)  # the one-class case of the same fold
    finally:
        crs_profile.cache_clear()
