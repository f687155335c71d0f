import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permcross import patterns
from permcross.bijections import (
    RESIDUAL_LAWS,
    adjudicate_cor43,
    check_lemma,
    check_lemma42,
    check_prop25,
    insertion_sets,
    phi,
    psi,
    residual_columns,
)
from permcross.patterns import P213_312, class_spec, class_words, packed_blocks
from permcross.perm import (
    apply_symmetry,
    crossing_count,
    identity,
    insert,
    insert_block,
    symmetry_images,
    transients,
)


def oracle_insertion_sets(w, j):
    """Definitional re-scan with plain loops over all indices/pairs."""
    n = len(w)
    a = set()
    for i in range(1, n + 1):
        if i + 1 < j and w[i - 1] >= j:
            a.add(i)
    b = set()
    for i in range(1, n):
        pos_next = w.index(i + 1) + 1
        if i + 1 < j and w[i - 1] <= i and i + 1 <= pos_next:
            b.add(i + 1)
    c = set()
    for i in range(1, n + 1):
        for m in range(i + 1, n + 1):
            if m < w[i - 1] == m + 1 < w[m - 1] and m + 1 < j:
                c.add((i, m))
    return a, b, c


def test_phi_psi_examples():
    assert phi(1, (2, 1)).word == (3, 2, 1)
    assert psi(1, (2, 1)).word == (3, 2, 1)
    # per the definitions the image places 1 at position n+2-k = 4; the printed
    # walkthrough values 361254/531264 put it at position 3 and are wrong
    assert phi(3, (3, 1, 5, 4, 2)).word == (3, 6, 2, 1, 5, 4)
    assert psi(3, (3, 1, 5, 4, 2)).word == (5, 3, 2, 1, 6, 4)
    assert phi(3, (3, 1, 5, 4, 2)).word != (3, 6, 1, 2, 5, 4)
    with pytest.raises(ValueError):
        phi(4, (2, 1))
    with pytest.raises(ValueError):
        psi(0, (2, 1))


def test_phi_psi_land_in_one_at_k():
    for n in range(7):
        group = list(permutations(range(1, n + 1)))
        for k in range(1, n + 2):
            for fn in (phi, psi):
                images = {fn(k, w).word for w in group}
                assert len(images) == len(group)
                assert all(w[n + 1 - k] == 1 for w in images)


def test_phi1_psi1_preserve_crossings():
    for n in range(1, 8):
        for w in permutations(range(1, n + 1)):
            c = crossing_count(w)
            assert crossing_count(phi(1, w).word) == c
            assert crossing_count(psi(1, w).word) == c


def test_phi2_increment():
    for n in range(1, 8):
        for w in permutations(range(1, n + 1)):
            want = crossing_count(w) + 1 - (1 if w[-1] == n else 0)
            assert crossing_count(phi(2, w).word) == want


def test_phi1_restricts_to_bijections_between_classes():
    for n in range(9):
        src = list(class_words(class_spec(n, avoid=[(2, 3, 1)])))
        image = {phi(1, w).word for w in src}
        target = {
            w
            for w in class_words(class_spec(n + 1, avoid=[(3, 1, 2)], one_at=1))
        }
        assert image == target
    for n in range(9):
        src = list(class_words(class_spec(n, avoid=[(2, 1, 3), (2, 3, 1)])))
        image = {phi(1, w).word for w in src}
        target = {
            w
            for w in class_words(class_spec(n + 1, avoid=P213_312, one_at=1))
        }
        assert image == target


def test_rci_preserves_crossings():
    for n in range(1, 9):
        for w in permutations(range(1, n + 1)):
            assert crossing_count(apply_symmetry("rci", w)) == crossing_count(w)


# ---------------------------------------------------------------------------
# lemma reports


def test_check_lemma_examples():
    report = check_lemma("lem-2.1", identity(5))
    assert report.passed and report.lhs == 0 and report.rhs == 0
    big = (4, 7, 3, 5, 1, 2, 6)
    rep = check_lemma("lem-2.1", big)
    ut, lt = transients(big)
    assert rep.lhs - crossing_count(big) == ut - lt
    rep24 = check_lemma("lem-2.4", (3, 1, 2), image="i")
    assert (rep24.lhs, rep24.rhs, rep24.passed) == (0, 0, True)
    data = rep24.to_json()
    assert data["pass"] is True and data["params"] == {"image": "i"}
    with pytest.raises(ValueError, match="unknown lemma"):
        check_lemma("lem-9.9", (1,))
    with pytest.raises(ValueError):
        check_lemma("lem-2.4", (1, 2), image="cc")
    with pytest.raises(ValueError):
        check_lemma("lem-2.1", ())


@pytest.mark.parametrize("lemma", ["lem-2.1", "lem-2.2"])
def test_lemmas_exhaustive_small(lemma):
    for n in range(1, 7):
        for w in permutations(range(1, n + 1)):
            assert check_lemma(lemma, w).passed


def test_lemma_24_exhaustive_small():
    for n in range(1, 7):
        for w in permutations(range(1, n + 1)):
            assert check_lemma("lem-2.4", w, image="i").passed
            assert check_lemma("lem-2.4", w, image="rc").passed


# ---------------------------------------------------------------------------
# insertion sets


def test_insertion_sets_identity():
    # A and C vanish on the identity, but B does not: inserting j at the front
    # of the identity turns positions 2..j-1 into lower transients, and the
    # crossing count really does grow by j-2 (so "all sets empty" would
    # contradict the law the exhaustive sweep confirms)
    for j in range(1, 6):
        sets = insertion_sets(identity(5), j)
        assert sets.a == frozenset() and sets.c == frozenset()
        assert sets.b == frozenset(range(2, j))
        change = crossing_count(insert(identity(5), 1, j).word)
        assert change == max(j - 2, 0) == len(sets.b)


def test_insertion_sets_match_oracle():
    for n in range(1, 7):
        for w in permutations(range(1, n + 1)):
            for j in range(1, n + 1):
                sets = insertion_sets(w, j)
                a, b, c = oracle_insertion_sets(w, j)
                assert (set(sets.a), set(sets.b), set(sets.c)) == (a, b, c)
    rng = random.Random(5)
    base = list(range(1, 11))
    for _ in range(200):
        rng.shuffle(base)
        w = tuple(base)
        j = rng.randint(1, 10)
        sets = insertion_sets(w, j)
        a, b, c = oracle_insertion_sets(w, j)
        assert (set(sets.a), set(sets.b), set(sets.c)) == (a, b, c)


def test_insertion_sets_on_tail_classes():
    # over the tail-k classes with j=k+1 the B and C sets vanish and |A| is
    # min(k-1, n-k); the printed min(k-1, n-1-k) is off by one (see cor-4.3)
    for n in range(2, 9):
        for k in range(1, n):
            for w in class_words(class_spec(n, avoid=P213_312, tail=k)):
                sets = insertion_sets(w, k + 1)
                assert sets.b == frozenset() and sets.c == frozenset()
                assert len(sets.a) == min(k - 1, n - k)


def test_insertion_sets_subset_invariant():
    for w in permutations(range(1, 6)):
        for j in range(1, 6):
            sets = insertion_sets(w, j)
            assert all(i < j and w[i - 1] >= j for i in sets.a)


def test_insertion_sets_range_check():
    with pytest.raises(ValueError):
        insertion_sets((2, 1), 3)


# ---------------------------------------------------------------------------
# the front-insertion law and the exponent adjudication


def test_lemma42_trivial_and_exhaustive():
    rep = check_lemma42(identity(4), 1)
    assert rep.passed and rep.lhs == rep.rhs == 0
    for n in range(1, 7):
        for w in permutations(range(1, n + 1)):
            for j in range(1, n + 1):
                assert check_lemma42(w, j).passed, (w, j)


def test_lemma42_counterexamples_to_printed_sets():
    # with the sets as printed (i < j in A, k+1 <= j in C) the law would give
    # 1 here; the true change is 0
    w = (3, 1, 2)
    assert crossing_count(insert(w, 1, 2).word) - crossing_count(w) == 0
    printed_a = {i for i in range(1, 4) if i < 2 and w[i - 1] >= 2}
    assert printed_a == {1}  # the printed A is nonempty, the corrected one empty
    assert insertion_sets(w, 2).a == frozenset()


def test_tail_class_increment_instance():
    # size-8 tail-3 members: inserting 4 at the front raises crs by exactly 2
    for w in class_words(class_spec(8, avoid=P213_312, tail=3)):
        got = crossing_count(insert(w, 1, 4).word) - crossing_count(w)
        assert got == 2 == min(3 - 1, 8 - 3)


def test_adjudication_is_decisive_for_the_statement():
    report = adjudicate_cor43(7)
    assert report.winner == "statement"
    assert all(row.statement_ok for row in report.rows)
    disagreements = [r for r in report.rows if r.statement != r.proof]
    assert disagreements and any(not r.proof_ok for r in disagreements)
    # every observed class has a single, constant increment
    assert all(len(r.increments) == 1 for r in report.rows if r.size)
    data = report.to_json()
    assert data["winner"] == "statement"
    assert len(data["rows"]) == sum(n for n in range(1, 8))


@pytest.mark.parametrize("block", [3, patterns.BLOCK_WORDS])
def test_adjudication_rows_match_a_per_word_reference(monkeypatch, block):
    # the rows come from the crs kernel over blocks; here each word of each
    # tail class is walked and measured by the per-word functions
    monkeypatch.setattr(patterns, "BLOCK_WORDS", block)
    want = []
    for n in range(1, 8):
        members = [w for w in permutations(range(1, n + 1)) if patterns.avoids(w, P213_312)]
        for k in range(1, n + 1):
            words = [w for w in members if w[n - k :] == tuple(range(k, 0, -1))]
            increments = {crossing_count(insert(w, 1, k + 1).word) - crossing_count(w) for w in words}
            want.append((n, k, len(words), tuple(sorted(increments))))
    report = adjudicate_cor43(7)
    assert [(r.n, r.k, r.size, r.increments) for r in report.rows] == want


def test_adjudication_matches_tableau_exponent():
    # applying the winning increment at source size n-1 reproduces exactly the
    # exponent min(k-1, n-1-k) that the tableau recurrence uses at size n
    for n in range(2, 9):
        for k in range(1, n - 1):
            exponent = min(k - 1, n - 1 - k)
            for w in class_words(class_spec(n - 1, avoid=P213_312, tail=k)):
                got = crossing_count(insert(w, 1, k + 1).word) - crossing_count(w)
                assert got == exponent


# ---------------------------------------------------------------------------
# the maps and the laws over blocks, against the per-word oracles


def pack(words):
    """A block of words as its columns."""
    return [bytes(c) for c in zip(*words)]


def oracle_reports(law, w):
    """The per-word reports of one law, in instance order."""
    if law == "lem-4.2":
        return [check_lemma42(w, j) for j in range(1, len(w) + 1)]
    if law == "lem-2.4":
        return [check_lemma(law, w, image="i"), check_lemma(law, w, image="rc")]
    if law == "prop-2.5":
        return list(check_prop25(w))
    return [check_lemma(law, w)]


def oracle_shifts(law, w):
    """What the block form adds to both sides of each instance: the negative
    terms of the right side."""
    n = len(w)
    ut, lt = transients(w)
    ends_with_n = 1 if w[-1] == n else 0
    return {
        "lem-2.1": [lt],
        "lem-2.2": [ends_with_n + lt],
        "lem-2.4": [lt, lt],
        "lem-4.2": [len(insertion_sets(w, j).c) for j in range(1, n + 1)],
        "prop-2.5": [0, 0, ends_with_n],
    }[law]


def assert_blocks_match(words):
    block, count, n = pack(words), len(words), len(words[0])
    images = symmetry_images(block, count)
    for k in range(1, n + 2):
        # the block forms of phi_k and psi_k that residual_columns and phi-psi build
        for fn, tag in ((phi, "i"), (psi, "rc")):
            image = insert_block(images[tag], count, n + 2 - k, 1)
            assert image == pack(fn(k, w).word for w in words), (fn.__name__, k)
    for law in RESIDUAL_LAWS:
        columns = residual_columns(law, block, count)
        for t, w in enumerate(words):
            reports = oracle_reports(law, w)
            assert len(columns) == len(reports)
            for (lhs, rhs), report, shift in zip(columns, reports, oracle_shifts(law, w)):
                assert (lhs[t], rhs[t]) == (report.lhs + shift, report.rhs + shift), (law, w)


@pytest.mark.parametrize("n", range(1, 8))
def test_blocks_match_per_word_maps_and_laws(n):
    assert_blocks_match(list(permutations(range(1, n + 1))))


@pytest.mark.parametrize("n", [22, 23, 24, 25])
def test_blocks_across_the_lane_width_boundary(n):
    # the sides reach n(n+3)/2: one-byte lanes hold them up to n = 21, and the
    # crossings of a size-(n+1) image up to n = 22
    rng = random.Random(n)
    words = [tuple(range(n, 0, -1)), tuple(range(1, n + 1))]
    words += [tuple(rng.sample(range(1, n + 1), n)) for _ in range(6)]
    assert_blocks_match(words)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(10, 40).flatmap(
        lambda n: st.lists(st.permutations(range(1, n + 1)), min_size=1, max_size=6)
    )
)
def test_blocks_match_on_random_words(words):
    assert_blocks_match([tuple(w) for w in words])


@pytest.mark.parametrize("block", [120, 60, 119, 1])
def test_residuals_at_block_edges(monkeypatch, block):
    # S_5 has 120 words: whole blocks at 120 and 60, one word past at 119
    monkeypatch.setattr(patterns, "BLOCK_WORDS", block)
    words = list(permutations(range(1, 6)))
    for law in RESIDUAL_LAWS:
        lanes = []
        for packed, count in packed_blocks(words, 5):
            assert count <= block
            assert packed == pack(words[len(lanes) : len(lanes) + count])
            columns = residual_columns(law, packed, count)
            lanes += [[(lhs[t], rhs[t]) for lhs, rhs in columns] for t in range(count)]
        want = [
            [(r.lhs + s, r.rhs + s) for r, s in zip(oracle_reports(law, w), oracle_shifts(law, w))]
            for w in words
        ]
        assert lanes == want, law


def test_block_laws_reject_bad_input():
    with pytest.raises(ValueError, match="unknown law"):
        residual_columns("lem-9.9", [b"\x01"], 1)
    with pytest.raises(ValueError, match="nonempty"):
        residual_columns("lem-2.1", [], 1)
    with pytest.raises(ValueError, match="do not pack 2 words"):
        residual_columns("lem-4.2", [b"\x01\x02", b"\x01"], 2)
    with pytest.raises(ValueError, match="do not pack 0 words"):
        residual_columns("lem-2.1", [], 0)
    with pytest.raises(ValueError, match="n=256 exceeds 255"):
        residual_columns("lem-2.1", [b"\x01"] * 256, 1)
    with pytest.raises(ValueError, match="nonempty"):
        check_prop25(())
