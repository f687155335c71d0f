"""The size-raising bijections, the crossing-change lemmas, and the empirical
adjudication of the two printed inconsistencies around them.

phi_k sends a size-n permutation to insert(inverse, n+2-k, 1) and psi_k to
insert(rc-image, n+2-k, 1); both land in the set with the letter 1 at position
n+2-k, i.e. with "one_at" parameter k in size n+1.  (The definitions are
authoritative; the printed worked examples 361254/531264 put the 1 one slot
early and are rejected by the codomain test.)

The crossing-change law for inserting the letter j at the front is

    crs(sigma^(1,j)) = crs(sigma) + |A_j| + |B_j| - |C_j|

with, for a size-n word sigma (all positions/values 1-based):

    A_j = { i : i+1 < j and sigma(i) >= j }           new upper crossings with
                                                      the front letter
    B_j = { i+1 : i+1 < j, sigma(i) <= i and          positions that become
            i+1 <= sigma^-1(i+1) }                    lower transients
    C_j = { (i, m) : i < m < sigma(i) = m+1 < sigma(m),  upper crossings broken
            m+1 < j }                                    by the value shift

Both strict inequalities against j are load-bearing: relaxing either one makes
the law fail (first at sigma=312, j=2), and the exhaustive checks pin this
down.

The maps and the laws exist twice.  :func:`phi`, :func:`psi`,
:func:`check_lemma`, :func:`check_lemma42` and :func:`check_prop25` take one
word; they are the public per-word API and the oracle.  The checks run
:func:`residual_columns`, which takes a block of words as its columns (see
:func:`permcross.perm.stat_columns`) and builds its images with
:func:`permcross.perm.symmetry_images` and :func:`permcross.perm.insert_block`.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .patterns import P213_312, class_blocks, class_spec
from .perm import (
    Permutation,
    _Lanes,
    _word_size,
    apply_symmetry,
    as_word,
    crossing_count,
    insert,
    insert_block,
    insert_of_inverse,
    inverse_block,
    invert,
    stat_columns,
    symmetry_images,
    transients,
)
from .polynomials import _Value

LEMMA_IDS = ("lem-2.1", "lem-2.2", "lem-2.4", "lem-4.2")


def _check_k(k: int, n: int) -> None:
    if not 1 <= k <= n + 1:
        raise ValueError(f"k={k} out of range 1..{n + 1}")


def phi(k: int, p) -> Permutation:
    w = as_word(p)
    _check_k(k, len(w))
    return insert_of_inverse(w, len(w) + 2 - k, 1)


def psi(k: int, p) -> Permutation:
    w = as_word(p)
    _check_k(k, len(w))
    return insert(apply_symmetry("rc", w), len(w) + 2 - k, 1)


class ResidualReport(_Value):
    """Both sides of one lemma instance, evaluated exactly."""

    __slots__ = ("lemma", "word", "params", "lhs", "rhs", "passed")

    def __init__(
        self, lemma: str, word: tuple[int, ...], params: tuple[tuple[str, int | str], ...],
        lhs: int, rhs: int, passed: bool,
    ):
        self._set(lemma, word, params, lhs, rhs, passed)

    def to_json(self) -> dict:
        return {
            "lemma": self.lemma,
            "word": list(self.word),
            "params": dict(self.params),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "pass": self.passed,
        }


def check_lemma(lemma: str, p, image: str = "i") -> ResidualReport:
    """Evaluate both sides of one of the crossing-change lemmas.

    lem-2.1: appending a new smallest letter changes crs by ut - lt.
    lem-2.2: inserting it second-to-last changes crs by 1 - [sigma(n)=n] + ut - lt.
    lem-2.4: the inverse (image="i") and the rc-image (image="rc") both have
             crs equal to crs + ut - lt.
    """
    w = as_word(p)
    n = len(w)
    if n == 0:
        raise ValueError("lemma checks need a nonempty permutation")
    base = crossing_count(w)
    ut, lt = transients(w)
    if lemma == "lem-2.1":
        lhs = crossing_count(insert(w, n + 1, 1).word)
        rhs = base + ut - lt
        params: tuple = ()
    elif lemma == "lem-2.2":
        lhs = crossing_count(insert(w, n, 1).word)
        rhs = base + 1 - (1 if w[-1] == n else 0) + ut - lt
        params = ()
    elif lemma == "lem-2.4":
        if image not in ("i", "rc"):
            raise ValueError(f"image must be 'i' or 'rc', not {image!r}")
        target = invert(w) if image == "i" else apply_symmetry("rc", w)
        lhs = crossing_count(target)
        rhs = base + ut - lt
        params = (("image", image),)
    else:
        raise ValueError(f"unknown lemma id {lemma!r}; expected one of {LEMMA_IDS[:3]}")
    return ResidualReport(lemma, w, params, lhs, rhs, lhs == rhs)


class InsertionSets(_Value):
    """The three bookkeeping sets for inserting the letter j at the front.

    a: old indices i (with i+1 < j, sigma(i) >= j) that cross the new letter.
    b: new indices i+1 that become lower transients.
    c: old index pairs whose upper crossing the value shift destroys.
    """

    __slots__ = ("a", "b", "c", "j")

    def __init__(self, a: frozenset[int], b: frozenset[int], c: frozenset[tuple[int, int]], j: int):
        self._set(a, b, c, j)


def insertion_sets(p, j: int) -> InsertionSets:
    w = as_word(p)
    n = len(w)
    if not 1 <= j <= n:
        raise ValueError(f"j={j} out of range 1..{n}")
    inv = invert(w)
    a = frozenset(i for i in range(1, n + 1) if i + 1 < j and w[i - 1] >= j)
    b = frozenset(
        i + 1
        for i in range(1, n)
        if i + 1 < j and w[i - 1] <= i and i + 1 <= inv[i]
    )
    c = frozenset(
        (inv[m], m)
        for m in range(1, n)
        if m + 1 < j and inv[m] < m and w[m - 1] > m + 1
    )
    return InsertionSets(a, b, c, j)


def check_lemma42(p, j: int) -> ResidualReport:
    """crs(sigma^(1,j)) = crs(sigma) + |A_j| + |B_j| - |C_j|."""
    w = as_word(p)
    sets = insertion_sets(w, j)
    lhs = crossing_count(insert(w, 1, j).word)
    rhs = crossing_count(w) + len(sets.a) + len(sets.b) - len(sets.c)
    return ResidualReport("lem-4.2", w, (("j", j),), lhs, rhs, lhs == rhs)


def check_prop25(p) -> tuple[ResidualReport, ...]:
    """prop-2.5 on one word: crs of phi_1, psi_1 and phi_2 against crs, crs
    and crs + 1 - [sigma(n)=n]."""
    w = as_word(p)
    n = len(w)
    if n == 0:
        raise ValueError("prop-2.5 needs a nonempty permutation")
    base = crossing_count(w)
    claims = (
        ("phi", phi, 1, base),
        ("psi", psi, 1, base),
        ("phi", phi, 2, base + 1 - (1 if w[-1] == n else 0)),
    )
    reports = []
    for name, fn, k, rhs in claims:
        lhs = crossing_count(fn(k, w).word)
        params = (("map", name), ("k", k))
        reports.append(ResidualReport("prop-2.5", w, params, lhs, rhs, lhs == rhs))
    return tuple(reports)


# ---------------------------------------------------------------------------
# the laws over blocks of columns

RESIDUAL_LAWS = (*LEMMA_IDS, "prop-2.5")


def residual_columns(
    law: str, columns: list[bytes], count: int
) -> list[tuple[Sequence[int], Sequence[int]]]:
    """Both sides of every instance of a law over a block of words (see
    :func:`permcross.perm.stat_columns`), as (lhs, rhs) columns.

    The instances are those of the per-word oracle, in its order:
    :func:`check_lemma` for lem-2.1 and lem-2.2, lem-2.4 with image "i" then
    "rc", :func:`check_lemma42` for j = 1..n, and :func:`check_prop25`.  The
    negative terms of a right side are added to both sides instead, so no
    lane goes negative: lem-4.2 compares crs(sigma^(1,j)) + |C_j| with
    crs(sigma) + |A_j| + |B_j|.  Lane by lane, lhs - rhs is the oracle's
    lhs - rhs.  Each side is at most n(n+3)/2, which sets the lane width.

    >>> block = [bytes((3,)), bytes((1,)), bytes((2,))]
    >>> [(list(lhs), list(rhs)) for lhs, rhs in residual_columns("lem-2.1", block, 1)]
    [([1], [1])]
    """
    if law not in RESIDUAL_LAWS:
        raise ValueError(f"unknown law {law!r}; expected one of {RESIDUAL_LAWS}")
    n = _word_size(columns, count)
    if n == 0:
        raise ValueError(f"{law} needs nonempty words")
    word = _Lanes(columns, count, min_width=1 if n * (n + 3) // 2 <= 0xFF else 2)

    def crs_of(image: list[bytes]) -> int:
        return _Lanes(image, count, min_width=word.width).stat("crs")

    crs = word.stat("crs")
    if law == "lem-4.2":
        sides = [
            (crs_of(insert_block(columns, count, 1, j)) + c, crs + a + b)
            for j, a, b, c in _insertion_set_sizes(word)
        ]
    elif law == "prop-2.5":
        # phi_k and psi_k insert 1 at position n+2-k into the inverse and the rc image
        images = symmetry_images(columns, count)
        ends_with_n = ((word.xt[n - 1] - word.const(n)) & word.top) >> word.shift
        sides = [
            (crs_of(insert_block(images["i"], count, n + 1, 1)), crs),
            (crs_of(insert_block(images["rc"], count, n + 1, 1)), crs),
            (crs_of(insert_block(images["i"], count, n, 1)) + ends_with_n, crs + word.ones),
        ]
    else:
        ut, lt = word.stat("ut"), word.stat("lt")
        if law == "lem-2.1":
            sides = [(crs_of(insert_block(columns, count, n + 1, 1)) + lt, crs + ut)]
        elif law == "lem-2.2":
            ends_with_n = ((word.xt[n - 1] - word.const(n)) & word.top) >> word.shift
            image = insert_block(columns, count, n, 1)
            sides = [(crs_of(image) + ends_with_n + lt, crs + word.ones + ut)]
        else:
            images = symmetry_images(columns, count)
            sides = [(crs_of(images[tag]) + lt, crs + ut) for tag in ("i", "rc")]
    return [(word.unpack(lhs), word.unpack(rhs)) for lhs, rhs in sides]


def _insertion_set_sizes(word: _Lanes) -> Iterator[tuple[int, int, int, int]]:
    """(j, |A_j|, |B_j|, |C_j|) for j = 1..n as lane sums: the sets of
    :func:`insertion_sets` as lane comparisons against the word's columns
    and its inverse columns.  B_j and C_j grow by the index j-2 as j grows.
    """
    xt, top, shift, const = word.xt, word.top, word.shift, word.const
    # post[v-1]: the position of the letter v, with the top bit set
    post = _Lanes(inverse_block(word.columns, word.count), word.count, min_width=word.width).xt
    b = c = 0
    for j in range(1, word.n + 1):
        i = j - 2
        if i >= 1:
            # B: sigma(i) <= i and i+1 <= sigma^-1(i+1)
            b += (~(xt[i - 1] - const(i + 1)) & (post[i] - const(i + 1)) & top) >> shift
            # C (m = i): sigma^-1(m+1) < m and sigma(m) > m+1
            c += (~(post[i] - const(i)) & (xt[i - 1] - const(i + 2)) & top) >> shift
        # A: i+1 < j and sigma(i) >= j
        a = sum(((xt[p] - const(j)) & top) >> shift for p in range(j - 2))
        yield j, a, b, c


# ---------------------------------------------------------------------------
# adjudication of the two candidate increment formulas


class Cor43Row(_Value):
    """One (n, k) of :func:`adjudicate_cor43`: ``statement`` is min(k-1, n-k),
    ``proof`` is min(k-1, n-1-k)."""

    __slots__ = (
        "n", "k", "size", "increments", "statement", "proof", "statement_ok", "proof_ok"
    )

    def __init__(
        self, n: int, k: int, size: int, increments: tuple[int, ...], statement: int,
        proof: int, statement_ok: bool, proof_ok: bool,
    ):
        self._set(n, k, size, increments, statement, proof, statement_ok, proof_ok)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "size": self.size,
            "increments": list(self.increments),
            "statement": self.statement,
            "proof": self.proof,
            "statement_ok": self.statement_ok,
            "proof_ok": self.proof_ok,
        }


class Cor43Report(_Value):
    """Decisive table for the crossing increment of sigma -> sigma^(1,k+1) on
    the tail-constrained (213,312)-avoiders: which of the two printed
    exponents min(k-1, n-k) vs min(k-1, n-1-k) matches the enumerated truth,
    ``winner`` being "statement", "proof", "both" or "neither"."""

    __slots__ = ("n_max", "rows", "winner")

    def __init__(self, n_max: int, rows: tuple[Cor43Row, ...], winner: str):
        self._set(n_max, rows, winner)

    def to_json(self) -> dict:
        return {
            "n_max": self.n_max,
            "winner": self.winner,
            "rows": [r.to_json() for r in self.rows],
        }


def adjudicate_cor43(n_max: int, bound: int | None = None) -> Cor43Report:
    """crs(sigma^(1,k+1)) - crs(sigma) over each tail class, from the crs
    kernel on each block and its :func:`permcross.perm.insert_block` image,
    subtracted unpacked so that a negative increment borrows from no lane."""
    rows = []
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            increments = set()
            size = 0
            for columns, count in class_blocks(class_spec(n, avoid=P213_312, tail=k), bound):
                size += count
                (before,) = stat_columns(columns, count, ("crs",))
                (after,) = stat_columns(insert_block(columns, count, 1, k + 1), count, ("crs",))
                increments.update(map(int.__sub__, after, before))
            statement = min(k - 1, n - k)
            proof = min(k - 1, n - 1 - k)
            row = (n, k, size, tuple(sorted(increments)), statement, proof)
            rows.append(Cor43Row(*row, increments == {statement}, increments == {proof}))
    held = (all(r.statement_ok for r in rows), all(r.proof_ok for r in rows))
    winners = {(True, True): "both", (True, False): "statement", (False, True): "proof"}
    return Cor43Report(n_max, tuple(rows), winners.get(held, "neither"))
