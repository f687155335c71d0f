"""Permutations in one-line notation: statistics, symmetries and insertion.

A permutation of size n is the word sigma(1) sigma(2) ... sigma(n); positions
and values are both 1-based throughout, matching the usual combinatorial
conventions.  Most functions accept either a :class:`Permutation` or a plain
sequence of ints, so raw tuples work fine in bulk sweeps.

The statistics of interest pair positions with values through arcs i -> sigma(i):

- a crossing is a pair (i, j) with i < j < sigma(i) < sigma(j) (upper) or
  sigma(i) < sigma(j) <= i < j (lower; the non-strict <= matters),
- a nesting is a pair (i, j) with i < j < sigma(j) < sigma(i) or
  sigma(j) < sigma(i) <= i < j,
- an upper transient is an index i with sigma^-1(i) < i < sigma(i), a lower
  transient one with sigma(i) < i < sigma^-1(i).  Every lower transient index
  contributes a (lower) crossing pair.

Each statistic exists twice.  The functions of :data:`STATISTICS` take one
word; they are the public per-word API and the oracle.  The column kernels
compute a statistic for a whole block of words at once.  A block is one
format everywhere, ``(columns, count)``: column p holds the letter at
position p+1 of each of the ``count`` words, one byte each
(:func:`stat_columns`).  The kernels do lane arithmetic on big integers over
the columns (:class:`_Lanes`, built once per block, its lane integers only
when a kernel reads them), and are what the distribution folds use; a fold
counts one integer key per word that packs several fields
(:func:`_packed_keys`).  Crossings are counted from prefix letter sets, in
O(n) operations per block (the arcs of Corteel, "Crossings and alignments of
permutations", 2007), as terms that depend only on the letters up to their
position (:func:`_crs_terms`), so the n-1 places of a letter 1 share them
(:func:`_crs_cuts`).  The inverse, the symmetries and insertion have block
forms too, which map a block to a block: :func:`inverse_block`,
:func:`insert_block`, and :func:`symmetry_images`, all eight symmetries of a
block from one inverse.  So the crossing-change laws are checked a block at
a time.  Whole words are compared by one integer key each
(:func:`_word_keys`), the letters packed big-endian, so that numeric order
is lex order.
"""

from __future__ import annotations

import sys
from array import array
from functools import cached_property, lru_cache
from typing import Callable, Iterator, Sequence

from .polynomials import _Value

SYMMETRIES = ("id", "r", "c", "i", "rc", "ri", "ci", "rci")


class Permutation(_Value):
    """A validated permutation of {1, ..., n} in one-line notation.

    >>> Permutation((2, 1, 3)).n
    3
    >>> Permutation((1, 1, 2))
    Traceback (most recent call last):
        ...
    ValueError: duplicate value 1 at position 2
    """

    __slots__ = ("word",)

    def __init__(self, word: Sequence[int]):
        word = tuple(word)
        n = len(word)
        seen = set()
        for pos, value in enumerate(word, start=1):
            if not isinstance(value, int) or not 1 <= value <= n:
                raise ValueError(f"value {value!r} out of range 1..{n} at position {pos}")
            if value in seen:
                raise ValueError(f"duplicate value {value} at position {pos}")
            seen.add(value)
        object.__setattr__(self, "word", word)

    @property
    def n(self) -> int:
        return len(self.word)

    def __len__(self) -> int:
        return len(self.word)

    def __iter__(self) -> Iterator[int]:
        return iter(self.word)

    def __str__(self) -> str:
        return format_word(self.word)

    def inverse(self) -> "Permutation":
        return Permutation(invert(self.word))

    def apply(self, tag: str) -> "Permutation":
        return Permutation(apply_symmetry(tag, self.word))

    def stats(self) -> "StatBundle":
        return stat_bundle(self.word)


def make_permutation(word: Sequence[int]) -> Permutation:
    """Validate ``word`` and wrap it; the empty sequence gives the size-0 permutation."""
    return Permutation(tuple(word))


def as_word(p) -> tuple[int, ...]:
    """Coerce a Permutation or any int sequence to a word tuple (no validation)."""
    if isinstance(p, Permutation):
        return p.word
    return tuple(p)


def identity(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


def parse_word(text: str) -> tuple[int, ...]:
    """Parse a permutation word from CLI-style text.

    Contiguous digits are one-letter-per-digit (only possible for n <= 9);
    any comma or whitespace switches to separated mode, which covers n > 9.

    >>> parse_word("4735126")
    (4, 7, 3, 5, 1, 2, 6)
    >>> parse_word("10, 2, 3, 4, 5, 6, 7, 8, 9, 1")[0]
    10
    """
    text = text.strip()
    if text == "":
        return ()
    if any(ch in text for ch in ", \t"):
        parts = [s for s in text.replace(",", " ").split() if s]
    else:
        parts = list(text)
    values = []
    for part in parts:
        try:
            values.append(int(part))
        except ValueError:
            raise ValueError(f"cannot parse {part!r} as a permutation letter") from None
    return tuple(values)


def format_word(word: Sequence[int]) -> str:
    """Inverse of :func:`parse_word`: contiguous digits when n <= 9, commas otherwise."""
    word = tuple(word)
    if not word:
        return "()"
    if len(word) <= 9:
        return "".join(str(v) for v in word)
    return ",".join(str(v) for v in word)


def invert(word: Sequence[int]) -> tuple[int, ...]:
    word = as_word(word)
    inv = [0] * len(word)
    for pos, value in enumerate(word, start=1):
        inv[value - 1] = pos
    return tuple(inv)


# ---------------------------------------------------------------------------
# statistics


def crossings(p) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Crossing count and the witnessing index pairs, by definitional scan.

    >>> crossings((4, 7, 3, 5, 1, 2, 6))[0]
    3
    """
    return _arc_pairs(p, nest=False)


def nestings(p) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Nesting count and witnessing pairs.

    >>> nestings((4, 7, 3, 5, 1, 2, 6))[0]
    3
    """
    return _arc_pairs(p, nest=True)


def _arc_pairs(p, nest: bool) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The pairs i < j of the definitions, scanned one by one: with (lo, hi)
    = (w_i, w_j) for a crossing and (w_j, w_i) for a nesting, lo < hi and
    either j < lo (upper) or hi <= i (lower)."""
    w = as_word(p)
    pairs = tuple(
        (i, j)
        for j in range(2, len(w) + 1)
        for i in range(1, j)
        for lo, hi in [(w[j - 1], w[i - 1]) if nest else (w[i - 1], w[j - 1])]
        if lo < hi and (j < lo or hi <= i)
    )
    return len(pairs), pairs


def crossing_count(p) -> int:
    """Crossing count only, organized around short arc scans for bulk sweeps."""
    return _arc_count(p, nest=False)


def nesting_count(p) -> int:
    """Nesting count only, by the same arc scans as :func:`crossing_count`."""
    return _arc_count(p, nest=True)


def _arc_count(p, nest: bool) -> int:
    """The pairs of :func:`_arc_pairs` led by each i: for w(i) > i the j in
    (i, w(i)) with w(j) > w(i) (crossings) or j < w(j) < w(i) (nestings),
    else the letters placed after i in (w(i), i] (crossings) or below w(i)."""
    w = as_word(p)
    inv = [0] * (len(w) + 1)
    for idx, v in enumerate(w):
        inv[v] = idx + 1
    count = 0
    for i, wi in enumerate(w, 1):
        if wi > i:
            for j in range(i + 1, wi):
                if (j < w[j - 1] < wi) if nest else w[j - 1] > wi:
                    count += 1
        else:
            for v in range(1, wi) if nest else range(wi + 1, i + 1):
                if inv[v] > i:
                    count += 1
    return count


def transients(p) -> tuple[int, int]:
    """(upper, lower) transient counts.

    >>> transients((2, 3, 1))
    (1, 0)
    >>> transients((3, 1, 2))
    (0, 1)
    """
    w = as_word(p)
    inv = invert(w)
    ut = lt = 0
    for ii, wi in enumerate(w):
        i = ii + 1
        pos = inv[i - 1]  # sigma^-1(i)
        if pos < i < wi:
            ut += 1
        elif wi < i < pos:
            lt += 1
    return ut, lt


def upper_transient_count(p) -> int:
    return transients(p)[0]


def lower_transient_count(p) -> int:
    return transients(p)[1]


def excedance_count(p) -> int:
    return sum(1 for ii, v in enumerate(as_word(p)) if v > ii + 1)


def descent_count(p) -> int:
    w = as_word(p)
    return sum(1 for ii in range(len(w) - 1) if w[ii] > w[ii + 1])


def inversion_count(p) -> int:
    w = as_word(p)
    n = len(w)
    return sum(1 for ii in range(n) for jj in range(ii + 1, n) if w[ii] > w[jj])


def max_drop(p) -> int:
    """max(i - sigma(i)) floored at 0, so the identity has drop 0."""
    w = as_word(p)
    # the drops sum to zero, so the max is never negative for n >= 1
    return max((ii + 1 - v for ii, v in enumerate(w)), default=0)


STATISTICS = {
    "crs": crossing_count,
    "nes": nesting_count,
    "ut": upper_transient_count,
    "lt": lower_transient_count,
    "exc": excedance_count,
    "des": descent_count,
    "inv": inversion_count,
    "maxdrop": max_drop,
}

STAT_NAMES = tuple(STATISTICS)


def _check_stat(stat: str) -> None:
    if stat not in STATISTICS:
        raise ValueError(f"unknown statistic {stat!r}; expected one of {sorted(STATISTICS)}")


class StatBundle(_Value):
    __slots__ = ("crs", "nes", "ut", "lt", "exc", "des", "inv", "maxdrop")

    def __init__(
        self, crs: int, nes: int, ut: int, lt: int, exc: int, des: int, inv: int, maxdrop: int
    ):
        self._set(crs, nes, ut, lt, exc, des, inv, maxdrop)

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in STAT_NAMES}


def stat_bundle(p) -> StatBundle:
    w = as_word(p)
    return StatBundle(**{name: stat(w) for name, stat in STATISTICS.items()})


# ---------------------------------------------------------------------------
# column kernels over blocks of columns

#: Packed blocks hold one letter per byte, so no packed word is longer.
MAX_PACKED_N = 255


def stat_columns(columns: list[bytes], count: int, stats: Sequence[str]) -> list[Sequence[int]]:
    """Several statistics of every word of a block, in block order, from
    one set of lanes.

    A block is ``count`` words of one length n given by their n columns of
    letters: ``columns[p]`` holds the letter at position p+1 of every word,
    one byte each, so ``[bytes(c) for c in zip(*words)]`` builds a block and
    ``zip(*columns)`` gives its words back.  Every class comes in this format
    (:func:`permcross.patterns.class_blocks`), and every block kernel here
    maps blocks to blocks.  A column becomes one integer X_p with a lane per
    word: one byte while every statistic fits, n(n-1)/2 <= 255 (n <= 23),
    and two bytes up to ``MAX_PACKED_N``.  Each step then acts on the whole
    block.  ``[w_i >= w_j]`` is the top bit of each lane of
    ``(X_i | 0x80..) - X_j``; ``[w_p > c]`` is the same with c+1 in every
    lane in place of X_j; ``[w_p == c]`` is a ``bytes.translate`` table.
    Such a statistic is a sum of 0/1 lanes.  ``crs`` is counted from sets of
    letters instead, one bit per letter 2..n-1 in byte planes of eight: one
    ``translate`` per position updates the set of the letters above I placed
    before position I and those at or below I placed from I on, and the
    crossings at I are the popcount of its letters in (I, w_I) or (w_I, I].
    ``maxdrop`` is a popcount too: one ``translate`` per position sets a bit
    for each drop up to that of its letter, in byte planes of eight drops,
    ORed over the positions.  The per-word functions of :data:`STATISTICS`
    are the oracle the kernels are tested against.  Each statistic comes as
    ``bytes`` for one-byte lanes, else as an array.

    >>> columns = [bytes(c) for c in zip((4, 7, 3, 5, 1, 2, 6), (2, 1, 3, 4, 5, 6, 7))]
    >>> [list(c) for c in stat_columns(columns, 2, ("crs", "nes"))]
    [[3, 0], [3, 0]]
    """
    for stat in stats:
        _check_stat(stat)
    _word_size(columns, count)
    lanes = _Lanes(columns, count)
    return [lanes.unpack(lanes.stat(stat)) for stat in stats]


def inverse_block(columns: list[bytes], count: int) -> list[bytes]:
    """The inverse of every word of a block (see :func:`stat_columns`):
    column v of the result is the position of the letter v.  Bit k of that
    position is whether v is among the letters at the positions p with bit
    k set, so per byte plane of eight letters one ``translate`` per column
    gives each letter as a bit, the sums over those positions give one set
    per bit of the position, and each letter's column is read off the sets.

    >>> [list(c) for c in inverse_block([bytes((2, 3)), bytes((3, 1)), bytes((1, 2))], 2)]
    [[3, 2], [1, 3], [2, 1]]
    """
    n = _word_size(columns, count)
    ones = _lane_constants(count, 1)[0]
    image = []
    for plane in range((n + 7) // 8):
        bits = [int.from_bytes(c.translate(_plane_table(1, plane)), "little") for c in columns]
        sets = [
            sum(bits[p - 1] for p in range(1, n + 1) if p >> k & 1) for k in range(n.bit_length())
        ]
        for j in range(min(8, n - 8 * plane)):  # the letter 8 plane + j + 1
            total = sum(((s >> j) & ones) << k for k, s in enumerate(sets))
            image.append(total.to_bytes(count, "little"))
    return image


def symmetry_images(columns: list[bytes], count: int) -> dict[str, list[bytes]]:
    """:func:`apply_symmetry` of every word of a block (see
    :func:`stat_columns`) under all eight tags, from one
    :func:`inverse_block`: r is the columns reversed, c one ``translate``
    per column, and i, ri, ci and rci compose them on the inverse.

    >>> images = symmetry_images([bytes((2, 3)), bytes((3, 1)), bytes((1, 2))], 2)
    >>> [list(c) for c in images["ri"]]
    [[2, 1], [1, 3], [3, 2]]
    """
    n = _word_size(columns, count)
    table = _complement_table(n)
    inverse = inverse_block(columns, count)
    complement = [c.translate(table) for c in columns]
    complement_inverse = [c.translate(table) for c in inverse]
    return {
        "id": list(columns),
        "r": columns[::-1],
        "c": complement,
        "i": inverse,
        "rc": complement[::-1],
        "ri": inverse[::-1],
        "ci": complement_inverse,
        "rci": complement_inverse[::-1],
    }


def insert_block(columns: list[bytes], count: int, a: int, b: int) -> list[bytes]:
    """:func:`insert` of the letter b at position a into every word of a
    block (see :func:`stat_columns`): one ``translate`` per column bumps the
    letters >= b, and a constant column of b goes in at position a.

    >>> list(b"".join(insert_block([bytes((v,)) for v in (3, 1, 4, 2)], 1, 2, 3)))
    [4, 3, 1, 5, 2]
    """
    m = _word_size(columns, count) + 1
    if m > MAX_PACKED_N:
        raise ValueError(f"packed words hold one letter per byte; n={m} exceeds {MAX_PACKED_N}")
    if not 1 <= a <= m:
        raise ValueError(f"insert position {a} out of range 1..{m}")
    if not 1 <= b <= m:
        raise ValueError(f"insert value {b} out of range 1..{m}")
    image = [c.translate(_bump_table(b)) for c in columns]
    image.insert(a - 1, bytes((b,)) * count)
    return image


def _word_size(columns: list[bytes], count: int) -> int:
    """The length n of the words of a block, whose columns must each hold
    ``count`` >= 1 letters, with n at most ``MAX_PACKED_N``."""
    n, lengths = len(columns), sorted({len(c) for c in columns})
    if count < 1 or lengths not in ([], [count]):
        raise ValueError(f"columns of lengths {lengths} do not pack {count} words")
    if n > MAX_PACKED_N:
        raise ValueError(f"packed words hold one letter per byte; n={n} exceeds {MAX_PACKED_N}")
    return n


def _columns(rows: bytes, n: int) -> list[bytes]:
    """Size-n words packed one after another cut into their n columns."""
    return [rows[p::n] for p in range(n)]


def _rows(columns: Sequence[bytes]) -> bytes:
    """Columns of one length interleaved into packed words: :func:`_columns` undone."""
    n = len(columns)
    out = bytearray(n * len(columns[0]) if n else 0)
    for p, column in enumerate(columns):
        out[p::n] = column
    return bytes(out)


def _packed_keys(fields: Sequence[bytes], count: int) -> array:
    """One integer key per word holding its value in every field, so one
    ``Counter`` counts the words by all fields at once.  A field is
    ``count`` little-endian values of one width; its bytes are columns of
    the key, after those of the fields before it, in an array of the
    narrowest code "H", "I" or "Q" that holds them.

    >>> [hex(k) for k in _packed_keys([bytes((1, 2)), bytes((3, 0, 4, 5))], 2)]
    ['0x301', '0x50402']
    """
    columns = [f[b :: len(f) // count] for f in fields for b in range(len(f) // count)]
    keys = array(next(code for code in "HIQ" if array(code).itemsize >= len(columns)))
    keys.frombytes(_rows(columns + [bytes(count)] * (keys.itemsize - len(columns))))
    if sys.byteorder == "big":
        keys.byteswap()
    return keys


def _word_keys(columns: list[bytes], count: int) -> array:
    """One integer key per word of a block, whose numeric order is the lex
    order of the words: the letters big-endian, one nibble each, as the
    fields of :func:`_packed_keys`.  Up to n = 7 a key is below 2^30, one
    digit of a CPython int, which sorts fastest.

    >>> [hex(k) for k in _word_keys([bytes((2, 1)), bytes((1, 3)), bytes((3, 2))], 2)]
    ['0x213', '0x132']
    """
    n = _word_size(columns, count)
    if n > 15:
        raise ValueError(f"word keys hold letters up to 15; n={n} is too long")
    letters = [int.from_bytes(c, "little") for c in reversed(columns)]  # the last one lowest
    pairs = zip(letters[::2], [*letters[1::2], 0])  # two letters a byte, the earlier one high
    return _packed_keys([(lo | hi << 4).to_bytes(count, "little") for lo, hi in pairs], count)


def _lane_width(n: int) -> int:
    """Bytes per lane of the statistics of size-n words, which reach n(n-1)/2."""
    return 1 if n * (n - 1) // 2 <= 0xFF else 2


class _Lanes:
    """The columns of a block of ``count`` words, with the lane integers
    built from them when a kernel first reads them.

    Comparisons come out in the top bit of each lane: ``x`` holds the
    letters, ``xt`` the letters with the top bit set, and ``const(c)`` the
    value c in every lane, so ``(xt[i] - x[j]) & top`` is [w_i >= w_j] and
    ``(xt[p] - const(c)) & top`` is [w_p >= c].  ``>> shift`` turns top bits
    into 0/1 lanes.  Lanes are as wide as the statistics of n need
    (:func:`_lane_width`), or ``min_width`` bytes if wider: the residual
    kernels of :mod:`permcross.bijections` add several statistics in one lane.
    """

    def __init__(self, columns: list[bytes], count: int, min_width: int = 1):
        self.n = n = len(columns)
        self.count = count
        self.width = max(min_width, _lane_width(n))
        self.columns = columns
        self.ones, self.top = _lane_constants(count, self.width)
        self.shift = 8 * self.width - 1

    @cached_property
    def x(self) -> list[int]:
        return [self.as_int(c) for c in self.columns]

    @cached_property
    def xt(self) -> list[int]:
        return [v | self.top for v in self.x]

    def as_int(self, column: bytes) -> int:
        """A column of byte values as a lane integer."""
        if self.width > 1:
            wide = bytearray(self.width * len(column))
            wide[:: self.width] = column
            column = wide
        return int.from_bytes(column, "little")

    def as_bits(self, column: bytes) -> int:
        """2^(v+1) in each lane for the letter v of a column, 1 <= v <= n,
        for lanes wide enough to hold 2^(n+1) below their top bit."""
        bits = bytearray(self.width * len(column))
        for b in range((self.n + 1) // 8 + 1):
            bits[b :: self.width] = column.translate(_plane_table(-1, b))
        return int.from_bytes(bits, "little")

    def as_bytes(self, total: int) -> bytes:
        """A lane integer as ``count`` little-endian values of ``width`` bytes."""
        return total.to_bytes(self.width * self.count, "little")

    def const(self, c: int) -> int:
        return c * self.ones

    def popcount(self, v: int) -> int:
        """The bits set in each byte of ``v`` counted, in lanes of the block's width."""
        m55, m33, m0f = _popcount_masks(self.count)
        v -= v >> 1 & m55
        v = (v & m33) + (v >> 2 & m33)
        v = (v + (v >> 4)) & m0f
        return v if self.width == 1 else self.as_int(v.to_bytes(self.count, "little"))

    def position(self, letter: int) -> bytes:
        """The 1-based position of ``letter`` in each word, a byte each, 0
        where it is absent: one ``translate`` per column, summed as one-byte
        lane integers, of which at most one is nonzero in a lane."""
        total = sum(
            int.from_bytes(c.translate(_position_table(letter, p)), "little")
            for p, c in enumerate(self.columns, 1)
        )
        return total.to_bytes(self.count, "little")

    @cached_property
    def early(self) -> list[int]:
        """[the letter p+1 sits before position p+1] as 0/1 lanes, for each p.
        The letters v that sit before position v are bit v-2-8b of the low
        byte of each lane of plane b, the sum over the positions p of a
        ``translate`` that sets the bits of the letters v > p."""
        columns = list(enumerate(self.columns, 1))
        planes = [
            sum(self.as_int(c.translate(_plane_table(2, b, p))) for p, c in columns)
            for b in range((self.n + 6) // 8)
        ]
        return [0] + [planes[(p - 1) // 8] >> (p - 1) % 8 & self.ones for p in range(1, self.n)]

    def stat(self, name: str) -> int:
        """The lane sum of one statistic."""
        return _LANE_KERNELS[name](self)

    def unpack(self, total: int) -> Sequence[int]:
        """A lane integer as its ``count`` values: ``bytes``, or ``array("H")`` at two-byte lanes."""
        raw = self.as_bytes(total)
        if self.width == 1:
            return raw
        values = array("H", raw)
        if sys.byteorder == "big":
            values.byteswap()
        return values


@lru_cache(maxsize=1)
def _lane_constants(count: int, width: int) -> tuple[int, int]:
    """``ones`` and ``top`` of ``count`` lanes of ``width`` bytes.  One
    entry, as the blocks of a class share a count: more outlive their class."""
    ones = int.from_bytes(b"\x01".ljust(width, b"\0") * count, "little")
    return ones, ones << 8 * width - 1


@lru_cache(maxsize=1)
def _popcount_masks(count: int) -> tuple[int, int, int]:
    """The masks 0x55.., 0x33.. and 0x0F.. over ``count`` bytes of :meth:`_Lanes.popcount`,
    apart from :func:`_lane_constants`: lanes that never popcount do not build them."""
    byte = int.from_bytes(b"\x01" * count, "little")
    return 0x55 * byte, 0x33 * byte, 0x0F * byte


@lru_cache(maxsize=None)
def _position_table(letter: int, position: int) -> bytes:
    """``bytes.translate`` table: ``position`` for ``letter``, else 0."""
    table = bytearray(256)
    table[letter] = position
    return bytes(table)


@lru_cache(maxsize=None)
def _plane_table(offset: int, b: int, above: int = -1) -> bytes:
    """``bytes.translate`` table: for each letter v > ``above``, bit
    v-offset-8b if that is one of the bits 0..7 of plane b, else 0.  At
    offset -1 it is byte b of the little-endian 2^(v+1)."""
    bits = [v - offset - 8 * b if v > above else -1 for v in range(256)]
    return bytes(1 << bit if 0 <= bit < 8 else 0 for bit in bits)


@lru_cache(maxsize=None)
def _crossing_tables(i: int, b: int) -> tuple[bytes, bytes]:
    """``bytes.translate`` tables of the letters of plane b as bits (as in
    :func:`_plane_table` at offset 2) for 8b+1 <= i <= 8b+10: the letter
    itself with the bit of i flipped, and for each letter w those in (i, w)
    or in (w, i], of which only w = 8b+1..8b+10 differ from their neighbours."""

    def bits(lo: int, hi: int) -> int:  # the letters lo..hi-1
        lo, hi = max(lo - 2 - 8 * b, 0), min(hi - 2 - 8 * b, 8)
        return (1 << hi) - (1 << lo) if lo < hi else 0

    letters = _plane_table(2, b, 1)
    flip = int.from_bytes(letters, "little") ^ int.from_bytes(letters[i : i + 1] * 256, "little")
    edge = bytes(bits(i + 1, w) | bits(w + 1, i + 1) for w in range(8 * b + 1, 8 * b + 11))
    return flip.to_bytes(256, "little"), (edge[:1] * (8 * b + 1) + edge + edge[-1:] * 256)[:256]


@lru_cache(maxsize=None)
def _complement_table(n: int) -> bytes:
    """``bytes.translate`` table: v -> n+1-v for the letters 1..n."""
    table = bytearray(range(256))
    table[1 : n + 1] = range(n, 0, -1)
    return bytes(table)


_BYTES = bytes(range(256))


def _bump_table(b: int) -> bytes:
    """``bytes.translate`` table: the letters >= b up by one (255 stays)."""
    return _BYTES[:b] + _BYTES[b + 1 :] + b"\xff"


# Each kernel maps a block's lanes to the lane sum of one statistic.  Positions
# are 0-based in the code: column p holds the letters at position p+1.


def _crs_terms(b: _Lanes) -> Iterator[tuple[int, int, int, int]]:
    """The crossings at each position of a block as sets of letters, one
    byte a word per byte plane: (p, X, one, term) for the columns p = 1..n-2,
    plane by plane.  X is the letters before position p+1 xor the letters
    <= p+1 and ``one`` the plane's letters in (1, p+1], so neither reads
    column p; ``term`` = X & ((p+1, w) | (w, p+1]) is the crossings at p+1
    of its letter w, and X & ``one`` would be those of a 1 there."""
    # With S the letters before position I, the upper crossings that close at
    # I are S & (I, w_I) and the lower ones that open at I are (w_I, I] - S;
    # X = S ^ (the letters <= I) flips w_(I-1) and I at I.  Neither interval
    # holds the letter 1, so the planes hold the letters from 2 on.
    columns, from_bytes = b.columns, int.from_bytes
    for plane in range((b.n + 5) // 8):
        low, x = 8 * plane + 2, 0  # the letters of the plane are low..low+7
        for p in range(1, b.n - 1):
            i = min(max(p + 1, low - 1), low + 8)  # past either end, the plane looks the same
            flip, between = _crossing_tables(i, plane)
            x ^= from_bytes(columns[p - 1].translate(flip), "little")
            yield p, x, between[1], from_bytes(columns[p].translate(between), "little") & x


def _crs_lanes(b: _Lanes) -> int:
    # crs sums the popcount of every term (:func:`_crs_terms`); the terms go into
    # carry-save counters, bit k of each count in levels[k], each popcounted once.
    levels: list[int] = []
    for _, _, _, term in _crs_terms(b):
        for k, level in enumerate(levels):
            levels[k], term = level ^ term, level & term
            if not term:
                break
        else:
            levels.append(term)
    return sum(b.popcount(level) << k for k, level in enumerate(levels))


def _crs_cuts(b: _Lanes) -> list[int]:
    """The crs lane sums of a block of words that end with 1, v, its column
    of 1s moved to each position p = 1..n-1 in turn, in order of p.

    A term of :func:`_crs_terms` reads only the letters up to its
    position, and the letter 1 is in no plane, so the terms before p are
    those of the block itself, the terms after p those of the block with
    its 1s first, and the term at p is the lower crossings that open at the
    1, ``one`` & X of the block itself: two passes for n-1 cuts.

    >>> lanes = _Lanes([bytes((3, 4)), bytes((4, 2)), bytes((2, 3)), b"\\1\\1", bytes((5, 5))], 2)
    >>> [list(lanes.unpack(total)) for total in _crs_cuts(lanes)]
    [[0, 1], [1, 2], [2, 1], [1, 0]]
    """
    n, count = b.n, b.count
    first = _Lanes([b.columns[n - 2], *b.columns[: n - 2], b.columns[n - 1]], count)
    byte = int.from_bytes(b"\x01" * count, "little")
    before, at, after = [0] * n, [0] * n, [0] * n  # popcounts by column
    for p, x, one, term in _crs_terms(b):
        at[p] += b.popcount(x & one * byte)
        if p < n - 2:  # no cut reads before[n-2]: no 1 sits past column n-2
            before[p] += b.popcount(term)
    for p, _, _, term in _crs_terms(first):
        after[p] += b.popcount(term)
    cuts, done, left = [], 0, sum(after)
    for p in range(n - 1):
        left -= after[p]
        cuts.append(done + at[p] + left)
        done += before[p]
    return cuts


def _nes_lanes(b: _Lanes) -> int:
    # (i, j) nests when w_i > w_j and (w_j > j or w_i <= i); [w_p > p+1] is one
    # top-bit mask per position, and its complement the other half
    x, xt, top, shift = b.x, b.xt, b.top, b.shift
    up = [(xt[p] - b.const(p + 2)) & top for p in range(b.n)]
    total = 0
    for i in range(b.n - 1):
        xti, down = xt[i], up[i] ^ top
        for j in range(i + 1, b.n):
            total += ((xti - x[j]) & (up[j] | down)) >> shift
    return total


def _inv_lanes(b: _Lanes) -> int:
    x, xt, top, shift = b.x, b.xt, b.top, b.shift
    return sum(((xt[i] - x[j]) & top) >> shift for j in range(1, b.n) for i in range(j))


def _des_lanes(b: _Lanes) -> int:
    x, xt, top, shift = b.x, b.xt, b.top, b.shift
    return sum(((xt[p] - x[p + 1]) & top) >> shift for p in range(b.n - 1))


def _exc_lanes(b: _Lanes) -> int:
    xt, top, shift = b.xt, b.top, b.shift
    return sum(((xt[p] - b.const(p + 2)) & top) >> shift for p in range(b.n))


def _ut_lanes(b: _Lanes) -> int:
    # sigma^-1(i) < i < sigma(i)
    xt, top, shift = b.xt, b.top, b.shift
    return sum(
        (((xt[p] - b.const(p + 2)) & top) >> shift) & b.early[p] for p in range(b.n)
    )


def _lt_lanes(b: _Lanes) -> int:
    # sigma(i) < i < sigma^-1(i); when sigma(i) < i the letter i is not at i,
    # so it sits after i exactly when it does not sit before
    xt, top, shift, ones = b.xt, b.top, b.shift, b.ones
    return sum(
        ((~(xt[p] - b.const(p + 1)) & top) >> shift) & (b.early[p] ^ ones)
        for p in range(b.n)
    )


def _maxdrop_lanes(b: _Lanes) -> int:
    # max(i - sigma(i), 0) is the number of d >= 1 with some i - sigma(i) >= d:
    # the drops d of plane k are bits d-1-8k of a byte, the letter at position
    # p sets those up to its drop p+1-w_p, and the OR over the positions holds
    # as many bits as the largest drop reaches into the plane
    total = 0
    for plane in range((b.n + 6) // 8):
        reached = 0
        for p in range(8 * plane + 1, b.n):  # no drop before position p+1 reaches 8k+1
            column = b.columns[p].translate(_drop_table(p - 8 * plane))
            reached |= int.from_bytes(column, "little")
        total += b.popcount(reached)
    return total


@lru_cache(maxsize=None)
def _drop_table(reach: int) -> bytes:
    """``bytes.translate`` table: the low min(reach+1-v, 8) bits for a letter v."""
    return bytes((1 << min(max(reach + 1 - v, 0), 8)) - 1 for v in range(256))


_LANE_KERNELS: dict[str, Callable[[_Lanes], int]] = {
    "crs": _crs_lanes,
    "nes": _nes_lanes,
    "ut": _ut_lanes,
    "lt": _lt_lanes,
    "exc": _exc_lanes,
    "des": _des_lanes,
    "inv": _inv_lanes,
    "maxdrop": _maxdrop_lanes,
}


# ---------------------------------------------------------------------------
# the eight symmetries


def reverse(p) -> tuple[int, ...]:
    return tuple(reversed(as_word(p)))


def complement(p) -> tuple[int, ...]:
    w = as_word(p)
    n = len(w)
    return tuple(n + 1 - v for v in w)


_LETTERS = {"r": reverse, "c": complement, "i": invert}


def apply_symmetry(tag: str, p) -> tuple[int, ...]:
    """Apply a dihedral symmetry tag; composite tags compose right to left,
    so "rci" means reverse(complement(invert(p))).

    >>> apply_symmetry("rc", (4, 1, 3, 5, 7, 6, 2))
    (6, 2, 1, 3, 5, 7, 4)
    """
    if tag not in SYMMETRIES:
        raise ValueError(f"unknown symmetry {tag!r}; expected one of {SYMMETRIES}")
    w = as_word(p)
    if tag == "id":
        return w
    for letter in reversed(tag):
        w = _LETTERS[letter](w)
    return w


def apply_symmetry_to_patterns(tag: str, patterns) -> tuple[tuple[int, ...], ...]:
    """Image of a pattern set under a symmetry, canonically sorted."""
    return tuple(sorted(apply_symmetry(tag, pat) for pat in patterns))


# ---------------------------------------------------------------------------
# insertion


def insert(p, a: int, b: int) -> Permutation:
    """Bump every letter >= b up by one, then put b at position a.

    >>> insert((3, 1, 4, 2), 2, 3).word
    (4, 3, 1, 5, 2)
    """
    w = as_word(p)
    n = len(w)
    if not 1 <= a <= n + 1:
        raise ValueError(f"insert position {a} out of range 1..{n + 1}")
    if not 1 <= b <= n + 1:
        raise ValueError(f"insert value {b} out of range 1..{n + 1}")
    bumped = [v + 1 if v >= b else v for v in w]
    bumped.insert(a - 1, b)
    return Permutation(tuple(bumped))


def insert_of_inverse(p, a: int, b: int) -> Permutation:
    """:func:`insert` applied to the inverse word.

    >>> insert_of_inverse((3, 1, 4, 2), 2, 3).word
    (2, 3, 5, 1, 4)
    """
    return insert(invert(as_word(p)), a, b)

