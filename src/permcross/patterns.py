"""Pattern containment and lazy enumeration of restricted permutation classes.

A class is described declaratively by :class:`ClassSpec`: a size n, a set of
forbidden patterns, and at most one positional constraint.  Enumeration is
always in lexicographic order of the word, so streams are reproducible and
diffable.  A class comes in blocks of one format, ``(columns, count)``:
``count`` words as their columns of letters, one byte a letter (see
:func:`permcross.perm.stat_columns`).  There is one path per kind of class,
and each builds blocks by columns rather than word by word.  Bare S_n, and
S_n cut by ``one_at``, ``ends_with`` or ``tail``, comes from
:func:`_group_columns`: the permutations of the m free letters are m shifted
copies of S_(m-1), held by columns; so does S_n under a drop bound d >= n-1,
and so do the words ending with 1, or with 1 and v, that the crossing
profile of S_n is folded over (:func:`permcross.perm._crs_cuts`).  Every
other class grows by a generating tree, one step a size (:func:`_children`):
each member of the size below is prepended every first letter it may take,
by columns.  Forbidden patterns allow the letters found by lane comparisons
over a chunk of members at once (:func:`_allowed_letters`), and a drop
bound the letters up to a threshold t(u) (:func:`_thresholds`).  With no
pattern rule, while t and a letter fit in one byte, a first letter is one
``translate`` per column; otherwise each column is ANDed with a mask over
the members that may take the letter, then translated.  A pattern class,
with or without a drop bound, keeps its sizes in a table
(:class:`_ClassTable`), one per forbidden set and drop bound
(:func:`_class_table`), as (columns, count), the block format itself; a
positional constraint cuts the last level by one mask built from the
columns it fixes.  S_n under any other drop bound holds only the size
below while the next one streams (:func:`_drop_pieces`).  :func:`_reblocked`
cuts the pieces of a tree into blocks, and joins several classes into
blocks that mix them (:func:`_mixed_blocks`).  :func:`class_blocks` hands a
class out as blocks, :func:`class_words` as words; :func:`filtered_words`,
a plain filter over all n! words, is the oracle the other paths are tested
against.
"""

from __future__ import annotations

from functools import lru_cache, wraps
from itertools import chain, combinations, islice, permutations
from math import factorial
from threading import RLock
from typing import Iterable, Iterator, Sequence

from .perm import _BYTES, MAX_PACKED_N, Permutation, _bump_table, _columns, _Lanes, as_word
from .polynomials import _Value

CONSTRAINT_KINDS = ("one_at", "ends_with", "tail", "maxdrop_le")

#: Hard enumeration bounds: classes with at least one forbidden pattern are
#: exponentially small and are grown by the generating tree up to 12; anything
#: backed by the full symmetric group stops at 10.
FULL_GROUP_BOUND = 10
PATTERN_CLASS_BOUND = 12

#: The pattern pairs of the paper, each as the pair of forbidden patterns.
P123_132 = ((1, 2, 3), (1, 3, 2))
P123_213 = ((1, 2, 3), (2, 1, 3))
P213_312 = ((2, 1, 3), (3, 1, 2))
P132_312 = ((1, 3, 2), (3, 1, 2))
P213_231 = ((2, 1, 3), (2, 3, 1))
P132_231 = ((1, 3, 2), (2, 3, 1))
P321_231 = ((2, 3, 1), (3, 2, 1))
P321_213 = ((2, 1, 3), (3, 2, 1))


class BoundExceededError(RuntimeError):
    """Raised when an enumeration would exceed the configured size bound."""

    def __init__(self, n: int, bound: int):
        super().__init__(f"enumeration of size {n} exceeds the bound n <= {bound}")
        self.n = n
        self.bound = bound


class ClassSpec(_Value):
    """A restricted permutation set: S_n(forbidden) cut by one positional constraint.

    Constraints:
      ("one_at", k)     value 1 sits at position n+1-k
      ("ends_with", k)  the last letter is k
      ("tail", k)       the word ends with the suffix k, k-1, ..., 1
      ("maxdrop_le", d) every letter satisfies i - sigma(i) <= d
    """

    __slots__ = ("n", "forbidden", "constraint")

    def __init__(
        self, n: int, forbidden: Iterable = (), constraint: tuple[str, int] | None = None
    ):
        if n < 0:
            raise ValueError("class size must be nonnegative")
        pats = []
        for pat in forbidden:
            word = Permutation(tuple(pat)).word
            if len(word) < 1:
                raise ValueError("forbidden patterns must have size >= 1")
            pats.append(word)
        if constraint is not None:
            kind, arg = constraint
            if kind not in CONSTRAINT_KINDS:
                raise ValueError(f"unknown constraint kind {kind!r}")
            if kind == "maxdrop_le":
                if arg < 0:
                    raise ValueError("maxdrop bound must be >= 0")
            elif not 1 <= arg <= n:
                raise ValueError(f"constraint parameter {arg} out of range 1..{n}")
            constraint = (kind, int(arg))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "forbidden", tuple(sorted(set(pats))))
        object.__setattr__(self, "constraint", constraint)

    def describe(self) -> dict:
        out: dict = {"n": self.n, "avoid": ["".join(map(str, p)) for p in self.forbidden]}
        if self.constraint is None:
            out["constraint"] = None
        else:
            out["constraint"] = {"kind": self.constraint[0], "k": self.constraint[1]}
        return out


def class_spec(
    n: int, avoid: Sequence = (), one_at: int | None = None, ends_with: int | None = None,
    tail: int | None = None, maxdrop_le: int | None = None,
) -> ClassSpec:
    """Convenience constructor; at most one positional constraint may be given."""
    given = zip(CONSTRAINT_KINDS, (one_at, ends_with, tail, maxdrop_le))
    picked = [(kind, arg) for kind, arg in given if arg is not None]
    if len(picked) > 1:
        raise ValueError("at most one positional constraint is allowed")
    forbidden = tuple(as_word(p) for p in avoid)
    return ClassSpec(n, forbidden, picked[0] if picked else None)


# ---------------------------------------------------------------------------
# containment


def pattern_of(values: Sequence[int]) -> tuple[int, ...]:
    """Standardize a sequence of distinct ints to the pattern it realizes.

    >>> pattern_of((6, 2, 5))
    (3, 1, 2)
    """
    order = sorted(values)
    rank = {v: r + 1 for r, v in enumerate(order)}
    return tuple(rank[v] for v in values)


def occurrence_positions(p, pat) -> tuple[tuple[int, ...], ...]:
    """All 1-based index tuples at which ``pat`` occurs, in lexicographic order."""
    w, q = as_word(p), as_word(pat)
    m = len(q)
    if m < 1:
        raise ValueError("patterns must have size >= 1")
    hits = []
    for idxs in combinations(range(len(w)), m):
        if pattern_of([w[t] for t in idxs]) == q:
            hits.append(tuple(t + 1 for t in idxs))
    return tuple(hits)


def occurrences(p, pat) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Count occurrences and report witnesses as value subsequences.

    >>> occurrences((4, 1, 6, 2, 3, 7, 5), (3, 1, 2))[0]
    6
    """
    w = as_word(p)
    positions = occurrence_positions(w, pat)
    witnesses = tuple(tuple(w[i - 1] for i in idxs) for idxs in positions)
    return len(witnesses), witnesses


def avoids(p, pats) -> bool:
    """True iff none of the patterns occurs, in one pass over the subsequences
    of each pattern length: a subsequence realizes a pattern when its letters
    sort into the same order of positions.  The empty set is avoided trivially."""
    orders: dict[int, set] = {}
    for pat in pats:
        q = as_word(pat)
        if not q:
            raise ValueError("patterns must have size >= 1")
        shapes = orders.setdefault(len(q), set())
        if pattern_of(q) == q:  # anything else occurs nowhere
            shapes.add(tuple(sorted(range(len(q)), key=q.__getitem__)))
    w = as_word(p)
    for m, shapes in orders.items():
        for sub in combinations(w, m):
            if tuple(sorted(range(m), key=sub.__getitem__)) in shapes:
                return False
    return True


# ---------------------------------------------------------------------------
# enumeration


def default_bound(spec: ClassSpec) -> int:
    return PATTERN_CLASS_BOUND if spec.forbidden else FULL_GROUP_BOUND


def _constraint_predicate(spec: ClassSpec):
    if spec.constraint is None:
        return lambda w: True
    kind, arg = spec.constraint
    n = spec.n
    if kind == "one_at":
        return lambda w: w[n - arg] == 1
    if kind == "ends_with":
        return lambda w: w[-1] == arg
    if kind == "tail":
        return lambda w: all(w[n - i] == i for i in range(1, arg + 1))
    return lambda w: all(ii + 1 - v <= arg for ii, v in enumerate(w))


def filtered_words(spec: ClassSpec) -> Iterator[tuple[int, ...]]:
    """The oracle generator: all n! words in lex order, filtered after the fact."""
    keep = _constraint_predicate(spec)
    for w in permutations(range(1, spec.n + 1)):
        if keep(w) and avoids(w, spec.forbidden):
            yield w


def _fixed_run(spec: ClassSpec) -> tuple[int, bytes]:
    """(offset, run) of the letters a ``one_at``, ``ends_with`` or ``tail``
    constraint fixes: 1 at position n+1-k, k at the end, or the suffix
    k, k-1, ..., 1; no letter under a drop bound or none.  A word obeys the
    constraint when its letters from the 0-based offset on start with the run."""
    n = spec.n
    kind, arg = spec.constraint or (None, 0)
    if kind in (None, "maxdrop_le"):
        return 0, b""
    if kind == "one_at":
        return n - arg, bytes((1,))
    if kind == "ends_with":
        return n - 1, bytes((arg,))
    return n - arg, bytes(range(arg, 0, -1))


def _prepend_rule(pat: tuple[int, ...]):
    """How occurrences of ``q = std(pat[1:])`` forbid first letters, as
    ``(bounds, jl, ju)``.  ``bounds[j]`` indexes the earlier letters of q
    nearest to ``q[j]`` in value from below and from above (-1 if none), so
    an occurrence grows letter by letter with one comparison on each side.
    A new first letter a completes ``pat`` with an occurrence x of q exactly
    when ``x[jl] < a <= x[ju]`` in the word before the shift; ``jl``/``ju``
    index the letters of q just below and just above ``pat[0]`` (-1 if none).
    """
    r = pat[0]
    q = tuple(v - (v > r) for v in pat[1:])
    bounds = []
    for j, v in enumerate(q):
        below = [t for t in range(j) if q[t] < v]
        above = [t for t in range(j) if q[t] > v]
        bounds.append(
            (max(below, key=q.__getitem__, default=-1), min(above, key=q.__getitem__, default=-1))
        )
    jl = q.index(r - 1) if r > 1 else -1
    ju = q.index(r) if r <= len(q) else -1
    return tuple(bounds), jl, ju


def _allowed_letters(columns: list[bytes], count: int, rules) -> list[bytes]:
    """Which first letters the ``count`` size-k members u of a chunk, given
    by its columns, may take: for each letter a = 1..k+1, a 0/1 byte each.

    Each member is a lane of :class:`permcross.perm._Lanes`, wide enough to
    hold a set of letters as bits 1..k+1 below its top bit.  The occurrences
    of each rule's q grow one position at a time, compared on all lanes at
    once, and a branch ends as soon as no lane holds it.

    >>> rules = [_prepend_rule((3, 2, 1))]
    >>> [c.hex() for c in _allowed_letters([bytes((1, 2)), bytes((2, 1))], 2, rules)]
    ['0101', '0101', '0100']
    """
    k = len(columns)
    if not rules:
        return [b"\x01" * count] * (k + 1)
    lanes = _Lanes(columns, count, min_width=(k + 11) // 8)
    x, xt, top, ones, shift = lanes.x, lanes.xt, lanes.top, lanes.ones, lanes.shift
    fill = (1 << shift) - 1  # times a lane's low bit, every bit of the lane but its top
    edge = [lanes.as_bits(c) for c in lanes.columns]  # 2^(u_p+1) in each lane
    floor, ceil = ones << 1, ones << (k + 2)  # the edges of the letters 0 and k+1
    forbidden = 0
    for bounds, jl, ju in rules:
        at, m = [0] * len(bounds), len(bounds)

        def grow(j: int, start: int, held: int) -> int:
            # the letters forbidden by the occurrences of q[:j] on the lanes
            # of ``held``, grown by q[j] at positions from ``start`` on
            if j == m:  # whole occurrences x, which forbid x[jl] < a <= x[ju]
                low = edge[at[jl]] if jl >= 0 else floor
                high = edge[at[ju]] if ju >= 0 else ceil
                return (held >> shift) * fill & ((high | top) - low)
            lo, hi = bounds[j]
            out = 0
            for i in range(start, k - m + j + 1):
                ext = held & (xt[i] - x[at[lo]] if lo >= 0 else top)
                ext &= (xt[at[hi]] - x[i] if hi >= 0 else top) & top
                if ext:
                    at[j] = i
                    out |= grow(j + 1, i + 1, ext)
            return out

        forbidden |= grow(0, 0, top)
        del grow  # it calls itself: a cycle that would hold the lanes until collected
    step = lanes.width
    return [
        (((forbidden >> a) & ones) ^ ones).to_bytes(step * count, "little")[::step]
        for a in range(1, k + 2)
    ]


def _children(
    level: tuple[list[bytes], int], k: int, rules, drop_bound: int | None
) -> Iterator[tuple[list[bytes], int]]:
    """The growth step of every generating tree: the size-k members of a
    class closed under deleting the first letter, in lex order, as
    (columns, count) pieces grown from ``level``, its size-(k-1) members.

    Level k-1 is cut into chunks of ``BLOCK_WORDS`` members.  The children
    of a first letter a in a chunk are its members that may take a, their
    letters >= a raised by one, behind a constant column of a; looping over
    a outside and the chunks inside gives level k in lex order.  A drop
    bound lets a member u take a only when a <= t(u) (:func:`_thresholds`).
    With no pattern rule and k <= 15, t and a letter share one byte: a
    chunk is held by columns of bytes ``t << 4 | letter``, and the children
    of a are one ``translate`` of each that deletes the members with t < a.
    Otherwise a chunk is held as its columns, the same columns as integers
    and, for each a, 0xFF over the members that may take it: the letters the
    rules allow (:func:`_allowed_letters`) up to t.  Its children of a are
    each column integer ANDed with that mask and translated, the zero bytes
    deleted; a chunk whose members all take a is only translated.  A caller
    that keeps no other reference to the level holds only its chunks.
    """
    columns, count = level
    one_byte = not rules and k <= 15
    chunks = []
    for first in range(0, count, BLOCK_WORDS):
        size = min(BLOCK_WORDS, count - first)
        part = [c[first : first + size] for c in columns]
        if one_byte:
            tag = int.from_bytes(_thresholds(part, size, drop_bound), "little") << 4
            tagged = [(tag | int.from_bytes(c, "little")).to_bytes(size, "little") for c in part]
            chunks.append((tagged, None, None, size))
            continue
        masks = [int.from_bytes(g, "little") * 0xFF for g in _allowed_letters(part, size, rules)]
        if drop_bound is not None:
            t = _thresholds(part, size, drop_bound)
            at_least = (bytes(a) + b"\xff" * (256 - a) for a in range(1, k + 1))
            masks = [m & int.from_bytes(t.translate(g), "little") for m, g in zip(masks, at_least)]
        chunks.append((part, [int.from_bytes(c, "little") for c in part], masks, size))
    del level, columns  # the chunks hold what the children are cut from
    for a in range(1, k + 1):
        table = _bump_table(a)
        low, gone = table[:16] * 16, _BYTES[: a << 4]
        for part, ints, masks, size in chunks:
            if masks is None:  # t << 4 | letter to the letter raised, deleted if t < a
                kept = [c.translate(low, gone) for c in part]
                taken = len(kept[0])
            else:
                taken = masks[a - 1].bit_count() >> 3
                if taken == size:
                    kept = [c.translate(table) for c in part]
                elif taken:
                    kept = ((c & masks[a - 1]).to_bytes(size, "little") for c in ints)
                    kept = [c.translate(table, b"\0") for c in kept]
            if taken:
                yield [bytes((a,)) * taken, *kept], taken


def _thresholds(columns: list[bytes], count: int, d: int) -> bytes:
    """The threshold t(u) of each of the ``count`` members u of size k-1,
    given by their columns, one byte each: the least of k and of the letters
    v at drop d, u_(v+d) = v.  Prepending a first letter a and raising the
    letters >= a adds one to the drop of each letter below a, so the child
    keeps every drop <= d exactly when a <= t(u): below, 123, 132 and 213
    under d = 1.

    >>> _thresholds([bytes((1, 1, 2)), bytes((2, 3, 1)), bytes((3, 2, 3))], 3, 1).hex()
    '040201'
    """
    k = len(columns) + 1
    ones = int.from_bytes(b"\x01" * count, "little")
    t = ones * k
    for v in range(k - 1 - d, 0, -1):  # where the letter at v+d is v, t is the least such v
        hit = _where(columns[v + d - 1], v)
        t = t & ~hit | hit & ones * v
    return t.to_bytes(count, "little")


class _ClassTable:
    """The generating tree of one pattern class, grown on demand and kept.

    A classical class, and its intersection with a drop bound, is closed
    under deleting the first letter, so each size grows from the one below
    by :func:`_children`.  ``levels[k]`` holds the size-k members as
    (columns, count), the block format of the kernels.  A lock keeps
    threads that share a table from growing one level twice.
    """

    def __init__(self, forbidden: tuple, drop_bound: int | None):
        self.rules = [_prepend_rule(p) for p in forbidden]
        self.drop_bound = drop_bound
        self.levels: list[tuple[list[bytes], int]] = [([], 1)]
        self.lock = RLock()

    def level(self, n: int) -> tuple[list[bytes], int]:
        """(columns, count) of the size-n members, grown from the largest level so far."""
        with self.lock:
            for k in range(len(self.levels), n + 1):
                pieces = _children(self.levels[k - 1], k, self.rules, self.drop_bound)
                self.levels.append(_joined(pieces, k))
            return self.levels[n]


@lru_cache(maxsize=None)
def _class_table(forbidden: tuple, drop_bound: int | None) -> _ClassTable:
    """The one table of the pattern class of ``forbidden`` under a drop bound
    (None for none), shared by every size, constraint and bound."""
    return _ClassTable(forbidden, drop_bound)


def _joined(pieces: Iterable[tuple[list[bytes], int]], n: int) -> tuple[list[bytes], int]:
    """(columns, count) pieces of size-n words joined into one."""
    pieces = list(pieces)
    return [b"".join(cols[p] for cols, _ in pieces) for p in range(n)], sum(c for _, c in pieces)


def _reblocked(
    pieces: Iterable[tuple[list[bytes], int]], n: int
) -> Iterator[tuple[list[bytes], int]]:
    """(columns, count) pieces of size-n words as blocks of ``BLOCK_WORDS``
    words, the last one fewer, each as its n columns.  The words a block
    leaves are sliced off their piece, so each piece is let go before the
    next one is built.

    >>> one, two = bytes((1,)), bytes((2,))
    >>> pieces = [([one * 8000, two * 8000], 8000), ([two * 500, one * 500], 500)]
    >>> [(k, [c.count(1) for c in cols]) for cols, k in _reblocked(pieces, 2)]
    [(8192, [8000, 192]), (308, [0, 308])]
    """
    held, count = [], 0  # the columns of the words not yet handed out, piece by piece
    for columns, size in pieces:
        start = 0
        while count + size - start >= BLOCK_WORDS:
            stop = start + BLOCK_WORDS - count
            held.append([c[start:stop] for c in columns])
            yield [b"".join(cols[p] for cols in held) for p in range(n)], BLOCK_WORDS
            held, count, start = [], 0, stop
        if start < size:
            held.append([c[start:] for c in columns])
            count += size - start
        del columns  # so that the next piece is not built while this one is held
    if count:
        yield [b"".join(cols[p] for cols in held) for p in range(n)], count


#: Words per block, and members per chunk of :func:`_children`.
#: Larger blocks make fewer, longer lane operations but hold more memory:
#: at n = 10 a block's columns take 80 KB at 8,192 words, and the crs
#: kernel's lanes as much again.  At 8,192 the ten group-stats folds of S_9
#: run about a quarter faster than at 2,048, and 16,384 is no faster.  The
#: chunks of a level are held at once but their lanes go chunk by chunk, so
#: the traced peak of a ``crs`` fold is the pieces and the joined columns of
#: the last level: 0.47 MB for 321@10 (0.41 MB with chunks of 2,048) and
#: 5.9 MB for 321@12, as with 2,048.
BLOCK_WORDS = 8192


def packed_blocks(words: Iterable[Sequence[int]], n: int) -> Iterator[tuple[list[bytes], int]]:
    """(columns, count) for the size-n ``words`` in blocks of up to
    ``BLOCK_WORDS`` (see :func:`permcross.perm.stat_columns`), packed one
    letter per byte as they stream; the words are never held as tuples.

    >>> list(packed_blocks([(2, 1), (1, 2)], 2))
    [([b'\\x02\\x01', b'\\x01\\x02'], 2)]
    """
    if n > MAX_PACKED_N:
        raise ValueError(f"words are packed one letter per byte; n={n} exceeds {MAX_PACKED_N}")
    if n == 0:  # empty words have no columns, so count them instead
        size = sum(1 for _ in words)
        if size:
            yield [], size
        return
    words = map(bytes, words)
    while rows := b"".join(islice(words, BLOCK_WORDS)):
        yield _columns(rows, n), len(rows) // n


def _group_columns(n: int, at: int = 0, run: bytes = b"") -> Iterator[tuple[list[bytes], int]]:
    """S_n in lex order, or its words whose letters from the 0-based offset
    ``at`` on start with ``run``, as (columns, count): blocks of
    ``BLOCK_WORDS`` words, the last one fewer, each as its n columns.

    The permutations of the m free letters are m copies of S_(m-1), copy a
    behind a constant column a and shifted by ``_bump_table(a)`` composed
    with the map of the ranks 1..m to the free letters, so each column of a
    piece of a copy is one ``translate`` of a slice of a column of S_(m-1).
    S_(m-1) is held by columns, (m-1)! (m-1) bytes, while the stream runs.

    >>> [([c.hex() for c in cols], k) for cols, k in _group_columns(3)]
    [(['010102020303', '020301030102', '030203010201'], 6)]
    >>> [([c.hex() for c in cols], k) for cols, k in _group_columns(4, 2, bytes((2, 1)))]
    [(['0304', '0403', '0202', '0101'], 2)]
    """
    free = bytes(v for v in range(1, n + 1) if v not in run)
    m = len(free)
    if m == 0:  # the empty word, or one word that is all fixed run
        yield [bytes((v,)) for v in run], 1
        return
    count = factorial(m - 1)
    rest, done = [bytearray(count) for _ in range(m - 1)], 0
    for columns, size in _group_columns(m - 1):  # joined in place as its blocks stream
        for held, column in zip(rest, columns):
            held[done : done + size] = column
        done += size
        del columns  # so that the next block is not made while this one is held
    letters = bytes(1) + free + bytes(255 - m)
    tables = [_bump_table(a).translate(letters) for a in range(1, m + 1)]
    for first in range(0, m * count, BLOCK_WORDS):
        size = min(BLOCK_WORDS, m * count - first)
        pieces, done = [], 0  # (a, start, stop): rows start..stop of copy a
        while done < size:
            a, start = divmod(first + done, count)
            part = min(size - done, count - start)
            pieces.append((a, start, start + part))
            done += part
        columns = [b"".join(free[a : a + 1] * (stop - start) for a, start, stop in pieces)]
        for column in rest:
            columns.append(b"".join(column[i:j].translate(tables[a]) for a, i, j in pieces))
        columns[at:at] = [bytes((v,)) * size for v in run]
        yield columns, size


def _drop_pieces(n: int, d: int) -> Iterator[tuple[list[bytes], int]]:
    """S_n, n >= 2, under the drop bound d in lex order, as the pieces of its
    last level: each size grows from the one below alone (:func:`_children`)."""
    pieces = [([b"\x01"], 1)]
    for k in range(2, n + 1):
        pieces = _children(_joined(pieces, k - 1), k, (), d)
    yield from pieces


def _drop_bound(spec: ClassSpec) -> int | None:
    kind, arg = spec.constraint or (None, None)
    return arg if kind == "maxdrop_le" else None


def _where(column: bytes, v: int) -> int:
    """0xFF in each byte where ``column`` holds the letter v, else 0, as one integer."""
    return int.from_bytes(column.translate(bytes(v) + b"\xff" + bytes(255 - v)), "little")


def _table_level(spec: ClassSpec) -> tuple[list[bytes], int]:
    """A pattern class as (columns, count): its table's level n, of which a
    ``one_at``, ``ends_with`` or ``tail`` constraint keeps the members whose
    fixed run (:func:`_fixed_run`) is in place.  The run's columns make one
    mask, 0xFF over the members kept; every other column is ANDed with it
    as one integer and one ``translate`` deletes the zero bytes, and the
    run goes back in as constant columns."""
    columns, count = _class_table(spec.forbidden, _drop_bound(spec)).level(spec.n)
    at, run = _fixed_run(spec)
    if not run:
        return columns, count
    mask = -1
    for p, v in enumerate(run, at):
        mask &= _where(columns[p], v)
    size = mask.bit_count() // 8
    kept = [
        (int.from_bytes(c, "little") & mask).to_bytes(count, "little").translate(None, b"\0")
        for c in columns[:at] + columns[at + len(run) :]
    ]
    kept[at:at] = [bytes((v,)) * size for v in run]
    return kept, size


def _check_packable(spec: ClassSpec, bound: int | None) -> None:
    limit = default_bound(spec) if bound is None else bound
    if spec.n > limit:
        raise BoundExceededError(spec.n, limit)
    if spec.n > MAX_PACKED_N:
        raise ValueError(
            f"classes are packed one letter per byte; n={spec.n} exceeds {MAX_PACKED_N}"
        )


def class_blocks(spec: ClassSpec, bound: int | None = None) -> Iterator[tuple[list[bytes], int]]:
    """The class in lex order as (columns, count): blocks of up to
    ``BLOCK_WORDS`` words as their columns of letters, one byte a letter, the
    format of the column kernels of :mod:`permcross.perm`.  Bare and
    fixed-letter S_n are built as columns (:func:`_group_columns`), as is S_n
    under a drop bound d >= n-1, which is all of S_n; a pattern class is
    sliced from the columns of its table, and S_n under any other drop bound
    streams from the tree's step (:func:`_drop_pieces`), its pieces joined
    into blocks.  Refused before any enumeration past the bound or past
    ``MAX_PACKED_N``.
    """
    _check_packable(spec, bound)
    n, drop_bound = spec.n, _drop_bound(spec)
    if spec.forbidden:
        return _reblocked((_table_level(spec),), n)
    if drop_bound is None or drop_bound >= n - 1:  # no drop exceeds n-1: all of S_n
        return _group_columns(n, *_fixed_run(spec))
    return _reblocked(_drop_pieces(n, drop_bound), n)


def _mixed_blocks(
    n: int, sets: Sequence[tuple], bound: int | None = None
) -> Iterator[tuple[list[bytes], int]]:
    """The classes S_n(T) of up to 256 ``sets`` one after another, as
    blocks of ``BLOCK_WORDS`` words that may mix classes: n columns of
    letters and a last column of each word's class, its index in ``sets``.
    Each class streams into :func:`_reblocked` as it is built: a pattern
    class as its table's level, in one piece, and S_n as its blocks.

    >>> [(c[-1].hex(), k) for c, k in _mixed_blocks(3, [((1, 2, 3), (2, 1, 3)), ((3, 2, 1),)])]
    [('000000000101010101', 9)]
    """
    def pieces() -> Iterator[tuple[list[bytes], int]]:
        for j, forbidden in enumerate(sets):
            spec = ClassSpec(n, forbidden)
            _check_packable(spec, bound)
            for columns, count in (_table_level(spec),) if forbidden else class_blocks(spec, bound):
                yield [*columns, bytes((j,)) * count], count

    return _reblocked(pieces(), n + 1)


def class_words(spec: ClassSpec, bound: int | None = None) -> Iterator[tuple[int, ...]]:
    """Lex-ordered stream of raw words in the class, bound-checked, unpacked
    from :func:`class_blocks`."""
    blocks = class_blocks(spec, bound)  # refused here, not at the first word
    return chain.from_iterable(zip(*c) if c else [()] * count for c, count in blocks)


_MISSING = object()  # the default of a parameter that has none


def _memo(fn):
    """``lru_cache`` keyed on every parameter with its default filled in, so
    ``f(spec)``, ``f(spec, None)`` and ``f(spec, bound=None)`` are one entry;
    it memoizes :func:`class_size` and the folds of
    :mod:`permcross.distributions`.  The names and defaults are read from the
    function's code and ``__defaults__`` once; a call that misses an
    argument or passes an unknown or repeated one goes to ``fn`` itself,
    uncached, which raises its ``TypeError``.  The result carries the
    cache's ``cache_info`` and ``cache_clear``."""
    code = fn.__code__
    names = code.co_varnames[: code.co_argcount]
    defaults = (_MISSING,) * (len(names) - len(fn.__defaults__ or ())) + (fn.__defaults__ or ())
    cached = lru_cache(maxsize=None)(fn)

    @wraps(fn)
    def call(*args, **kwargs):
        given = len(args)
        key = args + tuple(map(kwargs.get, names[given:], defaults[given:]))
        if given > len(names) or _MISSING in key or kwargs.keys() - names[given:]:
            return fn(*args, **kwargs)
        return cached(*key)

    call.cache_info = cached.cache_info
    call.cache_clear = cached.cache_clear
    return call


@_memo
def class_size(spec: ClassSpec, bound: int | None = None) -> int:
    """The number of words of the class.  A pattern class is counted from
    its table's level, or the members a fixed-letter constraint keeps of it;
    S_n is counted from its blocks."""
    _check_packable(spec, bound)
    if spec.forbidden:
        return _table_level(spec)[1]
    return sum(count for _, count in class_blocks(spec, bound))
