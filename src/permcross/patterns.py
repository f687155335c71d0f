"""Pattern containment and lazy enumeration of restricted permutation classes.

A class is described declaratively by :class:`ClassSpec`: a size n, a set of
forbidden patterns, and at most one positional constraint.  Enumeration is
always in lexicographic order of the word, so streams are reproducible and
diffable.  There is one path per kind of class.  Bare S_n, and S_n cut by
``one_at``, ``ends_with`` or ``tail``, is built in packed blocks by columns
(:func:`_group_blocks`): the permutations of the m free letters are m shifted
copies of packed S_(m-1), and the fixed letters go in as constant columns.
Every class closed under deleting the first letter -- a pattern class, S_n
under a maxdrop bound, or both -- comes from a generating tree that grows
each size from the one below by prepending a first letter.  A pattern class
keeps its tree: one packed table per forbidden set and drop bound
(:func:`_class_table`) grows to the largest size asked for, and a
positional constraint filters its last level.  S_n under a maxdrop bound
streams its last level and stores none.  :func:`class_blocks` hands a class
out as packed blocks, :func:`class_words` as words (bare S_n as
``itertools.permutations``, the rest unpacked from the blocks);
:func:`filtered_words`, a plain filter over all n! words, is the oracle the
other paths are tested against.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice, permutations
from math import factorial
from threading import RLock
from typing import Iterable, Iterator, Sequence

from .perm import MAX_PACKED_N, Permutation, as_word

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


@dataclass(frozen=True)
class ClassSpec:
    """A restricted permutation set: S_n(forbidden) cut by one positional constraint.

    Constraints:
      ("one_at", k)     value 1 sits at position n+1-k
      ("ends_with", k)  the last letter is k
      ("tail", k)       the word ends with the suffix k, k-1, ..., 1
      ("maxdrop_le", d) every letter satisfies i - sigma(i) <= d
    """

    n: int
    forbidden: tuple[tuple[int, ...], ...] = ()
    constraint: tuple[str, int] | None = None

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("class size must be nonnegative")
        pats = []
        for pat in self.forbidden:
            word = Permutation(tuple(pat)).word
            if len(word) < 1:
                raise ValueError("forbidden patterns must have size >= 1")
            pats.append(word)
        object.__setattr__(self, "forbidden", tuple(sorted(set(pats))))
        if self.constraint is not None:
            kind, arg = self.constraint
            if kind not in CONSTRAINT_KINDS:
                raise ValueError(f"unknown constraint kind {kind!r}")
            if kind == "maxdrop_le":
                if arg < 0:
                    raise ValueError("maxdrop bound must be >= 0")
            elif not 1 <= arg <= self.n:
                raise ValueError(f"constraint parameter {arg} out of range 1..{self.n}")
            object.__setattr__(self, "constraint", (kind, int(arg)))

    def describe(self) -> dict:
        out: dict = {"n": self.n, "avoid": ["".join(map(str, p)) for p in self.forbidden]}
        if self.constraint is None:
            out["constraint"] = None
        else:
            out["constraint"] = {"kind": self.constraint[0], "k": self.constraint[1]}
        return out


def class_spec(
    n: int,
    avoid: Sequence = (),
    one_at: int | None = None,
    ends_with: int | None = None,
    tail: int | None = None,
    maxdrop_le: int | None = None,
) -> ClassSpec:
    """Convenience constructor; at most one positional constraint may be given."""
    given = [
        ("one_at", one_at),
        ("ends_with", ends_with),
        ("tail", tail),
        ("maxdrop_le", maxdrop_le),
    ]
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
    """True iff none of the patterns occurs; the empty set is avoided trivially."""
    w = as_word(p)
    for pat in pats:
        q = as_word(pat)
        m = len(q)
        if m < 1:
            raise ValueError("patterns must have size >= 1")
        for idxs in combinations(range(len(w)), m):
            if pattern_of([w[t] for t in idxs]) == q:
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
    k, k-1, ..., 1.  A word obeys the constraint when its letters from the
    0-based offset on start with the run."""
    n = spec.n
    kind, arg = spec.constraint
    if kind == "one_at":
        return n - arg, bytes((1,))
    if kind == "ends_with":
        return n - 1, bytes((arg,))
    return n - arg, bytes(range(arg, 0, -1))


def _prepend_rule(pat: tuple[int, ...]):
    """How occurrences of ``std(pat[1:])`` forbid first letters.

    Returns ``(bounds, jl, ju)``.  ``bounds[j]`` holds the indices of the
    earlier letters of ``q = std(pat[1:])`` nearest to ``q[j]`` in value from
    below and from above (-1 if none), so an occurrence is grown letter by
    letter with one comparison on each side.  ``jl``/``ju`` index the letters
    of q just below and just above ``pat[0]`` (-1 if none): a new first letter
    ``a`` completes ``pat`` with an occurrence ``x`` exactly when
    ``x[jl] < a <= x[ju]`` in the word before the shift.
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


def _first_letters(u: bytes, rules, drop_bound: int | None) -> int:
    """Bitmask (bit a-1) of the letters a that may be prepended to the member u."""
    k = len(u)
    allowed = (1 << (k + 1)) - 1
    for bounds, jl, ju in rules:
        last = len(bounds) - 1
        if last < 0:
            return 0  # a pattern of length 1 is completed by any first letter
        x = [0] * (last + 1)

        def place(j: int, start: int) -> None:
            # extend an occurrence of q in u by its letter j, at position >= start
            nonlocal allowed
            below, above = bounds[j]
            floor = x[below] if below >= 0 else 0
            ceil = x[above] if above >= 0 else k + 1
            if j < last:
                for i in range(start, k - last + j):
                    v = u[i]
                    if floor < v < ceil:
                        x[j] = v
                        place(j + 1, i + 1)
                return
            for v in u[start:]:
                if floor < v < ceil:
                    x[j] = v
                    lo = x[jl] if jl >= 0 else 0
                    hi = x[ju] if ju >= 0 else k + 1
                    allowed &= ~((1 << hi) - (1 << lo))

        place(0, 0)
        if not allowed:
            return 0
    if drop_bound is not None:
        # prepending a adds one to the drop of every letter below a, so a may
        # not exceed the smallest letter whose drop is already at the bound
        for i, v in enumerate(u, 1):
            if i - v >= drop_bound:
                allowed &= (1 << v) - 1
    return allowed


class _ClassTable:
    """The generating tree of one class closed under deleting the first
    letter, grown on demand and kept.

    A classical class, and its intersection with a maxdrop bound, is closed
    under deleting the first letter.  So size k is grown from the sorted
    members u of size k-1 by prepending each allowed first letter a and
    shifting the letters >= a up by one.  Looping over a outside and u inside
    yields size k in lex order without a sort.  ``levels[k]`` holds the
    size-k members packed one letter per byte in one ``bytes`` object, shifted
    for all members at once with ``bytes.translate``.  The masks of allowed
    first letters of a level are computed when the level above is first
    grown, so the largest level grown has none.  A lock keeps threads that
    share a table from growing one level twice.
    """

    def __init__(self, forbidden: tuple, drop_bound: int | None):
        self.rules = [_prepend_rule(p) for p in forbidden]
        self.drop_bound = drop_bound
        self.levels = [b""]
        self.counts = [1]
        self.masks: list = []
        self.lock = RLock()

    def level(self, n: int) -> tuple[bytes, int]:
        """(packed members, count) of size n, grown from the largest level so far."""
        with self.lock:
            for k in range(len(self.levels), n + 1):
                grown = bytearray()
                for u in _children(self.levels[k - 1], self.first_letter_masks(k - 1), k):
                    grown += u
                self.levels.append(bytes(grown))
                self.counts.append(len(grown) // k)
            return self.levels[n], self.counts[n]

    def first_letter_masks(self, k: int) -> Sequence[int]:
        """The masks of allowed first letters of the members of level k."""
        with self.lock:
            for j in range(len(self.masks), k + 1):
                words = self.levels[j]
                masks = array("Q") if j < 64 else []  # a mask has j+1 bits
                for i in range(self.counts[j]):
                    u = words[i * j : i * j + j]
                    masks.append(_first_letters(u, self.rules, self.drop_bound))
                self.masks.append(masks)
            return self.masks[k]


@lru_cache(maxsize=None)
def _class_table(forbidden: tuple, drop_bound: int | None) -> _ClassTable:
    """The one table of the pattern class of ``forbidden`` under a drop bound
    (None for none), shared by every size, constraint and bound."""
    return _ClassTable(forbidden, drop_bound)


def _tree_words(drop_bound: int, n: int) -> Iterator[bytes]:
    """S_n under a maxdrop bound in lex order, as packed words: the tree
    with no pattern rules, grown to size n-1 in a table of its own that is
    dropped afterwards, and size n streamed from it, never stored."""
    if n == 0:
        yield b""
        return
    table = _ClassTable((), drop_bound)
    words, _ = table.level(n - 1)
    yield from _children(words, table.first_letter_masks(n - 1), n)


def _children(words: bytes, masks, k: int) -> Iterator[bytes]:
    """The size-k words grown from a packed level of size k-1, in lex order."""
    width = k - 1
    for a in range(1, k + 1):
        shifted = words.translate(_shift_table(a))
        head = bytes((a,))
        bit = 1 << (a - 1)
        for i, mask in enumerate(masks):
            if mask & bit:
                yield head + shifted[i * width : i * width + width]


def _shift_table(a: int) -> bytes:
    """``bytes.translate`` table raising every letter >= a by one."""
    return bytes(range(a)) + bytes(range(a + 1, 256)) + b"\xff"


#: Words per packed block.  Larger blocks make fewer, longer lane operations
#: but hold more memory: at 2048 the benchmark workloads peak within 0.1 MB
#: of a per-word fold, at 4096 class-sweep peaks 0.4 MB higher.
BLOCK_WORDS = 2048


def packed_blocks(words: Iterable[Sequence[int]], n: int) -> Iterator[tuple[bytes, int]]:
    """(block, count) for the size-n ``words`` in blocks of up to
    ``BLOCK_WORDS``, packed one letter per byte as they stream (see
    :func:`permcross.perm.stat_column`); the words are never held as tuples.

    >>> list(packed_blocks([(2, 1), (1, 2)], 2))
    [(b'\\x02\\x01\\x01\\x02', 2)]
    """
    if n > MAX_PACKED_N:
        raise ValueError(f"words are packed one letter per byte; n={n} exceeds {MAX_PACKED_N}")
    words = iter(words)
    if n == 0:  # empty words pack to nothing, so count them instead
        size = sum(1 for _ in words)
        if size:
            yield b"", size
        return
    while block := b"".join(map(bytes, islice(words, BLOCK_WORDS))):
        yield block, len(block) // n


def _group_blocks(n: int, at: int = 0, run: bytes = b"") -> Iterator[tuple[bytes, int]]:
    """S_n in lex order as (block, count), or those of its words whose
    letters from the 0-based offset ``at`` on start with ``run``, built by
    columns rather than one word at a time.

    In lex order the permutations of the m free letters are m copies of
    packed S_(m-1): copy a is shifted by ``_shift_table(a)``, the step of
    :func:`_children`, behind a constant first column a.  One ``translate``
    does the shift and maps the ranks 1..m to the free letters.  A block
    starts as copies of one frame word that holds the fixed run; the first
    column and each other column of a piece of a copy are then filled by
    one strided slice assignment each.  S_(m-1) is built the same way, level
    by level; its (m-1)! (m-1) bytes are held only while the stream runs.
    Blocks hold ``BLOCK_WORDS`` words, the last one fewer.

    >>> [(block.hex(" ", -3), count) for block, count in _group_blocks(3)]
    [('010203 010302 020103 020301 030102 030201', 6)]
    >>> [(block.hex(" ", -4), count) for block, count in _group_blocks(4, 2, bytes((2, 1)))]
    [('03040201 04030201', 2)]
    """
    free = bytes(v for v in range(1, n + 1) if v not in run)
    m = len(free)
    if m == 0:  # the empty word, or one word that is all fixed run
        yield run, 1
        return
    rest = b"".join(block for block, _ in _group_blocks(m - 1))
    width, count = m - 1, factorial(m - 1)
    letters = bytes(1) + free + bytes(255 - m)
    tables = [_shift_table(a).translate(letters) for a in range(1, m + 1)]
    slots = [i if i < at else i + len(run) for i in range(m)]  # where free column i goes
    frame = bytearray(n)
    frame[at : at + len(run)] = run
    for first in range(0, m * count, BLOCK_WORDS):
        size = min(BLOCK_WORDS, m * count - first)
        block = frame * size
        done = 0
        while done < size:  # one piece of a copy at a time
            a, start = divmod(first + done, count)
            part = min(size - done, count - start)
            copy = rest[start * width : (start + part) * width].translate(tables[a])
            lo, hi = done * n, (done + part) * n
            block[lo + slots[0] : hi : n] = free[a : a + 1] * part
            for c in range(width):
                block[lo + slots[c + 1] : hi : n] = copy[c::width]
            done += part
        yield bytes(block), size


def _drop_bound(spec: ClassSpec) -> int | None:
    kind, arg = spec.constraint or (None, None)
    return arg if kind == "maxdrop_le" else None


def _table_blocks(spec: ClassSpec) -> Iterator[tuple[bytes, int]]:
    """The blocks of a pattern class, sliced from its table's level n; a
    ``one_at``, ``ends_with`` or ``tail`` constraint keeps the members whose
    fixed run (:func:`_fixed_run`) is in place."""
    n = spec.n
    level, count = _class_table(spec.forbidden, _drop_bound(spec)).level(n)
    if n == 0:
        yield b"", count  # the empty word, which every class holds
        return
    if spec.constraint is None or spec.constraint[0] == "maxdrop_le":
        step = BLOCK_WORDS * n
        for start in range(0, len(level), step):
            block = level[start : start + step]
            yield block, len(block) // n
        return
    at, run = _fixed_run(spec)
    column = level[at::n]
    kept = bytearray()
    i = column.find(run[0])
    while i >= 0:
        start = i * n
        if level[start + at : start + at + len(run)] == run:
            kept += level[start : start + n]
            if len(kept) == BLOCK_WORDS * n:
                yield bytes(kept), BLOCK_WORDS
                kept = bytearray()
        i = column.find(run[0], i + 1)
    if kept:
        yield bytes(kept), len(kept) // n


def _check_bound(spec: ClassSpec, bound: int | None) -> None:
    limit = default_bound(spec) if bound is None else bound
    if spec.n > limit:
        raise BoundExceededError(spec.n, limit)


def class_blocks(spec: ClassSpec, bound: int | None = None) -> Iterator[tuple[bytes, int]]:
    """The class in lex order as (block, count): up to ``BLOCK_WORDS`` words
    packed one letter per byte, the format of the column kernels of
    :mod:`permcross.perm`.  A pattern class is sliced from its table, bare
    and fixed-letter S_n are built by columns (:func:`_group_blocks`), and
    S_n under a maxdrop bound is packed as it streams from the tree.  Refused
    before any enumeration past the bound or past ``MAX_PACKED_N``.
    """
    _check_bound(spec, bound)
    if spec.n > MAX_PACKED_N:
        raise ValueError(
            f"classes are packed one letter per byte; n={spec.n} exceeds {MAX_PACKED_N}"
        )
    if spec.forbidden:
        return _table_blocks(spec)
    drop_bound = _drop_bound(spec)
    if drop_bound is not None:
        return packed_blocks(_tree_words(drop_bound, spec.n), spec.n)
    if spec.constraint is None:
        return _group_blocks(spec.n)
    return _group_blocks(spec.n, *_fixed_run(spec))


def class_words(spec: ClassSpec, bound: int | None = None) -> Iterator[tuple[int, ...]]:
    """Lex-ordered stream of raw words in the class, bound-checked: bare S_n
    from ``itertools.permutations``, every other class unpacked from
    :func:`class_blocks`."""
    if spec.forbidden or spec.constraint is not None:
        return _unpacked(class_blocks(spec, bound), spec.n)
    _check_bound(spec, bound)
    return permutations(range(1, spec.n + 1))


def _unpacked(blocks: Iterable[tuple[bytes, int]], n: int) -> Iterator[tuple[int, ...]]:
    for block, count in blocks:
        for i in range(count):
            yield tuple(block[i * n : i * n + n])


def enumerate_class(spec: ClassSpec, bound: int | None = None) -> Iterator[Permutation]:
    """Lex-ordered stream of the class members as validated Permutations."""
    for w in class_words(spec, bound):
        yield Permutation(w)


@lru_cache(maxsize=None)
def class_size(spec: ClassSpec, bound: int | None = None) -> int:
    return sum(count for _, count in class_blocks(spec, bound))
