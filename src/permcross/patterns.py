"""Pattern containment and lazy enumeration of restricted permutation classes.

A class is described declaratively by :class:`ClassSpec`: a size n, a set of
forbidden patterns, and at most one positional constraint.  Enumeration is
always in lexicographic order of the word, so streams are reproducible and
diffable.  :func:`class_words` has one path per kind of class: bare S_n comes
from ``itertools.permutations``; S_n cut by ``one_at``, ``ends_with`` or
``tail`` from the permutations of the free letters with the fixed ones
inserted; S_n under a maxdrop bound from a backtracking generator
(:func:`pruned_words`); and a pattern class from a generating tree that
grows each size from the one below by prepending a first letter.
:func:`filtered_words`, a plain filter over all n! words, is the oracle the
other paths are tested against.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterator, Sequence

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


def pruned_words(spec: ClassSpec) -> Iterator[tuple[int, ...]]:
    """Backtracking generator in lex order for S_n under a maxdrop bound.

    The bound prunes every prefix that leaves the smallest unused letter no
    position it may still take.  Pattern classes go through the generating
    tree of :func:`class_words`, and the fixed-letter constraints through
    :func:`_fixed_letter_words`.
    """
    if spec.forbidden or (spec.constraint is not None and spec.constraint[0] != "maxdrop_le"):
        raise ValueError("pruned_words enumerates pattern-free classes under a maxdrop bound only")
    n = spec.n
    drop_bound = None if spec.constraint is None else spec.constraint[1]
    word: list[int] = []
    used = [False] * (n + 1)

    def rec(pos: int, min_unused: int) -> Iterator[tuple[int, ...]]:
        if pos > n:
            yield tuple(word)
            return
        for v in range(1, n + 1):
            if used[v]:
                continue
            if drop_bound is not None and pos - v > drop_bound:
                continue
            used[v] = True
            word.append(v)
            nxt = min_unused
            while nxt <= n and used[nxt]:
                nxt += 1
            # the smallest unused value must still fit some later position
            if drop_bound is None or nxt > n or pos + 1 - nxt <= drop_bound:
                yield from rec(pos + 1, nxt)
            word.pop()
            used[v] = False

    yield from rec(1, 1)


def _fixed_letter_words(spec: ClassSpec) -> Iterator[tuple[int, ...]]:
    """S_n cut by ``one_at``, ``ends_with`` or ``tail``, in lex order.

    Each of these fixes a run of letters at fixed positions: 1 at position
    n+1-k, k at the end, or the suffix k, k-1, ..., 1.  The words are the
    permutations of the free letters with that run inserted; all words share
    it, so the free letters' lex order is the words' lex order.
    """
    n = spec.n
    kind, arg = spec.constraint
    if kind == "one_at":
        at, run = n - arg, (1,)
    elif kind == "ends_with":
        at, run = n - 1, (arg,)
    else:
        at, run = n - arg, tuple(range(arg, 0, -1))
    free = [v for v in range(1, n + 1) if v not in run]
    for rest in permutations(free):
        yield rest[:at] + run + rest[at:]


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


def _tree_words(spec: ClassSpec) -> Iterator[tuple[int, ...]]:
    """Generating-tree enumeration of a pattern class, in lex order.

    A classical class, and its intersection with a maxdrop bound, is closed
    under deleting the first letter.  So size k is grown from the sorted
    members u of size k-1 by prepending each allowed first letter a and
    shifting the letters >= a up by one.  Looping over a outside and u inside
    yields size k in lex order without a sort.  Each level is packed: the
    words one letter per byte in one ``bytes`` object, shifted for all
    members at once with ``bytes.translate``, and the masks of allowed first
    letters in an array.  The last level is streamed and never stored;
    ``one_at``, ``ends_with`` and ``tail`` filter it.
    """
    n = spec.n
    drop_bound = keep = None
    if spec.constraint is not None:
        if spec.constraint[0] == "maxdrop_le":
            drop_bound = spec.constraint[1]
        else:
            keep = _constraint_predicate(spec)
    rules = [_prepend_rule(p) for p in spec.forbidden]
    if n == 0:
        yield ()
        return
    words = b""
    masks = [_first_letters(words, rules, drop_bound)]
    for k in range(1, n):
        grown = bytearray()
        grown_masks = array("Q") if n <= 64 else []  # a mask has n bits
        for u in _children(words, masks, k):
            grown += u
            grown_masks.append(_first_letters(u, rules, drop_bound))
        if not grown_masks:
            return
        words, masks = bytes(grown), grown_masks
    for u in _children(words, masks, n):
        w = tuple(u)
        if keep is None or keep(w):
            yield w


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


def class_words(spec: ClassSpec, bound: int | None = None) -> Iterator[tuple[int, ...]]:
    """Lex-ordered stream of raw words in the class, bound-checked."""
    limit = default_bound(spec) if bound is None else bound
    if spec.n > limit:
        raise BoundExceededError(spec.n, limit)
    if spec.forbidden:
        if spec.n > MAX_PACKED_N:
            raise ValueError(
                f"pattern classes are enumerated one letter per byte; n={spec.n}"
                f" exceeds {MAX_PACKED_N}"
            )
        return _tree_words(spec)
    if spec.constraint is None:
        return permutations(range(1, spec.n + 1))
    if spec.constraint[0] == "maxdrop_le":
        return pruned_words(spec)
    return _fixed_letter_words(spec)


def enumerate_class(spec: ClassSpec, bound: int | None = None) -> Iterator[Permutation]:
    """Lex-ordered stream of the class members as validated Permutations."""
    for w in class_words(spec, bound):
        yield Permutation(w)


@lru_cache(maxsize=None)
def class_size(spec: ClassSpec, bound: int | None = None) -> int:
    return sum(1 for _ in class_words(spec, bound))
