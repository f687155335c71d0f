"""Distribution polynomials over restricted classes, the crossing-count
tableau, and the closed forms they are checked against.

Everything here is exact: a distribution is the sum of q^stat (or
y^stat1 q^stat2) over an enumerated class, and the closed forms are binomial
expressions assembled in integer arithmetic.  All heavy computations are
memoized; inputs are immutable so the caches are safe to share.

``dist_poly`` and ``joint_poly`` are histograms from one fold (:func:`_fold`)
over the class's blocks (:func:`permcross.patterns.class_blocks`).  Each
block becomes one set of lanes (:class:`permcross.perm._Lanes`), and the
column kernels turn it into one key per word: the statistic itself, or
every field of the word packed into one integer
(:func:`permcross.perm._packed_keys`), decoded once per distinct key.
One-byte statistics are counted by value (:func:`_tally`): a column with
one ``bytes.count`` per value, and the two columns of a joint distribution
by masking the second to the words that hold each value of the first.
The crossing profile of bare S_n is folded over its cuts by the position
of 1 and the last letter, each cut's crs column counted by value; the cuts
of one block of words ending with 1, v share their crossing terms
(:func:`permcross.perm._crs_cuts`), so no cut is built.  The profiles of
pattern classes are folded together, any number of classes in one stream
of mixed blocks (:func:`crs_profiles`), and their packed keys and two-byte
statistics go through ``Counter``.  No word has a statistic computed one
at a time on this path.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import lru_cache
from math import comb
from typing import Callable, Iterable, Iterator, Sequence

from . import patterns
from .patterns import ClassSpec, _memo, _mixed_blocks, class_blocks, class_spec
from .perm import _Lanes, _check_stat, _crs_cuts, _lane_width, _packed_keys
from .polynomials import QPoly, YQPoly, ZSeries, _Value, cfrac_expand, rational_expand


class DistributionReport(_Value):
    """A distribution polynomial over a class, with its cardinality attached."""

    __slots__ = ("spec", "statistics", "poly", "cardinality")

    def __init__(
        self, spec: ClassSpec, statistics: tuple[str, ...], poly: QPoly | YQPoly, cardinality: int
    ):
        ones = (1,) * (2 if isinstance(poly, YQPoly) else 1)
        if poly.evaluate(*ones) != cardinality:
            raise AssertionError("distribution does not sum to the class size")
        self._set(spec, statistics, poly, cardinality)

    def poly_text(self) -> str:
        return self.poly.to_text()

    def to_json(self) -> dict:
        return {
            "class": self.spec.describe(),
            "stats": list(self.statistics),
            "poly": self.poly.to_json(),
            "poly_text": self.poly_text(),
            "cardinality": self.cardinality,
        }

    CSV_HEADER = ("n", "avoid", "constraint", "stats", "poly", "cardinality")

    def to_csv_row(self) -> tuple[str, ...]:
        d = self.spec.describe()
        cons = d["constraint"]
        return (
            str(self.spec.n),
            ";".join(d["avoid"]),
            "" if cons is None else f"{cons['kind']}={cons['k']}",
            ";".join(self.statistics),
            self.poly_text(),
            str(self.cardinality),
        )


def _values(column: bytes) -> Iterator[tuple[int, int]]:
    """(v, how many bytes of ``column`` are v) for every value v it holds,
    one ``bytes.count`` for v = 0, 1, 2, ... until every byte is counted."""
    left, v = len(column), 0
    while left:
        c = column.count(v)
        if c:
            yield v, c
            left -= c
        v += 1


#: The keys of a block's words: a one-byte column, a pair of them, or wider keys.
_Keys = bytes | tuple[bytes, bytes] | Iterable[int]


def _tally(counts: Counter, keys: _Keys) -> None:
    """Add one block's keys to ``counts``.

    A ``bytes`` column is counted by value (:func:`_values`).  A pair
    ``(y, q)`` of one-byte columns, whose values are below 0xFF, adds the
    key ``e | v << 8`` for every word with e in y and v in q: for each value
    e of y, q is masked to 0xFF where y is not e (one ``translate`` of y and
    one ``|`` of the lane integers), the masked bytes are dropped, and the
    rest is counted by value.  Any other keys go through ``Counter.update``,
    word by word.

    >>> counts = Counter({3: 1})
    >>> _tally(counts, bytes((3, 0, 3, 1)))
    >>> sorted(counts.items())
    [(0, 1), (1, 1), (3, 3)]
    >>> pairs = Counter()
    >>> _tally(pairs, (bytes((1, 0, 1, 1)), bytes((2, 5, 2, 0))))
    >>> sorted((key & 0xFF, key >> 8, c) for key, c in pairs.items())
    [(0, 5, 1), (1, 0, 1), (1, 2, 2)]
    """
    if isinstance(keys, bytes):
        for v, c in _values(keys):
            counts[v] += c
    elif isinstance(keys, tuple):
        y, q = keys
        count, q_lanes = len(y), int.from_bytes(q, "little")
        for e, _ in _values(y):
            other = y.translate(b"\xff" * e + b"\0" + b"\xff" * (255 - e))
            kept = q_lanes | int.from_bytes(other, "little")
            held = kept.to_bytes(count, "little").translate(None, b"\xff")
            for v, d in _values(held):
                counts[e | v << 8] += d
    else:
        counts.update(keys)


def _fold(spec: ClassSpec, bound: int | None, keys: Callable[[_Lanes], _Keys]) -> Counter:
    """Histogram of per-word keys over a class, a block at a time;
    ``keys(lanes)`` gives the keys of a block's words, in order, from the
    block's one set of lanes: a ``bytes`` column of one-byte statistics or a
    pair of them, counted by value, or an array of wider or packed keys,
    counted by ``Counter`` (:func:`_tally`)."""
    counts: Counter = Counter()
    for columns, count in class_blocks(spec, bound):
        _tally(counts, keys(_Lanes(columns, count)))
    return counts


def _qpoly(counts: Counter) -> QPoly:
    top = max(counts) + 1 if counts else 0
    return QPoly(tuple(counts.get(e, 0) for e in range(top)))


@_memo
def dist_poly(spec: ClassSpec, stat: str, bound: int | None = None) -> tuple[QPoly, int]:
    """(distribution polynomial, class size) of one statistic over a class."""
    _check_stat(stat)
    counts = _fold(spec, bound, lambda lanes: lanes.unpack(lanes.stat(stat)))
    return _qpoly(counts), sum(counts.values())


@_memo
def joint_poly(
    spec: ClassSpec, stat_y: str, stat_q: str, bound: int | None = None
) -> tuple[YQPoly, int]:
    """(joint distribution y^stat_y q^stat_q, class size) over a class."""
    _check_stat(stat_y)
    _check_stat(stat_q)

    def keys(lanes: _Lanes) -> _Keys:
        fields = [lanes.as_bytes(lanes.stat(stat_y)), lanes.as_bytes(lanes.stat(stat_q))]
        return tuple(fields) if lanes.width == 1 else _packed_keys(fields, lanes.count)

    counts = _fold(spec, bound, keys)
    shift = 8 * _lane_width(spec.n)  # stat_y in the low bytes, stat_q above them
    poly = YQPoly(tuple((key & ((1 << shift) - 1), key >> shift, c) for key, c in counts.items()))
    return poly, sum(counts.values())


def dist(spec: ClassSpec, stat: str, bound: int | None = None) -> DistributionReport:
    poly, size = dist_poly(spec, stat, bound)
    return DistributionReport(spec, (stat,), poly, size)


def joint_dist(
    spec: ClassSpec, stats: tuple[str, str], bound: int | None = None
) -> DistributionReport:
    stat_y, stat_q = stats
    poly, size = joint_poly(spec, stat_y, stat_q, bound)
    return DistributionReport(spec, (stat_y, stat_q), poly, size)


class CrsProfile(_Value):
    """Crossing distributions of one class, bucketed two ways in a single sweep:
    by the position of the letter 1 (``by_pos1[p-1]``) and by the last letter
    (``by_last[v-1]``)."""

    __slots__ = ("n", "by_pos1", "by_last", "total")

    def __init__(self, n: int, by_pos1: tuple[QPoly, ...], by_last: tuple[QPoly, ...], total: QPoly):
        self._set(n, by_pos1, by_last, total)


def _profile(n: int, pos_counts: list[Counter], last_counts: list[Counter]) -> CrsProfile:
    by_pos1 = tuple(map(_qpoly, pos_counts))
    return CrsProfile(n, by_pos1, tuple(map(_qpoly, last_counts)), sum(by_pos1, QPoly.zero()))


@_memo
def crs_profile(n: int, forbidden: tuple = (), bound: int | None = None) -> CrsProfile:
    """The crossing distributions of S_n(forbidden) by the position of 1
    and by the last letter.  Bare S_n is folded over its cuts (1 at
    position p, last letter v): every word of a cut falls in the buckets p
    and v, so each cut is one crs column and one tally by value, added to
    both.  The words ending with 1 are the cut (n, 1), one crs kernel a
    block; a block of the words ending with 1, v gives every cut (p, v)
    with p < n from two passes of crossing terms
    (:func:`permcross.perm._crs_cuts`), as the 1 at p only splits the
    terms before p from those after it.  A pattern class is the one-class
    case of :func:`crs_profiles`."""
    if n == 0 or forbidden:
        return crs_profiles(n, (forbidden,), bound)[0]
    patterns._check_packable(ClassSpec(n), bound)
    pos_counts, last_counts = [Counter() for _ in range(n)], [Counter() for _ in range(n)]
    for v in range(1, n + 1):  # the words that end with 1, then with 1, v
        run = bytes((1, v)) if v > 1 else b"\x01"
        for columns, count in patterns._group_columns(n, n - len(run), run):
            lanes = _Lanes(columns, count)
            cuts = enumerate(_crs_cuts(lanes), 1) if v > 1 else [(n, lanes.stat("crs"))]
            for p, total in cuts:
                cut: Counter = Counter()
                _tally(cut, lanes.unpack(total))
                pos_counts[p - 1].update(cut)
                last_counts[v - 1].update(cut)
    return _profile(n, pos_counts, last_counts)


def _tally_block(held: defaultdict, columns: list[bytes], count: int) -> None:
    """Add the crs counts of a mixed block to ``held``: by class (the last
    column), those by the position of 1 and those by the last letter, from
    the packed keys (class, position of 1, crs) and (class, last letter, crs)."""
    *words, index = columns
    lanes = _Lanes(words, count)
    crs = lanes.as_bytes(lanes.stat("crs"))
    for side, letters in enumerate((lanes.position(1), words[-1])):
        counts: Counter = Counter()
        _tally(counts, _packed_keys([index, letters, crs], count))
        for key, c in counts.items():  # the class, the position of 1 or last letter, then crs
            held[key & 0xFF][side][(key >> 8 & 0xFF) - 1][key >> 16] += c


def crs_profiles(n: int, sets: Sequence[tuple], bound: int | None = None) -> tuple[CrsProfile, ...]:
    """:func:`crs_profile` of S_n(T) for every T of ``sets``, in order.
    Bare S_n is read from :func:`crs_profile`; the pattern classes stream
    as one run of mixed blocks (:func:`permcross.patterns._mixed_blocks`),
    each one set of lanes, one crs kernel and one ``position(1)``
    (:func:`_tally_block`), so rel-3's 21 classes at n = 8 are two blocks,
    not 21 folds.  A class is made a profile once a block starts past it."""
    if n == 0:
        return (CrsProfile(0, (), (), QPoly.one()),) * len(sets)
    group = crs_profile(n, (), bound) if () in sets else None  # first: it peaks before levels grow
    classes = [forbidden for forbidden in sets if forbidden]
    done: list[CrsProfile] = []

    def fresh() -> tuple[list[Counter], list[Counter]]:  # crs by the position of 1, last letter
        return [Counter() for _ in range(n)], [Counter() for _ in range(n)]

    held = defaultdict(fresh)  # the counts of each class not yet made a profile

    def close(stop: int) -> None:  # the classes before ``stop`` are complete
        for j in range(len(done), stop):
            done.append(_profile(n, *(held.pop(j) if j in held else fresh())))

    for columns, count in _mixed_blocks(n, classes, bound):
        close(columns[-1][0])
        _tally_block(held, columns, count)
        del columns  # so that the next block is not built while this one is held
    close(len(classes))
    profiles = iter(done)
    return tuple(next(profiles) if forbidden else group for forbidden in sets)


# ---------------------------------------------------------------------------
# the crossing-count tableau


@lru_cache(maxsize=None)
def tableau_value(n: int, k: int) -> QPoly:
    """Cell (n, k) of the triangular array defined by

        R[n][n] = R[n][n-1] = 1,
        R[n][k] = q^min(k-1, n-1-k) * R[n-1][k] + R[n][k+1]   (0 < k < n-1),
        R[n][0] = R[n-1][0] + R[n][1],

    which specializes to R[n][k](1) = 2^(n-1-k) for k < n.
    """
    if not 0 <= k <= n:
        raise ValueError(f"tableau cell ({n}, {k}) out of range")
    if k >= n - 1:
        return QPoly.one()
    if k > 0:
        step = QPoly.monomial(min(k - 1, n - 1 - k)) * tableau_value(n - 1, k)
        return step + tableau_value(n, k + 1)
    return tableau_value(n - 1, 0) + tableau_value(n, 1)


# ---------------------------------------------------------------------------
# closed forms


def closed_form(form: str, n: int) -> QPoly:
    """Closed-form distribution polynomials.

    thm31   ((1+q)^(n-1) - 1 + q)/q          crs over the (123,132)/(123,213) classes
    main1   (1+q)^(n-2)                      crs over those classes with 1 second-to-last
    cor32   sum (delta(k,0) + C(n-1, k+1)) q^k   coefficient form of thm31
    cor34   sum C(n-2, k) q^k                coefficient form of main1
    dokos   (1+q)^(n-1)                      inv over the (321,231) class
    cor53   sum C(n, 2k) y^k                 des/exc over the (231,321) class
    """
    one_plus_q, q = QPoly((1, 1)), QPoly.var()
    forms = {  # form: (least n, the polynomial)
        "thm31": (1, lambda: (one_plus_q ** (n - 1) - QPoly.one() + q).div_exact(q)),
        "main1": (2, lambda: one_plus_q ** (n - 2)),
        "cor32": (
            1,
            lambda: QPoly(tuple((e == 0) + comb(n - 1, e + 1) for e in range(max(n - 1, 1)))),
        ),
        "cor34": (2, lambda: QPoly(tuple(comb(n - 2, e) for e in range(n - 1)))),
        "dokos": (1, lambda: one_plus_q ** (n - 1)),
        "cor53": (0, lambda: QPoly(tuple(comb(n, 2 * e) for e in range(n // 2 + 1)))),
    }
    if form not in forms:
        raise ValueError(f"unknown closed form {form!r}")
    least, build = forms[form]
    if n < least:
        raise ValueError(f"{form} requires n >= {least}")
    return build()


# ---------------------------------------------------------------------------
# generating functions under test


def crossing_cfrac_series(order: int) -> ZSeries:
    """The continued fraction with level numerators 1, 1, q, q, q^2, q^2, ...
    whose z^n coefficient is the crossing distribution over the 321-avoiders."""
    levels = [QPoly.monomial((m - 1) // 2) for m in range(1, max(order, 0) + 1)]
    return cfrac_expand(levels, order)


def exc_crs_series(order: int) -> ZSeries:
    """(1 - qz) / (1 - (1+q)z - (y-q)z^2): joint exc/crs over the (231,321) class."""
    y, q, one = YQPoly.y(), YQPoly.q(), YQPoly.one()
    return rational_expand([one, -q], [one, -(one + q), -(y - q)], order)


def des_inv_series(order: int) -> ZSeries:
    """(1 - qz) / (1 - (1+q)z - q(y-1)z^2): joint des/inv over the same class."""
    y, q, one = YQPoly.y(), YQPoly.q(), YQPoly.one()
    return rational_expand([one, -q], [one, -(one + q), -(q * (y - one))], order)


def crossing_gf_by_class(pats: Sequence, order: int, bound: int | None = None) -> ZSeries:
    """Brute-force crossing generating function of an avoidance class."""
    coeffs = [dist_poly(class_spec(n, avoid=pats), "crs", bound)[0] for n in range(order + 1)]
    return ZSeries(QPoly, tuple(coeffs))
