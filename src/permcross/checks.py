"""The verification catalog: every identity the library implements is checked
here against brute-force enumeration, and the CLI `verify` subcommand simply
runs this registry.

Each check is registered by a decorator that carries its id, description and
default bound.  Most are an identity over n (:func:`_identity`) or a
crossing-change law over words (:func:`_law`); the rest are plain functions
of the bound (:func:`_check`).  An identity names the sides of its equality,
and :func:`_sides` compares them and writes the witness of a mismatch: where
(n, and k or the patterns), then each side by name.  Ten identities are
families (:func:`_family`), declared as data: each class of the family at
size n, with the statistic read over it (:func:`_dist`) and the closed form,
series coefficient or tableau cell it must equal.  A run returns (status,
witnesses, bound_text), through :func:`_verdict` except for the adjudications
cor-4.3 and eq-chung, which always report their record.  Status is "pass",
"fail", or "finding"; "finding" is reserved for the open symmetry question
(check conj-2.7), which reports a counterexample without ever gating the
suite.  Checks are deterministic: random sampling uses fixed seeds derived
from the check id.  A block kernel that disagrees with its per-word oracle
stops its check, which every runner reports as the same fail
(:func:`run_check`) before it runs the other checks.

S_n is folded once per n for every check on its one-at-k cuts: thm-2.6,
conj-2.7 and rel-3 all read its crs profile, one fold over the words that
end with 1 and with 1, v, whose crossing terms serve every position of the
1 (:func:`permcross.perm._crs_cuts`).  rel-3 and sym-transport read the 22
classes of |T| <= 2 at each size as one stream of blocks that mix classes
(:func:`permcross.patterns._mixed_blocks`): rel-3 takes all their profiles
from one fold, and sym-transport maps each mixed block once.  The checks
over images of whole words compare blocks, never word by word: sym-transport
sorts the word keys (:func:`permcross.perm._word_keys`) of each class, and
phi-psi maps each image block back and checks each insertion by its left
inverse.
"""

from __future__ import annotations

import random
import time
from array import array
from functools import lru_cache
from itertools import accumulate, combinations, islice, permutations
from math import comb
from typing import Callable, Iterable, Iterator, Sequence

from .bijections import (
    ResidualReport,
    adjudicate_cor43,
    check_lemma,
    check_lemma42,
    check_prop25,
    phi,
    psi,
    residual_columns,
)
from .distributions import (
    closed_form,
    crossing_cfrac_series,
    crossing_gf_by_class,
    crs_profile,
    crs_profiles,
    des_inv_series,
    dist_poly,
    exc_crs_series,
    joint_poly,
    tableau_value,
)
from . import patterns
from .patterns import (
    P123_132,
    P123_213,
    P132_231,
    P132_312,
    P213_231,
    P213_312,
    P321_213,
    P321_231,
    ClassSpec,
    _mixed_blocks,
    class_blocks,
    class_size,
    class_spec,
    class_words,
    packed_blocks,
)
from .perm import (
    SYMMETRIES,
    _word_keys,
    apply_symmetry,
    apply_symmetry_to_patterns,
    crossing_count,
    crossings,
    excedance_count,
    format_word,
    insert_block,
    inversion_count,
    nestings,
    stat_columns,
    symmetry_images,
)
from .polynomials import QPoly, YQPoly, ZSeries, _Ring, _Value

#: The six length-3 patterns, in lex order.
ALL_LENGTH3 = tuple(permutations((1, 2, 3)))

#: Every set of at most two length-3 patterns, the empty set first.
PATTERN_SUBSETS = ((), *combinations(ALL_LENGTH3, 1), *combinations(ALL_LENGTH3, 2))

RANDOM_SAMPLE_SIZE = 1000
RANDOM_SAMPLE_N = 10

#: A failing check reports at most this many witnesses, the first ones found.
WITNESS_CAP = 5

#: What a check enumerates: S_n itself (bare, cut or under a maxdrop bound)
#: or classes S_n(T) with forbidden patterns, each under its own size limit.
GROUP, CLASSES = "S_n", "S_n(T)"


class CheckResult(_Value):
    """The outcome of one check run; ``status`` is pass, fail or finding."""

    __slots__ = ("check_id", "bound", "status", "witnesses", "runtime")

    def __init__(self, check_id: str, bound: str, status: str, witnesses: tuple, runtime: float):
        self._set(check_id, bound, status, witnesses, runtime)

    def to_json(self) -> dict:
        return {
            "check_id": self.check_id,
            "bound": self.bound,
            "status": self.status,
            "witnesses": list(self.witnesses),
            "runtime": self.runtime,
        }


class Check(_Value):
    """A registered check: ``run(bound)`` compares nothing below ``min_bound``
    and reads ``reads`` (GROUP and/or CLASSES) up to size bound + ``reach``."""

    __slots__ = ("check_id", "description", "default_bound", "run", "min_bound", "reads", "reach")

    def __init__(
        self, check_id: str, description: str, default_bound: int,
        run: Callable[[int], tuple[str, list, str]], min_bound: int = 0,
        reads: tuple[str, ...] = (CLASSES,), reach: int = 0,
    ):
        self._set(check_id, description, default_bound, run, min_bound, reads, reach)

    @property
    def max_bound(self) -> int | None:
        """The largest bound under which every class the check reads stays
        within its enumeration limit (:func:`patterns.default_bound`); None
        if it reads none."""
        limits = {GROUP: patterns.FULL_GROUP_BOUND, CLASSES: patterns.PATTERN_CLASS_BOUND}
        return min((limits[kind] - self.reach for kind in self.reads), default=None)


CHECKS: dict[str, Check] = {}


def _verdict(witnesses: Iterable[dict], bound_text: str, status: str = "fail"):
    """(status, witnesses, bound_text), with ``status`` if any witness exists.

    At most ``WITNESS_CAP`` witnesses are drawn, so a lazy source stops
    computing once the cap is reached.  The bound text comes from the bound
    alone, so a failing run states the same range as a passing one.
    """
    kept = list(islice(witnesses, WITNESS_CAP))
    return (status if kept else "pass", kept, bound_text)


def _check(
    check_id: str, description: str, default_bound: int, min_bound: int = 0,
    reads: tuple[str, ...] = (CLASSES,), reach: int = 0,
):
    """Register the decorated ``run(bound) -> (status, witnesses, bound_text)``,
    which enumerates ``reads`` up to size bound + ``reach``."""

    def register(run):
        CHECKS[check_id] = Check(check_id, description, default_bound, run, min_bound, reads, reach)
        return run

    return register


def _identity(
    check_id: str, description: str, default_bound: int, first: int = 0, scope: str = "",
    status: str = "fail", reads: tuple[str, ...] = (CLASSES,), reach: int = 0,
):
    """Register a statement compared for n = first..bound; the decorated
    ``rows(n)`` yields one witness per mismatch at size n.

    ``first`` is the smallest size with something to compare, and so the
    smallest bound the check accepts.
    """

    def register(rows: Callable[[int], Iterable[dict]]):
        def run(bound: int):
            found = (w for n in range(first, bound + 1) for w in rows(n))
            return _verdict(found, f"n<={bound}{scope}", status)

        _check(check_id, description, default_bound, first, reads, reach)(run)
        return rows

    return register


#: The generator of every family check (:func:`_family`), by check id.
_FAMILIES: dict[str, Callable[[int], Iterable[tuple]]] = {}


def _family(check_id: str, description: str, default_bound: int, first: int = 0):
    """Register an identity over the classes of a family; the decorated
    ``family(n)`` yields each class at size n as (where, patterns, constraint,
    statistic, expected).  A class whose :func:`_dist` is not ``expected`` is
    one witness: ``where``, the class as ``ClassSpec.describe()``, the
    statistic, then ``actual`` and ``expected``."""

    def register(family: Callable[[int], Iterable[tuple]]):
        def rows(n: int):
            for where, pats, constraint, stat, expected in family(n):
                actual = _dist(n, pats, stat, **constraint)
                if actual != expected:  # only a witness describes its class
                    at = {**where, "class": class_spec(n, avoid=pats, **constraint).describe()}
                    yield from _sides({**at, "stat": stat}, actual=actual, expected=expected)

        _identity(check_id, description, default_bound, first)(rows)
        _FAMILIES[check_id] = family
        return family

    return register


def _law(check_id: str, description: str, default_bound: int):
    """Register a lemma evaluated on all of S_1..S_bound plus a fixed random
    batch at n = RANDOM_SAMPLE_N, a block at a time by
    :func:`residual_columns`; the decorated ``residuals(w)`` yields the
    ResidualReports of word w, which confirm and report a flagged word."""

    def register(residuals: Callable[[tuple[int, ...]], Iterable[ResidualReport]]):
        def run(bound: int):
            sizes = [class_blocks(class_spec(n)) for n in range(1, bound + 1)]
            batch = _random_words(check_id, RANDOM_SAMPLE_N, RANDOM_SAMPLE_SIZE)
            sizes.append(packed_blocks(batch, RANDOM_SAMPLE_N))
            found = (
                r.to_json()
                for blocks in sizes
                for reports in _flagged(check_id, blocks, residuals)
                for r in reports
                if not r.passed
            )
            sample = f"{RANDOM_SAMPLE_SIZE} random at n={RANDOM_SAMPLE_N}"
            return _verdict(found, f"n<={bound} exhaustive, {sample}")

        _check(check_id, description, default_bound, reads=(GROUP,))(run)
        return residuals

    return register


def _flagged(
    law: str,
    blocks: Iterable[tuple[list[bytes], int]],
    oracle: Callable[[tuple[int, ...]], Iterable[ResidualReport]],
) -> Iterator[list[ResidualReport]]:
    """The per-word reports ``oracle(w)`` of every word that the block
    residuals of ``law`` flag, in word order.

    The words come as (columns, count) blocks: an instance flags a word
    where its two residual columns differ.  The oracle must fail exactly the
    flagged instances of the word; if not, the block kernels are at fault,
    and this raises rather than drop or invent a witness.
    """
    for columns, count in blocks:
        flags: dict[int, list[int]] = {}
        for instance, (lhs, rhs) in enumerate(residual_columns(law, columns, count)):
            if lhs != rhs:
                for lane, (left, right) in enumerate(zip(lhs, rhs)):
                    if left != right:
                        flags.setdefault(lane, []).append(instance)
        for lane in sorted(flags):
            word = tuple(c[lane] for c in columns)
            reports = list(oracle(word))
            failed = [i for i, r in enumerate(reports) if not r.passed]
            if failed != flags[lane]:
                raise AssertionError(
                    f"{law}: the block residuals flag instances {flags[lane]} of "
                    f"{format_word(word)}, the per-word check fails {failed}"
                )
            yield reports


def _pat_text(pats) -> str:
    return ",".join("".join(map(str, p)) for p in pats)


def _random_words(seed_tag: str, n: int, count: int) -> Iterator[tuple[int, ...]]:
    """``count`` words of size n, each the one before shuffled in place, the
    same words as ``random.Random(f"permcross:{seed_tag}").shuffle`` gives:
    its swap loop inlined, each swap index drawn from ``getrandbits`` of
    the bit length of i+1 and drawn again while it exceeds i."""
    bits = random.Random(f"permcross:{seed_tag}").getrandbits
    swaps = [(i, (i + 1).bit_length()) for i in range(n - 1, 0, -1)]
    base = list(range(1, n + 1))
    for _ in range(count):
        for i, k in swaps:
            j = bits(k)
            while j > i:
                j = bits(k)
            base[i], base[j] = base[j], base[i]
        yield tuple(base)


def _dist(n: int, pats, stat: str = "crs", **constraint) -> QPoly | YQPoly:
    """The distribution of ``stat`` over S_n(pats) under ``constraint``, or
    the joint one (:func:`joint_poly`) of a pair spelled as the CLI does, "exc,crs"."""
    spec = class_spec(n, avoid=pats, **constraint)
    if "," in stat:
        return joint_poly(spec, *stat.split(","))[0]
    return dist_poly(spec, stat)[0]


def _sides(where: dict, **sides) -> Iterator[dict]:
    """Nothing if the named sides are equal, else one witness: the ``where``
    fields, then each side by name, a polynomial as its ``to_text()``.

    >>> list(_sides({"n": 2}, actual=QPoly((1, 1)), expected=QPoly((2,))))
    [{'n': 2, 'actual': '1+q', 'expected': '2'}]
    >>> list(_sides({"n": 2}, size=2, expected=2))
    []
    """
    values = [*sides.values()]
    if values.count(values[0]) < len(values):  # a side differs from the first
        shown = {k: v.to_text() if isinstance(v, _Ring) else v for k, v in sides.items()}
        yield {**where, **shown}


# ---------------------------------------------------------------------------
# the checks, in the order of the paper


@_check("fig-1", "crossing/nesting counts and witness pairs of 4735126", 7, reads=())
def _run_fig1(bound: int):
    word = (4, 7, 3, 5, 1, 2, 6)
    crs, crs_pairs = crossings(word)
    nes, nes_pairs = nestings(word)
    want_crs = {(1, 2), (5, 6), (6, 7)}
    want_nes = {(2, 4), (3, 5), (3, 6)}
    ok = crs == 3 and nes == 3 and set(crs_pairs) == want_crs and set(nes_pairs) == want_nes
    witness = {
        "word": format_word(word),
        "crs": crs,
        "crs_pairs": sorted(crs_pairs),
        "nes": nes,
        "nes_pairs": sorted(nes_pairs),
    }
    return _verdict([] if ok else [witness], "n=7")


@_identity("catalan", "single length-3 pattern classes have Catalan sizes", 9)
def _catalan_rows(n: int):
    want = comb(2 * n, n) // (n + 1)
    for pat in ALL_LENGTH3:
        size = class_size(class_spec(n, avoid=(pat,)))
        yield from _sides({"pattern": _pat_text((pat,)), "n": n}, size=size, expected=want)


@_identity("eq-1", "crs distribution agrees across the 321/132/213 classes", 9)
def _eq1_rows(n: int):
    polys = {_pat_text((pat,)): _dist(n, (pat,)) for pat in ((3, 2, 1), (1, 3, 2), (2, 1, 3))}
    return _sides({"n": n}, **polys)


@_family(
    "cfrac-321",
    "continued fraction with levels q^floor((m-1)/2) vs brute force crs over 321-avoiders",
    9,
)
def _cfrac321_family(n: int):
    yield {"n": n}, ((3, 2, 1),), {}, "crs", crossing_cfrac_series(n).coefficient(n)


@_family(
    "thm-1.1",
    "crs over (123,132)-avoiders with 1 second-to-last (and the ends-with-2 twin) is (1+q)^(n-2)",
    10,
    first=2,
)
def _thm11_family(n: int):
    want = closed_form("main1", n)
    yield {"n": n}, P123_132, {"one_at": 2}, "crs", want
    yield {"n": n}, P123_213, {"ends_with": 2}, "crs", want


@_family(
    "thm-1.2",
    "tableau cells equal tail-constrained crs distributions for (213,312) and (132,312)",
    9,
)
def _thm12_family(n: int):
    """Cell (n, k) against both tail-k classes, the whole class at k = 0."""
    for k in range(n + 1):
        for pats in (P213_312, P132_312):
            yield {"n": n, "k": k}, pats, {"tail": k or None}, "crs", tableau_value(n, k)


#: Table 1 as printed: row n holds the cells (n, 0), (n, 1), ... of the tableau.
TABLE1 = (
    ("1",),
    ("1", "1"),
    ("2", "1", "1"),
    ("4", "2", "1", "1"),
    ("7+q", "3+q", "1+q", "1"),
    ("11+4q+q^2", "4+3q+q^2", "1+2q+q^2", "1+q"),
    ("16+9q+5q^2+2q^3", "5+5q+4q^2+2q^3", "1+2q+3q^2+2q^3", "1+q+q^2+q^3"),
)


def _table1_witnesses(bound: int):
    for n, row in enumerate(TABLE1):
        for k, text in enumerate(row):
            yield from _sides({"n": n, "k": k}, expected=text, actual=tableau_value(n, k).to_text())
    for n in range(bound + 1):
        for k in range(n):
            got = tableau_value(n, k).evaluate(1)
            yield from _sides({"n": n, "k": k}, at_q1=got, expected=2 ** (n - 1 - k))


@_check("table-1", "printed tableau cells and the powers-of-two specialization", 12, reads=())
def _run_table1(bound: int):
    cells = sum(map(len, TABLE1))
    return _verdict(_table1_witnesses(bound), f"{cells} cells, q=1 check n<={bound}")


@_identity(
    "cor-4.5", "tableau column 0 at q=0 gives the central polygonal numbers", 12, reads=()
)
def _cor45_rows(n: int):
    return _sides({"n": n}, at_q0=tableau_value(n, 0).evaluate(0), expected=comb(n, 2) + 1)


@_identity(
    "rel-3",
    "one-at-k distribution equals ends-with-k distribution of the rci-image class",
    8,
    first=1,
    scope=", |T|<=2",
    reads=(GROUP, CLASSES),
)
def _rel3_rows(n: int):
    profiles = dict(zip(PATTERN_SUBSETS, crs_profiles(n, PATTERN_SUBSETS)))
    for pats in PATTERN_SUBSETS:
        text = _pat_text(pats)
        lhs, rhs = profiles[pats], profiles[apply_symmetry_to_patterns("rci", pats)]
        for k in range(1, n + 1):
            at = {"patterns": text, "n": n, "k": k}
            yield from _sides(at, one_at_side=lhs.by_pos1[n - k], ends_with_side=rhs.by_last[k - 1])


@_identity(
    "sym-transport",
    "f(S_n(T)) = S_n(f(T)) for all eight symmetries",
    7,
    first=1,
    scope=", |T|<=2",
    reads=(GROUP, CLASSES),
)
def _sym_transport_rows(n: int):
    """Each symmetry maps the level of S_n(T) onto the level of S_n(f(T)).
    The 22 levels stream as one run of mixed blocks; each block takes one
    :func:`symmetry_images` and one :func:`_word_keys` per symmetry, added
    to that symmetry's keys, and its last column adds to each class's span
    of them.  A class's image keys, sorted, must be the identity keys of
    the image class, which are in lex order; f(T) is found once for every n
    (:func:`_transports`).  A failure, in the order of T and then f, is
    reported by the per-word map."""
    keys: dict[str, array] = {}
    sizes = [0] * len(PATTERN_SUBSETS)
    for columns, count in _mixed_blocks(n, PATTERN_SUBSETS):
        *words, index = columns
        for tag, image in symmetry_images(words, count).items():
            part = _word_keys(image, count)
            keys.setdefault(tag, array(part.typecode)).extend(part)
        for j in range(index[0], index[-1] + 1):
            sizes[j] += index.count(j)
    spans = dict(zip(PATTERN_SUBSETS, zip(accumulate(sizes, initial=0), accumulate(sizes))))
    views = {tag: memoryview(k) for tag, k in keys.items()}  # slices that copy nothing
    levels = {pats: views["id"][start:stop] for pats, (start, stop) in spans.items()}
    for pats, (start, stop) in spans.items():
        for tag in SYMMETRIES:
            target = levels[_transports()[pats][tag]]
            if array(target.format, sorted(views[tag][start:stop])) != target:
                yield _sym_transport_witness(n, pats, tag)


@lru_cache(maxsize=1)
def _transports() -> dict[tuple, dict[str, tuple]]:
    """The image of each pattern set of sym-transport under each symmetry."""
    return {p: {f: apply_symmetry_to_patterns(f, p) for f in SYMMETRIES} for p in PATTERN_SUBSETS}


def _sym_transport_witness(n: int, pats: tuple, tag: str) -> dict:
    """The sym-transport witness of one (n, T, symmetry), from the per-word map."""
    mapped = {apply_symmetry(tag, w) for w in class_words(ClassSpec(n, pats))}
    target = ClassSpec(n, apply_symmetry_to_patterns(tag, pats))
    if mapped == set(class_words(target)):
        raise AssertionError(
            f"sym-transport: the block images of {tag} fail at n={n} for "
            f"{_pat_text(pats)}, the per-word map passes"
        )
    return {"patterns": _pat_text(pats), "n": n, "symmetry": tag}


@_law("lem-2.1", "appending a new minimum changes crs by ut - lt", 7)
def _lem21(w):
    return (check_lemma("lem-2.1", w),)


@_law(
    "lem-2.2",
    "inserting a new minimum second-to-last changes crs by 1 - [sigma(n)=n] + ut - lt",
    7,
)
def _lem22(w):
    return (check_lemma("lem-2.2", w),)


@_law("lem-2.4", "inverse and rc-image change crs by ut - lt", 7)
def _lem24(w):
    return (check_lemma("lem-2.4", w, image="i"), check_lemma("lem-2.4", w, image="rc"))


@_law("lem-4.2", "front insertion changes crs by |A|+|B|-|C|", 7)
def _lem42(w):
    return (check_lemma42(w, j) for j in range(1, len(w) + 1))


@_identity(
    "phi-psi",
    "phi_k and psi_k are injective into the one-at-k classes",
    7,
    scope=", all k",
    reads=(GROUP,),
)
def _phi_psi_rows(n: int):
    """Images a block at a time: phi_k is the inverse and psi_k the rc
    image, each with 1 inserted at position n+2-k, so both come from one
    :func:`symmetry_images` per block and each k adds one
    :func:`insert_block`, whose image lands in the one-at-k class when the
    column at position n+2-k is all 1s.  The other columns, every letter
    lowered by one, must give back the base block byte for byte (a 1 left
    elsewhere lowers to 0, no letter).  That left inverse makes each
    insertion injective, so phi_k and psi_k are injective when the inverse
    and the rc map are.  These are involutions: each is injective when
    :func:`symmetry_images` of each image block, under the same tag, gives
    the block back byte for byte.  A failure is reported by the per-word maps."""
    bases: dict[str, list] = {"phi": [], "psi": []}
    injective = {"phi": True, "psi": True}
    for columns, count in class_blocks(class_spec(n)):
        images = symmetry_images(columns, count)
        for name, tag in (("phi", "i"), ("psi", "rc")):
            bases[name].append((images[tag], count))
            injective[name] &= symmetry_images(images[tag], count)[tag] == columns
    for k in range(1, n + 2):
        for name, base in bases.items():
            if not (injective[name] and all(_inserts_1(*block, n + 1 - k) for block in base)):
                yield _phi_psi_witness(name, n, k)


def _inserts_1(columns: list[bytes], count: int, at: int) -> bool:
    """Whether :func:`insert_block` of 1 before the 0-based column ``at``
    puts 1s there and the base block, each letter one higher, around them."""
    image = insert_block(columns, count, at + 1, 1)
    rest = b"".join(image[:at] + image[at + 1 :]).translate(_LOWERED)
    return image[at] == b"\x01" * count and rest == b"".join(columns)


#: ``bytes.translate`` table: every letter down by one, 1 to 0, which is no letter.
_LOWERED = bytes((0, *range(255)))


def _phi_psi_witness(name: str, n: int, k: int) -> dict:
    """The phi-psi witness of one map at (n, k), from the per-word map."""
    fn = phi if name == "phi" else psi
    group = list(permutations(range(1, n + 1)))
    images = {fn(k, w).word for w in group}
    misplaced = [w for w in images if w[n + 1 - k] != 1]
    if len(images) == len(group) and not misplaced:
        raise AssertionError(
            f"phi-psi: the block images of {name}_{k} fail at n={n}, the per-word map passes"
        )
    return {
        "map": name,
        "n": n,
        "k": k,
        "distinct_images": len(images),
        "expected": len(group),
        "misplaced": [format_word(w) for w in misplaced[:3]],
    }


@_identity(
    "prop-2.5",
    "phi_1/psi_1 preserve crs; phi_2 adds 1 unless the last letter is the max",
    8,
    first=1,
    reads=(GROUP,),
)
def _prop25_rows(n: int):
    for reports in _flagged("prop-2.5", class_blocks(class_spec(n)), check_prop25):
        yield {"word": format_word(reports[0].word)}


@_identity(
    "thm-2.6",
    "one-at-1 distribution is F_n; one-at-2 is qF_n + (1-q)F_(n-1)",
    8,
    first=1,
    reads=(GROUP,),
    reach=1,
)
def _thm26_rows(n: int):
    q, one = QPoly.var(), QPoly.one()
    cuts = crs_profile(n + 1).by_pos1  # one-at-1 is 1 at position n+1, one-at-2 at n
    first, second = cuts[n], cuts[n - 1]
    want_first = crs_profile(n).total
    want_second = q * want_first + (one - q) * crs_profile(n - 1).total
    if first != want_first or second != want_second:
        yield {
            "n": n,
            "one_at_1": first.to_text(),
            "expected_1": want_first.to_text(),
            "one_at_2": second.to_text(),
            "expected_2": want_second.to_text(),
        }


@_identity(
    "conj-2.7",
    "open symmetry: one-at-k vs one-at-(n+1-k) distributions (finding, never gates)",
    9,
    first=1,
    status="finding",
    reads=(GROUP,),
)
def _conj27_rows(n: int):
    by_pos1 = crs_profile(n).by_pos1  # one-at-k is 1 at position n+1-k
    for k in range(1, n + 1):
        yield from _sides({"n": n, "k": k}, dist_k=by_pos1[n - k], dist_mirror=by_pos1[k - 1])


@_check("thm-2.8", "F(312) * (1 - z F(231)) = 1 with enumerated coefficients", 9)
def _run_thm28(bound: int):
    f312 = crossing_gf_by_class(((3, 1, 2),), bound)
    f231 = crossing_gf_by_class(((2, 3, 1),), bound)
    one = ZSeries.constant(QPoly, bound)
    product = f312 * (one - f231.times_z())
    witnesses = (
        {"n": n, "coefficient": product.coefficient(n).to_text()}
        for n in range(bound + 1)
        if product.coefficient(n) != one.coefficient(n)
    )
    return _verdict(witnesses, f"mod z^{bound + 1}")


@_family(
    "thm-3.1", "crs over (123,132)- and (123,213)-avoiders is ((1+q)^(n-1)-1+q)/q", 10, first=1
)
def _thm31_family(n: int):
    for pats in (P123_132, P123_213):
        yield {"n": n}, pats, {}, "crs", closed_form("thm31", n)


@_family("cor-3.2", "coefficient k of that distribution is [k=0] + C(n-1,k+1)", 10, first=1)
def _cor32_family(n: int):
    for pats in (P123_132, P123_213):
        yield {"n": n}, pats, {}, "crs", closed_form("cor32", n)


@_family("cor-3.4", "coefficient k of the one-at-2 distribution is C(n-2,k)", 10, first=2)
def _cor34_family(n: int):
    want = closed_form("cor34", n)
    yield {"n": n}, P123_132, {"one_at": 2}, "crs", want
    yield {"n": n}, P123_213, {"ends_with": 2}, "crs", want


@_identity(
    "eq-4-6",
    "position-of-1 partition of the (123,132) class and its two slot identities",
    9,
    first=2,
)
def _eq46_rows(n: int):
    q, one = QPoly.var(), QPoly.one()
    whole = _dist(n, P123_132)
    at_last = _dist(n, P123_132, one_at=1)
    at_second = _dist(n, P123_132, one_at=2)
    prev = _dist(n - 1, P123_132)
    laws = {
        "partition": whole == at_last + at_second,
        "last_slot": at_last == prev,
        "second_slot": at_second == q * prev + one - q,
    }
    if not all(laws.values()):
        yield {"n": n, **laws}


@_identity("eq-7", "(213,312)-avoiders split by starting or ending with 1", 9, first=2)
def _eq7_rows(n: int):
    split = _dist(n, P213_312, one_at=n) + _dist(n, P213_312, one_at=1)
    return _sides({"n": n}, whole=_dist(n, P213_312), split=split)


@_identity("prop-4.1", "members starting with 1 reproduce the size-(n-1) distribution", 9, first=1)
def _prop41_rows(n: int):
    return _sides({"n": n}, starts=_dist(n, P213_312, one_at=n), prev=_dist(n - 1, P213_312))


@_check(
    "cor-4.3",
    "adjudicate the two printed increment exponents for front insertion on tail classes",
    9,
    min_bound=1,
)
def _run_cor43(bound: int):
    report = adjudicate_cor43(bound)
    decisive = report.winner in ("statement", "proof")
    disagreement_rows = [r for r in report.rows if r.statement != r.proof]
    witnesses = [
        {
            "winner": report.winner,
            "disagreement_rows": len(disagreement_rows),
            "table": report.to_json()["rows"],
        }
    ]
    status = "pass" if decisive and disagreement_rows else "fail"
    return (status, witnesses, f"n<={bound}, all k")


@_identity(
    "prop-4.4",
    "tail-class recurrence with exponent min(k-1, n-1-k) against enumeration",
    9,
    first=3,
    scope=", 1<=k<=n-2",
)
def _prop44_rows(n: int):
    for k in range(1, n - 1):
        prev = _dist(n - 1, P213_312, tail=k)
        rhs = QPoly.monomial(min(k - 1, n - 1 - k)) * prev + _dist(n, P213_312, tail=k + 1)
        yield from _sides({"n": n, "k": k}, lhs=_dist(n, P213_312, tail=k), rhs=rhs)


@_identity("eq-8", "the full recurrence system for the (213,312) class", 9, first=1)
def _eq8_rows(n: int):
    """The boundary rows of the (213,312) recurrence system, then prop-4.4's rows."""
    one = QPoly.one()
    ok = _dist(n, P213_312, tail=n) == one
    if n >= 2:
        ok = (
            ok
            and _dist(n, P213_312, tail=n - 1) == one
            and _dist(n, P213_312) == _dist(n - 1, P213_312) + _dist(n, P213_312, tail=1)
        )
    if not ok or any(_prop44_rows(n)):
        yield {"n": n}


@_family(
    "thm-4.6", "crs over (213,231)- and (132,231)-avoiders equals tableau cell (n+1, 1)", 9
)
def _thm46_family(n: int):
    for pats in (P213_231, P132_231):
        yield {"n": n}, pats, {}, "crs", tableau_value(n + 1, 1)


@_identity(
    "prop-5.1",
    "(321,231)-avoiders are exactly the maxdrop<=1 permutations",
    9,
    reads=(GROUP, CLASSES),
)
def _prop51_rows(n: int):
    """The two classes compared as lex-order streams of blocks, both cut at
    the same edges: one growth step (:func:`permcross.patterns._children`)
    under two rules and two cuts, the pattern rule and the mask cut for the
    avoiders, the drop thresholds and the one-``translate`` cut for the
    maxdrop class.  A fault in what both share, the letter order, the
    raise of ``_bump_table`` or ``_reblocked``, can cancel.  Only a mismatch
    lists their words for the witness."""
    specs = (class_spec(n, avoid=P321_231), class_spec(n, maxdrop_le=1))
    avoiders, drop = (list(class_blocks(spec)) for spec in specs)
    if avoiders != drop:
        avoiders, drop = (list(class_words(spec)) for spec in specs)
        yield {
            "n": n,
            "only_avoiders": [format_word(w) for w in sorted(set(avoiders) - set(drop))][:3],
            "only_maxdrop": [format_word(w) for w in sorted(set(drop) - set(avoiders))][:3],
        }


@_identity("inv-exc-crs", "inv = exc + crs on the (321,231) class", 9)
def _inv_exc_crs_rows(n: int):
    """The inv column of each block against exc + crs; the per-word
    statistics must confirm every word the columns flag."""
    for columns, count in class_blocks(class_spec(n, avoid=P321_231)):
        stats = zip(*stat_columns(columns, count, ("inv", "exc", "crs")))
        for lane, (inv, exc, crs) in enumerate(stats):
            if inv != exc + crs:
                w = tuple(c[lane] for c in columns)
                if inversion_count(w) == excedance_count(w) + crossing_count(w):
                    raise AssertionError(
                        f"inv-exc-crs: the block columns flag {format_word(w)}, "
                        "the per-word statistics do not"
                    )
                yield {"word": format_word(w)}


@_family("eq-dokos", "inv distribution over the (321,231) class is (1+q)^(n-1)", 9, first=1)
def _eq_dokos_family(n: int):
    yield {"n": n}, P321_231, {}, "inv", closed_form("dokos", n)


@_check("eq-chung", "adjudicate which class the printed des/inv rational series counts", 9)
def _run_eq_chung(bound: int):
    series = des_inv_series(bound)
    matches = {
        label: all(_dist(n, pats, "des,inv") == series.coefficient(n) for n in range(bound + 1))
        for label, pats in (("321,213", P321_213), ("321,231", P321_231))
    }
    matching = [label for label, ok in matches.items() if ok]
    record = {
        "printed_label": "321,213",
        "printed_label_matches": matches["321,213"],
        "matching_classes": matching,
    }
    return ("pass" if matching else "fail", [record], f"n<={bound}")


@_family("thm-5.2", "(1-qz)/(1-(1+q)z-(y-q)z^2) matches the joint exc/crs distribution", 9)
def _thm52_family(n: int):
    yield {"n": n}, P321_231, {}, "exc,crs", exc_crs_series(n).coefficient(n)


@_family("cor-5.3", "des and exc distributions both give sum C(n,2k) y^k", 9)
def _cor53_family(n: int):
    for stat in ("des", "exc"):
        yield {"n": n}, P321_231, {}, stat, closed_form("cor53", n)


def _noncrossing(n: int) -> int:
    return _dist(n, P321_231).coefficient(0)


@_identity("cor-5.4", "noncrossing counts follow the Fibonacci recurrence", 10)
def _cor54_rows(n: int):
    count = _noncrossing(n)
    if n >= 2 and count != _noncrossing(n - 1) + _noncrossing(n - 2):
        yield {"n": n, "counts": [_noncrossing(m) for m in range(n + 1)]}
    via_series = exc_crs_series(n).coefficient(n).evaluate(y=1, q=0)
    yield from _sides({"n": n}, series_q0=via_series, count=count)


# ---------------------------------------------------------------------------
# running the registry


def available_checks() -> tuple[str, ...]:
    return tuple(sorted(CHECKS))


class CheckBoundError(ValueError):
    """A bound under which a selected check would have nothing to compare, or
    over which it would enumerate past a size limit."""


def _refuse_bound(checks: Sequence[Check], bound: int | None) -> None:
    """Raise CheckBoundError naming every check that ``bound`` leaves nothing
    to compare, or else every check it would take past an enumeration limit."""
    if bound is None:
        return
    low = [c for c in checks if bound < c.min_bound]
    if low:
        needs = ", ".join(f"{c.check_id} needs a bound of at least {c.min_bound}" for c in low)
        them = "it" if len(low) == 1 else "them"
        raise CheckBoundError(f"check {needs}; bound {bound} leaves {them} nothing to compare")
    high = [c for c in checks if c.max_bound is not None and bound > c.max_bound]
    if high:
        takes = ", ".join(f"{c.check_id} takes a bound of at most {c.max_bound}" for c in high)
        them = "it" if len(high) == 1 else "them"
        raise CheckBoundError(
            f"check {takes}; bound {bound} would take {them} past the enumeration limit"
        )


def _lookup(check_id: str) -> Check:
    if check_id not in CHECKS:
        raise KeyError(f"unknown check id {check_id!r}")
    return CHECKS[check_id]


def run_check(check_id: str, bound: int | None = None) -> CheckResult:
    """Run one check.  A block kernel that disagrees with its per-word oracle
    (an ``AssertionError``) stops the check: a fail with the bound text
    "bound <b>, stopped" and the error as its one witness."""
    check = _lookup(check_id)
    _refuse_bound([check], bound)
    effective = check.default_bound if bound is None else bound
    start = time.perf_counter()
    try:
        status, witnesses, bound_text = check.run(effective)
    except AssertionError as exc:
        status, witnesses, bound_text = "fail", [{"error": str(exc)}], f"bound {effective}, stopped"
    return CheckResult(check_id, bound_text, status, tuple(witnesses), time.perf_counter() - start)


def _select(ids: Sequence[str] | str, bound: int | None) -> list[Check]:
    """The checks that ``ids`` names, each once, in check-id order; "all",
    wherever it appears, names every check.  Unknown ids and a bound too low
    or too high for a selected check are refused."""
    names = set()
    for check_id in [ids] if isinstance(ids, str) else ids:
        names.update(CHECKS if check_id == "all" else (check_id,))
    checks = [_lookup(c) for c in sorted(names)]
    _refuse_bound(checks, bound)
    return checks


def iter_checks(
    ids: Sequence[str] | str = "all", bound: int | None = None
) -> Iterator[CheckResult]:
    """Run the checks of :func:`_select`, refused before any runs, yielding
    each result, a stopped check's fail too (:func:`run_check`), as it ends."""
    return (run_check(c.check_id, bound) for c in _select(ids, bound))


def run_checks(
    ids: Sequence[str] | str = "all", bound: int | None = None
) -> list[CheckResult]:
    """Run a selection of checks and return results ordered by check id."""
    return list(iter_checks(ids, bound))


def suite_passed(results: Sequence[CheckResult]) -> bool:
    """Failures gate; findings (conj-2.7) do not."""
    return all(r.status != "fail" for r in results)
