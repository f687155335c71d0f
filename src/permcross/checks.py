"""The verification catalog: every identity the library implements is checked
here against brute-force enumeration, and the CLI `verify` subcommand simply
runs this registry.

Each check returns (status, witnesses, bound_text).  Status is "pass", "fail",
or "finding"; "finding" is reserved for the open symmetry question (check
conj-2.7), which reports a counterexample without ever gating the suite.
Checks are deterministic: random sampling uses fixed seeds derived from the
check id.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from math import comb
from typing import Callable, Iterable, Sequence

from .bijections import adjudicate_cor43, check_lemma, check_lemma42, phi, psi
from .distributions import (
    closed_form,
    crossing_cfrac_series,
    crossing_gf_by_class,
    crs_profile,
    des_inv_series,
    dist_poly,
    exc_crs_series,
    joint_poly,
    tableau_value,
    tableau_vs_class,
)
from .patterns import ClassSpec, class_size, class_spec, class_words
from .perm import (
    SYMMETRIES,
    apply_symmetry,
    apply_symmetry_to_patterns,
    crossing_count,
    crossings,
    excedance_count,
    inversion_count,
    nestings,
)
from .polynomials import QPoly, ZSeries

ALL_LENGTH3 = (
    (1, 2, 3),
    (1, 3, 2),
    (2, 1, 3),
    (2, 3, 1),
    (3, 1, 2),
    (3, 2, 1),
)

P123_132 = ((1, 2, 3), (1, 3, 2))
P123_213 = ((1, 2, 3), (2, 1, 3))
P213_312 = ((2, 1, 3), (3, 1, 2))
P132_312 = ((1, 3, 2), (3, 1, 2))
P213_231 = ((2, 1, 3), (2, 3, 1))
P132_231 = ((1, 3, 2), (2, 3, 1))
P321_231 = ((2, 3, 1), (3, 2, 1))
P321_213 = ((2, 1, 3), (3, 2, 1))

RANDOM_SAMPLE_SIZE = 1000
RANDOM_SAMPLE_N = 10


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    bound: str
    status: str  # pass | fail | finding
    witnesses: tuple
    runtime: float

    def to_json(self) -> dict:
        return {
            "check_id": self.check_id,
            "bound": self.bound,
            "status": self.status,
            "witnesses": list(self.witnesses),
            "runtime": self.runtime,
        }


@dataclass(frozen=True)
class Check:
    check_id: str
    description: str
    default_bound: int
    run: Callable[[int], tuple[str, list, str]]
    min_bound: int = 0  # below it the check has nothing to compare


def _pat_text(pats) -> str:
    return ",".join("".join(map(str, p)) for p in pats)


def _word_text(w) -> str:
    return "".join(map(str, w)) if len(w) <= 9 else ",".join(map(str, w))


def _random_words(seed_tag: str, n: int, count: int) -> list[tuple[int, ...]]:
    rng = random.Random(f"permcross:{seed_tag}")
    base = list(range(1, n + 1))
    out = []
    for _ in range(count):
        rng.shuffle(base)
        out.append(tuple(base))
    return out


@lru_cache(maxsize=None)
def _word_set(n: int, pats: tuple) -> frozenset:
    return frozenset(class_words(ClassSpec(n, pats)))


def _pattern_subsets(max_size: int = 2) -> list[tuple]:
    subsets: list[tuple] = [()]
    for size in range(1, max_size + 1):
        subsets.extend(combinations(ALL_LENGTH3, size))
    return subsets


# ---------------------------------------------------------------------------
# individual checks (alphabetical by id within sections is not required; the
# registry is sorted on output)


def _run_fig1(bound: int):
    word = (4, 7, 3, 5, 1, 2, 6)
    crs, crs_pairs = crossings(word)
    nes, nes_pairs = nestings(word)
    want_crs = {(1, 2), (5, 6), (6, 7)}
    want_nes = {(2, 4), (3, 5), (3, 6)}
    ok = crs == 3 and nes == 3 and set(crs_pairs) == want_crs and set(nes_pairs) == want_nes
    witnesses = []
    if not ok:
        witnesses.append(
            {
                "word": _word_text(word),
                "crs": crs,
                "crs_pairs": sorted(crs_pairs),
                "nes": nes,
                "nes_pairs": sorted(nes_pairs),
            }
        )
    return ("pass" if ok else "fail", witnesses, "n=7")


def _run_catalan(bound: int):
    witnesses = []
    for pat in ALL_LENGTH3:
        for n in range(bound + 1):
            size = class_size(class_spec(n, avoid=(pat,)))
            want = comb(2 * n, n) // (n + 1)
            if size != want:
                witnesses.append(
                    {"pattern": _pat_text((pat,)), "n": n, "size": size, "expected": want}
                )
    return ("pass" if not witnesses else "fail", witnesses, f"n<={bound}")


def _run_eq1(bound: int):
    witnesses = []
    for n in range(bound + 1):
        polys = {
            _pat_text((pat,)): dist_poly(class_spec(n, avoid=(pat,)), "crs")[0]
            for pat in ((3, 2, 1), (1, 3, 2), (2, 1, 3))
        }
        if len({p.to_text() for p in polys.values()}) != 1:
            witnesses.append({"n": n, **{k: p.to_text() for k, p in polys.items()}})
    return ("pass" if not witnesses else "fail", witnesses, f"n<={bound}")


def _run_cfrac321(bound: int):
    series = crossing_cfrac_series(bound)
    witnesses = []
    for n in range(bound + 1):
        brute = dist_poly(class_spec(n, avoid=((3, 2, 1),)), "crs")[0]
        if series.coefficient(n) != brute:
            witnesses.append(
                {
                    "n": n,
                    "cfrac": series.coefficient(n).to_text(),
                    "brute": brute.to_text(),
                }
            )
    return ("pass" if not witnesses else "fail", witnesses, f"n<={bound}")


def _run_thm11(bound: int):
    witnesses = []
    for n in range(2, bound + 1):
        want = closed_form("main1", n)
        got_a = dist_poly(class_spec(n, avoid=P123_132, one_at=2), "crs")[0]
        got_b = dist_poly(class_spec(n, avoid=P123_213, ends_with=2), "crs")[0]
        if got_a != want or got_b != want:
            witnesses.append(
                {
                    "n": n,
                    "one_at_2": got_a.to_text(),
                    "ends_with_2": got_b.to_text(),
                    "expected": want.to_text(),
                }
            )
    return ("pass" if not witnesses else "fail", witnesses, f"n<={bound}")


def _run_thm12(bound: int):
    witnesses = []
    for n in range(bound + 1):
        for k in range(n + 1):
            ok, witness = tableau_vs_class(n, k)
            if not ok:
                witnesses.append(witness)
                if len(witnesses) >= 5:
                    return ("fail", witnesses, f"n<={bound}")
    return ("pass" if not witnesses else "fail", witnesses, f"n<={bound}")


TABLE1_CELLS = {
    (0, 0): "1",
    (1, 0): "1",
    (1, 1): "1",
    (2, 0): "2",
    (2, 1): "1",
    (2, 2): "1",
    (3, 0): "4",
    (3, 1): "2",
    (3, 2): "1",
    (3, 3): "1",
    (4, 0): "7+q",
    (4, 1): "3+q",
    (4, 2): "1+q",
    (4, 3): "1",
    (5, 0): "11+4q+q^2",
    (5, 1): "4+3q+q^2",
    (5, 2): "1+2q+q^2",
    (5, 3): "1+q",
    (6, 0): "16+9q+5q^2+2q^3",
    (6, 1): "5+5q+4q^2+2q^3",
    (6, 2): "1+2q+3q^2+2q^3",
    (6, 3): "1+q+q^2+q^3",
}


def _run_table1(bound: int):
    witnesses = []
    for (n, k), text in sorted(TABLE1_CELLS.items()):
        got = tableau_value(n, k).to_text()
        if got != text:
            witnesses.append({"n": n, "k": k, "expected": text, "actual": got})
    for n in range(bound + 1):
        for k in range(n):
            got = tableau_value(n, k).evaluate(1)
            if got != 2 ** (n - 1 - k):
                witnesses.append(
                    {"n": n, "k": k, "at_q1": got, "expected": 2 ** (n - 1 - k)}
                )
    return (
        "pass" if not witnesses else "fail",
        witnesses,
        f"22 cells, q=1 check n<={bound}",
    )


def _run_cor45(bound: int):
    witnesses = []
    for n in range(bound + 1):
        got = tableau_value(n, 0).evaluate(0)
        want = comb(n, 2) + 1
        if got != want:
            witnesses.append({"n": n, "at_q0": got, "expected": want})
    return ("pass" if not witnesses else "fail", witnesses, f"n<={bound}")


def _run_rel3(bound: int):
    witnesses = []
    for pats in _pattern_subsets():
        image = apply_symmetry_to_patterns("rci", pats)
        for n in range(1, bound + 1):
            lhs = crs_profile(n, pats)
            rhs = crs_profile(n, image)
            for k in range(1, n + 1):
                if lhs.by_pos1[n - k] != rhs.by_last[k - 1]:
                    witnesses.append(
                        {
                            "patterns": _pat_text(pats),
                            "n": n,
                            "k": k,
                            "one_at_side": lhs.by_pos1[n - k].to_text(),
                            "ends_with_side": rhs.by_last[k - 1].to_text(),
                        }
                    )
                    if len(witnesses) >= 5:
                        return ("fail", witnesses, f"n<={bound}")
    return ("pass" if not witnesses else "fail", witnesses, f"n<={bound}, |T|<=2")


def _run_sym_transport(bound: int):
    witnesses = []
    for pats in _pattern_subsets():
        for n in range(1, bound + 1):
            source = _word_set(n, pats)
            for tag in SYMMETRIES:
                mapped = frozenset(apply_symmetry(tag, w) for w in source)
                target = _word_set(n, apply_symmetry_to_patterns(tag, pats))
                if mapped != target:
                    witnesses.append(
                        {"patterns": _pat_text(pats), "n": n, "symmetry": tag}
                    )
                    if len(witnesses) >= 5:
                        return ("fail", witnesses, f"n<={bound}")
    return ("pass" if not witnesses else "fail", witnesses, f"n<={bound}, |T|<=2")


def _lemma_sweep(bound: int, lemma: str, evaluate) -> tuple[str, list, str]:
    """Exhaustive n <= bound plus the fixed random batch at n=10."""
    witnesses = []
    for n in range(1, bound + 1):
        for w in permutations(range(1, n + 1)):
            for residual in evaluate(w):
                if not residual.passed:
                    witnesses.append(residual.to_json())
                    if len(witnesses) >= 5:
                        return ("fail", witnesses, f"n<={bound}")
    for w in _random_words(lemma, RANDOM_SAMPLE_N, RANDOM_SAMPLE_SIZE):
        for residual in evaluate(w):
            if not residual.passed:
                witnesses.append(residual.to_json())
                if len(witnesses) >= 5:
                    break
    bound_text = f"n<={bound} exhaustive, {RANDOM_SAMPLE_SIZE} random at n={RANDOM_SAMPLE_N}"
    return ("pass" if not witnesses else "fail", witnesses, bound_text)


def _run_lem21(bound: int):
    return _lemma_sweep(bound, "lem-2.1", lambda w: (check_lemma("lem-2.1", w),))


def _run_lem22(bound: int):
    return _lemma_sweep(bound, "lem-2.2", lambda w: (check_lemma("lem-2.2", w),))


def _run_lem24(bound: int):
    return _lemma_sweep(
        bound,
        "lem-2.4",
        lambda w: (check_lemma("lem-2.4", w, image="i"), check_lemma("lem-2.4", w, image="rc")),
    )


def _run_lem42(bound: int):
    return _lemma_sweep(
        bound,
        "lem-4.2",
        lambda w: tuple(check_lemma42(w, j) for j in range(1, len(w) + 1)),
    )


def _run_phi_psi(bound: int):
    witnesses = []
    for n in range(bound + 1):
        group = list(permutations(range(1, n + 1)))
        for k in range(1, n + 2):
            for name, fn in (("phi", phi), ("psi", psi)):
                images = {fn(k, w).word for w in group}
                bad_pos = [w for w in images if w[n + 1 - k] != 1]
                if len(images) != len(group) or bad_pos:
                    witnesses.append(
                        {
                            "map": name,
                            "n": n,
                            "k": k,
                            "distinct_images": len(images),
                            "expected": len(group),
                            "misplaced": [_word_text(w) for w in bad_pos[:3]],
                        }
                    )
    return ("pass" if not witnesses else "fail", witnesses, f"n<={bound}, all k")


def _run_prop25(bound: int):
    witnesses = []
    for n in range(1, bound + 1):
        for w in permutations(range(1, n + 1)):
            base = crossing_count(w)
            ok = (
                crossing_count(phi(1, w).word) == base
                and crossing_count(psi(1, w).word) == base
                and crossing_count(phi(2, w).word)
                == base + 1 - (1 if w[-1] == n else 0)
            )
            if not ok:
                witnesses.append({"word": _word_text(w)})
                if len(witnesses) >= 5:
                    return ("fail", witnesses, f"n<={bound}")
    return ("pass" if not witnesses else "fail", witnesses, f"n<={bound}")


def _f_full(n: int) -> QPoly:
    return QPoly.one() if n == 0 else crs_profile(n).total


def _run_thm26(bound: int):
    witnesses = []
    q = QPoly.var()
    one = QPoly.one()
    for n in range(1, bound + 1):
        prof = crs_profile(n + 1)
        first = prof.by_pos1[n]
        want_first = _f_full(n)
        second = prof.by_pos1[n - 1]
        want_second = q * _f_full(n) + (one - q) * _f_full(n - 1)
        if first != want_first or second != want_second:
            witnesses.append(
                {
                    "n": n,
                    "one_at_1": first.to_text(),
                    "expected_1": want_first.to_text(),
                    "one_at_2": second.to_text(),
                    "expected_2": want_second.to_text(),
                }
            )
    return ("pass" if not witnesses else "fail", witnesses, f"n<={bound}")


def _run_conj27(bound: int):
    findings = []
    for n in range(1, bound + 1):
        prof = crs_profile(n)
        for k in range(1, n + 1):
            mirror = n + 1 - k
            if prof.by_pos1[n - k] != prof.by_pos1[n - mirror]:
                findings.append(
                    {
                        "n": n,
                        "k": k,
                        "dist_k": prof.by_pos1[n - k].to_text(),
                        "dist_mirror": prof.by_pos1[n - mirror].to_text(),
                    }
                )
    status = "pass" if not findings else "finding"
    return (status, findings, f"n<={bound}")


def _run_thm28(bound: int):
    f312 = crossing_gf_by_class(((3, 1, 2),), bound)
    f231 = crossing_gf_by_class(((2, 3, 1),), bound)
    one = ZSeries.constant(QPoly, bound)
    product = f312 * (one - f231.times_z())
    witnesses = []
    for n in range(bound + 1):
        want = QPoly.one() if n == 0 else QPoly.zero()
        if product.coefficient(n) != want:
            witnesses.append({"n": n, "coefficient": product.coefficient(n).to_text()})
    return ("pass" if not witnesses else "fail", witnesses, f"mod z^{bound + 1}")


def _run_thm31(bound: int):
    witnesses = []
    for n in range(1, bound + 1):
        want = closed_form("thm31", n)
        for pats in (P123_132, P123_213):
            got = dist_poly(class_spec(n, avoid=pats), "crs")[0]
            if got != want:
                witnesses.append(
                    {
                        "n": n,
                        "patterns": _pat_text(pats),
                        "actual": got.to_text(),
                        "expected": want.to_text(),
                    }
                )
    return ("pass" if not witnesses else "fail", witnesses, f"n<={bound}")


def _run_cor32(bound: int):
    witnesses = []
    for n in range(1, bound + 1):
        want = closed_form("cor32", n)
        for pats in (P123_132, P123_213):
            got = dist_poly(class_spec(n, avoid=pats), "crs")[0]
            if got != want:
                witnesses.append(
                    {"n": n, "patterns": _pat_text(pats), "actual": got.to_text()}
                )
    return ("pass" if not witnesses else "fail", witnesses, f"n<={bound}")


def _run_cor34(bound: int):
    witnesses = []
    for n in range(2, bound + 1):
        want = closed_form("cor34", n)
        got_a = dist_poly(class_spec(n, avoid=P123_132, one_at=2), "crs")[0]
        got_b = dist_poly(class_spec(n, avoid=P123_213, ends_with=2), "crs")[0]
        if got_a != want or got_b != want:
            witnesses.append({"n": n, "expected": want.to_text()})
    return ("pass" if not witnesses else "fail", witnesses, f"n<={bound}")


def _run_eq46(bound: int):
    witnesses = []
    q = QPoly.var()
    one = QPoly.one()
    for n in range(2, bound + 1):
        whole = dist_poly(class_spec(n, avoid=P123_132), "crs")[0]
        at_last = dist_poly(class_spec(n, avoid=P123_132, one_at=1), "crs")[0]
        at_second = dist_poly(class_spec(n, avoid=P123_132, one_at=2), "crs")[0]
        prev = dist_poly(class_spec(n - 1, avoid=P123_132), "crs")[0]
        checks = {
            "partition": whole == at_last + at_second,
            "last_slot": at_last == prev,
            "second_slot": at_second == q * prev + one - q,
        }
        if not all(checks.values()):
            witnesses.append({"n": n, **{k: bool(v) for k, v in checks.items()}})
    return ("pass" if not witnesses else "fail", witnesses, f"n<={bound}")


def _run_eq7(bound: int):
    witnesses = []
    for n in range(2, bound + 1):
        whole = dist_poly(class_spec(n, avoid=P213_312), "crs")[0]
        starts = dist_poly(class_spec(n, avoid=P213_312, one_at=n), "crs")[0]
        ends = dist_poly(class_spec(n, avoid=P213_312, one_at=1), "crs")[0]
        if whole != starts + ends:
            witnesses.append(
                {
                    "n": n,
                    "whole": whole.to_text(),
                    "split": (starts + ends).to_text(),
                }
            )
    return ("pass" if not witnesses else "fail", witnesses, f"n<={bound}")


def _run_prop41(bound: int):
    witnesses = []
    for n in range(1, bound + 1):
        starts = dist_poly(class_spec(n, avoid=P213_312, one_at=n), "crs")[0]
        prev = dist_poly(class_spec(n - 1, avoid=P213_312), "crs")[0]
        if starts != prev:
            witnesses.append({"n": n, "starts": starts.to_text(), "prev": prev.to_text()})
    return ("pass" if not witnesses else "fail", witnesses, f"n<={bound}")


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


def _run_prop44(bound: int):
    witnesses = []
    for n in range(2, bound + 1):
        for k in range(1, n - 1):
            lhs = dist_poly(class_spec(n, avoid=P213_312, tail=k), "crs")[0]
            prev = dist_poly(class_spec(n - 1, avoid=P213_312, tail=k), "crs")[0]
            nxt = dist_poly(class_spec(n, avoid=P213_312, tail=k + 1), "crs")[0]
            rhs = QPoly.monomial(min(k - 1, n - 1 - k)) * prev + nxt
            if lhs != rhs:
                witnesses.append(
                    {"n": n, "k": k, "lhs": lhs.to_text(), "rhs": rhs.to_text()}
                )
    return ("pass" if not witnesses else "fail", witnesses, f"n<={bound}, 1<=k<=n-2")


def _run_eq8(bound: int):
    witnesses = []
    one = QPoly.one()
    for n in range(1, bound + 1):
        tail_n = dist_poly(class_spec(n, avoid=P213_312, tail=n), "crs")[0]
        ok = tail_n == one
        if n >= 2:
            tail_n1 = dist_poly(class_spec(n, avoid=P213_312, tail=n - 1), "crs")[0]
            whole = dist_poly(class_spec(n, avoid=P213_312), "crs")[0]
            prev = dist_poly(class_spec(n - 1, avoid=P213_312), "crs")[0]
            first = dist_poly(class_spec(n, avoid=P213_312, tail=1), "crs")[0]
            ok = ok and tail_n1 == one and whole == prev + first
        for k in range(1, n - 1):
            lhs = dist_poly(class_spec(n, avoid=P213_312, tail=k), "crs")[0]
            prev_k = dist_poly(class_spec(n - 1, avoid=P213_312, tail=k), "crs")[0]
            nxt = dist_poly(class_spec(n, avoid=P213_312, tail=k + 1), "crs")[0]
            ok = ok and lhs == QPoly.monomial(min(k - 1, n - 1 - k)) * prev_k + nxt
        if not ok:
            witnesses.append({"n": n})
    return ("pass" if not witnesses else "fail", witnesses, f"n<={bound}")


def _run_thm46(bound: int):
    witnesses = []
    for n in range(bound + 1):
        want = tableau_value(n + 1, 1)
        for pats in (P213_231, P132_231):
            got = dist_poly(class_spec(n, avoid=pats), "crs")[0]
            if got != want:
                witnesses.append(
                    {
                        "n": n,
                        "patterns": _pat_text(pats),
                        "actual": got.to_text(),
                        "expected": want.to_text(),
                    }
                )
    return ("pass" if not witnesses else "fail", witnesses, f"n<={bound}")


def _run_prop51(bound: int):
    witnesses = []
    for n in range(bound + 1):
        avoiders = list(class_words(class_spec(n, avoid=P321_231)))
        bounded_drop = list(class_words(class_spec(n, maxdrop_le=1)))
        if avoiders != bounded_drop:
            only_avoid = set(avoiders) - set(bounded_drop)
            only_drop = set(bounded_drop) - set(avoiders)
            witnesses.append(
                {
                    "n": n,
                    "only_avoiders": [_word_text(w) for w in sorted(only_avoid)][:3],
                    "only_maxdrop": [_word_text(w) for w in sorted(only_drop)][:3],
                }
            )
    return ("pass" if not witnesses else "fail", witnesses, f"n<={bound}")


def _run_inv_exc_crs(bound: int):
    witnesses = []
    for n in range(bound + 1):
        for w in class_words(class_spec(n, avoid=P321_231)):
            if inversion_count(w) != excedance_count(w) + crossing_count(w):
                witnesses.append({"word": _word_text(w)})
                if len(witnesses) >= 5:
                    return ("fail", witnesses, f"n<={bound}")
    return ("pass" if not witnesses else "fail", witnesses, f"n<={bound}")


def _run_eq_dokos(bound: int):
    witnesses = []
    for n in range(1, bound + 1):
        got = dist_poly(class_spec(n, avoid=P321_231), "inv")[0]
        want = closed_form("dokos", n)
        if got != want:
            witnesses.append({"n": n, "actual": got.to_text(), "expected": want.to_text()})
    return ("pass" if not witnesses else "fail", witnesses, f"n<={bound}")


def _run_eq_chung(bound: int):
    series = des_inv_series(bound)
    candidates = {
        "321,213": P321_213,
        "321,231": P321_231,
    }
    matches = {}
    for label, pats in candidates.items():
        ok = True
        for n in range(bound + 1):
            if joint_poly(class_spec(n, avoid=pats), "des", "inv")[0] != series.coefficient(n):
                ok = False
                break
        matches[label] = ok
    matching = [label for label, ok in matches.items() if ok]
    record = {
        "printed_label": "321,213",
        "printed_label_matches": matches["321,213"],
        "matching_classes": matching,
    }
    status = "pass" if matching else "fail"
    return (status, [record], f"n<={bound}")


def _run_thm52(bound: int):
    series = exc_crs_series(bound)
    witnesses = []
    for n in range(bound + 1):
        brute = joint_poly(class_spec(n, avoid=P321_231), "exc", "crs")[0]
        if brute != series.coefficient(n):
            witnesses.append(
                {
                    "n": n,
                    "series": series.coefficient(n).to_text(),
                    "brute": brute.to_text(),
                }
            )
    return ("pass" if not witnesses else "fail", witnesses, f"n<={bound}")


def _run_cor53(bound: int):
    witnesses = []
    for n in range(bound + 1):
        want = closed_form("cor53", n)
        got_des = dist_poly(class_spec(n, avoid=P321_231), "des")[0]
        got_exc = dist_poly(class_spec(n, avoid=P321_231), "exc")[0]
        if got_des != want or got_exc != want:
            witnesses.append(
                {
                    "n": n,
                    "des": got_des.to_text(),
                    "exc": got_exc.to_text(),
                    "expected": want.to_text("y"),
                }
            )
    return ("pass" if not witnesses else "fail", witnesses, f"n<={bound}")


def _run_cor54(bound: int):
    counts = [
        dist_poly(class_spec(n, avoid=P321_231), "crs")[0].coefficient(0)
        for n in range(bound + 1)
    ]
    series = exc_crs_series(bound)
    witnesses = []
    for n in range(2, bound + 1):
        if counts[n] != counts[n - 1] + counts[n - 2]:
            witnesses.append({"n": n, "counts": counts[: n + 1]})
    for n in range(bound + 1):
        via_series = series.coefficient(n).evaluate(y=1, q=0)
        if via_series != counts[n]:
            witnesses.append({"n": n, "series_q0": via_series, "count": counts[n]})
    return ("pass" if not witnesses else "fail", witnesses, f"n<={bound}")


# ---------------------------------------------------------------------------
# registry


def _entries() -> list[Check]:
    return [
        Check("fig-1", "crossing/nesting counts and witness pairs of 4735126", 7, _run_fig1),
        Check("catalan", "single length-3 pattern classes have Catalan sizes", 9, _run_catalan),
        Check("eq-1", "crs distribution agrees across the 321/132/213 classes", 9, _run_eq1),
        Check(
            "cfrac-321",
            "continued fraction with levels q^floor((m-1)/2) vs brute force crs over 321-avoiders",
            9,
            _run_cfrac321,
        ),
        Check(
            "thm-1.1",
            "crs over (123,132)-avoiders with 1 second-to-last (and the ends-with-2 twin) is (1+q)^(n-2)",
            10,
            _run_thm11,
            min_bound=2,
        ),
        Check(
            "thm-1.2",
            "tableau cells equal tail-constrained crs distributions for (213,312) and (132,312)",
            9,
            _run_thm12,
        ),
        Check("table-1", "printed tableau cells and the powers-of-two specialization", 12, _run_table1),
        Check("cor-4.5", "tableau column 0 at q=0 gives the central polygonal numbers", 12, _run_cor45),
        Check(
            "rel-3",
            "one-at-k distribution equals ends-with-k distribution of the rci-image class",
            8,
            _run_rel3,
            min_bound=1,
        ),
        Check(
            "sym-transport",
            "f(S_n(T)) = S_n(f(T)) for all eight symmetries",
            7,
            _run_sym_transport,
            min_bound=1,
        ),
        Check("lem-2.1", "appending a new minimum changes crs by ut - lt", 7, _run_lem21),
        Check(
            "lem-2.2",
            "inserting a new minimum second-to-last changes crs by 1 - [sigma(n)=n] + ut - lt",
            7,
            _run_lem22,
        ),
        Check("lem-2.4", "inverse and rc-image change crs by ut - lt", 7, _run_lem24),
        Check("lem-4.2", "front insertion changes crs by |A|+|B|-|C|", 7, _run_lem42),
        Check("phi-psi", "phi_k and psi_k are injective into the one-at-k classes", 7, _run_phi_psi),
        Check(
            "prop-2.5",
            "phi_1/psi_1 preserve crs; phi_2 adds 1 unless the last letter is the max",
            8,
            _run_prop25,
            min_bound=1,
        ),
        Check(
            "thm-2.6",
            "one-at-1 distribution is F_n; one-at-2 is qF_n + (1-q)F_(n-1)",
            8,
            _run_thm26,
            min_bound=1,
        ),
        Check(
            "conj-2.7",
            "open symmetry: one-at-k vs one-at-(n+1-k) distributions (finding, never gates)",
            9,
            _run_conj27,
            min_bound=1,
        ),
        Check("thm-2.8", "F(312) * (1 - z F(231)) = 1 with enumerated coefficients", 9, _run_thm28),
        Check(
            "thm-3.1",
            "crs over (123,132)- and (123,213)-avoiders is ((1+q)^(n-1)-1+q)/q",
            10,
            _run_thm31,
            min_bound=1,
        ),
        Check(
            "cor-3.2",
            "coefficient k of that distribution is [k=0] + C(n-1,k+1)",
            10,
            _run_cor32,
            min_bound=1,
        ),
        Check(
            "cor-3.4",
            "coefficient k of the one-at-2 distribution is C(n-2,k)",
            10,
            _run_cor34,
            min_bound=2,
        ),
        Check(
            "eq-4-6",
            "position-of-1 partition of the (123,132) class and its two slot identities",
            9,
            _run_eq46,
            min_bound=2,
        ),
        Check(
            "eq-7",
            "(213,312)-avoiders split by starting or ending with 1",
            9,
            _run_eq7,
            min_bound=2,
        ),
        Check(
            "prop-4.1",
            "members starting with 1 reproduce the size-(n-1) distribution",
            9,
            _run_prop41,
            min_bound=1,
        ),
        Check(
            "cor-4.3",
            "adjudicate the two printed increment exponents for front insertion on tail classes",
            9,
            _run_cor43,
            min_bound=1,
        ),
        Check(
            "prop-4.4",
            "tail-class recurrence with exponent min(k-1, n-1-k) against enumeration",
            9,
            _run_prop44,
            min_bound=3,
        ),
        Check(
            "eq-8",
            "the full recurrence system for the (213,312) class",
            9,
            _run_eq8,
            min_bound=1,
        ),
        Check(
            "thm-4.6",
            "crs over (213,231)- and (132,231)-avoiders equals tableau cell (n+1, 1)",
            9,
            _run_thm46,
        ),
        Check("prop-5.1", "(321,231)-avoiders are exactly the maxdrop<=1 permutations", 9, _run_prop51),
        Check("inv-exc-crs", "inv = exc + crs on the (321,231) class", 9, _run_inv_exc_crs),
        Check(
            "eq-dokos",
            "inv distribution over the (321,231) class is (1+q)^(n-1)",
            9,
            _run_eq_dokos,
            min_bound=1,
        ),
        Check(
            "eq-chung",
            "adjudicate which class the printed des/inv rational series counts",
            9,
            _run_eq_chung,
        ),
        Check(
            "thm-5.2",
            "(1-qz)/(1-(1+q)z-(y-q)z^2) matches the joint exc/crs distribution",
            9,
            _run_thm52,
        ),
        Check("cor-5.3", "des and exc distributions both give sum C(n,2k) y^k", 9, _run_cor53),
        Check("cor-5.4", "noncrossing counts follow the Fibonacci recurrence", 10, _run_cor54),
    ]


CHECKS: dict[str, Check] = {c.check_id: c for c in _entries()}


def available_checks() -> tuple[str, ...]:
    return tuple(sorted(CHECKS))


class CheckBoundError(ValueError):
    """A bound under which a selected check would have nothing to compare."""


def _refuse_low_bound(checks: Iterable[Check], bound: int | None) -> None:
    """Raise CheckBoundError naming every check that ``bound`` leaves nothing to compare."""
    low = [c for c in checks if bound is not None and bound < c.min_bound]
    if low:
        needs = ", ".join(f"{c.check_id} needs a bound of at least {c.min_bound}" for c in low)
        them = "it" if len(low) == 1 else "them"
        raise CheckBoundError(f"check {needs}; bound {bound} leaves {them} nothing to compare")


def run_check(check_id: str, bound: int | None = None) -> CheckResult:
    if check_id not in CHECKS:
        raise KeyError(f"unknown check id {check_id!r}")
    check = CHECKS[check_id]
    _refuse_low_bound([check], bound)
    effective = check.default_bound if bound is None else bound
    start = time.perf_counter()
    status, witnesses, bound_text = check.run(effective)
    elapsed = time.perf_counter() - start
    return CheckResult(check_id, bound_text, status, tuple(witnesses), elapsed)


def run_checks(
    ids: Sequence[str] | str = "all", bound: int | None = None
) -> list[CheckResult]:
    """Run a selection of checks and return results ordered by check id."""
    if ids == "all" or ids == ["all"]:
        selected: Iterable[str] = available_checks()
    else:
        selected = ids
        for check_id in selected:
            if check_id not in CHECKS:
                raise KeyError(f"unknown check id {check_id!r}")
    selected = sorted(selected)
    _refuse_low_bound([CHECKS[c] for c in selected], bound)  # before any check runs
    return [run_check(check_id, bound) for check_id in selected]


def suite_passed(results: Sequence[CheckResult]) -> bool:
    """Failures gate; findings (conj-2.7) do not."""
    return all(r.status != "fail" for r in results)
