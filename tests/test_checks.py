import hashlib
import json
import random
import re
from collections import Counter
from itertools import permutations
from pathlib import Path

import jsonschema
import pytest

from permcross import bijections, checks, distributions, patterns, perm
from permcross.bijections import ResidualReport
from permcross.checks import (
    CHECKS,
    WITNESS_CAP,
    Check,
    CheckBoundError,
    CheckResult,
    available_checks,
    run_check,
    run_checks,
    suite_passed,
)
from permcross.cli import main
from permcross.distributions import CrsProfile
from permcross.perm import (
    SYMMETRIES,
    apply_symmetry,
    insert_block,
    inversion_count,
    stat_columns,
    symmetry_images,
)
from permcross.polynomials import QPoly, ZSeries, cfrac_expand

SCHEMA = json.loads(
    (Path(checks.__file__).parent / "schemas" / "check_result.schema.json").read_text()
)


def _with_run(check, run):
    """``check`` with ``run`` in place of its own, built by the constructor."""
    return Check(
        check.check_id, check.description, check.default_bound, run,
        check.min_bound, check.reads, check.reach,
    )

# every numbered statement in scope resolves to a registered check
REQUIRED_CHECK_IDS = [
    "fig-1",
    "catalan",
    "eq-1",
    "cfrac-321",
    "thm-1.1",
    "thm-1.2",
    "table-1",
    "rel-3",
    "sym-transport",
    "lem-2.1",
    "lem-2.2",
    "lem-2.4",
    "phi-psi",
    "prop-2.5",
    "thm-2.6",
    "conj-2.7",
    "thm-2.8",
    "thm-3.1",
    "cor-3.2",
    "cor-3.4",
    "eq-4-6",
    "eq-7",
    "prop-4.1",
    "lem-4.2",
    "cor-4.3",
    "prop-4.4",
    "eq-8",
    "cor-4.5",
    "thm-4.6",
    "prop-5.1",
    "inv-exc-crs",
    "eq-chung",
    "eq-dokos",
    "thm-5.2",
    "cor-5.3",
    "cor-5.4",
]


def test_registry_is_complete():
    missing = [check_id for check_id in REQUIRED_CHECK_IDS if check_id not in CHECKS]
    assert not missing
    assert set(available_checks()) == set(REQUIRED_CHECK_IDS)


def test_unknown_check_id():
    with pytest.raises(KeyError):
        run_check("thm-9.9")
    with pytest.raises(KeyError):
        run_checks(["fig-1", "nope"])


# (check_id, bound text, status) of every check at bound 5
PASS_AT_BOUND_5 = [
    ("catalan", "n<=5", "pass"),
    ("cfrac-321", "n<=5", "pass"),
    ("conj-2.7", "n<=5", "pass"),
    ("cor-3.2", "n<=5", "pass"),
    ("cor-3.4", "n<=5", "pass"),
    ("cor-4.3", "n<=5, all k", "pass"),
    ("cor-4.5", "n<=5", "pass"),
    ("cor-5.3", "n<=5", "pass"),
    ("cor-5.4", "n<=5", "pass"),
    ("eq-1", "n<=5", "pass"),
    ("eq-4-6", "n<=5", "pass"),
    ("eq-7", "n<=5", "pass"),
    ("eq-8", "n<=5", "pass"),
    ("eq-chung", "n<=5", "pass"),
    ("eq-dokos", "n<=5", "pass"),
    ("fig-1", "n=7", "pass"),
    ("inv-exc-crs", "n<=5", "pass"),
    ("lem-2.1", "n<=5 exhaustive, 1000 random at n=10", "pass"),
    ("lem-2.2", "n<=5 exhaustive, 1000 random at n=10", "pass"),
    ("lem-2.4", "n<=5 exhaustive, 1000 random at n=10", "pass"),
    ("lem-4.2", "n<=5 exhaustive, 1000 random at n=10", "pass"),
    ("phi-psi", "n<=5, all k", "pass"),
    ("prop-2.5", "n<=5", "pass"),
    ("prop-4.1", "n<=5", "pass"),
    ("prop-4.4", "n<=5, 1<=k<=n-2", "pass"),
    ("prop-5.1", "n<=5", "pass"),
    ("rel-3", "n<=5, |T|<=2", "pass"),
    ("sym-transport", "n<=5, |T|<=2", "pass"),
    ("table-1", "22 cells, q=1 check n<=5", "pass"),
    ("thm-1.1", "n<=5", "pass"),
    ("thm-1.2", "n<=5", "pass"),
    ("thm-2.6", "n<=5", "pass"),
    ("thm-2.8", "mod z^6", "pass"),
    ("thm-3.1", "n<=5", "pass"),
    ("thm-4.6", "n<=5", "pass"),
    ("thm-5.2", "n<=5", "pass"),
]


def test_all_checks_pass_at_small_bound():
    results = run_checks("all", bound=5)
    assert [r.check_id for r in results] == sorted(REQUIRED_CHECK_IDS)
    assert [(r.check_id, r.bound, r.status) for r in results] == PASS_AT_BOUND_5
    for r in results:
        jsonschema.validate(r.to_json(), SCHEMA)


def _failing_lemma(lemma, w, **image):
    return ResidualReport(lemma, tuple(w), (), 0, 1, False)


def _failing_lemma42(w, j):
    return ResidualReport("lem-4.2", tuple(w), (("j", j),), 0, 1, False)


def _failing_residuals(law, columns, count):
    """Block residuals whose right side is one too high in every lane."""
    sides = bijections.residual_columns(law, columns, count)
    return [(lhs, [v + 1 for v in rhs]) for lhs, rhs in sides]


def _phi_one_slot_early(k, w):
    # the printed worked examples put the 1 one slot early
    return bijections.insert_of_inverse(w, max(len(w) + 1 - k, 1), 1)


def _psi_one_slot_early(k, w):
    return bijections.insert(apply_symmetry("rc", w), max(len(w) + 1 - k, 1), 1)


def _insert_one_slot_early(columns, count, a, b):
    # the per-k insert of phi-psi, one slot early like the maps above
    return insert_block(columns, count, max(a - 1, 1), b)


def _insert_leaving_b(columns, count, a, b):
    # bumps only the letters >= b+1: b stays, so every image holds b twice
    image = [c.translate(perm._bump_table(b + 1)) for c in columns]
    image.insert(a - 1, bytes((b,)) * count)
    return image


def _identity_map(tag, w):
    return tuple(w)


def _identity_images(columns, count):
    return {tag: columns for tag in SYMMETRIES}


def _rc_as_inverse(columns, count):
    # the block phi_k built from psi_k's base, to go with phi -> psi per word
    images = symmetry_images(columns, count)
    return {**images, "i": images["rc"]}


def _asymmetric_profile(n, forbidden=(), bound=None):
    # every position of 1 gets its own distribution q^p
    cuts = tuple(map(QPoly.monomial, range(1, n + 1)))
    return CrsProfile(n, cuts, cuts, sum(cuts, QPoly.zero()))


def _inv_one_high(columns, count, stats):
    values = stat_columns(columns, count, stats)
    return [[v + (stat == "inv") for v in column] for stat, column in zip(stats, values)]


def _one_level_early(order):
    # the continued fraction of 321-avoiders with levels q^floor(m/2), not q^floor((m-1)/2)
    return cfrac_expand([QPoly.monomial(m // 2) for m in range(1, order + 1)], order)


_DIST = checks._dist


def _cuts_plus_one(n, pats, stat="crs", **constraint):
    # every class cut by a constraint counts one word too many, at crs 0
    poly = _DIST(n, pats, stat, **constraint)
    return poly + QPoly.one() if any(v is not None for v in constraint.values()) else poly


def _class_213_times_q(n, pats, stat="crs", **constraint):
    poly = _DIST(n, pats, stat, **constraint)
    return poly * QPoly.var() if pats == ((2, 1, 3),) else poly


def _dist_times_q(n, pats, stat="crs", **constraint):
    return _DIST(n, pats, stat, **constraint) * QPoly.var()


_ZERO_FORM = ((checks, "closed_form", lambda form, n: QPoly.zero()),)
_CUTS_PLUS_ONE = ((checks, "_dist", _cuts_plus_one),)
_ONE_HIGH_CELL = (
    (checks, "tableau_value", lambda n, k: distributions.tableau_value(n, k) + QPoly.one()),
)
# the series of the des/inv adjudication in place of the exc/crs series
_DES_INV_SERIES = ((checks, "exc_crs_series", distributions.des_inv_series),)
# the block residuals decide a law and the per-word oracle reports it, so a
# broken law is broken in both
_BROKEN_LEMMA = (
    (checks, "residual_columns", _failing_residuals),
    (checks, "check_lemma", _failing_lemma),
)
_BROKEN_LEMMA42 = (
    (checks, "residual_columns", _failing_residuals),
    (checks, "check_lemma42", _failing_lemma42),
)

# one broken input per kind of check: (check_id, ((module, name, replacement), ...), status)
BROKEN_INPUTS = [
    ("thm-3.1", _ZERO_FORM, "fail"),
    ("cor-3.2", _ZERO_FORM, "fail"),
    ("thm-1.1", _ZERO_FORM, "fail"),
    ("cor-3.4", _ZERO_FORM, "fail"),
    ("eq-dokos", _ZERO_FORM, "fail"),
    ("rel-3", ((checks, "apply_symmetry_to_patterns", lambda tag, pats: pats),), "fail"),
    (
        "sym-transport",
        ((checks, "apply_symmetry", _identity_map), (checks, "symmetry_images", _identity_images)),
        "fail",
    ),
    ("conj-2.7", ((checks, "crs_profile", _asymmetric_profile),), "finding"),
    ("lem-2.1", _BROKEN_LEMMA, "fail"),
    ("lem-2.2", _BROKEN_LEMMA, "fail"),
    ("lem-2.4", _BROKEN_LEMMA, "fail"),
    ("lem-4.2", _BROKEN_LEMMA42, "fail"),
    # psi in place of phi: psi_2 adds 1 - [sigma(1) = 1], not 1 - [sigma(n) = n]
    (
        "prop-2.5",
        ((bijections, "phi", bijections.psi), (bijections, "symmetry_images", _rc_as_inverse)),
        "fail",
    ),
    (
        "phi-psi",
        (
            (checks, "phi", _phi_one_slot_early),
            (checks, "psi", _psi_one_slot_early),
            (checks, "insert_block", _insert_one_slot_early),
        ),
        "fail",
    ),
    (
        "thm-2.8",
        (
            (
                checks,
                "crossing_gf_by_class",
                lambda pats, order: ZSeries(QPoly, (QPoly.one(),) * (order + 1)),
            ),
        ),
        "fail",
    ),
    ("fig-1", ((checks, "crossings", lambda w: (0, ())),), "fail"),
    ("prop-5.1", ((checks, "P321_231", ((3, 2, 1),)),), "fail"),
    (
        "inv-exc-crs",
        (
            (checks, "stat_columns", _inv_one_high),
            (checks, "inversion_count", lambda w: inversion_count(w) + 1),
        ),
        "fail",
    ),
    ("cor-4.3", ((bijections, "stat_columns", lambda columns, count, stats: [bytes(count)]),), "fail"),
    ("catalan", ((checks, "class_size", lambda spec: patterns.class_size(spec) + 1),), "fail"),
    ("cfrac-321", ((checks, "crossing_cfrac_series", _one_level_early),), "fail"),
    ("cor-4.5", _ONE_HIGH_CELL, "fail"),
    ("cor-5.3", _ZERO_FORM, "fail"),
    ("cor-5.4", _DES_INV_SERIES, "fail"),
    ("eq-1", ((checks, "_dist", _class_213_times_q),), "fail"),
    ("eq-4-6", _CUTS_PLUS_ONE, "fail"),
    ("eq-7", _CUTS_PLUS_ONE, "fail"),
    ("eq-8", _CUTS_PLUS_ONE, "fail"),
    ("eq-chung", ((checks, "des_inv_series", distributions.exc_crs_series),), "fail"),
    ("prop-4.1", _CUTS_PLUS_ONE, "fail"),
    ("prop-4.4", _CUTS_PLUS_ONE, "fail"),
    ("table-1", _ONE_HIGH_CELL, "fail"),
    ("thm-1.2", ((checks, "_dist", _dist_times_q),), "fail"),
    ("thm-2.6", ((checks, "crs_profile", _asymmetric_profile),), "fail"),
    ("thm-4.6", _ONE_HIGH_CELL, "fail"),
    ("thm-5.2", _DES_INV_SERIES, "fail"),
]


@pytest.mark.parametrize(
    "check_id, patches, status", BROKEN_INPUTS, ids=[b[0] for b in BROKEN_INPUTS]
)
def test_a_broken_input_is_reported_with_capped_witnesses(monkeypatch, check_id, patches, status):
    passing = run_check(check_id, 4)
    assert passing.status == "pass"
    for module, name, broken in patches:
        monkeypatch.setattr(module, name, broken)
    broken_run = run_check(check_id, 4)
    assert broken_run.status == status
    assert 1 <= len(broken_run.witnesses) <= WITNESS_CAP
    assert broken_run.bound == passing.bound  # a failure states the same range
    jsonschema.validate(broken_run.to_json(), SCHEMA)


def test_every_check_has_a_broken_input():
    assert sorted(b[0] for b in BROKEN_INPUTS) == list(available_checks())


#: sha256 of the witnesses of every BROKEN_INPUTS run at bound 4, in order,
#: each run's witnesses as one line of JSON with sorted keys
BROKEN_WITNESS_DIGEST = "1699962c4dcea79701a4f72eee1112ea931803ef8fa4a60f5058239c31785f14"


def test_broken_inputs_give_the_pinned_witnesses(monkeypatch):
    digest = hashlib.sha256()
    for check_id, patches, _ in BROKEN_INPUTS:
        for module, name, broken in patches:
            monkeypatch.setattr(module, name, broken)
        witnesses = run_check(check_id, 4).witnesses
        digest.update(json.dumps(witnesses, sort_keys=True).encode() + b"\n")
        monkeypatch.undo()
    assert digest.hexdigest() == BROKEN_WITNESS_DIGEST


@pytest.mark.parametrize("check_id", ["thm-2.6", "conj-2.7"])
def test_one_at_checks_read_the_crs_profile(monkeypatch, check_id):
    # S_n is folded once per n, over its cuts by the position of 1, for
    # thm-2.6, conj-2.7 and rel-3; no one-at-k cut is folded on its own
    profiles, cuts = [], []

    def profile(n, *args, **kwargs):
        profiles.append(n)
        return distributions.crs_profile(n, *args, **kwargs)

    def dist_poly(spec, *args, **kwargs):
        if spec.constraint:
            cuts.append(spec)
        return distributions.dist_poly(spec, *args, **kwargs)

    monkeypatch.setattr(checks, "crs_profile", profile)
    monkeypatch.setattr(checks, "dist_poly", dist_poly)
    assert run_check(check_id, 6).status == "pass"
    assert set(profiles) >= set(range(1, 7)) and not cuts


def _assert_stopped(result, bound, error):
    """``result`` is the fail of a check stopped because a block kernel
    disagreed with its per-word oracle, with ``error`` in the message."""
    assert result.status == "fail" and result.bound == f"bound {bound}, stopped"
    assert [list(w) for w in result.witnesses] == [["error"]]
    assert re.search(error, result.witnesses[0]["error"])


def test_inv_exc_crs_flags_must_be_confirmed_per_word(monkeypatch):
    monkeypatch.setattr(checks, "stat_columns", _inv_one_high)
    _assert_stopped(run_check("inv-exc-crs", 4), 4, r"the block columns flag \(\), the per-word")


def test_prop_51_witness_names_the_words_on_each_side(monkeypatch):
    monkeypatch.setattr(checks, "P321_231", ((3, 2, 1),))
    witness = run_check("prop-5.1", 3).witnesses[0]
    assert witness == {"n": 3, "only_avoiders": ["231"], "only_maxdrop": []}


def test_witnesses_stop_at_the_cap(monkeypatch):
    # 2 classes x 9 sizes mismatch; only the first WITNESS_CAP are kept, in order
    monkeypatch.setattr(checks, "closed_form", lambda form, n: QPoly.zero())
    result = run_check("thm-3.1", 9)
    assert len(result.witnesses) == WITNESS_CAP
    assert [(w["n"], w["class"]["avoid"]) for w in result.witnesses] == [
        (1, ["123", "132"]),
        (1, ["123", "213"]),
        (2, ["123", "132"]),
        (2, ["123", "213"]),
        (3, ["123", "132"]),
    ]
    assert list(result.witnesses[0]) == ["n", "class", "stat", "actual", "expected"]
    assert result.witnesses[0]["stat"] == "crs"


@pytest.mark.parametrize("check_id", ["lem-2.1", "lem-4.2"])
def test_the_block_residuals_decide_and_the_oracle_confirms(monkeypatch, check_id):
    # a broken per-word oracle alone is never consulted: no lane is flagged
    monkeypatch.setattr(checks, "check_lemma", _failing_lemma)
    monkeypatch.setattr(checks, "check_lemma42", _failing_lemma42)
    assert run_check(check_id, 4).status == "pass"
    # a flag the true oracle does not confirm is a kernel defect, never a witness
    monkeypatch.undo()
    monkeypatch.setattr(checks, "residual_columns", _failing_residuals)
    _assert_stopped(run_check(check_id, 4), 4, "block residuals flag instances")


def test_block_images_the_per_word_maps_pass_are_a_defect(monkeypatch):
    monkeypatch.setattr(checks, "insert_block", _insert_one_slot_early)
    _assert_stopped(run_check("phi-psi", 4), 4, "the per-word map passes")


def test_block_images_that_are_not_permutations_are_a_defect(monkeypatch):
    # injective, and the 1 in place, but a letter of the base is left as 1
    monkeypatch.setattr(checks, "insert_block", _insert_leaving_b)
    _assert_stopped(run_check("phi-psi", 5), 5, "the per-word map passes")


def test_phi_psi_maps_each_block_back_once_per_map(monkeypatch):
    # one involution check per block and map, not one per map and k: the
    # images of each block of S_n, then its inverse and its rc image mapped
    # once each
    monkeypatch.setattr(patterns, "BLOCK_WORDS", 7)
    mapped = []

    def spy(columns, count):
        mapped.append(columns)
        return perm.symmetry_images(columns, count)

    monkeypatch.setattr(checks, "symmetry_images", spy)
    for n in (4, 5):
        mapped.clear()
        want = []
        for columns, count in patterns.class_blocks(patterns.class_spec(n)):
            images = perm.symmetry_images(columns, count)
            want += [columns, images["i"], images["rc"]]
        assert list(checks._phi_psi_rows(n)) == []
        assert mapped == want and len(want) > 6


def test_sym_transport_blocks_decide_and_the_per_word_map_confirms(monkeypatch):
    # a broken per-word map alone is never consulted: every block image matches
    monkeypatch.setattr(checks, "apply_symmetry", _identity_map)
    assert run_check("sym-transport", 4).status == "pass"
    # a block mismatch the true per-word map does not reproduce is a kernel defect
    monkeypatch.undo()
    monkeypatch.setattr(checks, "symmetry_images", _identity_images)
    _assert_stopped(
        run_check("sym-transport", 4), 4, "block images of r fail at n=3 for 123, the per-word"
    )


def test_rel3_and_sym_transport_do_not_depend_on_the_block_size(monkeypatch):
    # at 7 words a block the classes of each size straddle blocks, and each
    # block that holds a class boundary mixes classes
    def records():
        _clear_caches()
        return [
            {k: v for k, v in run_check(check_id, 6).to_json().items() if k != "runtime"}
            for check_id in ("rel-3", "sym-transport")
        ]

    try:
        default = records()
        monkeypatch.setattr(patterns, "BLOCK_WORDS", 7)
        assert records() == default
    finally:
        monkeypatch.undo()
        _clear_caches()
    assert [r["status"] for r in default] == ["pass", "pass"]


def test_sym_transport_charges_a_fault_to_its_class(monkeypatch):
    # the first word of S_5(321) in the mixed stream, the identity, becomes
    # 54321, which contains 321: the class's keys are no longer its level nor
    # in lex order, so exactly the pairs (T, f) whose source T or target f(T)
    # is 321 fail, and they are named in the order of T and then f
    monkeypatch.setattr(patterns, "BLOCK_WORDS", 7)
    n, bad = 5, ((3, 2, 1),)
    mixed, target = patterns._mixed_blocks, checks.PATTERN_SUBSETS.index(bad)

    def faulty(n, sets, bound=None):
        done = False
        for columns, count in mixed(n, sets, bound):
            *words, index = columns
            at = index.find(target)
            if at >= 0 and not done:
                words = [c[:at] + bytes((n - p,)) + c[at + 1 :] for p, c in enumerate(words)]
                done = True
            yield [*words, index], count

    monkeypatch.setattr(checks, "_mixed_blocks", faulty)
    monkeypatch.setattr(checks, "_sym_transport_witness", lambda n, pats, tag: (pats, tag))
    named = list(checks._sym_transport_rows(n))
    images = checks._transports()
    want = [
        (pats, tag)
        for pats in checks.PATTERN_SUBSETS
        for tag in SYMMETRIES
        if bad in (pats, images[pats][tag])
    ]
    assert named == want and len(want) > len(SYMMETRIES)


@pytest.mark.parametrize("block", [120, 60, 119, 1])
def test_flagged_words_at_block_edges(monkeypatch, block):
    # S_5 has 120 words: whole blocks at 120 and 60, one word past at 119
    monkeypatch.setattr(bijections, "phi", bijections.psi)
    monkeypatch.setattr(bijections, "symmetry_images", _rc_as_inverse)
    monkeypatch.setattr(patterns, "BLOCK_WORDS", block)
    group = list(permutations(range(1, 6)))
    oracle = bijections.check_prop25
    blocks = patterns.packed_blocks(group, 5)
    flagged = [reports[0].word for reports in checks._flagged("prop-2.5", blocks, oracle)]
    assert flagged == [w for w in group if not all(r.passed for r in oracle(w))]
    assert 0 < len(flagged) < len(group)


@pytest.mark.parametrize("tag", ["lem-2.1", "lem-2.2", "lem-2.4", "lem-4.2"])
def test_random_words_are_the_shuffles_of_the_seeded_generator(tag):
    # the words the four laws sample, and short words where the loop is empty
    for n, count in ((checks.RANDOM_SAMPLE_N, checks.RANDOM_SAMPLE_SIZE), (0, 2), (1, 2), (2, 9)):
        rng, base, want = random.Random(f"permcross:{tag}"), list(range(1, n + 1)), []
        for _ in range(count):
            rng.shuffle(base)
            want.append(tuple(base))
        assert list(checks._random_words(tag, n, count)) == want, n


def test_bound_below_a_checks_minimum_is_refused():
    with pytest.raises(ValueError, match="at least 1"):
        run_check("cor-4.3", bound=0)
    with pytest.raises(ValueError, match="at least 0"):
        run_check("catalan", bound=-1)


@pytest.mark.parametrize(
    "check_id", [c.check_id for c in CHECKS.values() if c.min_bound > 0]
)
def test_bound_one_below_the_minimum_is_refused(check_id):
    check = CHECKS[check_id]
    assert check.default_bound >= check.min_bound
    needs = f"{check_id} needs a bound of at least {check.min_bound}"
    with pytest.raises(CheckBoundError, match=needs):
        run_check(check_id, check.min_bound - 1)


def test_every_check_declares_a_bound_range_around_its_default():
    for check in CHECKS.values():
        if check.max_bound is not None:
            assert check.min_bound <= check.default_bound <= check.max_bound, check.check_id
    # thm-2.6 reads S_(n+1); the S_n checks stop at the full-group limit
    assert CHECKS["thm-2.6"].max_bound == patterns.FULL_GROUP_BOUND - 1
    assert CHECKS["prop-5.1"].max_bound == patterns.FULL_GROUP_BOUND
    assert CHECKS["catalan"].max_bound == patterns.PATTERN_CLASS_BOUND
    assert CHECKS["table-1"].max_bound is None


@pytest.mark.parametrize(
    "check_id", [c.check_id for c in CHECKS.values() if c.max_bound is not None]
)
def test_bound_one_above_the_maximum_is_refused(monkeypatch, check_id):
    check = CHECKS[check_id]
    ran = []
    monkeypatch.setitem(CHECKS, check_id, _with_run(check, ran.append))
    takes = f"{check_id} takes a bound of at most {check.max_bound}"
    with pytest.raises(CheckBoundError, match=takes):
        run_check(check_id, check.max_bound + 1)
    assert ran == []


def test_a_bound_too_high_is_refused_before_any_check_runs(monkeypatch):
    ran = []
    for check_id, check in list(CHECKS.items()):
        monkeypatch.setitem(CHECKS, check_id, _with_run(check, ran.append))
    with pytest.raises(CheckBoundError) as refused:
        checks.iter_checks("all", bound=patterns.FULL_GROUP_BOUND)
    assert str(refused.value) == (
        "check thm-2.6 takes a bound of at most 9; bound 10 would take it past the "
        "enumeration limit"
    )
    with pytest.raises(CheckBoundError) as refused:
        run_checks("all", bound=patterns.FULL_GROUP_BOUND + 1)
    named = {c.check_id for c in CHECKS.values() if checks.GROUP in c.reads}
    assert {c for c in named if f"{c} takes a bound of at most" in str(refused.value)} == named
    assert "catalan" not in str(refused.value)
    assert ran == []


def _patch_everywhere(monkeypatch, original, replacement):
    """Bind ``replacement`` wherever a module of the package binds ``original``."""
    for module in (perm, patterns, distributions, bijections, checks):
        for name in [name for name, value in vars(module).items() if value is original]:
            monkeypatch.setattr(module, name, replacement)


def _crs_one_high(monkeypatch):
    # the first word of every block, in lane 0, gets one crossing too many
    crs = perm._LANE_KERNELS["crs"]
    monkeypatch.setitem(perm._LANE_KERNELS, "crs", lambda lanes: crs(lanes) + 1)


def _crs_cuts_drop_the_ones_term(monkeypatch):
    # the cuts of the crs profile lose the lower crossings that open at the
    # letter 1; the kernel itself never reads the 1's mask
    terms = perm._crs_terms

    def broken(lanes):
        for p, x, _, term in terms(lanes):
            yield p, x, 0, term

    monkeypatch.setattr(perm, "_crs_terms", broken)


def _reblocked_drops_a_word(monkeypatch):
    reblocked = patterns._reblocked

    def broken(pieces, n):
        blocks = reblocked(pieces, n)
        for columns, count in blocks:  # the first block loses its first word, if it has two
            yield ([c[1:] for c in columns], count - 1) if count > 1 else (columns, count)
            yield from blocks

    monkeypatch.setattr(patterns, "_reblocked", broken)


def _tally_drops_a_value(monkeypatch):
    tally = distributions._tally

    def broken(counts, keys):
        block = Counter()
        tally(block, keys)
        block.pop(max(block, default=None), None)  # the largest key of each block
        counts.update(block)

    monkeypatch.setattr(distributions, "_tally", broken)


def _symmetry_images_swapped(monkeypatch):
    images = perm.symmetry_images

    def broken(columns, count):
        got = images(columns, count)
        return {**got, "i": got["rc"], "rc": got["i"]}

    _patch_everywhere(monkeypatch, images, broken)


def _tableau_cell_off(monkeypatch):
    # cell (4, 1) one high, and with it every cell computed from it
    value = distributions.tableau_value

    def broken(n, k):
        return value(n, k) + QPoly.one() if (n, k) == (4, 1) else value(n, k)

    _patch_everywhere(monkeypatch, value, broken)


def _table_level_mask_shifted(monkeypatch):
    # a one_at, ends_with or tail cut builds its mask from the column one to
    # the left of each column it fixes (the first column wraps to the last)
    def broken(spec):
        level = patterns._class_table(spec.forbidden, patterns._drop_bound(spec)).level
        columns, count = level(spec.n)
        if spec.constraint is None or spec.constraint[0] == "maxdrop_le":
            return columns, count
        at, run = patterns._fixed_run(spec)
        mask = -1
        for p, v in enumerate(run, at):
            mask &= patterns._where(columns[p - 1], v)
        size = mask.bit_count() // 8
        kept = [
            (int.from_bytes(c, "little") & mask).to_bytes(count, "little").translate(None, b"\0")
            for c in columns[:at] + columns[at + len(run) :]
        ]
        kept[at:at] = [bytes((v,)) * size for v in run]
        return kept, size

    monkeypatch.setattr(patterns, "_table_level", broken)


def _thresholds_one_high(monkeypatch):
    # t one too high wherever a letter sits at drop d, which is where t < k
    thresholds = patterns._thresholds

    def broken(columns, count, d):
        k = len(columns) + 1
        return bytes(v + (v < k) for v in thresholds(columns, count, d))

    monkeypatch.setattr(patterns, "_thresholds", broken)


#: A fault in one shared layer, and the checks that do not pass under it at
#: bound 5 with cold caches.  A check missing from a set is blind to that
#: fault: it compares two sides that both go through the faulty layer, or
#: reads no class the layer builds.
LAYER_FAULTS = {
    "crs kernel one high in lane 0": (
        _crs_one_high,
        {
            "cfrac-321", "conj-2.7", "cor-3.2", "cor-3.4", "cor-5.4", "eq-4-6",
            "eq-7", "eq-8", "inv-exc-crs", "prop-4.4", "rel-3", "thm-1.1",
            "thm-1.2", "thm-2.6", "thm-2.8", "thm-3.1", "thm-4.6", "thm-5.2",
        },
    ),
    "crs cuts drop the 1's own lower crossings": (
        _crs_cuts_drop_the_ones_term,
        {"rel-3", "thm-2.6"},
    ),
    "_reblocked drops a word": (
        _reblocked_drops_a_word,
        {
            "cfrac-321", "cor-3.2", "cor-3.4", "cor-5.3", "cor-5.4", "eq-4-6",
            "eq-7", "eq-8", "eq-chung", "eq-dokos", "prop-4.4", "prop-5.1", "rel-3",
            "sym-transport", "thm-1.1", "thm-1.2", "thm-2.8", "thm-3.1", "thm-4.6",
            "thm-5.2",
        },
    ),
    "_tally drops a value": (
        _tally_drops_a_value,
        {
            "cfrac-321", "conj-2.7", "cor-3.2", "cor-3.4", "cor-5.3", "cor-5.4",
            "eq-4-6", "eq-7", "eq-8", "eq-chung", "eq-dokos", "prop-4.4", "rel-3",
            "thm-1.1", "thm-1.2", "thm-2.6", "thm-2.8", "thm-3.1", "thm-4.6",
            "thm-5.2",
        },
    ),
    "symmetry_images swaps i and rc": (_symmetry_images_swapped, {"prop-2.5", "sym-transport"}),
    "tableau cell (4, 1) one high": (
        _tableau_cell_off,
        {"cor-4.5", "table-1", "thm-1.2", "thm-4.6"},
    ),
    "_table_level mask one column off": (
        _table_level_mask_shifted,
        {
            "cor-3.4", "cor-4.3", "eq-4-6", "eq-7", "eq-8", "prop-4.1", "prop-4.4",
            "thm-1.1", "thm-1.2",
        },
    ),
    "drop threshold one high at drop d": (_thresholds_one_high, {"prop-5.1"}),
}


@pytest.mark.parametrize("fault", LAYER_FAULTS)
def test_a_layer_fault_fails_the_checks_that_can_see_it(monkeypatch, fault):
    plant, seen_by = LAYER_FAULTS[fault]
    _clear_caches()
    try:
        plant(monkeypatch)
        not_passing = set()
        for check_id in available_checks():
            if run_check(check_id, 5).status != "pass":
                not_passing.add(check_id)
    finally:
        monkeypatch.undo()
        _clear_caches()
    assert sorted(not_passing) == sorted(seen_by)


#: Number words of the README's claims about LAYER_FAULTS.
_NUMBER_WORDS = {"five": 5, "six": 6, "seven": 7, "eight": 8, "nine": 9, "ten": 10}


def _readme_ids(text):
    """The check ids in a stretch of README text; "the four lemma laws" names
    the four checks of :func:`checks._law`."""
    ids = set(re.findall(r"`([a-z0-9.-]+)`", text)) & set(CHECKS)
    return ids | ({"lem-2.1", "lem-2.2", "lem-2.4", "lem-4.2"} if "four lemma laws" in text else set())


def test_the_readme_states_the_layer_faults_and_bounds_of_the_code():
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    faults = re.search(r"for (\w+) faults in shared layers \(`LAYER_FAULTS`\)", readme)
    assert faults and _NUMBER_WORDS[faults.group(1)] == len(LAYER_FAULTS)
    crs = re.search(r"With crs one too high on the first word of every block, (\d+) checks", readme)
    assert crs and int(crs.group(1)) == len(LAYER_FAULTS["crs kernel one high in lane 0"][1])
    # the minimum bounds: a list of ids per bound, and the rest start at 0 or 1
    lows = re.search(r"Most checks start at n = 0; (.*?) and the checks that start at n = 1", readme)
    assert lows
    claimed = {}
    for part in re.finditer(r"(.*?) (?:need a bound of )?at least (\d+),", lows.group(1)):
        claimed[int(part.group(2))] = _readme_ids(part.group(1))
    by_min = {m: {c for c in CHECKS if CHECKS[c].min_bound == m} for m in claimed}
    assert claimed == by_min and set(claimed) == {2, 3}
    assert {c.min_bound for c in CHECKS.values()} <= {0, 1, *claimed}
    # the maximum bounds: 10 and 9 by list, none for the checks that
    # enumerate nothing, and 12 for every other
    highs = re.search(r"Each check's maximum follows from what it enumerates: (.*?) take any bound", readme)
    assert highs
    at_10 = re.search(r"10 for those that read S_n itself \((.*?)\), 9", highs.group(1))
    at_9 = re.search(r"9 for (.*?), which reads", highs.group(1))
    unbounded = re.search(r"; (.*?) enumerate nothing", highs.group(1))
    assert at_10 and at_9 and unbounded
    by_max = {m: {c for c in CHECKS if CHECKS[c].max_bound == m} for m in (10, 9, None)}
    assert _readme_ids(at_10.group(1)) == by_max[10]
    assert _readme_ids(at_9.group(1)) == by_max[9]
    assert _readme_ids(unbounded.group(1)) == by_max[None]
    assert {c.max_bound for c in CHECKS.values()} == {12, 10, 9, None}
    assert "12 for the pattern-class checks" in highs.group(1)


def test_run_checks_goes_on_past_a_stopped_check(monkeypatch):
    # a block kernel that disagrees with its per-word oracle stops its check,
    # which is a fail, and every other check still runs
    _clear_caches()
    try:
        _crs_one_high(monkeypatch)
        results = run_checks("all", 5)
    finally:
        monkeypatch.undo()
        _clear_caches()
    assert [r.check_id for r in results] == list(available_checks())
    assert len(results) == 36 and not suite_passed(results)
    stopped = next(r for r in results if r.check_id == "inv-exc-crs")
    _assert_stopped(stopped, 5, "per-word")


def test_verify_writes_a_kernel_oracle_disagreement_as_that_checks_fail(monkeypatch, capsys):
    # run_check writes a block kernel that disagrees with its per-word oracle
    # as that check's fail; verify streams it and runs every other check
    _clear_caches()
    try:
        _crs_one_high(monkeypatch)
        code = main(["verify", "all", "--json", "--bound", "5"])
    finally:
        monkeypatch.undo()
        _clear_caches()
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    for record in records:
        jsonschema.validate(record, SCHEMA)
    assert code == 1
    assert len(records) == 36
    assert [r["check_id"] for r in records] == list(available_checks())
    raised = next(r for r in records if r["check_id"] == "inv-exc-crs")
    assert raised["status"] == "fail" and raised["bound"] == "bound 5, stopped"
    assert [list(w) for w in raised["witnesses"]] == [["error"]]
    assert "per-word" in raised["witnesses"][0]["error"]


def _clear_caches():
    for module in (patterns, distributions, bijections, checks):
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def test_every_check_runs_at_its_maximum_bound(monkeypatch):
    # with both enumeration limits lowered, each check's derived maximum must
    # still keep every class it reads inside its limit; cold caches, so every
    # class it reads is enumerated and bound-checked
    monkeypatch.setattr(patterns, "FULL_GROUP_BOUND", 5)
    monkeypatch.setattr(patterns, "PATTERN_CLASS_BOUND", 7)
    _clear_caches()
    try:
        for check in CHECKS.values():
            bound = check.default_bound if check.max_bound is None else check.max_bound
            assert check.max_bound in (None, 4, 5, 7), check.check_id
            result = run_check(check.check_id, bound)
            assert result.status in ("pass", "finding"), check.check_id
    finally:
        _clear_caches()


def _enumerated(monkeypatch, check_id, bound):
    """Every class the check enumerates at ``bound``, in order: every
    class_blocks and class_size call passes through _check_packable, and
    with cold caches the specs it sees are every class the check reads."""
    seen = []

    def spy(spec, limit):
        seen.append(spec)
        return packable(spec, limit)

    packable = patterns._check_packable
    monkeypatch.setattr(patterns, "_check_packable", spy)
    _clear_caches()
    try:
        assert run_check(check_id, bound).status in ("pass", "finding")
    finally:
        monkeypatch.undo()
        _clear_caches()
    return seen


@pytest.mark.parametrize("check_id", sorted(CHECKS))
def test_each_check_enumerates_what_its_reads_and_reach_declare(monkeypatch, check_id):
    check = CHECKS[check_id]
    bound = max(6, check.min_bound)
    seen = _enumerated(monkeypatch, check_id, bound)
    kinds = {checks.CLASSES if spec.forbidden else checks.GROUP for spec in seen}
    assert kinds == set(check.reads)
    if check.reads:
        assert max(spec.n for spec in seen) == bound + check.reach
    else:
        assert seen == []


#: The checks that compare each class of a family with a closed form, a
#: series or a tableau cell (:func:`checks._family`).
FAMILY_CHECKS = [
    "cfrac-321", "cor-3.2", "cor-3.4", "cor-5.3", "eq-dokos",
    "thm-1.1", "thm-1.2", "thm-3.1", "thm-4.6", "thm-5.2",
]


def test_the_family_checks_are_registered_as_families():
    assert sorted(checks._FAMILIES) == FAMILY_CHECKS


@pytest.mark.parametrize("check_id", FAMILY_CHECKS)
def test_each_family_check_enumerates_exactly_the_classes_it_declares(monkeypatch, check_id):
    # the classes its generator yields for n = first..6, in order, and no other
    family = checks._FAMILIES[check_id]
    declared = [
        patterns.class_spec(n, avoid=pats, **constraint)
        for n in range(CHECKS[check_id].min_bound, 7)
        for _, pats, constraint, _, _ in family(n)
    ]
    assert _enumerated(monkeypatch, check_id, 6) == declared


def test_verify_all_gives_the_benchmark_references():
    # perfbench counts every check whose status differs from its reference
    # as a failed operation of the verify-all workload
    references = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"
    want = json.loads(references.read_text())["verify-all"]
    assert len(want) == 36
    assert {r.check_id: r.status for r in run_checks("all")} == want


def test_results_are_deterministic_modulo_runtime():
    a = run_check("fig-1").to_json()
    b = run_check("fig-1").to_json()
    a.pop("runtime")
    b.pop("runtime")
    assert a == b


def test_suite_passed_ignores_findings():
    ok = CheckResult("x", "n<=1", "pass", (), 0.0)
    finding = CheckResult("y", "n<=1", "finding", ({"n": 1},), 0.0)
    bad = CheckResult("z", "n<=1", "fail", ({"n": 1},), 0.0)
    assert suite_passed([ok, finding])
    assert not suite_passed([ok, finding, bad])


def test_adjudication_checks_record_their_outcome():
    chung = run_check("eq-chung", bound=5)
    assert chung.status == "pass"
    record = chung.witnesses[0]
    assert record["matching_classes"] == ["321,231"]
    assert record["printed_label_matches"] is False
    cor43 = run_check("cor-4.3", bound=6)
    assert cor43.status == "pass"
    assert cor43.witnesses[0]["winner"] == "statement"


def test_conj_27_reports_finding_not_fail():
    result = run_check("conj-2.7", bound=6)
    assert result.status in ("pass", "finding")
