import json

import pytest

from permcross.checks import (
    CHECKS,
    CheckBoundError,
    CheckResult,
    available_checks,
    run_check,
    run_checks,
    suite_passed,
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


def test_all_checks_pass_at_small_bound():
    results = run_checks("all", bound=5)
    assert [r.check_id for r in results] == sorted(REQUIRED_CHECK_IDS)
    for r in results:
        assert r.status in ("pass", "finding")
        if r.status == "fail":
            assert r.witnesses
        json.dumps(r.to_json())  # witnesses must be serializable


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
