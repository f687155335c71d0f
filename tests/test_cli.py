import csv
import hashlib
import io
import json
from pathlib import Path

import jsonschema
import pytest

from permcross.checks import CHECKS, Check
from permcross.cli import EXPAND_IDS, main
from permcross.distributions import crossing_cfrac_series
from permcross.patterns import BoundExceededError

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "src/permcross/schemas/check_result.schema.json").read_text()
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _with_run(check, run):
    """``check`` with ``run`` in place of its own, built by the constructor."""
    return Check(
        check.check_id, check.description, check.default_bound, run,
        check.min_bound, check.reads, check.reach,
    )


# ---------------------------------------------------------------------------
# stats


def test_stats_figure_word(capsys):
    code, out, _ = run_cli(capsys, "stats", "4735126")
    assert code == 0
    assert "crs=3" in out and "nes=3" in out
    assert "(1,2)" in out and "(6,7)" in out
    assert "(2,4)" in out


def test_stats_trivial_and_json(capsys):
    code, out, _ = run_cli(capsys, "stats", "1")
    assert code == 0
    assert "crs=0" in out and "inv=0" in out
    code, out, _ = run_cli(capsys, "stats", "4735126", "--json")
    data = json.loads(out)
    assert data["crs"] == 3 and data["maxdrop"] == 4


def test_stats_comma_form(capsys):
    word = ",".join(str(v) for v in [10, 2, 3, 4, 5, 6, 7, 8, 9, 1])
    code, out, _ = run_cli(capsys, "stats", word)
    assert code == 0
    assert "n=10" in out


def test_stats_bad_input(capsys):
    code, _, err = run_cli(capsys, "stats", "4,x,1")
    assert code == 2
    assert "error" in err
    code, _, err = run_cli(capsys, "stats", "112")
    assert code == 2


# ---------------------------------------------------------------------------
# dist


def test_dist_thm31_rows(capsys):
    code, out, _ = run_cli(capsys, "dist", "--avoid", "123,132", "--stat", "crs", "--n", "1..8")
    assert code == 0
    assert "4+3q+q^2" in out  # n = 4 row
    assert "8" in out


def test_dist_table_row(capsys):
    code, out, _ = run_cli(capsys, "dist", "--avoid", "213,312", "--stat", "crs", "--n", "6")
    assert code == 0
    assert "16+9q+5q^2+2q^3" in out


def test_dist_empty_size(capsys):
    code, out, _ = run_cli(capsys, "dist", "--stat", "crs", "--n", "0")
    assert code == 0
    assert "1" in out


def test_dist_joint_and_formats(capsys):
    code, out, _ = run_cli(
        capsys, "dist", "--avoid", "231,321", "--stat", "exc,crs", "--n", "3", "--json"
    )
    assert code == 0
    data = json.loads(out.strip())
    assert data["poly_text"] == "1+2y+qy"
    assert data["cardinality"] == 4
    code, out, _ = run_cli(
        capsys, "dist", "--avoid", "231,321", "--stat", "exc,crs", "--n", "2..3", "--csv"
    )
    lines = out.strip().splitlines()
    assert lines[0].startswith("n,avoid,constraint,stats,poly,cardinality")
    assert len(lines) == 3


def test_dist_errors(capsys):
    code, _, err = run_cli(capsys, "dist", "--stat", "major", "--n", "3")
    assert code == 2 and "unknown statistic" in err
    code, _, err = run_cli(capsys, "dist", "--stat", "crs", "--n", "2", "--one-at", "3")
    assert code == 2
    code, _, err = run_cli(capsys, "dist", "--stat", "crs", "--n", "11")
    assert code == 2 and "n <= 10" in err


def test_dist_repeated_avoid_adds_up(capsys):
    code, out, _ = run_cli(capsys, "dist", "--n", "5", "--avoid", "123", "--avoid", "132")
    assert code == 0
    assert out.splitlines()[1].split() == ["5", "5+6q+4q^2+q^3", "16"]
    assert run_cli(capsys, "dist", "--n", "5", "--avoid", "123,132") == (0, out, "")
    code, out, _ = run_cli(capsys, "dist", "--n", "5", "--avoid", "132", "--avoid", "")
    assert out.splitlines()[1].split() == ["5", "16+12q+9q^2+4q^3+q^4", "42"]


@pytest.mark.parametrize(
    "flag, first, second",
    [
        ("--n", "5", "4"),
        ("--stat", "crs", "crs"),
        ("--one-at", "2", "3"),
        ("--ends-with", "2", "3"),
        ("--tail", "1", "2"),
        ("--maxdrop", "1", "2"),
    ],
)
def test_dist_refuses_a_repeated_single_valued_option(capsys, flag, first, second):
    argv = ["dist", flag, first, flag, second]
    if flag != "--n":
        argv += ["--n", "5"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert f"argument {flag}: given more than once" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("dist", "--n", "3", "--json", "--csv"),
        ("expand", "thm52", "--order", "3", "--csv", "--json"),
        ("verify", "fig-1", "--json", "--csv"),
    ],
    ids=lambda argv: argv[0],
)
def test_json_and_csv_are_mutually_exclusive(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "not allowed with argument" in err


def test_dist_env_bound(capsys, monkeypatch):
    monkeypatch.setenv("PERMCROSS_BOUND", "3")
    code, _, err = run_cli(capsys, "dist", "--stat", "crs", "--n", "5")
    assert code == 2 and "n <= 3" in err


# ---------------------------------------------------------------------------
# expand


def test_expand_thm52(capsys):
    code, out, _ = run_cli(capsys, "expand", "thm52", "--order", "3")
    assert code == 0
    assert "1+2y+qy" in out
    assert "overall match: yes" in out


def test_expand_cfrac_zero(capsys):
    code, out, _ = run_cli(capsys, "expand", "cfrac-321", "--order", "0")
    assert code == 0
    assert "overall match: yes" in out


def test_expand_thm24(capsys):
    code, out, _ = run_cli(capsys, "expand", "thm24", "--order", "6", "--json")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 7
    assert all(r["match"] for r in rows)


def test_expand_chung_notes_adjudication(capsys):
    code, out, _ = run_cli(capsys, "expand", "chung", "--order", "4")
    assert code == 0
    assert "321,231" in out
    assert "overall match: yes" in out


#: sha256 of the stdout of ``expand cfrac-321 --order 12 --json``: the
#: continued fraction of the 321-avoiders against their enumeration, n <= 12
EXPAND_CFRAC_12_DIGEST = "71fed83164cd1c5e22d604baae4a5c71926eb5c1de802d8a4763b8d86fe1dfaa"

#: sha256 of the texts of the z^0..z^20 coefficients of
#: ``crossing_cfrac_series(20)``, joined by newlines
CFRAC_SERIES_20_DIGEST = "76f36d5ec454574d80afce890cd94f5430367a72cb697cf8918a1c85ff0d1b07"


def test_expand_cfrac_321_output_is_pinned(capsys, monkeypatch):
    monkeypatch.delenv("PERMCROSS_BOUND", raising=False)
    code, out, _ = run_cli(capsys, "expand", "cfrac-321", "--order", "12", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXPAND_CFRAC_12_DIGEST
    # order 20 is past the enumeration limit, so the command is refused, with
    # nothing written; the series alone is pinned there
    code, out, err = run_cli(capsys, "expand", "cfrac-321", "--order", "20", "--json")
    assert (code, out) == (2, "")
    assert err == "error: enumeration of size 20 exceeds the bound n <= 12\n"
    text = "\n".join(c.to_text() for c in crossing_cfrac_series(20).coeffs)
    assert hashlib.sha256(text.encode()).hexdigest() == CFRAC_SERIES_20_DIGEST


def test_expand_order_cap(capsys):
    code, _, err = run_cli(capsys, "expand", "thm52", "--order", "13")
    assert code == 2


def test_expand_order_follows_the_enumeration_bound(capsys, monkeypatch):
    monkeypatch.setenv("PERMCROSS_BOUND", "13")
    code, out, _ = run_cli(capsys, "expand", "thm52", "--order", "13", "--json")
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 0
    assert [row["n"] for row in rows] == list(range(14)) and all(row["match"] for row in rows)


@pytest.mark.parametrize("gf", EXPAND_IDS)
def test_expand_refuses_an_order_past_the_bound_before_any_series(capsys, monkeypatch, gf):
    # a series of this order would not finish; the refusal comes first
    monkeypatch.delenv("PERMCROSS_BOUND", raising=False)
    code, out, err = run_cli(capsys, "expand", gf, "--order", "100000")
    assert (code, out) == (2, "")
    assert err == "error: enumeration of size 100000 exceeds the bound n <= 12\n"
    monkeypatch.setenv("PERMCROSS_BOUND", "100000")
    code, out, err = run_cli(capsys, "expand", gf, "--order", "100000")
    assert (code, out) == (2, "") and "n=100000 exceeds 255" in err


def test_expand_refuses_a_negative_order(capsys):
    code, out, err = run_cli(capsys, "expand", "thm52", "--order", "-1")
    assert (code, out) == (2, "") and "--order must be a nonnegative integer" in err


# ---------------------------------------------------------------------------
# verify


def test_verify_json_validates_against_schema(capsys):
    code, out, _ = run_cli(capsys, "verify", "fig-1", "table-1", "--json")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    for line in lines:
        jsonschema.validate(json.loads(line), SCHEMA)
    ids = [json.loads(line)["check_id"] for line in lines]
    assert ids == sorted(ids)


def test_verify_unknown_check(capsys):
    code, _, err = run_cli(capsys, "verify", "thm-0.0")
    assert code == 2 and "unknown check id" in err


def test_verify_human_and_csv(capsys):
    code, out, _ = run_cli(capsys, "verify", "fig-1", "cor-4.5")
    assert code == 0
    assert "PASS" in out and "2 checks: 2 pass" in out
    code, out, _ = run_cli(capsys, "verify", "fig-1", "--csv")
    assert code == 0
    assert out.splitlines()[0] == "check_id,bound,status,witnesses,runtime"


@pytest.mark.parametrize("fmt", ["--json", "--csv"])
def test_verify_streams_each_line_as_its_check_ends(capsys, monkeypatch, fmt):
    written = []

    def overrun(bound):
        written.append(capsys.readouterr().out)  # stdout so far, as the check runs
        raise BoundExceededError(bound + 1, bound)

    monkeypatch.setitem(CHECKS, "eq-1", _with_run(CHECKS["eq-1"], overrun))
    code, out, err = run_cli(capsys, "verify", "fig-1", "catalan", "eq-1", "cor-4.5", fmt)
    assert code == 2 and out == ""
    assert "error: enumeration of size 10 exceeds the bound n <= 9" in err
    lines = written[0].splitlines()
    if fmt == "--csv":
        assert lines.pop(0) == "check_id,bound,status,witnesses,runtime"
        ids = [line.split(",", 1)[0] for line in lines]
    else:
        ids = [json.loads(line)["check_id"] for line in lines]
    # the checks before eq-1 in check-id order were written; fig-1 never ran
    assert ids == ["catalan", "cor-4.5"]


def test_verify_list(capsys):
    code, out, _ = run_cli(capsys, "verify", "--list")
    assert code == 0
    assert "conj-2.7" in out and "table-1" in out


def test_verify_list_in_json_and_csv(capsys):
    want = [(check_id, CHECKS[check_id].description) for check_id in sorted(CHECKS)]
    code, out, _ = run_cli(capsys, "verify", "--list", "--json")
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert code == 0
    assert [(r["check_id"], r["description"]) for r in records] == want
    assert all(sorted(r) == ["check_id", "description"] for r in records)
    code, out, _ = run_cli(capsys, "verify", "--list", "--csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert code == 0
    assert rows == [["check_id", "description"]] + [list(row) for row in want]


def test_verify_list_takes_the_selection_and_bound_of_verify(capsys, monkeypatch):
    monkeypatch.delenv("PERMCROSS_BOUND", raising=False)
    code, out, _ = run_cli(capsys, "verify", "--list", "fig-1", "fig-1")
    assert code == 0 and out == f"fig-1  {CHECKS['fig-1'].description}\n"
    code, out, err = run_cli(capsys, "verify", "--list", "nosuch")
    assert code == 2 and out == "" and "unknown check id 'nosuch'" in err
    code, out, err = run_cli(capsys, "verify", "--list", "--bound", "99")
    assert code == 2 and out == ""
    assert err == run_cli(capsys, "verify", "--bound", "99")[2]


def test_verify_all_with_other_ids_runs_every_check_once(capsys, monkeypatch):
    monkeypatch.delenv("PERMCROSS_BOUND", raising=False)
    assert verify_digest(capsys, "all", "fig-1") == (0, 36, VERIFY_ALL_DIGEST)
    code, out, _ = run_cli(capsys, "verify", "--list", "fig-1", "all")
    assert code == 0 and out == run_cli(capsys, "verify", "--list")[1]


def test_verify_runs_a_repeated_check_once(capsys):
    code, out, _ = run_cli(capsys, "verify", "fig-1", "cor-4.5", "fig-1", "--json")
    ids = [json.loads(line)["check_id"] for line in out.strip().splitlines()]
    assert code == 0 and ids == ["cor-4.5", "fig-1"]
    code, out, _ = run_cli(capsys, "verify", "fig-1", "fig-1")
    assert code == 0 and "1 checks: 1 pass" in out


def test_verify_bound_flag_is_reflected(capsys):
    code, out, _ = run_cli(capsys, "verify", "eq-1", "--bound", "4", "--json")
    assert code == 0
    assert json.loads(out.strip())["bound"] == "n<=4"


def test_verify_env_bound(capsys, monkeypatch):
    monkeypatch.setenv("PERMCROSS_BOUND", "4")
    code, out, _ = run_cli(capsys, "verify", "eq-1", "--json")
    assert code == 0
    assert json.loads(out.strip())["bound"] == "n<=4"


def test_verify_rejects_negative_bound(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "verify", "catalan", "--bound", "-1")
    assert code == 2 and out == ""
    assert "--bound must be a nonnegative integer" in err
    monkeypatch.setenv("PERMCROSS_BOUND", "-1")
    code, out, err = run_cli(capsys, "verify", "catalan")
    assert code == 2 and out == ""
    assert "PERMCROSS_BOUND must be a nonnegative integer" in err
    code, _, err = run_cli(capsys, "dist", "--stat", "crs", "--n", "2")
    assert code == 2 and "PERMCROSS_BOUND" in err


def test_verify_bound_that_leaves_cor43_no_rows_is_a_usage_error(capsys):
    for argv in (["cor-4.3"], ["all"]):
        code, out, err = run_cli(capsys, "verify", *argv, "--bound", "0")
        assert code == 2 and out == ""
        assert "cor-4.3 needs a bound of at least 1" in err
    code, out, _ = run_cli(capsys, "verify", "cor-4.3", "--bound", "1", "--json")
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_verify_bound_below_thm11_minimum_is_a_usage_error(capsys):
    # thm-1.1 starts at n = 2, so bound 1 would compare nothing
    code, out, err = run_cli(capsys, "verify", "thm-1.1", "--bound", "1")
    assert code == 2 and out == ""
    assert "thm-1.1 needs a bound of at least 2" in err


@pytest.mark.parametrize("fmt", [[], ["--json"], ["--csv"]], ids=["human", "json", "csv"])
def test_verify_bound_past_a_checks_limit_is_refused_before_any_output(capsys, monkeypatch, fmt):
    ran = []
    for check_id, check in list(CHECKS.items()):
        monkeypatch.setitem(CHECKS, check_id, _with_run(check, ran.append))
    code, out, err = run_cli(capsys, "verify", "all", "--bound", "10", *fmt)
    assert code == 2 and out == "" and ran == []
    assert "thm-2.6 takes a bound of at most 9" in err
    monkeypatch.setenv("PERMCROSS_BOUND", "11")
    code, out, err = run_cli(capsys, "verify", "conj-2.7", "catalan", "sym-transport", *fmt)
    assert code == 2 and out == "" and ran == []
    assert "conj-2.7 takes a bound of at most 10, sym-transport takes" in err


def test_verify_determinism(capsys):
    code, out1, _ = run_cli(capsys, "verify", "fig-1", "conj-2.7", "--bound", "4", "--json")
    code2, out2, _ = run_cli(capsys, "verify", "fig-1", "conj-2.7", "--bound", "4", "--json")
    assert code == code2 == 0
    strip = lambda s: [
        {k: v for k, v in json.loads(line).items() if k != "runtime"}
        for line in s.strip().splitlines()
    ]
    assert strip(out1) == strip(out2)


def verify_digest(capsys, *argv):
    """The exit code, the record count and the sha256 of the ``verify
    --json`` records without their runtime, each dumped with sorted keys,
    joined by newlines."""
    code, out, _ = run_cli(capsys, "verify", *argv, "--json")
    records = [json.loads(line) for line in out.strip().splitlines()]
    for record in records:
        del record["runtime"]
    text = "\n".join(json.dumps(record, sort_keys=True) for record in records)
    return code, len(records), hashlib.sha256(text.encode()).hexdigest()


#: sha256 of the default ``verify all --json`` records without their runtime,
#: each dumped with sorted keys, joined by newlines: 36 records.
VERIFY_ALL_DIGEST = "35f1c52ec83ccb59060539b1a61d83d6650a67b2063e76ca774ac47d93640287"


def test_verify_all_output_is_pinned(capsys, monkeypatch):
    # every field but the timing is deterministic, so any change to what a
    # check reports, or to the set of checks, changes the digest
    monkeypatch.delenv("PERMCROSS_BOUND", raising=False)
    assert verify_digest(capsys, "all") == (0, 36, VERIFY_ALL_DIGEST)


#: ``verify conj-2.7 thm-2.6 phi-psi sym-transport --bound 8 --json`` without
#: ``runtime``: the checks that read cut classes and compare word keys, pinned
#: past their default bounds to the output of the crs profile and the packed
#: image words they replaced
FOUR_CHECKS_DIGEST = "020bffac73be97d1234a99a4afce66a6d0c1132121ce1c3c85205b4b6a4dd0c6"


def test_the_cut_and_word_key_checks_are_pinned_at_bound_8(capsys):
    checks = ("conj-2.7", "thm-2.6", "phi-psi", "sym-transport")
    assert verify_digest(capsys, *checks, "--bound", "8") == (0, 4, FOUR_CHECKS_DIGEST)


#: ``verify lem-2.1 lem-2.2 lem-2.4 lem-4.2 prop-2.5 --bound 8 --json`` without
#: ``runtime``: the laws whose image blocks come from ``symmetry_images``,
#: ``inverse_block`` and ``insert_block``, pinned past their default bounds
FIVE_LAWS_DIGEST = "d6f63e31c56570f08a60edf402706245d2cd844af6fa9bc69e8d807c3029a799"


def test_the_block_image_laws_are_pinned_at_bound_8(capsys):
    laws = ("lem-2.1", "lem-2.2", "lem-2.4", "lem-4.2", "prop-2.5")
    assert verify_digest(capsys, *laws, "--bound", "8") == (0, 5, FIVE_LAWS_DIGEST)


def test_usage_error_exit_code(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2
