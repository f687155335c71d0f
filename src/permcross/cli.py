"""Command-line surface: stats | dist | expand | verify.

Exit codes: 0 success (findings allowed), 1 at least one verification check
failed, 2 malformed input or usage error.  PERMCROSS_BOUND overrides default
bounds, among them the one that ``expand``'s brute-force column is enumerated
under.  ``verify`` streams :func:`permcross.checks.run_check`'s records.
Output is deterministic modulo the runtime field of verify reports.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .checks import CheckBoundError, CheckResult, _select, run_check, suite_passed
from .distributions import (
    DistributionReport,
    crossing_cfrac_series,
    crossing_gf_by_class,
    des_inv_series,
    dist,
    exc_crs_series,
    joint_dist,
    joint_poly,
)
from .patterns import P321_231, BoundExceededError, _check_packable, class_spec
from .perm import Permutation, crossings, format_word, nestings, parse_word

EXPAND_IDS = ("cfrac-321", "thm24", "thm52", "chung")


class CliError(Exception):
    pass


class _Once(argparse.Action):
    """Store an option's value, and refuse the option a second time."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = namespace.__dict__.setdefault("_given", set())
        if self.dest in given:
            raise argparse.ArgumentError(self, "given more than once")
        given.add(self.dest)
        setattr(namespace, self.dest, values)


def _output_formats(parser: argparse.ArgumentParser) -> None:
    """``--json`` and ``--csv``, at most one of them."""
    formats = parser.add_mutually_exclusive_group()
    formats.add_argument("--json", action="store_true")
    formats.add_argument("--csv", action="store_true")


def _env_bound() -> int | None:
    raw = os.environ.get("PERMCROSS_BOUND")
    if raw is None:
        return None
    try:
        bound = int(raw)
    except ValueError:
        raise CliError(f"PERMCROSS_BOUND must be an integer, got {raw!r}") from None
    return _nonnegative_bound(bound, "PERMCROSS_BOUND")


def _nonnegative_bound(bound: int, source: str) -> int:
    if bound < 0:
        raise CliError(f"{source} must be a nonnegative integer, got {bound}")
    return bound


def _parse_perm(text: str) -> Permutation:
    try:
        return Permutation(parse_word(text))
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _parse_patterns(texts: list[str] | None):
    """The patterns of every ``--avoid``, each a comma-separated list."""
    return tuple(parse_word(part) for text in texts or () if text for part in text.split(","))


def _parse_range(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo, hi = (int(part) for part in text.split("..", 1))
        else:
            lo = hi = int(text)
    except ValueError:
        raise CliError(f"cannot parse size range {text!r}; expected e.g. 6 or 1..8") from None
    if hi < lo or lo < 0:
        raise CliError(f"empty or negative size range {text!r}")
    return lo, hi


# ---------------------------------------------------------------------------
# subcommands


def _cmd_stats(args) -> int:
    p = _parse_perm(args.word)
    bundle = p.stats()
    crs, crs_pairs = crossings(p)
    nes, nes_pairs = nestings(p)
    if args.json:
        pairs = {"crs_pairs": list(map(list, crs_pairs)), "nes_pairs": list(map(list, nes_pairs))}
        record = {"word": list(p.word), "n": p.n, **bundle.as_dict(), **pairs}
        print(json.dumps(record, sort_keys=True))
        return 0
    print(f"word: {format_word(p.word)}  (n={p.n})")
    print("  ".join(f"{name}={value}" for name, value in bundle.as_dict().items()))
    print("crossings: " + (" ".join(f"({i},{j})" for i, j in crs_pairs) or "none"))
    print("nestings:  " + (" ".join(f"({i},{j})" for i, j in nes_pairs) or "none"))
    return 0


def _dist_report(args, n: int, stats: tuple[str, ...]) -> DistributionReport:
    cuts = {"one_at": args.one_at, "ends_with": args.ends_with, "tail": args.tail}
    spec = class_spec(n, avoid=_parse_patterns(args.avoid), maxdrop_le=args.maxdrop, **cuts)
    bound = _env_bound()
    if len(stats) == 1:
        return dist(spec, stats[0], bound)
    return joint_dist(spec, (stats[0], stats[1]), bound)


def _cmd_dist(args) -> int:
    stats = tuple(s.strip() for s in args.stat.split(","))
    if not 1 <= len(stats) <= 2:
        raise CliError("--stat takes one statistic or two comma-separated ones")
    lo, hi = _parse_range(args.n)
    rows = []
    for n in range(lo, hi + 1):
        try:
            rows.append(_dist_report(args, n, stats))
        except ValueError as exc:
            raise CliError(str(exc)) from None
    if args.json:
        for report in rows:
            print(json.dumps(report.to_json(), sort_keys=True))
    elif args.csv:
        writer = csv.writer(sys.stdout)
        writer.writerow(DistributionReport.CSV_HEADER)
        for report in rows:
            writer.writerow(report.to_csv_row())
    else:
        width = max(len(report.poly_text()) for report in rows)
        print(f"{'n':>3}  {'poly':<{width}}  size")
        for report in rows:
            print(f"{report.spec.n:>3}  {report.poly_text():<{width}}  {report.cardinality}")
    return 0


def _expand_rows(gf: str, order: int, bound: int | None):
    """Yield (n, series_text, brute_text, match) rows for one generating function."""
    if gf == "cfrac-321":
        series = crossing_cfrac_series(order)
        brute = crossing_gf_by_class(((3, 2, 1),), order, bound).coeffs
    elif gf == "thm24":
        f231 = crossing_gf_by_class(((2, 3, 1),), order, bound)
        one = type(f231).constant(f231.ring, order)
        series = (one - f231.times_z()).reciprocal()
        brute = crossing_gf_by_class(((3, 1, 2),), order, bound).coeffs
    else:  # thm52 or chung; the parser's choices refuse any other id
        series = (exc_crs_series if gf == "thm52" else des_inv_series)(order)
        stats = ("exc", "crs") if gf == "thm52" else ("des", "inv")
        classes = [class_spec(n, avoid=P321_231) for n in range(order + 1)]
        brute = [joint_poly(spec, *stats, bound)[0] for spec in classes]
    for n in range(order + 1):
        s, b = series.coefficient(n), brute[n]
        yield n, s.to_text(), b.to_text(), s == b


def _cmd_expand(args) -> int:
    order, bound = _nonnegative_bound(args.order, "--order"), _env_bound()
    try:  # every brute-force column enumerates a pattern class: refuse before any series
        _check_packable(class_spec(order, avoid=P321_231), bound)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    rows = list(_expand_rows(args.gf, order, bound))
    note = (
        "brute-force column enumerates the (321,231)-avoiders; the printed label"
        " (321,213) does not match this series (see check eq-chung)"
        if args.gf == "chung"
        else None
    )
    if args.json:
        for n, s, b, ok in rows:
            row = {"gf": args.gf, "n": n, "series": s, "brute": b, "match": ok}
            print(json.dumps(row, sort_keys=True))
    elif args.csv:
        writer = csv.writer(sys.stdout)
        writer.writerow(("gf", "n", "series", "brute", "match"))
        for n, s, b, ok in rows:
            writer.writerow((args.gf, n, s, b, "true" if ok else "false"))
    else:
        width = max(len(s) for _, s, _, _ in rows)
        bwidth = max(len(b) for _, _, b, _ in rows)
        print(f"gf: {args.gf}  order: {args.order}")
        if note:
            print(f"note: {note}")
        print(f"{'n':>3}  {'series':<{width}}  {'brute':<{bwidth}}  match")
        for n, s, b, ok in rows:
            print(f"{n:>3}  {s:<{width}}  {b:<{bwidth}}  {'yes' if ok else 'NO'}")
        print("overall match: " + ("yes" if all(ok for _, _, _, ok in rows) else "NO"))
    return 0


def _format_verify_human(results: list[CheckResult]) -> str:
    out = io.StringIO()
    width = max(len(r.check_id) for r in results)
    bwidth = max(len(r.bound) for r in results)
    for r in results:
        line = f"{r.status.upper():<8} {r.check_id:<{width}}  {r.bound:<{bwidth}}  {r.runtime:7.3f}s"
        if r.status != "pass" and r.witnesses:
            line += f"  witnesses: {len(r.witnesses)}"
        print(line, file=out)
    counts = {s: sum(1 for r in results if r.status == s) for s in ("pass", "fail", "finding")}
    print(
        f"{len(results)} checks: {counts['pass']} pass, {counts['fail']} fail,"
        f" {counts['finding']} findings",
        file=out,
    )
    return out.getvalue()


def _cmd_verify(args) -> int:
    bound = _nonnegative_bound(args.bound, "--bound") if args.bound is not None else _env_bound()
    try:
        checks = _select(args.checks or "all", bound)
    except (KeyError, CheckBoundError) as exc:
        raise CliError(exc.args[0]) from None
    if args.list:
        rows = [(c.check_id, c.description) for c in checks]
        if args.csv:
            csv.writer(sys.stdout).writerows([("check_id", "description"), *rows])
        elif args.json:
            print("\n".join(json.dumps({"check_id": c, "description": d}) for c, d in rows))
        else:
            width = max(len(c) for c, _ in rows)
            print("\n".join(f"{c:<{width}}  {d}" for c, d in rows))
        return 0
    stream = (run_check(c.check_id, bound) for c in checks)
    if not (args.json or args.csv):
        results = list(stream)  # the columns are as wide as the widest result
        sys.stdout.write(_format_verify_human(results))
        return 0 if suite_passed(results) else 1
    writer = None if args.json else csv.writer(sys.stdout)
    if writer is not None:
        writer.writerow(("check_id", "bound", "status", "witnesses", "runtime"))
    results = []
    for r in stream:  # each line is written as its check ends
        results.append(r)
        if writer is None:
            print(json.dumps(r.to_json(), sort_keys=True))
        else:
            writer.writerow(
                (r.check_id, r.bound, r.status, json.dumps(list(r.witnesses)), f"{r.runtime:.6f}")
            )
        sys.stdout.flush()
    return 0 if suite_passed(results) else 1


# ---------------------------------------------------------------------------
# parser


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permcross",
        description="Exact crossing statistics on pattern-avoiding permutations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="all statistics of one permutation")
    p_stats.add_argument("word", help="permutation word, e.g. 4735126 or 10,2,3,...")
    p_stats.add_argument("--json", action="store_true")
    p_stats.set_defaults(func=_cmd_stats)

    p_dist = sub.add_parser("dist", help="distribution polynomial over a class")
    p_dist.add_argument(
        "--avoid", action="append", help="comma-separated forbidden patterns; repeats add up"
    )
    p_dist.add_argument(
        "--stat", action=_Once, default="crs", help="statistic, or two for a joint distribution"
    )
    p_dist.add_argument("--n", action=_Once, required=True, help="size or range, e.g. 6 or 1..8")
    p_dist.add_argument("--one-at", action=_Once, type=int, help="letter 1 at position n+1-k")
    p_dist.add_argument("--ends-with", action=_Once, type=int, help="last letter is k")
    p_dist.add_argument("--tail", action=_Once, type=int, help="word ends with k,k-1,...,1")
    p_dist.add_argument("--maxdrop", action=_Once, type=int, help="max drop at most d")
    _output_formats(p_dist)
    p_dist.set_defaults(func=_cmd_dist)

    p_expand = sub.add_parser("expand", help="expand a generating function with a brute-force column")
    p_expand.add_argument("gf", choices=EXPAND_IDS)
    p_expand.add_argument("--order", type=int, required=True)
    _output_formats(p_expand)
    p_expand.set_defaults(func=_cmd_expand)

    p_verify = sub.add_parser("verify", help="run verification checks")
    p_verify.add_argument("checks", nargs="*", help="check ids, or 'all' (default)")
    p_verify.add_argument("--bound", type=int, help="override every selected check's bound")
    _output_formats(p_verify)
    p_verify.add_argument("--list", action="store_true", help="list the selected checks and exit")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CliError, BoundExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
