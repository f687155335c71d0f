#!/usr/bin/env python3
"""Record the reference outputs that ``run.py`` checks every pass against.

    python3 perfbench/make_references.py

Writes ``perfbench/references.json``: the status of every check, and a digest
of the distribution polynomial of every class-sweep class and of every
group-stats fold.  The references were recorded once, at the commit that
added the benchmark, with each class size also checked against its known
value; a change to the program must match them, not regenerate them.
"""

from __future__ import annotations

import json
import sys

import run
import worker


def main() -> int:
    ledger = worker.CacheLedger()
    queries = [run.sweep_query(*cls[:4]) for cls in run.SWEEP_CLASSES]
    sweep = worker.class_sweep({"queries": queries}, ledger)()
    group = worker.group_stats({"order": list(run.GROUP_ITEMS)}, ledger)()
    known = {name: size for name, *_, size in run.SWEEP_CLASSES}
    for out in sweep:
        if out["cardinality"] != known[out["cls"]] or out["coeff_sum"] != known[out["cls"]]:
            print(f"{out['key']}: size {out['cardinality']}, expected {known[out['cls']]}", file=sys.stderr)
            return 1
    for out in group:
        if out["cardinality"] != run.GROUP_SIZE or out["coeff_sum"] != run.GROUP_SIZE:
            print(f"{out['key']}: size {out['cardinality']}, expected {run.GROUP_SIZE}", file=sys.stderr)
            return 1
    ledger.clear()
    statuses = {}
    for line in worker.verify_all(None, ledger)()["lines"]:
        record = json.loads(line)
        statuses[record["check_id"]] = record["status"]
    refs = {
        "verify-all": statuses,
        "class-sweep": {out["key"]: out["digest"] for out in sweep},
        "group-stats": {out["key"]: out["digest"] for out in group},
    }
    (run.BENCH_DIR / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
