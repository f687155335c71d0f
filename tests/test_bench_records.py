"""Every speed claim is backed by a ``BENCH_*.json`` at the root of the repo:
before and after numbers from one host, for every benchmark workload."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_names_its_host_parent_and_every_workload(path):
    record = json.loads(path.read_text())
    assert isinstance(record["host"]["nproc"], int) and record["host"]["nproc"] > 0
    assert isinstance(record["host"]["python"], str) and record["host"]["python"]
    assert isinstance(record["parent_commit"], str) and record["parent_commit"]
    for workload in WORKLOADS:  # before and after, for every workload
        ref_wall_s = record["end_to_end"][workload]["ref_wall_s"]
        assert {"parent", "change"} <= set(ref_wall_s), workload
