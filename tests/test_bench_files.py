"""Schema of the committed BENCH_*.json files: each holds, for every
workload and end-to-end metric that BENCHMARK.json declares, the medians of
the parent and of the change, with the host and both commits."""

import glob
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_FILES = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    _DECL = json.load(_fh)
WORKLOADS = [w["name"] for w in _DECL["workloads"]]
METRICS = [m["name"] for m in _DECL["end_to_end"]]


def test_some_bench_file_exists():
    assert BENCH_FILES


def _number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


@pytest.mark.parametrize("path", BENCH_FILES, ids=os.path.basename)
def test_bench_file_schema(path):
    with open(path) as fh:
        bench = json.load(fh)
    for key in ("parent_sha", "change_sha"):
        sha = bench[key]
        assert len(sha) == 40 and int(sha, 16) >= 0
    assert bench["parent_sha"] != bench["change_sha"]
    assert _number(bench["host"]["nproc"]) and bench["host"]["python"]
    rows = bench["end_to_end"]
    for name in WORKLOADS:
        mine = [r for r in rows if r["workload"] == name]
        assert mine, "%s: no end-to-end row" % name
        for row in mine:
            assert row["pairs"] >= 1
            for metric in METRICS:
                cell = row["metrics"][metric]
                for side in ("parent", "change"):
                    stats = cell[side]
                    assert _number(stats["median"]), (name, metric, side)
                    assert stats["q1"] <= stats["median"] <= stats["q3"]
