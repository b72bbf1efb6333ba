"""The committed `BENCH_<workload>.json` trajectory files.

There is one file per workload that `BENCHMARK.json` declares, at the
repository root.  Each entry records one measured change: its PR number,
commit and parent, the seed, the run length, the number of paired runs,
the claimed metric if any, and parent → change [q1, median, q3] for every
end-to-end metric.  A quartile or a count that was not recorded is null,
and then the entry's note names where its figures came from.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
METRICS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
FIELDS = {"pr", "commit", "parent", "seed", "run_seconds", "pairs", "claim",
          "metrics", "note"}
HASH = re.compile(r"[0-9a-f]{7,40}")


def _number(x):
    return type(x) in (int, float) and x > 0


def test_every_workload_has_one_file_and_no_other_file_exists():
    found = sorted(p.name for p in ROOT.glob("BENCH_*.json"))
    assert found == sorted(f"BENCH_{w}.json" for w in WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_entry_has_every_field(workload):
    doc = json.loads((ROOT / f"BENCH_{workload}.json").read_text())
    assert doc["workload"] == workload
    assert doc["units"] == METRICS
    prs = [e["pr"] for e in doc["entries"]]
    assert prs and prs == sorted(set(prs))
    for e in doc["entries"]:
        assert set(e) == FIELDS, e["pr"]
        assert type(e["pr"]) is int and type(e["seed"]) is int
        assert HASH.fullmatch(e["parent"])
        # a change measured before it is committed has no hash yet; the
        # next change fills it in, so only the newest entry may lack it
        assert (e["commit"] is None and e is doc["entries"][-1]
                or HASH.fullmatch(e["commit"])), e["pr"]
        assert e["commit"] != e["parent"]
        assert _number(e["run_seconds"])
        assert e["pairs"] is None or type(e["pairs"]) is int and e["pairs"] > 0
        assert e["claim"] is None or e["claim"] in METRICS
        assert set(e["metrics"]) == set(METRICS)
        unknown = e["commit"] is None or e["pairs"] is None
        for name, sides in e["metrics"].items():
            assert set(sides) == {"parent", "change"}, (e["pr"], name)
            for q1, median, q3 in sides.values():
                assert _number(median), (e["pr"], name)
                for q in (q1, q3):
                    assert q is None or _number(q), (e["pr"], name)
                    unknown = unknown or q is None
                if q1 is not None and q3 is not None:
                    assert q1 <= median <= q3, (e["pr"], name)
        assert type(e["note"]) is str
        if unknown:
            assert e["note"].strip(), e["pr"]
    # the entries form one chain of commits
    for before, after in zip(doc["entries"], doc["entries"][1:]):
        assert after["parent"] == before["commit"], after["pr"]
