"""Print one MD5 digest over the outcomes of every benchmark job.

    PYTHONPATH=src python3 tests/outcome_digest.py

Two revisions whose outcomes all agree print the same line, so a change
that should not alter any result can be checked against its parent in
one command per checkout.

The recipe: the workloads run in `workloads.WORKLOADS` order, each at
seeds 20151, 31 and 7 in that order, and each seed's jobs in the order
`workloads.build` returns them (528 jobs in all).  Every job runs once
through `passrun.run_job(dualfan.cli, job)`, and the digest is fed, job
after job, the UTF-8 bytes of

    json.dumps([workload, seed, job.name,
                passrun.outcome_of(job, passrun.run_job(dualfan.cli, job))],
               sort_keys=True)

with nothing between two jobs.  The script prints the job count and the
hex digest, separated by one space.  The digest does not depend on
PYTHONHASHSEED.
"""

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import passrun  # noqa: E402
import workloads  # noqa: E402

SEEDS = (20151, 31, 7)


def digest():
    """(job count, hex MD5) over every job of every workload and seed."""
    import dualfan.cli

    md5 = hashlib.md5()
    count = 0
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for job in workloads.build(workload, seed):
                outcome = passrun.outcome_of(
                    job, passrun.run_job(dualfan.cli, job))
                md5.update(json.dumps([workload, seed, job.name, outcome],
                                      sort_keys=True).encode("utf-8"))
                count += 1
    return count, md5.hexdigest()


if __name__ == "__main__":
    print(*digest())
