"""The outcome of every benchmark job, pinned as one digest.

`outcome_digest.digest()` runs the 528 jobs of the benchmark workloads
in process and hashes their outcomes (see `tests/outcome_digest.py` for
the recipe).  A change that must leave every report the same keeps this
digest.  A change to the benchmark workloads changes the job list, so it
must re-pin both figures here and say so in CHANGES.md.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import outcome_digest  # noqa: E402


def test_every_benchmark_job_keeps_its_outcome():
    assert outcome_digest.digest() == (528, "fdbd04fc9fa1fe5b1fc2d8c408982fea")
