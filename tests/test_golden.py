"""Byte-exact CLI reports, pinned against committed golden files.

`tests/golden/jobs.json` names one job per case: the argv, the exact
stdin text (or null), the exit code and the stderr text.  The stdout
bytes live next to it in `<case>.stdout`.  Every case runs `cli.main`
in process and must reproduce all three exactly.

To add a case, add its argv and stdin at the end of `jobs.json` and run
`python tests/test_golden.py`: it records the outputs of cases that have
none yet and never rewrites an existing one.  Cases run in file order,
so an appended case leaves the test ids of the others as they were.  A
failing case means a report changed; mend the program, not the golden
file.
"""

import contextlib
import gc
import io
import json
import sys
from pathlib import Path

import pytest

from dualfan.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
JOBS = GOLDEN / "jobs.json"


def _load_jobs():
    return json.loads(JOBS.read_text(encoding="utf-8"))


def run_job(argv, stdin):
    """(exit code, stdout text, stderr text) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name, job", list(_load_jobs().items()))
def test_golden_report(name, job):
    code, out, err = run_job(job["argv"], job["stdin"])
    expected = (GOLDEN / f"{name}.stdout").read_bytes()
    assert out.encode("utf-8") == expected
    assert err == job["stderr"]
    assert code == job["exit"]


def test_goldens_cover_every_command_and_exit_code():
    jobs = _load_jobs().values()
    assert {job["argv"][0] for job in jobs} == {
        "dualcheck", "fan-validate", "bhk", "bb", "givental", "hori-vafa",
        "quintic", "section-polytope", "bundle-fan"}
    assert {job["exit"] for job in jobs} == {0, 1, 2}


@pytest.mark.parametrize("name, twin", [
    # basis rays as vectors instead of indices
    ("givental-p1xp1-basis-vectors", "givental-p1xp1-basis-indices"),
    # an integer as a decimal string instead of a JSON number
    ("section-polytope-p2-beyond-2-53-string",
     "section-polytope-p2-beyond-2-53"),
])
def test_equivalent_input_forms_print_the_same_report(name, twin):
    assert (GOLDEN / f"{name}.stdout").read_bytes() == (
        GOLDEN / f"{twin}.stdout").read_bytes()
    jobs = _load_jobs()
    assert jobs[name]["stdin"] != jobs[twin]["stdin"]


def test_no_golden_job_leaves_cyclic_garbage():
    # with the collector off, a reference cycle keeps everything it holds
    # alive until the next collection; a job should free what it built as
    # soon as it is done with it
    left = {}
    gc.collect()
    gc.disable()
    try:
        for name, job in _load_jobs().items():
            run_job(job["argv"], job["stdin"])
            found = gc.collect()
            if found:
                left[name] = found
    finally:
        gc.enable()
    assert left == {}


def _record_new_cases():
    jobs = _load_jobs()
    for name, job in jobs.items():
        if "exit" in job:
            continue
        code, out, err = run_job(job["argv"], job["stdin"])
        (GOLDEN / f"{name}.stdout").write_bytes(out.encode("utf-8"))
        job.update(exit=code, stderr=err)
        print(f"recorded {name}: exit {code}")
    lines = [f" {json.dumps(name)}: {json.dumps(job, sort_keys=True)}"
             for name, job in jobs.items()]
    JOBS.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    _record_new_cases()
