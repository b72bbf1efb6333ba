"""Every check accepts the program's real output and rejects a
deliberately perturbed copy of it.

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py
"""

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from passrun import run_cli  # noqa: E402

import dualfan.cli  # noqa: E402

LADDER = {job.name: job for job in workloads.build("mirror-ladder", 0)}
SMALL = workloads.build("small-jobs", 7)
SECTIONS = {job.name: job for job in workloads.build("section-points", 7)}


def small(prefix, expect=None):
    return next(j for j in SMALL if j.name.startswith(prefix)
                and (expect is None or j.expect == expect))


def run(job):
    if job.command == "fermat":
        return {"error": None,
                "view": workloads.fermat_view(
                    *workloads.fermat_pipeline(job.payload))}
    return run_cli(dualfan.cli, job)


def with_doc(outcome, change):
    """A copy of a CLI outcome whose report went through `change`."""
    doc = json.loads(outcome["stdout"])
    change(doc)
    return dict(outcome, stdout=json.dumps(doc, sort_keys=True,
                                           separators=(",", ":")) + "\n")


def with_view(outcome, change):
    view = copy.deepcopy(outcome["view"])
    change(view)
    return dict(outcome, view=view)


def nudge_marker(fan_json):
    key = "marked" if "marked" in fan_json else "rays"
    fan_json[key][0][0] += 1


def fiber_exponents(doc, base_rays):
    sigma_x = doc["report"]["sigma_x"]
    return sigma_x.get("marked", sigma_x["rays"])[base_rays:]


def drop_point(doc):
    doc["lattice_points"].pop()
    doc["count"] -= 1


def duplicate_point(doc):
    doc["lattice_points"][1] = doc["lattice_points"][0]


def swap_points(doc):
    pts = doc["lattice_points"]
    pts[0], pts[1] = pts[1], pts[0]


def outside_point(doc):
    doc["lattice_points"][-1] = [x + 1000 for x in doc["lattice_points"][-1]]


def add_point(doc):
    doc["lattice_points"].append([x + 1000 for x in doc["lattice_points"][-1]])
    doc["count"] += 1


def flip_verdict(doc):
    doc["duality"]["verdict"] = not doc["duality"]["verdict"]


def set_check(name, value):
    def change(doc):
        doc["report"]["checks"][name] = value
    return change


def set_key(path, value):
    def change(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return change


CLI_CASES = [
    ("quintic", lambda: LADDER["quintic"], [
        set_key(("xi_count",), 127),
        set_key(("report", "counts", "deck_group_order"), 124),
        lambda d: nudge_marker(d["report"]["sigma_x_prime"]),
        lambda d: d["report"]["to_gamma"]["surviving"].pop(),
    ]),
    ("bhk", lambda: LADDER["bhk/fermat3/1"], [
        lambda d: nudge_marker(d["report"]["sigma_x"]),
        set_key(("groups", "q_factors"), [9]),
        set_key(("groups", "criterion_holds"), False),
    ]),
    ("bb", lambda: small("bb/"), [
        set_key(("report", "counts", "index"), 2),
        set_check("support_identity", False),
        set_key(("report", "passed"), False),
    ]),
    ("givental", lambda: next(j for j in SMALL if j.command == "givental"), [
        set_key(("report", "passed"), False),
    ]),
    ("section", lambda: SECTIONS["p2/13"], [
        drop_point, duplicate_point, swap_points, outside_point, add_point,
        set_key(("cartier",), False),
    ]),
    ("section brute force", lambda: SECTIONS["polygon16/15"], [
        drop_point, outside_point, add_point,
    ]),
    ("dualcheck pass", lambda: small("dualcheck/", 0), [flip_verdict]),
    ("dualcheck fail", lambda: small("dualcheck/", 1), [
        flip_verdict,
        lambda d: d["duality"]["witness"].update(pairing=5),
        set_key(("duality", "witness"), None),
    ]),
    ("fan-validate", lambda: small("fan-validate/"), [
        lambda d: d.update(complete=not d["complete"]),
        lambda d: d.update(smooth=not d["smooth"]),
        lambda d: d.update(ok=False),
    ]),
    ("bundle-fan", lambda: small("bundle-fan/"), [
        lambda d: d["fan"]["rays"][0].__setitem__(-1, 99),
        lambda d: d["fan"]["max_cones"].pop(),
    ]),
]


def cases():
    for label, pick, changes in CLI_CASES:
        for i, change in enumerate(changes):
            yield pytest.param(pick, change, id=f"{label}-{i}")


@pytest.mark.parametrize("pick,change", cases())
def test_check_rejects_perturbed_report(pick, change):
    job = pick()
    outcome = run(job)
    results = {job.name: outcome}
    assert checks.check(job, outcome, results) == []
    assert checks.check(job, with_doc(outcome, change), results) != []


@pytest.mark.parametrize("change", [
    lambda v: v.update(deck_factors=[3, 3]),
    lambda v: v["counts"].update(xi_count=v["counts"]["xi_count"] + 1),
    lambda v: v["to_gamma"]["surviving"].pop(),
    lambda v: v["duality"].update(verdict=False),
    lambda v: nudge_marker(v["sigma_x_prime"]),
    lambda v: v["sigma_x"]["rays"].pop(),
])
def test_fermat_check_rejects_perturbed_view(change):
    job = LADDER["fermat-3"]
    outcome = run(job)
    assert checks.check(job, outcome, {}) == []
    assert checks.check(job, with_view(outcome, change), {}) != []


def test_sign_flip_check_rejects_perturbed_potentials():
    hv = next(j for j in SMALL if j.command == "hori-vafa")
    giv = next(j for j in SMALL if j.name == hv.facts["partner"])
    results = {giv.name: run(giv), hv.name: run(hv)}
    assert checks.check(hv, results[hv.name], results) == []
    base_rays = hv.facts["base_rays"]

    def flip_base(doc):
        fibers = fiber_exponents(doc, base_rays)
        next(t for t in doc["report"]["potentials"]["w_prime"]
             if t["exponent"] not in fibers)["coefficient"] = "7"

    def unflip_fibers(doc):
        fibers = fiber_exponents(doc, base_rays)
        for t in doc["report"]["potentials"]["w_prime"]:
            if t["exponent"] in fibers:
                t["coefficient"] = "1"

    for change in (flip_base, unflip_fibers,
                   lambda d: d["report"]["potentials"]["w_prime"].pop()):
        bad = with_doc(results[hv.name], change)
        assert checks.check(hv, bad, results) != []


@pytest.mark.parametrize("name", ["reject/0", "malformed/0"])
def test_rejected_check(name):
    job = next(j for j in SMALL if j.name == name)
    good = {"code": 2, "stdout": "", "stderr": "error: bad input\n",
            "error": None}
    assert checks.check(job, good, {}) == []
    for bad in (dict(good, code=1), dict(good, stdout="{}\n"),
                dict(good, stderr="Traceback (most recent call last):\n"),
                dict(good, stderr="")):
        assert checks.check(job, bad, {}) != []


def test_reject_jobs_pass_today():
    for job in SMALL:
        if job.name.startswith("reject/"):
            assert checks.check(job, run(job), {}) == [], job.name
