"""Correctness checks made apart from the program.

Each check reads one job's input, the facts the workload attached to it
and the program's output, and returns a list of problems (empty when
the output is right).  The expected values come from closed forms,
brute-force counts and arithmetic done here; nothing is compared
against a stored copy of earlier output, and nothing imports dualfan.

An outcome is a dict with `code` (exit status), `stdout`, `stderr`,
`error` (the repr of an exception that escaped, or None) and, for the
in-process Fermat jobs, `view`.
"""

import itertools
import json
import math
from fractions import Fraction


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def det(m):
    """Exact determinant by elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    sign = 1
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c] != 0), None)
        if p is None:
            return 0
        if p != c:
            a[c], a[p] = a[p], a[c]
            sign = -sign
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    out = Fraction(sign)
    for i in range(n):
        out *= a[i][i]
    return int(out)


def primitive(v):
    g = 0
    for x in v:
        g = math.gcd(g, x)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def markers(fan_json):
    return [tuple(m) for m in fan_json.get("marked", fan_json["rays"])]


def report_of(outcome):
    try:
        return json.loads(outcome["stdout"])
    except (TypeError, ValueError):
        return None


def exit_problems(job, outcome):
    problems = []
    if outcome["code"] != job.expect:
        problems.append(f"exit {outcome['code']}, expected {job.expect}")
    if job.expect in (0, 1):
        doc = report_of(outcome)
        if doc is None:
            problems.append("no JSON report on stdout")
        elif not outcome["stdout"].endswith("\n") or \
                json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n" \
                != outcome["stdout"]:
            problems.append("report is not canonical JSON")
    return problems


# ----------------------------------------------------------------- ladder

def check_fermat_view(n, view):
    problems = []
    d = n + 1
    base = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    base.append(tuple(-1 for _ in range(n)))
    lifted = [u + (1,) for u in base]
    expected_rays = set(lifted) | {(0,) * n + (1,)}
    if set(map(tuple, view["sigma_x"]["rays"])) != expected_rays:
        problems.append("total-space rays are not the lifted P^n rays")
    if view["counts"].get("xi_count") != math.comb(2 * n + 1, n):
        problems.append(f"{view['counts'].get('xi_count')} sections, "
                        f"expected C({2 * n + 1},{n})")
    if len(view["to_gamma"]["surviving"]) != n + 2:
        problems.append("surviving coefficient count is not n+2")
    if view["duality"]["verdict"] is not True:
        problems.append("duality verdict failed")
    # the degree dictionary pairs an exponent with the lifted base rays
    images = {tuple(dot(row, m) for row in lifted)
              for m in markers(view["sigma_x_prime"])}
    powers = {tuple(d * int(i == j) for j in range(d)) for i in range(d)}
    if images != powers | {(1,) * d}:
        problems.append("markers are not the pure powers and the product")
    return problems


def check_fermat(job, outcome, results):
    n = job.facts["n"]
    view = outcome["view"]
    problems = check_fermat_view(n, view)
    if view["deck_factors"] != [n + 1] * (n - 1):
        problems.append(f"deck group factors {view['deck_factors']}")
    return problems


def check_quintic(job, outcome, results):
    problems = exit_problems(job, outcome)
    doc = report_of(outcome)
    if problems or doc is None:
        return problems
    rep = doc["report"]
    view = dict(rep, deck_factors=None)
    problems += check_fermat_view(4, view)
    if (doc["xi_count"], doc["xi_prime_count"],
            rep["counts"].get("deck_group_order")) != (126, 6, 125):
        problems.append("quintic counts are not 126, 6, 125")
    if not (doc["dual_fans"] and rep["passed"]):
        problems.append("quintic report did not pass")
    return problems


def check_bhk(job, outcome, results):
    problems = exit_problems(job, outcome)
    doc = report_of(outcome)
    if problems or doc is None:
        return problems
    p = job.facts["P"]
    rep = doc["report"]
    left, right = markers(rep["sigma_x"]), markers(rep["sigma_x_prime"])
    n = len(p)
    if len(left) != n or len(right) != n or any(
            dot(left[i], right[j]) != p[i][j]
            for i in range(n) for j in range(n)):
        problems.append("marker pairings differ from the entries of P")
    groups = doc["groups"]
    if math.prod(groups["q_factors"]) * math.prod(groups["q_dual_factors"]) \
            != abs(det(p)):
        problems.append("|Q| * |Q^T| differs from |det P|")
    if not (rep["passed"] and groups["criterion_holds"]):
        problems.append("bhk report did not pass")
    return problems


def check_bb(job, outcome, results):
    problems = exit_problems(job, outcome)
    doc = report_of(outcome)
    if problems or doc is None:
        return problems
    rep = doc["report"]
    if rep["counts"].get("index") != job.facts["index"]:
        problems.append(f"index {rep['counts'].get('index')}, "
                        f"expected {job.facts['index']}")
    failed = [name for name, ok in rep["checks"].items() if ok is not True]
    if failed or not rep["checks"]:
        problems.append(f"named checks failed: {failed}")
    if not (rep["passed"] and rep["duality"]["verdict"]):
        problems.append("bb report did not pass")
    return problems


def check_givental(job, outcome, results):
    problems = exit_problems(job, outcome)
    doc = report_of(outcome)
    if problems or doc is None:
        return problems
    if not doc["report"]["passed"]:
        problems.append("givental report did not pass")
    return problems


def check_sign_flip(job, outcome, results):
    """`hori-vafa` against `givental` on the same input: the potentials
    differ exactly by the sign of the fiber-direction coefficients."""
    problems = exit_problems(job, outcome)
    doc = report_of(outcome)
    partner = report_of(results[job.facts["partner"]])
    if problems or doc is None or partner is None:
        return problems + ([] if partner else ["no givental partner report"])
    hv, giv = doc["report"], partner["report"]
    if not hv["passed"]:
        problems.append("hori-vafa report did not pass")
    if hv["sigma_x"] != giv["sigma_x"]:
        problems.append("the two total-space fans differ")
    wg = {tuple(t["exponent"]): t["coefficient"]
          for t in giv["potentials"]["w_prime"]}
    wh = {tuple(t["exponent"]): t["coefficient"]
          for t in hv["potentials"]["w_prime"]}
    vertical = set(markers(giv["sigma_x"])[job.facts["base_rays"]:])
    flipped = {e for e in wg if wg[e] != wh.get(e)}
    if set(wg) != set(wh):
        problems.append("the potentials have different supports")
    elif flipped != vertical or not vertical:
        problems.append("flipped terms are not the fiber directions")
    elif any((wg[e], wh[e]) != ("1", "-1") for e in flipped):
        problems.append("fiber coefficients are not 1 and -1")
    return problems


# --------------------------------------------------------- section points

def brute_force_points(rays, coeffs):
    """Integer points of {m : <m,u> + a >= 0}, searched in the box the
    coordinate-axis rays cut out."""
    n = len(rays[0])
    lo, hi = [None] * n, [None] * n
    for u, a in zip(rays, coeffs):
        axis = [i for i, x in enumerate(u) if x]
        if len(axis) == 1 and abs(u[axis[0]]) == 1:
            i = axis[0]
            if u[i] == 1:
                lo[i] = -a
            else:
                hi[i] = a
    if None in lo or None in hi:
        raise ValueError("brute force needs both rays of every axis")
    box = itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi)))
    return [m for m in box if all(dot(m, u) + a >= 0
                                  for u, a in zip(rays, coeffs))]


def check_section(job, outcome, results):
    problems = exit_problems(job, outcome)
    doc = report_of(outcome)
    if problems or doc is None:
        return problems
    rays = [tuple(r) for r in job.payload["fan"]["rays"]]
    coeffs = job.payload["divisor"]["coeffs"]
    points = [tuple(p) for p in doc["lattice_points"]]
    expected = job.facts["count"]
    if job.facts.get("brute_force"):
        expected = len(brute_force_points(rays, coeffs))
    if doc["count"] != expected or len(points) != expected:
        problems.append(f"{doc['count']} points, expected {expected}")
    if any(a >= b for a, b in zip(points, points[1:])):
        problems.append("points are not distinct and sorted")
    outside = [p for p in points
               if any(dot(p, u) + a < 0 for u, a in zip(rays, coeffs))]
    if outside:
        problems.append(f"point {list(outside[0])} violates an inequality")
    if job.facts.get("smooth") and doc["cartier"] is not True:
        problems.append("a divisor on a smooth fan was not Cartier")
    return problems


# ------------------------------------------------------------- small jobs

def check_dualcheck(job, outcome, results):
    problems = exit_problems(job, outcome)
    doc = report_of(outcome)
    if problems or doc is None:
        return problems
    rays = [primitive(r) for r in job.payload["fan"]["rays"]]
    dual = [primitive(r) for r in job.payload["dual_fan"]["rays"]]
    verdict = all(dot(m, u) >= 0 for m in dual for u in rays)
    got = doc["duality"]
    if got["verdict"] is not verdict:
        problems.append(f"verdict {got['verdict']}, pairings say {verdict}")
    witness = got["witness"]
    if verdict and witness is not None:
        problems.append("a passing verdict carries a witness")
    if not verdict:
        if witness is None:
            problems.append("a failing verdict has no witness")
        elif not (tuple(witness["m"]) in dual and tuple(witness["n"]) in rays
                  and witness["pairing"] == dot(witness["m"], witness["n"])
                  and witness["pairing"] < 0):
            problems.append("the witness is not a negative ray pairing")
    return problems


def polygon_facts(rays, cones):
    """Completeness and smoothness of a 2-d fan of 2-d cones from
    consecutive determinants: walking the rays by angle, every
    consecutive pair must span a cone with determinant 1 (smooth) or
    at least 1 (strictly convex, counterclockwise)."""
    order = sorted(range(len(rays)),
                   key=lambda i: math.atan2(rays[i][1], rays[i][0]))
    cone_set = {tuple(sorted(c)) for c in cones}
    dets = {c: abs(det([rays[c[0]], rays[c[1]]])) for c in cone_set}
    pairs = [tuple(sorted((order[i], order[(i + 1) % len(order)])))
             for i in range(len(order))]
    walk = [det([rays[order[i]], rays[order[(i + 1) % len(order)]]])
            for i in range(len(order))]
    complete = len(rays) >= 3 and all(w > 0 for w in walk) \
        and set(pairs) == cone_set
    smooth = all(v == 1 for v in dets.values())
    return complete, smooth


def check_fan_validate(job, outcome, results):
    problems = exit_problems(job, outcome)
    doc = report_of(outcome)
    if problems or doc is None:
        return problems
    rays = [tuple(r) for r in job.payload["fan"]["rays"]]
    cones = job.payload["fan"]["max_cones"]
    if job.facts.get("overlap"):
        if doc["ok"] is not False or not doc["diagnostics"]:
            problems.append("overlapping cones were accepted")
        return problems
    complete, smooth = polygon_facts(rays, cones)
    if doc["ok"] is not True or doc["diagnostics"]:
        problems.append("a polygon fan failed validation")
    if doc["complete"] is not complete:
        problems.append(f"complete {doc['complete']}, determinants say "
                        f"{complete}")
    if doc["smooth"] is not smooth:
        problems.append(f"smooth {doc['smooth']}, determinants say {smooth}")
    if doc["ray_count"] != len(rays):
        problems.append("wrong ray count")
    return problems


def check_bundle_fan(job, outcome, results):
    problems = exit_problems(job, outcome)
    doc = report_of(outcome)
    if problems or doc is None:
        return problems
    rays = [tuple(r) for r in job.payload["fan"]["rays"]]
    coeffs = job.payload["divisors"][0]["coeffs"]
    n = len(rays[0])
    expected = {u + (a,) for u, a in zip(rays, coeffs)} | {(0,) * n + (1,)}
    got = doc["fan"]
    if set(map(tuple, got["rays"])) != expected:
        problems.append("total-space rays are not the lifted rays")
    if got["rank"] != n + 1 or \
            len(got["max_cones"]) != len(job.payload["fan"]["max_cones"]):
        problems.append("total-space fan has the wrong shape")
    return problems


def check_rejected(job, outcome, results):
    problems = exit_problems(job, outcome)
    lines = outcome["stderr"].splitlines()
    if outcome["stdout"]:
        problems.append("a rejected job printed a report")
    if len(lines) != 1 or not lines[0].startswith("error: ") \
            or "Traceback" in outcome["stderr"]:
        problems.append("the rejection is not one error: line")
    return problems


CHECKS = {
    "fermat": check_fermat,
    "quintic": check_quintic,
    "bhk": check_bhk,
    "bb": check_bb,
    "givental": check_givental,
    "sign_flip": check_sign_flip,
    "section": check_section,
    "dualcheck": check_dualcheck,
    "fan_validate": check_fan_validate,
    "bundle_fan": check_bundle_fan,
    "rejected": check_rejected,
}


def check(job, outcome, results):
    return CHECKS[job.check](job, outcome, results)
