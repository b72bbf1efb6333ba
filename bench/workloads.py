"""Job lists for the three benchmark workloads.

A job is one CLI invocation (run in-process through `dualfan.cli.main`)
or one in-process Fermat pipeline.  Each job carries everything its
check needs: the expected exit code, the name of the check, and the
closed-form facts the check compares against.  Nothing here imports
dualfan at module level, so a pass can time the package import itself.

`mirror-ladder` is fixed; `section-points` and `small-jobs` draw their
transformations and small inputs from the seed.  Every property the
checks test, and the work of a pass, is the same for every seed.
"""

import itertools
import json
import math
import random
from fractions import Fraction

WORKLOADS = ("mirror-ladder", "section-points", "small-jobs")


class Job:
    """One operation of a pass.

    `command` is a CLI command name, or "fermat" for the in-process
    pipeline with `payload` = n.  `text` is the exact stdin the CLI
    reads.  `facts` holds what the check needs beyond the input.
    """

    __slots__ = ("name", "command", "payload", "text", "expect", "check",
                 "facts")

    def __init__(self, name, command, payload, check, expect=0, facts=None,
                 text=None):
        self.name = name
        self.command = command
        self.payload = payload
        if text is None and payload is not None and command != "fermat":
            text = json.dumps(payload)
        self.text = text
        self.expect = expect
        self.check = check
        self.facts = dict(facts or {})


def build(workload, seed):
    if workload == "mirror-ladder":
        jobs = _mirror_ladder()
    elif workload == "section-points":
        jobs = _section_points(random.Random(seed))
    elif workload == "small-jobs":
        jobs = _small_jobs(random.Random(seed))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    names = [j.name for j in jobs]
    if len(set(names)) != len(names):
        raise ValueError("job names repeat within a pass")
    inputs = [(j.command, j.text, j.payload if j.text is None else None)
              for j in jobs]
    if len(set(map(repr, inputs))) != len(inputs):
        raise ValueError("a job repeats within a pass")
    return jobs


# ---------------------------------------------------------------- helpers

def fan(rays, cones):
    return {"rank": len(rays[0]), "rays": [list(r) for r in rays],
            "max_cones": [list(c) for c in cones]}


def projective_fan(n):
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays.append(tuple(-1 for _ in range(n)))
    cones = [tuple(j for j in range(n + 1) if j != skip)
             for skip in range(n + 1)]
    return rays, cones


def cube_fan(n):
    rays = []
    for i in range(n):
        rays.append(tuple(int(i == j) for j in range(n)))
        rays.append(tuple(-int(i == j) for j in range(n)))
    cones = [tuple(2 * i + s for i, s in enumerate(signs))
             for signs in itertools.product((0, 1), repeat=n)]
    return rays, cones


def polygon_fan(rays):
    """Complete 2-d fan on rays sorted counterclockwise."""
    rays = sorted(rays, key=lambda v: math.atan2(v[1], v[0]))
    return rays, [(i, (i + 1) % len(rays)) for i in range(len(rays))]


def star_rays(reach):
    """Primitive vectors in the box of radius `reach`."""
    return [(x, y) for x in range(-reach, reach + 1)
            for y in range(-reach, reach + 1)
            if (x, y) != (0, 0) and math.gcd(x, y) == 1]


def random_unimodular(rng, n, steps=None):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps if steps is not None else 2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for k in range(n):
            m[i][k] += c * m[j][k]
    return m


def apply(m, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def transpose(m):
    return [list(col) for col in zip(*m)]


def rational_inverse(p):
    """Inverse over the rationals by Gauss-Jordan elimination."""
    n = len(p)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(p)]
    for c in range(n):
        piv_row = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[piv_row] = a[piv_row], a[c]
        piv = a[c][c]
        a[c] = [x / piv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def int_inverse(m):
    """Inverse of a unimodular integer matrix."""
    inv = rational_inverse(m)
    if any(x.denominator != 1 for row in inv for x in row):
        raise ValueError("matrix is not unimodular")
    return [[int(x) for x in row] for row in inv]


def reorder(rng, rays, cones, coeffs=None):
    """Shuffle the ray list and carry cones and coefficients along."""
    order = list(range(len(rays)))
    rng.shuffle(order)
    where = {old: new for new, old in enumerate(order)}
    new_rays = [rays[i] for i in order]
    new_cones = [sorted(where[i] for i in c) for c in cones]
    rng.shuffle(new_cones)
    new_coeffs = None if coeffs is None else [coeffs[i] for i in order]
    return new_rays, new_cones, new_coeffs


# ------------------------------------------------------------ mirror ladder

FERMAT3 = ((3, 0, 0), (0, 3, 0), (0, 0, 3))
IDENTITY3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
TWO_PT = ((2, 1), (1, 2))
LOOP4 = ((2, 0, 0, 1), (1, 2, 0, 0), (0, 1, 2, 0), (0, 0, 1, 2))

P2_CONE = ((-1, -1, 1), (2, -1, 1), (-1, 2, 1))
SQUARE_CONE = ((1, 0, 1, 0), (-1, 0, 1, 0), (0, 1, 0, 1), (0, -1, 0, 1))


def phase_text(q):
    return [str(Fraction(x) % 1) for x in q]


def full_symmetries(p):
    """Generators of {q : P^t q in Z^n} mod Z^n: the rows of P^-1."""
    return [tuple(x % 1 for x in row) for row in rational_inverse(p)]


def bhk_job(name, p, phases):
    payload = {"P": {"entries": [list(r) for r in p]}}
    if phases:
        payload["Q"] = {"phases": [phase_text(q) for q in phases]}
    return Job(name, "bhk", payload, "bhk", facts={"P": [list(r) for r in p]})


def bb_job(name, gens, ell_dual, splitting, index):
    payload = {"rank": len(gens[0]), "generators": [list(g) for g in gens],
               "ell_dual": list(ell_dual),
               "splitting": [list(e) for e in splitting]}
    return Job(name, "bb", payload, "bb", facts={"index": index})


def bundle_pair(name, rays, cones, bundles):
    """The same split-bundle input through `givental` and `hori-vafa`."""
    payload = {"fan": fan(rays, cones),
               "bundles": [{"coeffs": list(c)} for c in bundles]}
    facts = {"partner": f"{name}/givental", "base_rays": len(rays)}
    return [Job(f"{name}/givental", "givental", payload, "givental"),
            Job(f"{name}/hori-vafa", "hori-vafa", payload, "sign_flip",
                facts=facts)]


def _mirror_ladder():
    jobs = [Job(f"fermat-{n}", "fermat", n, "fermat", facts={"n": n})
            for n in (2, 3)]
    jobs.append(Job("quintic", "quintic", None, "quintic", facts={"n": 4}))
    jobs.append(Job("fermat-5", "fermat", 5, "fermat", facts={"n": 5}))
    third = (Fraction(1, 3),) * 3
    loop = full_symmetries(LOOP4)
    order15 = next(q for q in loop
                   if math.lcm(*(x.denominator for x in q)) == 15)
    fifth = tuple((3 * x) % 1 for x in order15)
    for name, p, variants in (
            ("identity3", IDENTITY3, [()]),
            ("fermat3", FERMAT3, [(), (third,), full_symmetries(FERMAT3)]),
            ("two-point", TWO_PT, [(), full_symmetries(TWO_PT)]),
            ("loop4", LOOP4, [(), (fifth,), loop])):
        for k, q in enumerate(variants):
            jobs.append(bhk_job(f"bhk/{name}/{k}", p, q))
    jobs.append(bb_job("bb/p2", P2_CONE, (0, 0, 1), ((0, 0, 1),), 1))
    jobs.append(bb_job("bb/square", SQUARE_CONE, (0, 0, 1, 1),
                       ((0, 0, 1, 0), (0, 0, 0, 1)), 2))
    p1 = projective_fan(1)
    p2 = projective_fan(2)
    pp = cube_fan(2)
    jobs += bundle_pair("p1", *p1, [(0, 2)])
    jobs += bundle_pair("p2", *p2, [(1, 1, 1)])
    jobs += bundle_pair("p1xp1", *pp, [(1, 1, 0, 0), (0, 0, 1, 1)])
    return jobs


def fermat_pipeline(n):
    """The degree-(n+1) hypersurface in P^n, built from public functions
    the way `quintic_pipeline` builds the n = 4 case."""
    from dualfan.fans import (is_dual_pair, projective_space_fan,
                              quotient_fan, relabel_fan)
    from dualfan.lattice import (LatticeMap, annihilator_lattice,
                                 int_inverse, solve_integer,
                                 solve_integer_matrix)
    from dualfan.mirrors import MirrorReport
    from dualfan.symbols import ParamPoly
    from dualfan.toric_lg import (AuxiliaryLG, Specialization, ToricDivisor,
                                  apply_specialization, auxiliary_lg_from_ci,
                                  base_change_check, line_bundle_fan)

    d = n + 1
    divisor = ToricDivisor(projective_space_fan(n), (1,) * d)
    sigma_x = line_bundle_fan(divisor)
    gamma, _ = auxiliary_lg_from_ci((divisor,))
    dictionary = LatticeMap.from_rows(list(sigma_x.rays[:d]))
    powers = [tuple(solve_integer(dictionary,
                                  [d * int(j == i) for j in range(d)]))
              for i in range(d)]
    product = tuple(solve_integer(dictionary, [1] * d))
    # one phase per middle coordinate: 1/d there and n/d on the last
    phases = [tuple(Fraction(1, d) if j == i else Fraction(n, d) if j == n
                    else 0 for j in range(d)) for i in range(1, n)]
    pulled = [tuple(dictionary.transpose() @ g) for g in phases]
    invariants = annihilator_lattice(pulled, d)
    quotiented, (free_rank, deck) = quotient_fan(sigma_x,
                                                 invariants.transpose())
    identification = LatticeMap.from_cols(
        [tuple(a - b for a, b in zip(powers[i], product)) for i in range(n)]
        + [product])
    placement = solve_integer_matrix(invariants,
                                     identification.transpose()).transpose()
    int_inverse(placement)
    sigma_x_prime = relabel_fan(quotiented, placement)
    duality = is_dual_pair(sigma_x, sigma_x_prime)
    gamma_prime = AuxiliaryLG(sigma_x_prime, sigma_x.marked_generators)
    to_gamma = base_change_check(gamma, sigma_x_prime)
    to_gamma_prime = base_change_check(gamma_prime, sigma_x)
    assignments = {e: 0 for e in gamma.exponents}
    for x in powers:
        assignments[x] = ParamPoly.constant(1)
    assignments[product] = ParamPoly.parameter("psi", coeff=-d)
    w_fermat = apply_specialization(gamma, Specialization(assignments))
    report = MirrorReport(
        sigma_x, sigma_x_prime, duality, to_gamma=to_gamma,
        to_gamma_prime=to_gamma_prime,
        checks=[("finite_quotient", free_rank == 0)],
        counts=[("xi_count", len(gamma.exponents)),
                ("xi_prime_count", len(gamma_prime.exponents))],
        potentials=[("w_fermat", w_fermat)])
    return report, deck


def fermat_view(report, deck):
    """The fields of a Fermat result that the checks read, in the shape
    the `quintic` command prints them."""
    return {
        "sigma_x": {"rays": [list(r) for r in report.sigma_x.rays]},
        "sigma_x_prime": {
            "rays": [list(r) for r in report.sigma_x_prime.rays],
            "marked": [list(m)
                       for m in report.sigma_x_prime.marked_generators]},
        "duality": {"verdict": report.duality.verdict},
        "to_gamma": {"surviving": list(report.to_gamma.surviving)},
        "counts": dict(report.counts),
        "checks": dict(report.checks),
        "deck_factors": list(deck.invariant_factors),
    }


# ----------------------------------------------------------- section points
#
# The seed moves each polytope but never reshapes it: the enumeration's
# cost depends on the polytope's orientation against the coordinate
# axes, so a reflected simplex would cost up to twice as much and the
# work of a pass would depend on the seed.  Signed permutations are
# therefore drawn from the automorphisms of the fan, which carry the
# polytope onto a translate of itself.

def automorphisms(rays):
    """Signed permutation matrices that map the ray set onto itself."""
    n = len(rays[0])
    ray_set = set(rays)
    out = []
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            m = [[signs[i] * int(perm[i] == j) for j in range(n)]
                 for i in range(n)]
            if {apply(m, r) for r in rays} == ray_set:
                out.append(m)
    return out


def section_job(rng, name, rays, cones, coeffs, count, box_axes=None):
    """A `section-polytope` job after a seeded fan automorphism, ray
    reordering and principal-divisor translation."""
    n = len(rays[0])
    s = rng.choice(automorphisms(rays))
    rays = [apply(s, r) for r in rays]
    shift = [rng.randint(-7, 7) for _ in range(n)]
    coeffs = [a + sum(x * y for x, y in zip(shift, r))
              for a, r in zip(coeffs, rays)]
    rays, cones, coeffs = reorder(rng, rays, cones, coeffs)
    payload = {"fan": fan(rays, cones), "divisor": {"coeffs": coeffs}}
    facts = {"count": count, "smooth": True}
    if box_axes:
        facts["brute_force"] = True
    return Job(name, "section-polytope", payload, "section", facts=facts)


def _section_points(rng):
    seg = ([(1,), (-1,)], [(0,), (1,)])
    p2 = projective_fan(2)
    p3 = projective_fan(3)
    f2 = ([(1, 0), (0, 1), (-1, 2), (0, -1)],
          [(0, 1), (1, 2), (2, 3), (3, 0)])
    cube = cube_fan(3)
    poly = polygon_fan(star_rays(2))
    jobs = [
        section_job(rng, "segment/10001", *seg, [5000, 5000], 10001),
        section_job(rng, "segment/301", *seg, [100, 200], 301),
        section_job(rng, "p2/60", *p2, [0, 0, 60], math.comb(62, 2)),
        section_job(rng, "p2/13", *p2, [4, 4, 5], math.comb(15, 2)),
        section_job(rng, "p3/20", *p3, [0, 0, 0, 20], math.comb(23, 3)),
        section_job(rng, "p3/6", *p3, [1, 2, 3, 0], math.comb(9, 3)),
        section_job(rng, "f2/30", *f2, [0, 0, 30, 30], 31 * 61),
        section_job(rng, "f2/8", *f2, [0, 0, 8, 8], 9 * 17),
        section_job(rng, "p1^3/6", *cube, [6] * 6, 13 ** 3),
        section_job(rng, "p1^3/3", *cube, [3] * 6, 7 ** 3),
        section_job(rng, "polygon16/15", *poly, [15] * len(poly[0]), None,
                    box_axes=True),
    ]
    return jobs


# ---------------------------------------------------------------- small jobs
#
# The seed picks the inputs, but the size of every job (ray counts,
# matrix exponents, polytope sizes) follows a fixed schedule, so the
# work of a pass is the same for every seed.

MALFORMED = (
    ("fan-validate", {"fan": {"rank": 2, "rays": 5, "max_cones": [[0, 1]]}}),
    ("fan-validate", {"fan": {"rank": 2, "rays": [[1, 0], [0, 1]],
                              "max_cones": 5}}),
    ("fan-validate", {"fan": {"rank": 2, "rays": [[1, 0], [0, 1]],
                              "max_cones": [[0, 1]], "marked": 7}}),
    ("bhk", {"P": {"entries": [[2, 0], [0, 2]]}, "Q": {"phases": 5}}),
)

# exponent pairs for the Fermat, chain and loop 2x2 matrices
BHK_EXPONENTS = ((2, 3), (3, 4), (2, 5))


def random_polygon(rng, subdivisions, square):
    """Smooth complete polygon fan: `subdivisions` seeded stellar
    subdivisions of P^1 x P^1 (`square`) or P^2, rays kept in
    counterclockwise order."""
    if square:
        rays = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    else:
        rays = [(1, 0), (0, 1), (-1, -1)]
    for _ in range(subdivisions):
        i = rng.randrange(len(rays))
        j = (i + 1) % len(rays)
        rays.insert(i + 1, (rays[i][0] + rays[j][0], rays[i][1] + rays[j][1]))
    return rays, [(i, (i + 1) % len(rays)) for i in range(len(rays))]


def relabel(m, rays):
    return [apply(m, r) for r in rays]


def conjugate(p, swap):
    return [row[::-1] for row in p[::-1]] if swap else p


def _small_jobs(rng):
    jobs = []
    seen = set()

    def add(job):
        key = (job.command, job.text)
        if key in seen:
            return False
        seen.add(key)
        jobs.append(job)
        return True

    def fill(count, make):
        k = 0
        while k < count:
            if add(make(k)):
                k += 1

    # dualcheck: orthant relabelings against their dual relabelings, and
    # broken partners whose verdict must be false
    def dualcheck(k):
        n = 2 + k % 2
        u = random_unimodular(rng, n, steps=3)
        ut = transpose(int_inverse(u))
        basis = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        rays = relabel(u, basis)
        dual = relabel(ut, basis)
        cones = [tuple(range(n))]
        broken = (k // 2) % 2
        if broken:
            dual = dual + [tuple(-x for x in dual[rng.randrange(n)])]
            dual_cones = [tuple(range(n)), (n,)]
        else:
            dual_cones = cones
        payload = {"fan": fan(rays, cones), "dual_fan": fan(dual, dual_cones)}
        return Job(f"dualcheck/{k}", "dualcheck", payload, "dualcheck",
                   expect=broken)
    fill(24, dualcheck)

    # fan-validate: complete smooth polygons, some with a cone dropped,
    # moved by a signed permutation and a ray reordering
    squares = automorphisms([(1, 0), (0, 1), (-1, 0), (0, -1)])

    def fan_validate(k):
        rays, cones = random_polygon(rng, k % 5, (k // 5) % 2)
        if k % 3 == 2:
            cones = cones[:-1]
        rays, cones, _ = reorder(rng, relabel(rng.choice(squares), rays),
                                 cones)
        return Job(f"fan-validate/{k}", "fan-validate",
                   {"fan": fan(rays, cones)}, "fan_validate")
    fill(24, fan_validate)
    overlap = {"rank": 2, "rays": [[1, 0], [0, 1], [1, 1]],
               "max_cones": [[0, 1], [0, 2]]}
    add(Job("fan-validate/overlap", "fan-validate", {"fan": overlap},
            "fan_validate", expect=1, facts={"overlap": True}))

    # bhk: Fermat, chain and loop matrices with the trivial or the full
    # symmetry group, each conjugated by a seeded coordinate swap
    def bhk(k):
        a, b = BHK_EXPONENTS[(k // 3) % 3]
        p = ([[a, 0], [0, b]], [[a, 1], [0, b]], [[a, 1], [1, b]])[k % 3]
        p = conjugate(p, rng.random() < 0.5)
        q = full_symmetries(p) if k >= 9 else []
        return bhk_job(f"bhk/{k}", p, q)
    fill(18, bhk)

    # bb: the segment cone under each of the eight symmetries of the
    # square, in seeded order
    segment = ((-1, 1), (1, 1))
    for k, s in enumerate(squares):
        s_inv_t = transpose(int_inverse(s))
        add(bb_job(f"bb/{k}", relabel(s, segment), apply(s_inv_t, (0, 1)),
                   (apply(s, (0, 1)),), 1))

    # givental / hori-vafa: nef line bundles on P^1, P^2 and P^1 x P^1
    # with scheduled degrees, the base rays in seeded order
    bases = (projective_fan(1), projective_fan(2), cube_fan(2))
    degrees = ([(0, 1), (1, 1), (0, 3), (2, 1)],
               [(1, 0, 0), (1, 1, 0), (0, 0, 2)],
               [(1, 1, 0, 0), (0, 0, 1, 1), (1, 1, 1, 1)])

    def bundles(k):
        rays, cones = bases[k % 3]
        coeffs = degrees[k % 3][k // 3]
        rays, cones, coeffs = reorder(rng, rays, cones, coeffs)
        return bundle_pair(f"bundle/{k}", rays, cones, [coeffs])

    for k in range(10):
        for job in bundles(k):
            add(job)

    # section-polytope: small segments, triangles and squares of
    # scheduled size
    def sections(k):
        size = 1 + k // 3
        if k % 3 == 0:
            a = rng.randint(0, 4 * size)
            return section_job(rng, f"section/{k}", [(1,), (-1,)],
                               [(0,), (1,)], [a, 4 * size - a], 4 * size + 1)
        if k % 3 == 1:
            return section_job(rng, f"section/{k}", *projective_fan(2),
                               [0, 0, size], math.comb(size + 2, 2))
        c = (size + 1) // 2
        return section_job(rng, f"section/{k}", *cube_fan(2), [c] * 4,
                           (2 * c + 1) ** 2)
    fill(18, sections)

    # bundle-fan: line bundles on seeded smooth polygon fans
    def bundle_fan(k):
        rays, cones = random_polygon(rng, k % 5, (k // 5) % 2)
        coeffs = [rng.randint(-2, 3) for _ in rays]
        rays, cones, coeffs = reorder(rng, rays, cones, coeffs)
        payload = {"fan": fan(rays, cones), "divisors": [{"coeffs": coeffs}]}
        return Job(f"bundle-fan/{k}", "bundle-fan", payload, "bundle_fan")
    fill(18, bundle_fan)

    # inputs that must be rejected with exit 2 and an error line
    rejects = [
        ("bhk", {"P": {"entries": [[3, 0, 0], [0, 3, 0], [0, 0, 3]]},
                 "Q": {"phases": [["1/2", 0, 0]]}}),
        ("bb", {"rank": 3, "generators": [[-1, -1, 1], [2, -1, 1],
                                          [-1, 2, 1]],
                "ell_dual": [1, 0, 0], "splitting": [[0, 0, 1]]}),
        ("givental", {"fan": fan(*projective_fan(2)),
                      "bundles": [{"coeffs": [0, 0, -1]}]}),
        ("section-polytope", {"fan": fan([(1, 0), (0, 1)], [(0, 1)]),
                              "divisor": {"coeffs": [0, 0]}}),
        ("bundle-fan", {"fan": fan([(1, 0), (1, 2), (-1, -1)],
                                   [(0, 1), (1, 2), (0, 2)]),
                        "divisors": [{"coeffs": [1, 0, 0]}]}),
        ("bhk", {"Q": {"phases": []}}),
        ("bhk", {"P": {"entries": [[3, 0], [0, 3]]},
                 "Q": {"phases": [[0.5, 0]]}}),
        ("dualcheck", {"fan": fan([(1, 0)], [(0,)]),
                       "dual_fan": fan([(1, 0, 0)], [(0,)])}),
    ]
    for i, (command, payload) in enumerate(rejects):
        add(Job(f"reject/{i}", command, payload, "rejected", expect=2))
    add(Job("reject/json", "dualcheck", None, "rejected", expect=2,
            text="{not json"))
    # malformed shapes: documented as exit 2, they crash today
    for i, (command, payload) in enumerate(MALFORMED):
        add(Job(f"malformed/{i}", command, payload, "rejected", expect=2))
    rng.shuffle(jobs)
    return jobs
