"""The sign-table certificates of `validate_fan` and `is_complete` against
independent oracles.

`validate_fan` passes a pair of cones with no intersection when one facet
normal of one cone is nowhere positive on the other and exposes their
meet as a face of both; `_separated` and a double description (DD) meet
see every other pair.  These seeded tests check that a pair the sign
table passes does meet in a face, that the verdicts and diagnostics equal
the DD meet of every pair, and that on the plane `fan-validate` agrees
with an angular sweep written here.
"""

import io
import json
import math
import random
import sys
from collections import Counter
from itertools import combinations

import dualfan.fans
from dualfan.cli import main
from dualfan.fans import Fan, validate_fan
from dualfan.polyhedra import primitive_vector


def random_pair(rng, rank):
    """A fan of two pointed cones on random rays of the box [-2, 2]^rank:
    cones of every dimension from one ray up, half of them sharing rays."""
    while True:
        rays = sorted({primitive_vector([rng.randint(-2, 2)
                                         for _ in range(rank)])
                       for _ in range(2 * rank + 4)} - {(0,) * rank})
        every = range(len(rays))
        if len(rays) < 2 * rank + 2:
            continue
        s = rng.sample(every, rng.randint(1, rank + 2))
        t = rng.sample([k for k in every if k not in s], rng.randint(1, rank))
        if rng.random() < 0.5:
            t += rng.sample(s, rng.randint(1, min(len(s), rank - 1)))
        f = Fan(rays, [s, t], rank)
        if len(f.max_cones) == 2 and all(c.is_strongly_convex()
                                         for c in f.cones):
            return f


def test_a_pair_the_sign_table_passes_meets_in_a_face(monkeypatch):
    rng = random.Random(20151)
    reached = []
    real = dualfan.fans._separated

    def counting(s, t):
        reached.append((s, t))
        return real(s, t)

    monkeypatch.setattr(dualfan.fans, "_separated", counting)
    outcomes = Counter()
    for rank in (2, 3, 4):
        for _ in range(250):
            f = random_pair(rng, rank)
            s, t = f.cones
            del reached[:]
            v = validate_fan(f)
            meets = s._meets_in_a_face(t)
            assert v.ok == meets, f
            if not reached:  # the sign table passed the pair
                assert meets, f
            shared = bool(set(s.extreme_rays) & set(t.extreme_rays))
            low = min(s.dim, t.dim) < rank
            outcomes[rank, not reached, meets, shared, low] += 1
    for rank in (2, 3, 4):
        # the table passes pairs with and without shared rays, with and
        # without a lower-dimensional cone; others reach the fallbacks
        for shared in (False, True):
            for low in (False, True):
                assert outcomes[rank, True, True, shared, low] >= 2, outcomes
        assert sum(n for (r, table, *_), n in outcomes.items()
                   if r == rank and not table) >= 20, outcomes
        assert sum(n for (r, _, meets, *_), n in outcomes.items()
                   if r == rank and not meets) >= 20, outcomes


def random_cone_fan(rng, rank):
    """Two to five pointed cones on random rays, valid or not."""
    while True:
        rays = sorted({primitive_vector([rng.randint(-2, 2)
                                         for _ in range(rank)])
                       for _ in range(rank + 4)} - {(0,) * rank})
        cones = [rng.sample(range(len(rays)),
                            rng.randint(1, min(len(rays), rank)))
                 for _ in range(rng.randint(2, 5))]
        f = Fan(rays, cones, rank)
        if all(c.is_strongly_convex() for c in f.cones):
            return f


def test_validate_fan_matches_the_meet_of_every_pair():
    rng = random.Random(1501)
    outcomes = Counter()
    for rank in (2, 3, 4):
        for _ in range(80):
            f = random_cone_fan(rng, rank)
            expected = [
                f"intersection of cones {list(f.max_cones[i])} and "
                f"{list(f.max_cones[j])} is not a common face"
                for (i, s), (j, t) in combinations(enumerate(f.cones), 2)
                if not s._meets_in_a_face(t)]
            v = validate_fan(f)
            assert (v.ok, list(v.diagnostics)) == (not expected, expected), f
            outcomes[rank, v.ok] += 1
    assert min(outcomes.values()) >= 10, outcomes


def angle(r):
    return math.atan2(r[1], r[0])


def sweep(rays, cones):
    """(ok, complete) of a plane fan of one- and two-ray cones by an
    angular sweep.  Sorted by angle, the rays cut the circle into arcs,
    each inside or outside each sector.  The fan condition fails when a
    cone holds a line, an arc lies in two sectors, or a one-ray cone lies
    strictly inside a sector.  A valid fan is complete when every arc
    lies in a sector and, as `is_complete` asks of a fan, every maximal
    cone is full dimensional."""
    order = sorted(range(len(rays)), key=lambda k: angle(rays[k]))
    place = {k: p for p, k in enumerate(order)}
    n = len(rays)
    cover = Counter()
    inside = set()
    for cone in cones:
        if len(cone) == 1:
            continue
        a, b = cone
        cross = rays[a][0] * rays[b][1] - rays[a][1] * rays[b][0]
        if cross == 0:  # opposite rays: a line
            return False, False
        if cross < 0:
            a, b = b, a
        # the sector runs counterclockwise from a to b, through the arcs
        # that start at a and at every ray before b
        p = place[a]
        while p != place[b]:
            cover[p] += 1
            p = (p + 1) % n
            if p != place[b]:
                inside.add(order[p])
    ok = max(cover.values(), default=0) <= 1 and not any(
        len(c) == 1 and c[0] in inside for c in cones)
    return ok, ok and len(cover) == n and all(len(c) == 2 for c in cones)


def random_plane_fan(rng):
    """Rays in [-3, 3]^2 with one- and two-ray cones: the sectors between
    neighbours in angle, some dropped and a ray cone added, or random
    cones."""
    rays = sorted({primitive_vector((rng.randint(-3, 3), rng.randint(-3, 3)))
                   for _ in range(rng.randint(3, 8))} - {(0, 0)}, key=angle)
    n = len(rays)
    if rng.random() < 0.6:
        drop = rng.choice((0, 0, 0.2))
        cones = [(k, (k + 1) % n) for k in range(n) if rng.random() >= drop]
        if rng.random() < 0.3:
            cones.append((rng.randrange(n),))
    else:
        cones = [tuple(rng.sample(range(n), min(n, rng.randint(1, 2))))
                 for _ in range(rng.randint(1, 5))]
    cones = [tuple(sorted(c)) for c in cones if len(set(c)) == len(c)]
    return rays, list(dict.fromkeys(cones)) or [(0,)]


def fan_validate(monkeypatch, capsys, rays, cones):
    job = {"fan": {"rank": 2, "rays": [list(r) for r in rays],
                   "max_cones": [list(c) for c in cones]}}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(job)))
    code = main(["fan-validate", "-"])
    body = json.loads(capsys.readouterr().out)
    assert code == (0 if body["ok"] else 1)
    return body["ok"], body["complete"]


def test_plane_fans_match_an_angular_sweep(monkeypatch, capsys):
    rng = random.Random(104713)
    outcomes = Counter()
    for _ in range(400):
        rays, cones = random_plane_fan(rng)
        ok, complete = fan_validate(monkeypatch, capsys, rays, cones)
        expected = sweep(rays, cones)
        # the wall census answers for valid fans only
        assert (ok, complete and ok) == expected, (rays, cones)
        outcomes[expected] += 1
    assert min(outcomes.values()) >= 30, outcomes
