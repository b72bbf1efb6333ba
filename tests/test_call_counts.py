"""Deterministic call counts that keep known wasted work from returning.

Each test wraps one library function wherever a dualfan module bound it
by name, runs a small job, and pins how often the function ran.  The
counts do not depend on timing, so they hold on any machine.
"""

import argparse
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import dualfan.cli
import dualfan.lattice
import dualfan.mirrors.bb
import dualfan.mirrors.bhk
import dualfan.polyhedra
import dualfan.toric_lg
from dualfan.cli import _COMMANDS, main
from dualfan.fans import (Fan, is_complete, orthant_fan, quotient_fan,
                          validate_fan)
from dualfan.groups import FiniteAbelianGroup
from dualfan.lattice import LatticeMap, solve_integer_matrix
from dualfan.polyhedra import Cone, Polytope


def count_calls(monkeypatch, owner, name):
    """A list that grows by one entry per call of `owner.name`, where
    `owner` is a class or a module; a module function is wrapped
    wherever a dualfan module bound it by name."""
    original = getattr(owner, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "dualfan" or mod_name.startswith("dualfan."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counting)
    return calls


def run_job(monkeypatch, capsys, argv, job):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(job)))
    code = main(argv + ["-"])
    capsys.readouterr()
    return code


def test_kernel_basis_runs_only_when_a_cone_has_lines(monkeypatch):
    calls = count_calls(monkeypatch, dualfan.lattice, "kernel_basis")
    pointed = Cone([(1, 0, 0), (0, 1, 0), (1, 1, 2), (0, 0, 1)], 3)
    assert pointed.dim == 3 and pointed.is_strongly_convex()
    assert calls == []
    with_line = Cone([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    assert with_line.lineality_rank == 1
    assert len(calls) >= 1


def test_bhk_job_builds_each_symmetry_group_once(monkeypatch, capsys):
    # every group of the job is built once at the integer core: Q from its
    # phases, the symmetries of P and of Pᵀ from the rows and columns of
    # adj P, Q^T from the columns of adj X, and the two quotient torsions
    # (`from_phases` ran 6 times, and `bhk._symmetries` twice, when every
    # group went through Fraction phases)
    core = count_calls(monkeypatch, FiniteAbelianGroup, "_from_scaled")
    phases = count_calls(monkeypatch, FiniteAbelianGroup, "from_phases")
    job = {"P": {"entries": [[3, 0, 0], [0, 3, 0], [0, 0, 3]]},
           "Q": {"phases": [["1/3", "1/3", "1/3"]]}}
    assert run_job(monkeypatch, capsys, ["bhk"], job) == 0
    assert len(core) == 6
    assert len(phases) == 1  # only Q arrives as phases


def test_bhk_job_builds_each_group_lattice_once(monkeypatch, capsys):
    calls = count_calls(monkeypatch, dualfan.lattice, "_scaled_lattice")
    job = {"P": {"entries": [[3, 0, 0], [0, 3, 0], [0, 0, 3]]},
           "Q": {"phases": [["1/3", "1/3", "1/3"]]}}
    assert run_job(monkeypatch, capsys, ["bhk"], job) == 0
    # six groups, each lattice built once at the integer core; the three
    # subgroup tests build no lattice, because a group made from phases
    # keeps its own and the subgroup's scales from it (10 calls when each
    # test built the subgroup's side, 13 when it built both), and the
    # invariant characters are read off Q's own lattice (7 when the
    # annihilator built it again)
    assert len(calls) == 6


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_an_orthant_quotient_builds_only_its_image_cone(monkeypatch, n):
    built = count_calls(monkeypatch, Cone, "__init__")
    # n on the diagonal, 1 above it
    q = LatticeMap([[n if i == j else int(i < j) for j in range(n)]
                    for i in range(n)])
    image, (free_rank, _) = quotient_fan(orthant_fan(n), q)
    assert free_rank == 0 and len(image.max_cones) == 1
    # the n rays push to an n-dimensional image, so the orthant is
    # simplicial over them and needs no cone of its own (2 when it was
    # built for the face-image check)
    assert len(built) == 1


BB_P2 = {"rank": 3,
         "generators": [[-1, -1, 1], [2, -1, 1], [-1, 2, 1]],
         "ell_dual": [0, 0, 1],
         "splitting": [[0, 0, 1]]}


def test_bb_job_tests_reflexivity_once(monkeypatch, capsys):
    calls = count_calls(monkeypatch, dualfan.mirrors.bb, "is_reflexive")
    assert run_job(monkeypatch, capsys, ["bb"], BB_P2) == 0
    assert len(calls) == 1


def test_bb_job_partitions_each_slice_once(monkeypatch, capsys):
    cuts = count_calls(monkeypatch, dualfan.mirrors.bb, "_cut")
    parts = count_calls(monkeypatch, dualfan.mirrors.bb, "support_partition")
    assert run_job(monkeypatch, capsys, ["bb"], BB_P2) == 0
    assert len(cuts) == 2  # the cone's slice and the dual cone's
    # the parts are faces of the slice, read off the cone's rays, so no
    # part polytope is built
    assert parts == []


def test_bb_job_lists_each_slice_once(monkeypatch, capsys):
    slices = count_calls(monkeypatch, dualfan.mirrors.bb, "_slice_points")
    listed = count_calls(monkeypatch, Polytope, "lattice_points")
    assert run_job(monkeypatch, capsys, ["bb"], BB_P2) == 0
    # height one of the cone and of its dual, once each for the parts:
    # the slices are polygons, and every lattice point of (c+1)P is one
    # of cP plus one of P for a lattice polygon P once c ≥ 1, so the
    # Gorenstein test lists no height at all
    assert [h for _, _, h in slices] == [1, 1]
    # one section polytope per side; slices and parts are no polytopes
    assert len(listed) <= 2


def test_bb_job_builds_each_section_polytope_once(monkeypatch, capsys):
    sections = count_calls(monkeypatch, dualfan.toric_lg, "_sections")
    totals = count_calls(monkeypatch, dualfan.toric_lg, "split_bundle_fan")
    complete = count_calls(monkeypatch, dualfan.toric_lg, "is_complete")
    assert run_job(monkeypatch, capsys, ["bb"], BB_P2) == 0
    assert len(sections) == 2  # one per side
    assert len(totals) == 2
    # each base is a normal fan, so complete: no wall census per summand
    assert complete == []


def test_quintic_job_builds_its_bundle_fan_once(monkeypatch, capsys):
    totals = count_calls(monkeypatch, dualfan.toric_lg, "split_bundle_fan")
    assert main(["quintic"]) == 0
    capsys.readouterr()
    assert len(totals) == 1


def test_a_matrix_solve_factors_once(monkeypatch):
    calls = count_calls(monkeypatch, dualfan.lattice, "snf")
    a = LatticeMap([[2, 0], [0, 3], [1, 1]])
    b = LatticeMap([[2, 4, 0], [3, 0, -3], [2, 2, -1]])
    x = solve_integer_matrix(a, b)
    assert a @ x == b
    assert len(calls) == 1


def test_a_smooth_polygon_fan_is_validated_without_a_smith_form(
        monkeypatch, capsys):
    calls = count_calls(monkeypatch, dualfan.lattice, "snf")
    plane = {"rank": 2, "max_cones": [[0, 1], [1, 2], [2, 0]],
             "rays": [[1, 0], [0, 1], [-1, -1]]}
    assert run_job(monkeypatch, capsys, ["fan-validate"], {"fan": plane}) == 0
    assert calls == []  # each cone has two rays in rank two: |det| = 1


@pytest.mark.parametrize("rays", [
    [[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1], [0, -1]],
    [[1, 0], [1, 1], [0, 1], [-1, 1], [-1, 0], [-1, -1], [0, -1], [1, -1]],
], ids=["hexagon", "octagon"])
def test_cones_meeting_at_the_origin_intersect_without_a_smith_form(
        monkeypatch, capsys, rays):
    calls = count_calls(monkeypatch, dualfan.lattice, "snf")
    n = len(rays)
    fan = {"rank": 2, "rays": rays,
           "max_cones": [[i, (i + 1) % n] for i in range(n)]}
    assert run_job(monkeypatch, capsys, ["fan-validate"], {"fan": fan}) == 0
    # some pairs meet only at the origin, so `Cone.intersection` runs a
    # double description with no constraints: its lineality is all of Z²
    assert calls == []


def test_the_zero_cone_takes_no_double_description(monkeypatch, capsys):
    calls = count_calls(monkeypatch, dualfan.polyhedra, "_double_description")
    job = {"fan": {"rank": 400, "rays": [], "max_cones": [[]]}}
    started = time.perf_counter()
    assert run_job(monkeypatch, capsys, ["fan-validate"], job) == 0
    # its dual is the whole space, the identity rows as lineality (two
    # passes over the 800 constraints ±e_i took about 8.7 s)
    assert time.perf_counter() - started < 1.0
    assert calls == []


def test_validate_fan_intersects_only_unseparated_pairs(monkeypatch):
    # the cones are simplicial, so every pass is one pair's: one double
    # description for the rays of the meet, and no meet cone (two passes
    # per pair when `validate_fan` built `s.intersection(t)`)
    calls = count_calls(monkeypatch, dualfan.polyhedra, "_double_description")
    axes = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1),
            (0, 0, -1)]
    octants = [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)]
    assert validate_fan(Fan(axes, octants, 3)).ok
    assert calls == []  # all 28 pairs separated by one facet normal
    # 12 of the octagon's 28 pairs, such as the cones over (1, 0), (1, 1)
    # and (0, 1), (-1, 1), meet only at the origin, and neither normal
    # sum is negative on the other cone; a single facet normal of one of
    # them is ≤ 0 on the other and vanishes on none of its rays (12
    # passes when only the sums were tried)
    octagon = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1),
               (1, -1)]
    assert validate_fan(
        Fan(octagon, [(i, (i + 1) % 8) for i in range(8)], 2)).ok
    assert calls == []
    # two cones that overlap have no separating functional: one pass
    overlap = Fan([(1, 0), (0, 1), (1, 1)], [(0, 1), (0, 2)], 2)
    assert not validate_fan(overlap).ok
    assert len(calls) == 1


def test_a_normal_fan_keeps_its_cones(monkeypatch):
    poly = Polytope.from_vertices(
        [(0, 0, 0), (2, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 0, 1)])
    fan = poly.normal_fan()
    original = Cone.__init__
    built = []

    def counting(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Cone, "__init__", counting)
    assert is_complete(fan)
    assert built == []


def count_parsers(monkeypatch):
    """The `prog` of every `argparse.ArgumentParser` built from now on."""
    original = argparse.ArgumentParser.__init__
    progs = []

    def counting(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return progs


BHK_FERMAT3 = {"P": {"entries": [[3, 0, 0], [0, 3, 0], [0, 0, 3]]}}


def test_a_well_formed_job_builds_no_parser(monkeypatch, capsys):
    progs = count_parsers(monkeypatch)
    assert run_job(monkeypatch, capsys, ["bhk"], BHK_FERMAT3) == 0
    assert progs == []


def test_a_job_builds_only_its_own_subparser(monkeypatch, capsys):
    progs = count_parsers(monkeypatch)
    # argparse reads an abbreviated option, with one subparser
    assert run_job(monkeypatch, capsys, ["bhk", "--verb"], BHK_FERMAT3) == 0
    assert len(progs) <= 3
    assert [p for p in progs if p and p.startswith("dualfan ")] == [
        "dualfan bhk"]


def test_a_job_process_never_loads_argparse():
    # the report goes to stdout, the loaded modules to stderr
    code = ("import sys, dualfan.cli\n"
            "assert dualfan.cli.main(['quintic']) == 0\n"
            "sys.stderr.write(repr(sorted({'argparse', 'gettext'}"
            " & set(sys.modules))))\n")
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b"[]"
    assert proc.stdout == (Path(__file__).resolve().parent / "golden"
                           / "quintic.stdout").read_bytes()


def test_an_unknown_command_builds_the_full_tree(monkeypatch, capsys):
    progs = count_parsers(monkeypatch)
    with pytest.raises(SystemExit):
        main(["nope"])
    capsys.readouterr()
    assert {p for p in progs if p and p.startswith("dualfan ")} == {
        f"dualfan {name}" for name in _COMMANDS}


def test_givental_job_builds_each_section_polytope_once(monkeypatch,
                                                         capsys):
    sections = count_calls(monkeypatch, dualfan.toric_lg, "_sections")
    totals = count_calls(monkeypatch, dualfan.toric_lg, "_total_fan")
    cartier = count_calls(monkeypatch, dualfan.toric_lg, "is_cartier")
    complete = count_calls(monkeypatch, dualfan.toric_lg, "is_complete")
    job = {"bundles": [{"coeffs": [1, 1, 0, 0]}, {"coeffs": [0, 0, 1, 1]}],
           "fan": {"rank": 2, "rays": [[1, 0], [-1, 0], [0, 1], [0, -1]],
                   "max_cones": [[0, 2], [0, 3], [1, 2], [1, 3]]}}
    assert run_job(monkeypatch, capsys, ["givental"], job) == 0
    assert len(sections) == 2  # one per summand
    assert len(totals) == 1
    # the base is checked once up front, not again per section polytope
    # and total fan (4 Cartier tests and 3 completeness tests before)
    assert len(cartier) == 2
    assert len(complete) == 1


def test_report_encoding_makes_no_call_per_point(monkeypatch, capsys):
    calls = count_calls(monkeypatch, dualfan.cli, "_jsonable")
    made = {}
    for degree, expected in ((20, 231), (60, 1891)):  # C(d + 2, 2) on P^2
        job = {"fan": {"rank": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
                       "max_cones": [[0, 1], [1, 2], [0, 2]]},
               "divisor": {"coeffs": [degree, 0, 0]}}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(job)))
        del calls[:]
        assert main(["section-polytope", "-"]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == expected
        made[degree] = len(calls)
    assert made[20] <= 30
    assert made[60] == made[20]


def test_integer_matrix_checks_no_entry_one_by_one(monkeypatch):
    calls = count_calls(monkeypatch, dualfan.lattice, "_as_int")
    a = LatticeMap([[2, 4, 4, -6], [-6, 6, 12, 10], [10, -4, -16, 0],
                    [1, 3, 5, 7]])
    dec = dualfan.lattice.snf(a)
    assert dec.U @ a @ dec.V == dec.D  # U, D, V, then two products
    assert calls == []


GOLDEN_JOBS = json.loads((Path(__file__).resolve().parent / "golden"
                          / "jobs.json").read_text(encoding="utf-8"))


def run_golden(monkeypatch, capsys, name):
    """Run one golden case in process and check its exit code."""
    job = GOLDEN_JOBS[name]
    monkeypatch.setattr(sys, "stdin", io.StringIO(job["stdin"] or ""))
    assert main(list(job["argv"])) == job["exit"]
    capsys.readouterr()


def test_bb_job_changes_each_side_to_its_base_once(monkeypatch, capsys):
    smith = count_calls(monkeypatch, dualfan.lattice, "snf")
    solves = count_calls(monkeypatch, dualfan.lattice, "solve_integer")
    run_golden(monkeypatch, capsys, "bb-p2")
    # each side's part vertices reach base coordinates through the one
    # inverse of psi = [b | splitting], with no solve per vertex (12 Smith
    # forms and 14 solves when each of the six vertices was solved for);
    # no slice or part polytope takes a kernel of its equations (6 Smith
    # forms when they did)
    assert len(smith) == 2
    assert len(solves) == 8


def test_bb_job_builds_each_slice_from_its_cone(monkeypatch, capsys):
    passes = count_calls(monkeypatch, dualfan.polyhedra,
                         "_double_description")
    built = count_calls(monkeypatch, Cone, "__init__")
    run_golden(monkeypatch, capsys, "bb-p2")
    # each slice and part is read from the rays and facets of a cone
    # already built (20 passes and 21 cones when the two slices and the
    # two parts were each a polytope from an H-representation); a cone
    # with a simplicial dual takes one pass, not two (12 passes then);
    # each side tests its support against the cone it holds (6 passes and
    # 17 cones when it built the cone over its rays), by a wall census of
    # its ambient fan's three simplicial cones, which take no pass (15
    # cones when it tested only that the rays span the cone); each polar
    # is the dual of the cone its polytope keeps (4 passes and 21 cones
    # when each polar rebuilt that cone from the vertices)
    assert len(passes) == 2
    assert len(built) == 19


def test_quintic_tests_its_rewrite_for_unimodularity_once(monkeypatch,
                                                          capsys):
    calls = count_calls(monkeypatch, dualfan.lattice, "int_inverse")
    run_golden(monkeypatch, capsys, "quintic")
    # one in `relabel_fan`, which rejects a rewrite that is not unimodular
    # (3 when the pipeline ran the same test first, 2 when the invariant
    # group's lifts went through the inverse of a Smith transform)
    assert len(calls) == 1


def test_quintic_solves_for_its_powers_in_one_elimination(monkeypatch,
                                                          capsys):
    calls = count_calls(monkeypatch, dualfan.lattice, "solve_integer")
    run_golden(monkeypatch, capsys, "quintic")
    # the five pure powers and the product are the columns of one matrix
    # solve; the five calls left are `is_cartier`'s (11 when each of the
    # six monomials was solved for on its own)
    assert len(calls) == 5


def test_a_splitting_basis_takes_only_rank_sized_minors(monkeypatch, capsys):
    calls = count_calls(monkeypatch, LatticeMap, "det")
    run_golden(monkeypatch, capsys, "givental-p1xp1")
    # the minor on the rays outside the basis, not [ray map | unit
    # columns] at #rays × #rays (one 4 × 4 determinant on P¹ × P¹)
    assert calls and max(a.rows for a, in calls) <= 2


def eliminated_in_golden(monkeypatch, capsys, name):
    """The job's P and the rows of every square matrix it eliminated."""
    calls = count_calls(monkeypatch, dualfan.lattice, "_adjugate")
    run_golden(monkeypatch, capsys, name)
    p = json.loads(GOLDEN_JOBS[name]["stdin"])["P"]["entries"]
    return (tuple(map(tuple, p)),
            [tuple(map(tuple, rows)) for rows, in calls])


def test_bhk_job_takes_the_determinant_of_p_once_per_use(monkeypatch,
                                                         capsys):
    dets = count_calls(monkeypatch, LatticeMap, "det")
    p, eliminated = eliminated_in_golden(monkeypatch, capsys,
                                         "bhk-loop4-trivial")
    # one elimination of the job's P, whose determinant and adjugate give
    # the order law, the determinant count and the symmetries of P and of
    # Pᵀ (`det`, then a rational inverse of P and one of Pᵀ, eliminated P
    # three times; 4 and 5 before that).  Q is trivial, so X = P, and the
    # one elimination of X, for Q^T, is the other call on these rows
    assert dets == []
    assert eliminated.count(p) == 2
    assert tuple(zip(*p)) not in eliminated
    p, eliminated = eliminated_in_golden(monkeypatch, capsys,
                                         "bhk-fermat3-diagonal")
    assert eliminated.count(p) == 1  # X ≠ P here (3 before; P = Pᵀ)


def test_no_golden_job_builds_a_specialization(monkeypatch, capsys):
    built = count_calls(monkeypatch, dualfan.toric_lg.Specialization,
                        "__init__")
    for name in GOLDEN_JOBS:
        run_golden(monkeypatch, capsys, name)
    # every unit potential and Givental's w' are one `Potential` over the
    # family's exponents (72 specializations per `small-jobs` pass before)
    assert built == []
