"""Deterministic call counts that keep known wasted work from returning.

Each test wraps one library function wherever a dualfan module bound it
by name, runs a small job, and pins how often the function ran.  The
counts do not depend on timing, so they hold on any machine.
"""

import argparse
import io
import json
import sys

import pytest

import dualfan.lattice
import dualfan.mirrors.bb
import dualfan.mirrors.bhk
import dualfan.toric_lg
from dualfan.cli import _COMMANDS, main
from dualfan.fans import Fan, validate_fan
from dualfan.lattice import LatticeMap, solve_integer_matrix
from dualfan.polyhedra import Cone


def count_calls(monkeypatch, module, name):
    """A list that grows by one entry per call of `module.name`."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

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
    calls = count_calls(monkeypatch, dualfan.mirrors.bhk, "phase_symmetries")
    job = {"P": {"entries": [[3, 0, 0], [0, 3, 0], [0, 0, 3]]},
           "Q": {"phases": [["1/3", "1/3", "1/3"]]}}
    assert run_job(monkeypatch, capsys, ["bhk"], job) == 0
    assert len(calls) == 2  # one for P, one for its transpose


BB_P2 = {"rank": 3,
         "generators": [[-1, -1, 1], [2, -1, 1], [-1, 2, 1]],
         "ell_dual": [0, 0, 1],
         "splitting": [[0, 0, 1]]}


def test_bb_job_tests_reflexivity_once(monkeypatch, capsys):
    calls = count_calls(monkeypatch, dualfan.mirrors.bb, "is_reflexive")
    assert run_job(monkeypatch, capsys, ["bb"], BB_P2) == 0
    assert len(calls) == 1


def test_bb_job_builds_each_section_polytope_once(monkeypatch, capsys):
    sections = count_calls(monkeypatch, dualfan.toric_lg, "section_polytope")
    totals = count_calls(monkeypatch, dualfan.toric_lg, "split_bundle_fan")
    assert run_job(monkeypatch, capsys, ["bb"], BB_P2) == 0
    assert len(sections) == 2  # one per side
    assert len(totals) == 2


def test_a_matrix_solve_factors_once(monkeypatch):
    calls = count_calls(monkeypatch, dualfan.lattice, "snf")
    a = LatticeMap([[2, 0], [0, 3], [1, 1]])
    b = LatticeMap([[2, 4, 0], [3, 0, -3], [2, 2, -1]])
    x = solve_integer_matrix(a, b)
    assert a @ x == b
    assert len(calls) == 1


def count_intersections(monkeypatch):
    original = Cone.intersection
    calls = []

    def counting(self, other):
        calls.append((self, other))
        return original(self, other)

    monkeypatch.setattr(Cone, "intersection", counting)
    return calls


def test_validate_fan_intersects_only_unseparated_pairs(monkeypatch):
    calls = count_intersections(monkeypatch)
    axes = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1),
            (0, 0, -1)]
    octants = [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)]
    assert validate_fan(Fan(axes, octants, 3)).ok
    assert calls == []  # all 28 pairs separated by a sum of normals
    # 12 of the octagon's 28 pairs, such as the cones over (1, 0), (1, 1)
    # and (0, 1), (-1, 1), meet only at the origin, but neither normal
    # sum is negative on the other cone
    octagon = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1),
               (1, -1)]
    assert validate_fan(
        Fan(octagon, [(i, (i + 1) % 8) for i in range(8)], 2)).ok
    assert len(calls) == 12


def count_parsers(monkeypatch):
    """The `prog` of every `argparse.ArgumentParser` built from now on."""
    original = argparse.ArgumentParser.__init__
    progs = []

    def counting(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return progs


def test_a_job_builds_only_its_own_subparser(monkeypatch, capsys):
    progs = count_parsers(monkeypatch)
    job = {"P": {"entries": [[3, 0, 0], [0, 3, 0], [0, 0, 3]]}}
    assert run_job(monkeypatch, capsys, ["bhk"], job) == 0
    assert len(progs) <= 3
    assert [p for p in progs if p and p.startswith("dualfan ")] == [
        "dualfan bhk"]


def test_an_unknown_command_builds_the_full_tree(monkeypatch, capsys):
    progs = count_parsers(monkeypatch)
    with pytest.raises(SystemExit):
        main(["nope"])
    capsys.readouterr()
    assert {p for p in progs if p and p.startswith("dualfan ")} == {
        f"dualfan {name}" for name in _COMMANDS}


def test_givental_job_builds_each_section_polytope_once(monkeypatch,
                                                         capsys):
    sections = count_calls(monkeypatch, dualfan.toric_lg, "section_polytope")
    totals = count_calls(monkeypatch, dualfan.toric_lg, "split_bundle_fan")
    job = {"bundles": [{"coeffs": [1, 1, 0, 0]}, {"coeffs": [0, 0, 1, 1]}],
           "fan": {"rank": 2, "rays": [[1, 0], [-1, 0], [0, 1], [0, -1]],
                   "max_cones": [[0, 2], [0, 3], [1, 2], [1, 3]]}}
    assert run_job(monkeypatch, capsys, ["givental"], job) == 0
    assert len(sections) == 2  # one per summand
    assert len(totals) == 1
