"""End-to-end checks of the command line front end.

Every test drives ``main(argv)`` in process and inspects the exit
status plus the emitted JSON.  Exit 0 is a verified report, exit 1 is
a mathematical failure with a witness in the report, exit 2 is input
that could not be interpreted.
"""

import argparse
import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from enum import IntEnum
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dualfan.cli
import dualfan.mirrors.bb
import dualfan.mirrors.givental
import dualfan.mirrors.quintic
import dualfan.polyhedra
from dualfan._value import InternalError
from dualfan.cli import canonical_json, emit_fan, main, parse_fan
from dualfan.fans import Fan, projective_space_fan
from dualfan.toric_lg import ToricDivisor, section_polytope

ORTHANT = {"rank": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[0, 1]]}
LINE = {"rank": 1, "rays": [[1], [-1]], "max_cones": [[0], [1]]}
PLANE = {"rank": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
         "max_cones": [[0, 1], [1, 2], [0, 2]]}


def run(capsys, argv, payload=None, monkeypatch=None):
    """Exit code, parsed stdout JSON (or None), raw stderr."""
    if payload is not None:
        assert monkeypatch is not None
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
        argv = argv + ["-"]
    code = main(argv)
    captured = capsys.readouterr()
    body = json.loads(captured.out) if captured.out else None
    return code, body, captured.err


def test_canonical_json_is_sorted_and_compact():
    text = canonical_json({"b": 1, "a": [2, 3]})
    assert text == '{"a":[2,3],"b":1}\n'


def test_canonical_json_stringifies_huge_integers():
    big = 2 ** 60
    assert canonical_json({"n": big}) == '{"n":"%d"}\n' % big
    assert canonical_json({"n": -big}) == '{"n":"-%d"}\n' % big
    assert canonical_json({"n": 2 ** 53 - 1}) == '{"n":%d}\n' % (2 ** 53 - 1)


def _reference_jsonable(x):
    """The encoder's walk as it was before it dispatched on exact types:
    one `isinstance` chain and one call per value."""
    if isinstance(x, bool) or x is None or isinstance(x, str):
        return x
    if isinstance(x, int):
        return str(x) if abs(x) >= 2 ** 53 else x
    if isinstance(x, Fraction):
        return _reference_jsonable(int(x)) if x.denominator == 1 else str(x)
    if isinstance(x, dict):
        return {str(k): _reference_jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_reference_jsonable(v) for v in x]
    raise TypeError(f"cannot serialize {type(x).__name__}")


def _encoded(encode, value):
    try:
        return encode(value)
    except TypeError as e:
        return ("TypeError", str(e))


def _reference_canonical_json(obj):
    return json.dumps(_reference_jsonable(obj), sort_keys=True,
                      separators=(",", ":")) + "\n"


class _Level(IntEnum):
    LOW = 3
    HIGH = 2 ** 60


class _Ratio(Fraction):
    pass


_EDGE_INTS = [sign * v for v in (2 ** 53 - 1, 2 ** 53, 2 ** 60)
              for sign in (1, -1)]
_ACCEPTED = st.one_of(
    st.sampled_from(_EDGE_INTS + [True, False, None, _Level.LOW, _Level.HIGH,
                                  _Ratio(3, 2), _Ratio(4, 2)]),
    st.integers(), st.text(max_size=3),
    st.fractions(max_denominator=7),
    st.builds(Fraction, st.integers(-2 ** 70, 2 ** 70),
              st.integers(1, 2 ** 70)),
    # point lists: rows of ints, so that some nodes are all small ints
    st.lists(st.lists(st.sampled_from(_EDGE_INTS) | st.integers(-9, 9),
                      max_size=3).map(tuple), max_size=4))
_REJECTED = st.one_of(st.floats(), st.sets(st.integers(), max_size=2))
_KEYS = st.one_of(st.text(max_size=2), st.integers(-2, 2), st.booleans())


def _nested(leaves):
    return st.recursive(leaves, lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_KEYS, inner, max_size=3)), max_leaves=24)


def test_canonical_json_matches_the_reference_on_every_kind_of_value():
    value = {"edge": _EDGE_INTS, 1: (True, False, None, "s"), True: [
        Fraction(6, 3), Fraction(-1, 3), Fraction(3 ** 50, 2),
        Fraction(2 ** 60), _Level.LOW, _Level.HIGH, _Ratio(5, 5),
        _Ratio(1, 7), ((1, [2, (3,)]), [])]}
    assert canonical_json(value) == _reference_canonical_json(value)
    small = 2 ** 53 - 1
    for row in ([small, -small], [2 ** 53, 0], (0, -2 ** 53), [2 ** 60],
                (-2 ** 60, 1), (1, True), [_Level.LOW, 2], (Fraction(4, 2),),
                [0, _Ratio(1, 7)]):
        rows = {"row": row, "rows": [(1, 2), row, [3]], "deep": [[row]]}
        assert canonical_json(rows) == _reference_canonical_json(rows)
    for rows in ([], (), [[], ()], [(1, 2), [3, -4], ()], [[[1]], [[2, 3]]],
                 ([(small,)], ([-small],)), [(1,), 2], [[1], "s"]):
        assert canonical_json(rows) == _reference_canonical_json(rows)
    for bad in (1.5, {1}, [1, (2, {"x": 0.0})], {"k": [set()]},
                [(1, 2), (3, 1.5)], [[1, {2}]], (0.0, 1)):
        rejected = _encoded(canonical_json, bad)
        assert rejected[0] == "TypeError"
        assert rejected == _encoded(_reference_canonical_json, bad)


@given(_nested(_ACCEPTED) | _nested(_ACCEPTED | _REJECTED))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_canonical_json_matches_the_reference_on_nested_values(value):
    assert _encoded(canonical_json, value) == _encoded(
        _reference_canonical_json, value)


def test_a_shared_value_encodes_at_each_place_and_a_cycle_still_raises():
    # the encoder keeps no cycle markers: a value shared at two places is
    # no cycle, and `_jsonable` meets a real cycle before the encoder does
    for shared in ((1, 2), (1, 2 ** 60), (Fraction(1, 3), [4]), ((1,), (2,))):
        report = {"a": shared, "b": [shared, {"c": shared}]}
        assert canonical_json(report) == _reference_canonical_json(report)
    loop = [1]
    loop.append(loop)
    with pytest.raises(RecursionError):
        canonical_json({"rows": [loop]})
    knot = {}
    knot["k"] = [knot]
    with pytest.raises(RecursionError):
        canonical_json(knot)


def test_json_text_is_spliced_in_as_the_expanded_value():
    points = [(1, -2), (1, -1), (3, 0)]
    text = dualfan.cli._JsonText(json.dumps(points, separators=(",", ":")))
    other = dualfan.cli._JsonText("[[7]]")
    for report in ({"lattice_points": text},
                   {"b": text, "a": "\u0001", "c": [1, (2, 2 ** 60)]},
                   {"z": text, "count": 3, "0": Fraction(1, 2), "y": other}):
        expanded = {k: points if v is text else [[7]] if v is other else v
                    for k, v in report.items()}
        assert canonical_json(report) == _reference_canonical_json(expanded)
    # only a top-level report value may be text
    with pytest.raises(TypeError, match="_JsonText"):
        canonical_json({"rows": [text]})


@pytest.mark.parametrize("holder", ["\0", '"\0', ["\0"], {"k": "\0"}])
def test_a_report_string_holding_the_placeholder_is_an_internal_error(
        holder):
    text = dualfan.cli._JsonText("[[0]]")
    with pytest.raises(InternalError):
        canonical_json({"lattice_points": text, "warnings": holder})
    # without text to splice in, a NUL is an ordinary character
    assert canonical_json({"warnings": holder}) == _reference_canonical_json(
        {"warnings": holder})


def test_small_integer_rows_are_encoded_as_they_are():
    row = (2 ** 53 - 1, -2 ** 53 + 1, 0)
    for rows in (row, list(row), (5, 6), [], ()):
        assert dualfan.cli._jsonable(rows) is rows
    for rows in ((0, 2 ** 53), (0, True), [(0,), 1], [[[0]]]):
        assert dualfan.cli._jsonable(rows) is not rows


def test_parse_fan_round_trip():
    fan, warnings = parse_fan(PLANE)
    assert warnings == ()
    assert fan == projective_space_fan(2)
    # emit_fan hands tuples to the encoder; compare the emitted JSON
    assert json.loads(canonical_json(emit_fan(fan))) == {
        "rank": 2,
        "rays": [[1, 0], [0, 1], [-1, -1]],
        "max_cones": [[0, 1], [1, 2], [0, 2]],
    }


def test_parse_fan_normalizes_and_warns():
    fan, warnings = parse_fan(
        {"rank": 2, "rays": [[2, 0], [0, 1]], "max_cones": [[0, 1]]})
    assert fan.rays == ((1, 0), (0, 1))
    assert fan.marked_generators == ((2, 0), (0, 1))
    assert len(warnings) == 1
    assert "normalized" in warnings[0]
    # the marker difference survives the emitted form
    assert json.loads(canonical_json(emit_fan(fan)))["marked"] == [
        [2, 0], [0, 1]]


def test_parse_fan_marked_field_must_be_primitive():
    bad = {"rank": 2, "rays": [[2, 0], [0, 1]], "max_cones": [[0, 1]],
           "marked": [[2, 0], [0, 1]]}
    with pytest.raises(ValueError, match="not primitive"):
        parse_fan(bad)


def test_dualcheck_accepts_a_dual_pair(capsys, monkeypatch):
    code, body, _ = run(capsys, ["dualcheck"],
                        {"fan": ORTHANT, "dual_fan": ORTHANT}, monkeypatch)
    assert code == 0
    assert body["schema_version"] == 1
    assert body["command"] == "dualcheck"
    assert body["duality"] == {"verdict": True, "witness": None}


def test_dualcheck_failure_carries_witness_and_exit_1(capsys, monkeypatch):
    code, body, _ = run(capsys, ["dualcheck"],
                        {"fan": LINE, "dual_fan": LINE}, monkeypatch)
    assert code == 1
    duality = body["duality"]
    assert duality["verdict"] is False
    assert duality["witness"]["pairing"] < 0


def test_fan_validate_good(capsys, monkeypatch):
    code, body, _ = run(capsys, ["fan-validate"], {"fan": LINE}, monkeypatch)
    assert code == 0
    assert body["ok"] is True
    assert body["complete"] is True
    assert body["smooth"] is True
    assert body["diagnostics"] == []


def test_fan_validate_reports_overlap(capsys, monkeypatch):
    overlap = {"rank": 2, "rays": [[1, 0], [0, 1], [1, 1]],
               "max_cones": [[0, 1], [0, 2]]}
    code, body, _ = run(capsys, ["fan-validate"], {"fan": overlap},
                        monkeypatch)
    assert code == 1
    assert body["ok"] is False
    assert any("not a common face" in d for d in body["diagnostics"])


def test_fan_validate_reports_a_cone_with_a_line(capsys, monkeypatch):
    wide = {"rank": 2, "rays": [[1, 0], [-1, 0], [0, 1]],
            "max_cones": [[0, 1, 2]]}
    code, body, err = run(capsys, ["fan-validate"], {"fan": wide},
                          monkeypatch)
    assert code == 1 and err == ""
    assert body["ok"] is False and body["complete"] is False
    # its one extreme ray, (0, 1), extends to a basis; the line does not
    assert body["smooth"] is False
    assert body["diagnostics"] == ["cone [0, 1, 2] is not strongly convex"]


# P^2's fan with one of its rays listed as a cone too
PLANE_AND_A_RAY = dict(PLANE, max_cones=PLANE["max_cones"] + [[0]])


def test_fan_validate_a_complete_fan_that_lists_a_ray(capsys, monkeypatch):
    code, body, _ = run(capsys, ["fan-validate"], {"fan": PLANE_AND_A_RAY},
                        monkeypatch)
    assert code == 0
    assert body["ok"] is True and body["complete"] is True


def test_bhk_command_emits_report_and_groups(capsys, monkeypatch):
    job = {"P": {"entries": [[3, 0, 0], [0, 3, 0], [0, 0, 3]]},
           "Q": {"phases": [["1/3", "1/3", "1/3"]]}}
    code, body, _ = run(capsys, ["bhk"], job, monkeypatch)
    assert code == 0
    assert body["report"]["passed"] is True
    assert body["groups"] == {
        "symmetry_factors": [3, 3, 3],
        "q_factors": [3],
        "q_dual_factors": [3, 3],
        "quotient_factors": [3, 3],
        "dual_quotient_factors": [3],
        "criterion_holds": True,
    }
    assert body["report"]["checks"]["group_duality"] is True


def test_bhk_command_computes_the_criterion_once(capsys, monkeypatch):
    from dualfan.mirrors import bhk

    calls = []
    criterion = bhk._criterion

    def counted(*args):
        calls.append(args)
        return criterion(*args)

    monkeypatch.setattr(bhk, "_criterion", counted)
    job = {"P": {"entries": [[2, 1], [1, 2]]}}
    code, body, _ = run(capsys, ["bhk"], job, monkeypatch)
    assert code == 0 and body["groups"]["criterion_holds"] is True
    assert len(calls) == 1


def test_an_internal_error_is_exit_3_without_a_traceback(capsys,
                                                        monkeypatch):
    import dualfan.mirrors.bhk

    # the solve that Q-invariance guarantees, made to fail
    monkeypatch.setattr(dualfan.mirrors.bhk, "solve_integer_matrix",
                        lambda a, b: None)
    job = {"P": {"entries": [[3, 0, 0], [0, 3, 0], [0, 0, 3]]},
           "Q": {"phases": [["1/3", "1/3", "1/3"]]}}
    code, body, err = run(capsys, ["bhk"], job, monkeypatch)
    assert (code, body) == (3, None)
    assert err == "internal error: the exponents of P are not Q-invariant\n"


def test_bhk_q_outside_symmetries_is_exit_2(capsys, monkeypatch):
    job = {"P": {"entries": [[3, 0, 0], [0, 3, 0], [0, 0, 3]]},
           "Q": {"phases": [["1/2", 0, 0]]}}
    code, body, err = run(capsys, ["bhk"], job, monkeypatch)
    assert code == 2
    assert body is None
    assert "not a subgroup" in err


def test_bb_command(capsys, monkeypatch):
    job = {"rank": 3,
           "generators": [[-1, -1, 1], [2, -1, 1], [-1, 2, 1]],
           "ell_dual": [0, 0, 1],
           "splitting": [[0, 0, 1]]}
    code, body, _ = run(capsys, ["bb"], job, monkeypatch)
    assert code == 0
    report = body["report"]
    assert report["passed"] is True
    assert report["counts"]["xi_count"] == 10
    assert report["counts"]["xi_prime_count"] == 4


def test_bb_ell_dual_mismatch_is_exit_2(capsys, monkeypatch):
    job = {"rank": 3,
           "generators": [[-1, -1, 1], [2, -1, 1], [-1, 2, 1]],
           "ell_dual": [1, 0, 0],
           "splitting": [[0, 0, 1]]}
    code, body, err = run(capsys, ["bb"], job, monkeypatch)
    assert code == 2
    assert "does not match the height functional" in err


P2_CONE = [[-1, -1, 1], [2, -1, 1], [-1, 2, 1]]
# Gorenstein at height one, but its dual is not: the triangle of side 2
# has no interior lattice point
TRIANGLE_CONE = [[0, 0, 1], [2, 0, 1], [0, 2, 1]]


@pytest.mark.parametrize("job, message", [
    ({"generators": P2_CONE + [[1, 1, -1]], "ell_dual": [1, 0, 0],
      "splitting": [[0, 0, 1]]},
     "reflexivity needs a full-dimensional pointed cone"),
    ({"generators": P2_CONE[:2], "ell_dual": [1, 0, 0],
      "splitting": [[0, 0, 1]]},
     "reflexivity needs a full-dimensional pointed cone"),
    ({"generators": TRIANGLE_CONE, "ell_dual": [0, 0, 2],
      "splitting": [[5, 5, 5]]},
     "ell_dual [0, 0, 2] does not match the height functional [0, 0, 1]"),
    ({"generators": TRIANGLE_CONE, "ell_dual": [0, 0, 1],
      "splitting": [[5, 5, 5]]},
     "cone pair is not reflexive at heights up to 3"),
    # no height functional at all, so no ell_dual can mismatch it
    ({"generators": [[1, 0, 0], [0, 1, 0], [1, 1, 2]], "ell_dual": [7, 7, 7],
      "splitting": [[5, 5, 5]]},
     "cone pair is not reflexive at heights up to 3"),
    ({"generators": P2_CONE, "ell_dual": [1, 0, 0],
      "splitting": [[0, 0, 1], [0, 0, 1]], "dual_splitting": [[9, 9, 9]]},
     "ell_dual [1, 0, 0] does not match the height functional [0, 0, 1]"),
    ({"generators": P2_CONE, "ell_dual": [0, 0, 1],
      "splitting": [[0, 0, 2]], "dual_splitting": [[9, 9, 9]]},
     "splitting does not sum to the dual height functional"),
    ({"generators": P2_CONE, "ell_dual": [0, 0, 1],
      "splitting": [[0, 0, 1]], "dual_splitting": [[9, 9, 9]]},
     "dual splitting does not sum to the height functional"),
])
def test_bb_first_failing_check_names_the_error(capsys, monkeypatch, job,
                                                message):
    """Input failing several checks is rejected by the earliest: cone
    shape, then ell_dual, then reflexivity, then the splittings."""
    code, body, err = run(capsys, ["bb"], {"rank": 3, **job}, monkeypatch)
    assert (code, body) == (2, None)
    assert err.startswith(f"error: {message}")


def test_givental_and_hori_vafa_differ_only_in_fiber_signs(capsys,
                                                           monkeypatch):
    job = {"fan": LINE, "bundles": [{"coeffs": [0, 2]}]}
    code_g, body_g, _ = run(capsys, ["givental"], job, monkeypatch)
    code_h, body_h, _ = run(capsys, ["hori-vafa"], job, monkeypatch)
    assert code_g == 0 and code_h == 0
    giv = {tuple(t["exponent"]): t["coefficient"]
           for t in body_g["report"]["potentials"]["w_prime"]}
    hv = {tuple(t["exponent"]): t["coefficient"]
          for t in body_h["report"]["potentials"]["w_prime"]}
    assert giv[(0, 1)] == "1"
    assert hv[(0, 1)] == "-1"
    del giv[(0, 1)], hv[(0, 1)]
    assert giv == hv
    assert body_g["report"]["sigma_x"] == body_h["report"]["sigma_x"]


def test_givental_rejects_a_non_nef_summand(capsys, monkeypatch):
    job = {"fan": PLANE, "bundles": [{"coeffs": [0, 0, -1]}]}
    code, body, err = run(capsys, ["givental"], job, monkeypatch)
    assert code == 2
    assert "not nef" in err


def test_quintic_command(capsys):
    code, body, _ = run(capsys, ["quintic"])
    assert code == 0
    assert body["dual_fans"] is True
    assert body["xi_count"] == 126
    assert body["xi_prime_count"] == 6
    assert body["report"]["passed"] is True
    terms = {tuple(t["exponent"]): t["coefficient"]
             for t in body["report"]["potentials"]["w_fermat"]}
    assert terms[(0, 0, 0, 0, 1)] == "-5*psi"


def test_a_fault_in_the_quintic_pipeline_is_exit_3(capsys, monkeypatch):
    # `quintic` reads no input, so a ValueError from inside the pipeline
    # is a fault in dualfan: here the second solve, the placement of the
    # quotient lattice, comes back with a doubled column, which
    # `relabel_fan` rejects as not unimodular
    from dualfan.lattice import LatticeMap

    solve = dualfan.mirrors.quintic.solve_integer_matrix
    calls = []

    def doubling_the_second(a, b):
        x = solve(a, b)
        calls.append(x)
        if len(calls) != 2:
            return x
        first, *rest = x.columns()
        return LatticeMap.from_cols([tuple(2 * v for v in first), *rest],
                                    nrows=x.rows)

    monkeypatch.setattr(dualfan.mirrors.quintic, "solve_integer_matrix",
                        doubling_the_second)
    code, body, err = run(capsys, ["quintic"])
    assert (code, body) == (3, None)
    assert err == "internal error: matrix is not unimodular\n"


P1_DEGREE_TWO = {"fan": LINE, "bundles": [{"coeffs": [0, 2]}]}


def test_a_built_givental_pair_that_is_not_dual_is_exit_3(capsys,
                                                          monkeypatch):
    # the pipeline builds Σ′ as the cone over the lifted section vertices,
    # which is dual to Σ for every accepted input; over their negatives
    # it is not, and that is a fault in dualfan, not in the input
    from dualfan.polyhedra import Cone

    monkeypatch.setattr(
        dualfan.mirrors.givental, "Cone", lambda gens, rank: Cone(
            [tuple(-x for x in g) for g in gens], rank))
    code, body, err = run(capsys, ["givental"], P1_DEGREE_TWO, monkeypatch)
    assert (code, body) == (3, None)
    assert err == ("internal error: the built fans are not dual: "
                   "ray [-2, -1] pairs to -2 with ray [1, 0]\n")


def test_a_built_bhk_pair_that_is_not_dual_is_exit_3(capsys, monkeypatch):
    # σ′ relabeled by −I is a fan with the same groups, but its markers
    # pair negatively with those of σ
    import dualfan.mirrors.bhk
    from dualfan.fans import relabel_fan
    from dualfan.lattice import LatticeMap

    quotient = dualfan.mirrors.bhk.quotient_fan
    calls = []

    def negating_the_second(f, q):
        image, data = quotient(f, q)
        calls.append(image)
        if len(calls) == 2:
            image = relabel_fan(image, LatticeMap(
                [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]))
        return image, data

    monkeypatch.setattr(dualfan.mirrors.bhk, "quotient_fan",
                        negating_the_second)
    job = {"P": {"entries": [[3, 0, 0], [0, 3, 0], [0, 0, 3]]},
           "Q": {"phases": [["1/3", "1/3", "1/3"]]}}
    code, body, err = run(capsys, ["bhk"], job, monkeypatch)
    assert (code, body) == (3, None)
    assert err == ("internal error: the built fans are not dual: "
                   "ray [-3, 0, 2] pairs to -3 with ray [1, 0, 0]\n")


@pytest.mark.parametrize("command", ["givental", "hori-vafa"])
def test_a_sigma_prime_missing_a_section_vertex_is_exit_1(capsys,
                                                          monkeypatch,
                                                          command):
    # the lifted vertices of [0, 2] are (0, 1) and (2, 1); the cone over
    # (1, 1) and (2, 1) is still dual to Σ and each of its rays is still
    # a lifted section, but the vertex (0, 1) is no ray of it
    from dualfan.polyhedra import Cone

    monkeypatch.setattr(dualfan.mirrors.givental, "Cone",
                        lambda gens, rank: Cone([(1, 1), (2, 1)], rank))
    code, body, _ = run(capsys, [command], P1_DEGREE_TWO, monkeypatch)
    assert code == 1
    report = body["report"]
    assert report["sigma_x_prime"]["rays"] == [[1, 1], [2, 1]]
    assert report["duality"]["verdict"] is True
    assert report["checks"]["rays_are_marked_sections"] is False
    assert report["passed"] is False


def test_section_polytope_command(capsys, monkeypatch):
    job = {"fan": PLANE, "divisor": {"coeffs": [0, 0, 1]}}
    code, body, _ = run(capsys, ["section-polytope"], job, monkeypatch)
    assert code == 0
    assert body["cartier"] is True
    assert body["count"] == 3
    assert body["vertices"] == [[0, 0], [0, 1], [1, 0]]


def test_section_polytope_enumerates_once(capsys, monkeypatch):
    calls = []
    sweep = dualfan.polyhedra._sweep

    def counted(*args):
        calls.append(args)
        return sweep(*args)

    monkeypatch.setattr(dualfan.polyhedra, "_sweep", counted)
    for coeffs in ([0, 0, 1], [2, 1, 3]):
        calls.clear()
        job = {"fan": PLANE, "divisor": {"coeffs": coeffs}}
        code, body, _ = run(capsys, ["section-polytope"], job, monkeypatch)
        assert code == 0
        assert body["count"] == len(body["lattice_points"])
        assert len(calls) == 1


def test_section_polytope_without_sections_counts_zero(capsys, monkeypatch):
    job = {"fan": PLANE, "divisor": {"coeffs": [-1, 0, 0]}}
    code, body, _ = run(capsys, ["section-polytope"], job, monkeypatch)
    assert code == 0
    assert body["count"] == 0
    assert body["lattice_points"] == [] and body["vertices"] == []


def test_section_polytope_on_a_complete_fan_that_lists_a_ray(capsys,
                                                             monkeypatch):
    job = {"fan": PLANE_AND_A_RAY, "divisor": {"coeffs": [0, 0, 1]}}
    code, body, _ = run(capsys, ["section-polytope"], job, monkeypatch)
    assert code == 0
    assert body["count"] == 3
    assert body["vertices"] == [[0, 0], [0, 1], [1, 0]]


def test_section_polytope_needs_a_complete_fan(capsys, monkeypatch):
    job = {"fan": ORTHANT, "divisor": {"coeffs": [0, 0]}}
    code, body, err = run(capsys, ["section-polytope"], job, monkeypatch)
    assert code == 2
    assert "complete" in err


_LIMIT = 2 ** 53
# (fan, coeffs, whether the vertex box vouches for the point list); on
# the line the coefficients (a, b) give the segment [-a, b]
_NEAR_THE_LIMIT = {
    "inside": (LINE, [3 - _LIMIT, _LIMIT - 1], True),
    "inside-negative": (LINE, [_LIMIT - 1, 3 - _LIMIT], True),
    "straddling": (LINE, [1 - _LIMIT, _LIMIT], False),
    "beyond": (LINE, [-_LIMIT, _LIMIT + 2], False),
    # the ray (1, 2) puts a vertex at (0, 1/2 - 2^53), below every point
    "fractional": ({"rank": 2, "rays": [[1, 2], [-1, 0], [0, -1]],
                    "max_cones": [[0, 1], [1, 2], [0, 2]]},
                   [2 * _LIMIT - 1, 0, 3 - _LIMIT], True),
}


@pytest.mark.parametrize("case", _NEAR_THE_LIMIT)
def test_section_points_near_2_53_match_the_reference_walk(capsys,
                                                          monkeypatch, case):
    fan, coeffs, vouched = _NEAR_THE_LIMIT[case]
    payload = {"fan": fan, "divisor": {"coeffs": coeffs}}
    body, failed = dualfan.cli._cmd_section_polytope(payload, 3)
    assert not failed and body["count"] > 0
    assert (type(body["lattice_points"]) is dualfan.cli._JsonText) == vouched
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
    assert main(["section-polytope", "-"]) == 0
    out = capsys.readouterr().out
    divisor = ToricDivisor(parse_fan(fan)[0], coeffs)
    points = section_polytope(divisor).lattice_points()
    assert body["count"] == len(points)
    report = {"schema_version": 1, "command": "section-polytope", **body,
              "lattice_points": points}
    assert out == _reference_canonical_json(report)
    if case == "straddling":
        assert '"lattice_points":[[%d],["%d"]]' % (_LIMIT - 1, _LIMIT) in out
    if case == "fractional":
        assert [0, "%d/2" % (1 - 2 * _LIMIT)] in json.loads(out)["vertices"]


def test_bundle_fan_command(capsys, monkeypatch):
    job = {"fan": LINE, "divisors": [{"coeffs": [0, 2]}]}
    code, body, _ = run(capsys, ["bundle-fan"], job, monkeypatch)
    assert code == 0
    assert body["fan"] == {
        "rank": 2,
        "rays": [[1, 0], [-1, 2], [0, 1]],
        "max_cones": [[0, 2], [1, 2]],
    }


def test_bundle_fan_rejects_non_cartier(capsys, monkeypatch):
    sing = {"rank": 2, "rays": [[1, 0], [1, 2], [-1, -1]],
            "max_cones": [[0, 1], [1, 2], [0, 2]]}
    job = {"fan": sing, "divisors": [{"coeffs": [1, 0, 0]}]}
    code, body, err = run(capsys, ["bundle-fan"], job, monkeypatch)
    assert code == 2
    assert "not Cartier" in err


def test_malformed_json_is_exit_2(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("{not json"))
    code = main(["bhk", "-"])
    captured = capsys.readouterr()
    assert code == 2
    assert "invalid JSON" in captured.err


def test_missing_field_is_exit_2(capsys, monkeypatch):
    code, body, err = run(capsys, ["bhk"], {"Q": {"phases": []}}, monkeypatch)
    assert code == 2
    assert "missing the field 'P'" in err


def test_a_digit_string_past_the_digit_limit_is_exit_2(capsys, monkeypatch):
    # the message a JSON integer literal of that length gets, not "is not
    # an integer" with all 5000 digits echoed
    job = {"fan": PLANE, "divisor": {"coeffs": [0, 0, "1" * 5000]}}
    code, body, err = run(capsys, ["section-polytope"], job, monkeypatch)
    assert code == 2 and body is None
    assert err == "error: entry of divisor coeffs has more than 4300 digits\n"


@pytest.mark.parametrize("command, job, message", [
    ("fan-validate", {"fan": dict(LINE, rays=5)}, "fan rays must be a list"),
    ("fan-validate", {"fan": dict(LINE, max_cones=5)},
     "fan max_cones must be a list"),
    ("fan-validate", {"fan": dict(LINE, marked=7)},
     "fan marked must be a list"),
    ("bhk", {"P": {"entries": [[3, 0], [0, 3]]}, "Q": {"phases": 5}},
     "Q phases must be a list"),
    ("givental", {"fan": LINE, "bundles": [{"coeffs": [0, 2]}],
                  "basis_rays": 5}, "basis_rays must be a list"),
])
def test_non_list_field_is_exit_2(capsys, monkeypatch, command, job, message):
    code, body, err = run(capsys, [command], job, monkeypatch)
    assert code == 2
    assert body is None
    assert err == f"error: {message}\n"


def test_missing_file_is_exit_2(capsys):
    code = main(["quintic"])  # flush stdout of a passing run first
    capsys.readouterr()
    code = main(["bhk", "/nonexistent/job.json"])
    captured = capsys.readouterr()
    assert code == 2
    assert "cannot read" in captured.err


def test_float_phase_is_exit_2(capsys, monkeypatch):
    job = {"P": {"entries": [[3, 0], [0, 3]]},
           "Q": {"phases": [[0.5, 0]]}}
    code, body, err = run(capsys, ["bhk"], job, monkeypatch)
    assert code == 2
    assert "fraction string" in err


# the README's grammar: an integer is -?[0-9]+, a rational is an integer
# or -?[0-9]+/[0-9]+; int() and Fraction() read more than that
@pytest.mark.parametrize("text", ["1_0", " 7 ", "\u0663", "+3", "", "-",
                                  "3.0"])
def test_integer_strings_outside_the_grammar_are_exit_2(
        capsys, monkeypatch, text):
    code, body, err = run(capsys, ["fan-validate"],
                          {"fan": dict(LINE, rank=text)}, monkeypatch)
    assert code == 2
    assert body is None
    assert err == f"error: fan rank is not an integer: {text!r}\n"


@pytest.mark.parametrize("text", ["1_0/3", "\u0663/5", "1.5", "1e-1", "+1/3",
                                  " 1/3", "1/-3", "1/0", "1/"])
def test_fraction_strings_outside_the_grammar_are_exit_2(
        capsys, monkeypatch, text):
    job = {"P": {"entries": [[3, 0], [0, 3]]}, "Q": {"phases": [[text, 0]]}}
    code, body, err = run(capsys, ["bhk"], job, monkeypatch)
    assert code == 2
    assert body is None
    assert err == f"error: phase entry is not a fraction: {text!r}\n"


@pytest.mark.parametrize("rank", ["1", "01"])
def test_integer_strings_in_the_grammar_are_read(capsys, monkeypatch, rank):
    code, body, _ = run(capsys, ["fan-validate"],
                        {"fan": dict(LINE, rank=rank)}, monkeypatch)
    assert code == 0
    assert body["rank"] == 1


@pytest.mark.parametrize("phase", ["1/3", "-2/3", "4/3", "01/03", "-0"])
def test_fraction_strings_in_the_grammar_are_read(capsys, monkeypatch, phase):
    job = {"P": {"entries": [[3, 0], [0, 3]]}, "Q": {"phases": [[phase, 0]]}}
    code, body, _ = run(capsys, ["bhk"], job, monkeypatch)
    assert code == 0
    expected = [] if phase == "-0" else [3]
    assert body["groups"]["q_factors"] == expected


def test_out_flag_and_byte_determinism(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["quintic", "--out", str(first)]) == 0
    assert main(["quintic", "--out", str(second)]) == 0
    capsys.readouterr()
    a = first.read_bytes()
    b = second.read_bytes()
    assert a == b
    assert a.endswith(b"\n")
    # canonical form: no spaces after separators, keys sorted
    doc = json.loads(a)
    assert json.dumps(doc, sort_keys=True,
                      separators=(",", ":")).encode() + b"\n" == a


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_out_is_exit_2(tmp_path, capsys, where):
    target = tmp_path / "missing" / "r.json" if where == "missing-dir" \
        else tmp_path
    code = main(["quintic", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_verbose_timing_goes_to_stderr_only(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["quintic", "--out", str(out), "--verbose"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    assert "finished in" in captured.err
    json.loads(out.read_text())


def test_height_bound_flag_reaches_the_reflexivity_scan(capsys, monkeypatch):
    job = {"rank": 3,
           "generators": [[-1, -1, 1], [2, -1, 1], [-1, 2, 1]],
           "ell_dual": [0, 0, 1],
           "splitting": [[0, 0, 1]]}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(job)))
    code = main(["bb", "-", "--height-bound", "1"])
    capsys.readouterr()
    assert code == 0


def _reference_parse(argv):
    """The full parser tree every `main` call used to build, as the
    reference for argv handling: parse, then hand over to the job."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, metavar="PATH",
                        help="write the report here instead of stdout")
    common.add_argument("--height-bound", type=int, default=3, metavar="H",
                        help="reflexivity scan depth (default 3)")
    common.add_argument("--verbose", action="store_true",
                        help="print timing to stderr")
    parser = argparse.ArgumentParser(
        prog="dualfan",
        description="dual fans, bundle total spaces, and mirror pipelines")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, needs_input, help_text) in dualfan.cli._COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        if needs_input:
            p.add_argument("input",
                           help="path to a JSON job file, or - for stdin")
    args = parser.parse_args(argv)
    dualfan.cli._load_payload(args)


ARGV_CASES = [
    "", "-h", "--help", "nope", "bhk", "bhk -h", "quintic -h",
    "quintic extra", "quintic --bogus", "bhk - --bogus", "bhk - x",
    "bundle-fan a b", "bb - --height-bound x", "bb --height-bound",
    "--verbose bhk -", "-h bhk", "dualcheck --ver", "fan-validate -- -",
    "Bhk -", "bh -", "givental - --height-bound=2 --height-bound z",
    "quintic", "bhk -", "section-polytope --out o --height-bound 7 -",
    "hori-vafa --verbose=1 -",
    "bhk --out= -", "bhk --out - -", "bb - --height-bound -1",
    "bb - --height-bound= 7", "bb - --height-bound 3_0", "bhk - -",
    "quintic -", "bhk --out=a=b -", "bhk --out a --out b -",
    "bhk - --verbose --verbose",
]
# every token of the cases above, plus the empty argument
ARGV_TOKENS = sorted({t for line in ARGV_CASES for t in line.split()} | {""})


def _show_args(args):
    # a parse that succeeds shows its namespace instead of running the job
    print(sorted(vars(args).items()))
    sys.exit(3)


def _argv_outcome(run_argv, argv):
    """(how `run_argv(argv)` ended, its stdout, its stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = ("returned", run_argv(argv))
        except SystemExit as e:
            status = ("exited", e.code)
    return status, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("line", ARGV_CASES)
def test_argv_handling_matches_the_full_parser_tree(line, monkeypatch):
    monkeypatch.setattr(dualfan.cli, "_load_payload", _show_args)
    for columns in (40, 80, 200):
        monkeypatch.setenv("COLUMNS", str(columns))
        argv = line.split()
        assert _argv_outcome(main, argv) == _argv_outcome(
            _reference_parse, argv), columns


def test_generated_argv_lists_match_the_full_parser_tree():
    direct = []

    # any list, or a command and up to two tokens: the direct path is
    # rare among arbitrary lists, so command-led lists are mixed in
    @given(st.lists(st.sampled_from(ARGV_TOKENS), max_size=6) | st.builds(
        lambda command, rest: [command, *rest],
        st.sampled_from(sorted(dualfan.cli._COMMANDS)),
        st.lists(st.sampled_from(ARGV_TOKENS), max_size=2)))
    @settings(max_examples=600, deadline=None, derandomize=True)
    def check(argv):
        direct.append(dualfan.cli._plain_args(argv) is not None)
        assert _argv_outcome(main, argv) == _argv_outcome(
            _reference_parse, argv)

    with mock.patch.object(dualfan.cli, "_load_payload", _show_args), \
            mock.patch.dict(os.environ, COLUMNS="80"):
        check()
    # the lists that skip argparse are checked too, not only its errors
    assert sum(direct) >= 0.05 * len(direct)


SRC = Path(__file__).resolve().parents[1] / "src"


def _run_module(*args, flags=()):
    return subprocess.run(
        [sys.executable, *flags, "-m", "dualfan.cli", *args],
        capture_output=True, stdin=subprocess.DEVNULL,
        env=dict(os.environ, PYTHONPATH=str(SRC)))


def test_module_entry_reads_sys_argv():
    golden = Path(__file__).resolve().parent / "golden" / "quintic.stdout"
    for flags in ((), ("-O",)):  # -O strips assert statements
        proc = _run_module("quintic", flags=flags)
        assert proc.returncode == 0
        assert proc.stdout == golden.read_bytes()
    proc = _run_module()
    assert proc.returncode == 2
    assert proc.stderr.startswith(b"usage: dualfan ")
    proc = _run_module("bhk")
    assert proc.returncode == 2
    assert proc.stderr.startswith(b"usage: dualfan bhk ")


def test_no_invariant_check_is_a_bare_assert():
    # `python -O` strips assert statements, and an AssertionError escapes
    # `main` as a traceback; a check raises `InternalError` instead
    bare = [f"{path.relative_to(SRC)}:{node.lineno}"
            for path in sorted(SRC.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Assert)
            or isinstance(node, ast.Name) and node.id == "AssertionError"]
    assert bare == []


def test_no_comprehension_truncates_with_int():
    # `int(x)` per entry turns 3/2 into 1 and "3" into 3, and `int(x * ell)`
    # hides a scale that fails to clear a denominator; lattice data goes
    # through `lattice._lattice_vector` or `lattice._integer` instead, while
    # `int(i == j)` only reads a comparison
    comprehensions = (ast.ListComp, ast.SetComp, ast.DictComp,
                      ast.GeneratorExp)
    # a set: a call inside nested comprehensions is walked once per level
    truncating = sorted({
        f"{path.relative_to(SRC)}:{call.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, comprehensions)
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
        and call.func.id == "int" and len(call.args) == 1
        and not call.keywords
        and isinstance(call.args[0], (ast.Name, ast.BinOp))})
    assert truncating == []


GOLDEN_JOBS = json.loads(
    (Path(__file__).resolve().parent / "golden" / "jobs.json").read_text(
        encoding="utf-8"))
BB_P2_JOB = json.loads(GOLDEN_JOBS["bb-p2"]["stdin"])
_DROP = object()
_FUZZ_ENTRY = st.integers(-4, 4) | st.sampled_from(
    ["1", "x", "", 0.5, 2.0, -1e300, None, True, {}, {"a": 1}, [], [1], [[2]]])
_FUZZ_VECTOR = (st.lists(st.integers(-4, 4), min_size=3, max_size=3)
                | st.lists(_FUZZ_ENTRY, max_size=4) | _FUZZ_ENTRY)
_FUZZ_MATRIX = (st.lists(st.lists(st.integers(-4, 4), min_size=3,
                                  max_size=3), min_size=1, max_size=5)
                | st.lists(_FUZZ_VECTOR, max_size=5) | _FUZZ_VECTOR)


def _mutated(name, replacement, golden=BB_P2_JOB):
    """The golden field, kept half the time, else dropped, wrapped in one
    more list or replaced."""
    kept = golden.get(name, _DROP)
    return st.integers(0, 5).flatmap(
        lambda k: st.just(kept) if k < 3 else st.just(_DROP) if k == 3
        else st.just([kept] if kept is not _DROP else [[]]) if k == 4
        else replacement)


def _job(nest, **fields):
    job = {k: v for k, v in fields.items() if v is not _DROP}
    return [job] if nest else job


_BB_PAYLOADS = st.builds(
    _job,
    nest=st.integers(0, 9).map(lambda k: k == 9),
    rank=_mutated("rank", st.integers(-1, 5) | _FUZZ_ENTRY),
    generators=_mutated("generators", _FUZZ_MATRIX),
    ell_dual=_mutated("ell_dual", _FUZZ_VECTOR),
    splitting=_mutated("splitting", _FUZZ_MATRIX),
    dual_splitting=_mutated("dual_splitting", _FUZZ_MATRIX),
)


@given(_BB_PAYLOADS)
@settings(max_examples=200, deadline=2000, derandomize=True)
def test_mutated_bb_jobs_keep_the_exit_code_contract(payload):
    assert_exit_code_contract("bb", payload)


def assert_exit_code_contract(command, payload):
    """A mutated job is verified (0), fails with a witness (1) or is
    rejected with one error line (2); anything that escapes `main` fails
    the test, and exit 3 would be a bug."""
    out, err = io.StringIO(), io.StringIO()
    stdin = io.StringIO(json.dumps(payload))
    with mock.patch.object(sys, "stdin", stdin), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "-"])
    assert code in (0, 1, 2), (code, err.getvalue())
    if code == 2:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    else:
        assert json.loads(out.getvalue())["command"] == command
    return code


# the fans of the `fan-validate` goldens that are not rejected
GOLDEN_FANS = [json.loads(job["stdin"])["fan"] for job in GOLDEN_JOBS.values()
               if job["argv"][0] == "fan-validate" and job["exit"] != 2]


def _mutated_fan(golden):
    """Each field of a golden fan kept, dropped, wrapped or replaced:
    rays by small vectors of the golden rank or by junk, cones by small
    index lists or by junk."""
    rank = golden["rank"]
    rays = st.lists(st.lists(st.integers(-2, 2), min_size=rank,
                             max_size=rank), max_size=6)
    cones = st.lists(st.lists(st.integers(-1, 6), max_size=4), max_size=6)
    return st.builds(
        _job,
        nest=st.just(False),
        rank=_mutated("rank", st.integers(-1, 4) | _FUZZ_ENTRY, golden),
        rays=_mutated("rays", rays | _FUZZ_MATRIX, golden),
        max_cones=_mutated("max_cones", cones | _FUZZ_MATRIX, golden),
        marked=_mutated("marked", rays | _FUZZ_MATRIX, golden),
    )


_FAN_VALIDATE_PAYLOADS = st.builds(
    _job,
    nest=st.integers(0, 9).map(lambda k: k == 9),
    fan=st.sampled_from(GOLDEN_FANS).flatmap(_mutated_fan) | _FUZZ_ENTRY,
)


@given(_FAN_VALIDATE_PAYLOADS)
@settings(max_examples=200, deadline=2000, derandomize=True)
def test_mutated_fan_validate_jobs_keep_the_exit_code_contract(payload):
    assert_exit_code_contract("fan-validate", payload)


# the jobs of the six `givental` and `hori-vafa` goldens
GOLDEN_BUNDLE_JOBS = [json.loads(job["stdin"]) for job in GOLDEN_JOBS.values()
                      if job["argv"][0] in ("givental", "hori-vafa")]


def _mutated_bundle_job(golden):
    """A golden bundle job with its fan mutated as in the `fan-validate`
    fuzz, and its summands and basis rays kept, dropped, wrapped or
    replaced: coefficients by small vectors of the golden ray count,
    basis rays by small ray indices or vectors of the golden rank."""
    fan = golden["fan"]
    count, rank = len(fan["rays"]), fan["rank"]
    coeffs = st.lists(st.integers(-4, 4), min_size=count, max_size=count)
    summand = st.fixed_dictionaries({"coeffs": coeffs | _FUZZ_VECTOR})
    basis = st.lists(st.integers(-1, count) | st.lists(
        st.integers(-2, 2), min_size=rank, max_size=rank), max_size=3)
    return st.builds(
        _job,
        nest=st.integers(0, 9).map(lambda k: k == 9),
        fan=_mutated("fan", _mutated_fan(fan) | _FUZZ_ENTRY, golden),
        bundles=_mutated("bundles", st.lists(summand | _FUZZ_ENTRY,
                                             max_size=3) | _FUZZ_MATRIX,
                         golden),
        basis_rays=_mutated("basis_rays", basis | _FUZZ_VECTOR, golden),
    )


@given(st.sampled_from(["givental", "hori-vafa"]),
       st.sampled_from(GOLDEN_BUNDLE_JOBS).flatmap(_mutated_bundle_job))
@settings(max_examples=200, deadline=2000, derandomize=True)
def test_mutated_givental_jobs_keep_the_exit_code_contract(command, payload):
    assert_exit_code_contract(command, payload)


def _integers(x):
    """Every int in a JSON value."""
    if isinstance(x, dict):
        x = list(x.values())
    if isinstance(x, list):
        return [i for item in x for i in _integers(item)]
    return [x] if isinstance(x, int) else []


def _small_golden_jobs(command):
    """The jobs of the command's goldens that are not rejected and whose
    integers lie within |x| ≤ 4: nothing bounds the work of a job yet,
    so a kept huge coefficient on a mutated fan could run unbounded."""
    jobs = [json.loads(job["stdin"]) for job in GOLDEN_JOBS.values()
            if job["argv"][0] == command and job["exit"] != 2]
    return [job for job in jobs if all(abs(i) <= 4 for i in _integers(job))]


_PHASE = (st.builds("{}/{}".format, st.integers(-4, 4), st.integers(1, 4))
          | st.integers(-4, 4) | _FUZZ_ENTRY)


def _mutated_bhk_job(golden):
    """P's entries kept, dropped, wrapped or replaced by small matrices of
    the golden rank or by junk; Q's phases likewise, by small fractions."""
    rank = len(golden["P"]["entries"])
    entries = st.lists(st.lists(st.integers(-1, 4), min_size=rank,
                                max_size=rank), min_size=rank, max_size=rank)
    phases = st.lists(st.lists(_PHASE, min_size=rank, max_size=rank)
                      | _FUZZ_VECTOR, max_size=2)
    return st.builds(
        _job,
        nest=st.integers(0, 9).map(lambda k: k == 9),
        P=_mutated("P", st.fixed_dictionaries(
            {"entries": entries | _FUZZ_MATRIX}) | _FUZZ_ENTRY, golden),
        Q=_mutated("Q", st.fixed_dictionaries(
            {"phases": phases | _FUZZ_MATRIX}) | _FUZZ_ENTRY, golden),
    )


@given(st.sampled_from(_small_golden_jobs("bhk")).flatmap(_mutated_bhk_job))
@settings(max_examples=200, deadline=2000, derandomize=True)
def test_mutated_bhk_jobs_keep_the_exit_code_contract(payload):
    assert_exit_code_contract("bhk", payload)


def _mutated_dualcheck_job(golden):
    """Each of the two fans kept, dropped, wrapped or replaced by a
    mutated golden fan or by junk."""
    fans = st.sampled_from(GOLDEN_FANS).flatmap(_mutated_fan) | _FUZZ_ENTRY
    return st.builds(
        _job,
        nest=st.integers(0, 9).map(lambda k: k == 9),
        fan=_mutated("fan", fans, golden),
        dual_fan=_mutated("dual_fan", fans, golden),
    )


@given(st.sampled_from(_small_golden_jobs("dualcheck"))
       .flatmap(_mutated_dualcheck_job))
@settings(max_examples=200, deadline=2000, derandomize=True)
def test_mutated_dualcheck_jobs_keep_the_exit_code_contract(payload):
    assert_exit_code_contract("dualcheck", payload)


def _mutated_divisor_job(golden, field):
    """The golden fan mutated as in the `fan-validate` fuzz; its divisor
    (or list of divisors) kept, dropped, wrapped or replaced by small
    coefficient vectors of the golden ray count or by junk."""
    count = len(golden["fan"]["rays"])
    coeffs = st.lists(st.integers(-4, 4), min_size=count, max_size=count)
    divisor = st.fixed_dictionaries({"coeffs": coeffs | _FUZZ_VECTOR})
    if field == "divisors":
        divisor = st.lists(divisor | _FUZZ_ENTRY, max_size=3)
    return st.builds(
        _job,
        nest=st.integers(0, 9).map(lambda k: k == 9),
        fan=_mutated("fan", _mutated_fan(golden["fan"]) | _FUZZ_ENTRY, golden),
        **{field: _mutated(field, divisor | _FUZZ_ENTRY, golden)},
    )


@given(st.sampled_from(_small_golden_jobs("section-polytope"))
       .flatmap(lambda job: _mutated_divisor_job(job, "divisor")))
@settings(max_examples=200, deadline=2000, derandomize=True)
def test_mutated_section_polytope_jobs_keep_the_exit_code_contract(payload):
    assert_exit_code_contract("section-polytope", payload)


@given(st.sampled_from(_small_golden_jobs("bundle-fan"))
       .flatmap(lambda job: _mutated_divisor_job(job, "divisors")))
@settings(max_examples=200, deadline=2000, derandomize=True)
def test_mutated_bundle_fan_jobs_keep_the_exit_code_contract(payload):
    assert_exit_code_contract("bundle-fan", payload)


def test_a_dropped_maximal_cone_fails_the_wall_census(monkeypatch, capsys):
    # a `relabel_fan` that loses the last maximal cone keeps every ray, so
    # the ray pairings and the coefficient maps cannot see the hole; the
    # census of each fan against the cone it must cover does
    def dropping(relabel):
        def relabel_and_drop(f, t):
            fan = relabel(f, t)
            return Fan(fan.rays, fan.max_cones[:-1], fan.lattice_rank,
                       fan.marked_generators)
        return relabel_and_drop

    for module in (dualfan.mirrors.bb, dualfan.mirrors.quintic):
        monkeypatch.setattr(module, "relabel_fan",
                            dropping(module.relabel_fan))
    code, body, err = run(capsys, ["bb"], BB_P2_JOB, monkeypatch)
    assert (code, err) == (1, "")
    assert not body["report"]["passed"]
    checks = body["report"]["checks"]
    assert not checks["support_identity"]
    assert not checks["dual_support_identity"]
    code, body, err = run(capsys, ["quintic"])
    assert (code, body) == (3, None)
    assert len(err.splitlines()) == 1
    assert err.startswith("internal error: ")
