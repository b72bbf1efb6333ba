"""Command line front end: JSON jobs in, canonical JSON reports out.

Every command reads one JSON object (except `quintic`, which needs no
input), runs the corresponding library operation, and writes a single
canonical JSON document: keys sorted, no whitespace, one trailing
newline.  Exit status 0 means every verified statement held, 1 means
the mathematics failed somewhere and the report carries a witness, 2
means the input could not be interpreted, and 3 means dualfan broke one
of its own invariants (an `InternalError`).

A bare `COMMAND [INPUT]` argv is read directly; argparse is loaded only
for options, help and errors, whose messages stay argparse's own.
"""

import json
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

from ._value import InternalError
from .fans import Fan, is_complete, is_dual_pair, is_smooth, validate_fan
from .mirrors import (
    bhk_pair,
    givental_mirror,
    hori_vafa_mirror,
    is_reflexive,
    quintic_pipeline,
)
from .mirrors.bb import _bb_pair
from .polyhedra import Cone
from .toric_lg import ToricDivisor, is_cartier, section_polytope, split_bundle_fan

SCHEMA_VERSION = 1

# integers at or beyond 2^53 are not exact in common JSON consumers
_INT_LIMIT = 2 ** 53


class InputError(ValueError):
    """A job payload that cannot be interpreted."""


class _SmallIntRows(list):
    """Rows of exact ints, each strictly between -2^53 and 2^53, as
    vouched for by whoever built the list; `_jsonable` passes it whole."""


def _jsonable(x):
    # exact types first; no class is both a container and a scalar, so
    # testing containers before the scalar chain changes no result
    if type(x) is int:
        return x if -_INT_LIMIT < x < _INT_LIMIT else str(x)
    if isinstance(x, (list, tuple)):
        # its builder already proved what the test below would, so the
        # list costs one type test, not a pass over every entry
        if type(x) is _SmallIntRows:
            return x
        # a row of small exact ints is already its own JSON value: json
        # writes an exact int with int.__repr__ and a tuple as an array,
        # and the exact-type test leaves bool, int subclasses and Fraction
        # to the walk below, so the bytes are the same
        if {int}.issuperset(map(type, x)) and (
                not x or -_INT_LIMIT < min(x) and max(x) < _INT_LIMIT):
            return x
        # a small exact int is its own JSON value and costs no call
        return [v if type(v) is int and -_INT_LIMIT < v < _INT_LIMIT
                else _jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, bool) or x is None or isinstance(x, str):
        return x
    if isinstance(x, int):
        return str(x) if abs(x) >= _INT_LIMIT else x
    if isinstance(x, Fraction):
        return _jsonable(int(x)) if x.denominator == 1 else str(x)
    raise TypeError(f"cannot serialize {type(x).__name__}")


# No cycle markers: `_jsonable` returns a fresh tree of dicts and lists
# around the caller's int rows, and it walks every container first but a
# `_SmallIntRows`, whose rows hold only ints, so a cyclic report raises
# RecursionError before the encoder runs.  A row shared at two places is
# not a cycle and encodes twice, as with markers.  A section polytope's
# point list reaches the encoder as it is, so its report costs the
# encoder's own pass and a few vertex comparisons.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                            check_circular=False)


def canonical_json(obj) -> str:
    try:
        tree = _jsonable(obj)
    except ValueError:  # `str` of an int past the decimal digit limit
        raise _too_many_digits("a reported integer") from None
    return _ENCODER.encode(tree) + "\n"


def _too_many_digits(what):
    return InputError(
        f"{what} has more than {sys.get_int_max_str_digits()} digits")


def _require(obj, key, what):
    if not isinstance(obj, dict):
        raise InputError(f"{what} must be an object")
    if key not in obj:
        raise InputError(f"{what} is missing the field {key!r}")
    return obj[key]


def _digits(s):
    """True for a nonempty string of ASCII digits 0-9 and nothing else."""
    return s.isascii() and s.isdigit()


def _as_int(x, what):
    if isinstance(x, bool):
        raise InputError(f"{what} must be an integer")
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        if _digits(x.removeprefix("-")):  # -?[0-9]+
            try:
                return int(x)
            except ValueError:  # more digits than int() reads
                raise _too_many_digits(what) from None
        raise InputError(f"{what} is not an integer: {x!r}")
    raise InputError(f"{what} must be an integer")


def _as_list(v, what):
    if not isinstance(v, (list, tuple)):
        raise InputError(f"{what} must be a list")
    return v


def _int_vector(v, what):
    return tuple(_as_int(x, f"entry of {what}") for x in _as_list(v, what))


def _int_matrix(m, what):
    if not isinstance(m, (list, tuple)) or not m:
        raise InputError(f"{what} must be a nonempty list of rows")
    return tuple(_int_vector(row, f"row of {what}") for row in m)


def _fraction(x, what):
    if isinstance(x, bool) or isinstance(x, float):
        raise InputError(f"{what} must be an integer or a fraction string")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            num, slash, den = x.partition("/")  # -?[0-9]+(/[0-9]+)?
            if _digits(num.removeprefix("-")) and (not slash or _digits(den)):
                return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
        raise InputError(f"{what} is not a fraction: {x!r}")
    raise InputError(f"{what} must be an integer or a fraction string")


def parse_fan(obj):
    """(Fan, warnings).  Without a "marked" field the given vectors are
    normalized into rays and kept as the markers, with a warning for
    every vector that was not primitive."""
    rank = _as_int(_require(obj, "rank", "fan"), "fan rank")
    rays = [_int_vector(r, "ray")
            for r in _as_list(_require(obj, "rays", "fan"), "fan rays")]
    cones = [_int_vector(c, "cone")
             for c in _as_list(_require(obj, "max_cones", "fan"),
                               "fan max_cones")]
    marked = None
    if "marked" in obj:
        marked = [_int_vector(m, "marked generator")
                  for m in _as_list(obj["marked"], "fan marked")]
    warnings = []
    try:
        if marked is not None:
            fan = Fan(rays, cones, rank, marked_generators=marked)
        else:
            fan = Fan.from_generators(rays, cones, rank)
            for given, ray in zip(fan.marked_generators, fan.rays):
                if given != ray:
                    warnings.append(
                        f"ray {list(given)} was normalized to {list(ray)}; "
                        "the given vector is kept as its marker")
    except ValueError as e:
        raise InputError(f"bad fan: {e}")
    return fan, tuple(warnings)


def emit_fan(fan):
    out = {
        "rank": fan.lattice_rank,
        "rays": fan.rays,
        "max_cones": fan.max_cones,
    }
    if any(m != r for m, r in zip(fan.marked_generators, fan.rays)):
        out["marked"] = fan.marked_generators
    return out


def _parse_divisor(fan, obj, what):
    coeffs = _int_vector(_require(obj, "coeffs", what), f"{what} coeffs")
    try:
        return ToricDivisor(fan, coeffs)
    except ValueError as e:
        raise InputError(f"bad {what}: {e}")


def _duality_json(rep):
    if rep.witness is None:
        witness = None
    else:
        m, n, value = rep.witness
        witness = {"m": m, "n": n, "pairing": value}
    return {"verdict": rep.verdict, "witness": witness}


def _base_change_json(rep):
    return {
        "verdict": rep.verdict,
        "is_isomorphism": rep.is_isomorphism,
        "surviving": rep.surviving,
        "witness": rep.witness,
    }


def _potential_json(pot):
    return [{"exponent": e, "coefficient": str(c)} for e, c in pot.terms]


def _mirror_json(rep):
    return {
        "passed": rep.passed,
        "sigma_x": emit_fan(rep.sigma_x),
        "sigma_x_prime": emit_fan(rep.sigma_x_prime),
        "duality": _duality_json(rep.duality),
        "to_gamma": _base_change_json(rep.to_gamma),
        "to_gamma_prime": _base_change_json(rep.to_gamma_prime),
        "checks": dict(rep.checks),
        "counts": dict(rep.counts),
        "potentials": {name: _potential_json(p) for name, p in rep.potentials},
        "notes": rep.notes,
    }


def _cmd_dualcheck(payload, height_bound):
    fan, w1 = parse_fan(_require(payload, "fan", "job"))
    dual, w2 = parse_fan(_require(payload, "dual_fan", "job"))
    rep = is_dual_pair(fan, dual)
    return ({"duality": _duality_json(rep), "warnings": w1 + w2},
            not rep.verdict)


def _cmd_fan_validate(payload, height_bound):
    fan, warnings = parse_fan(_require(payload, "fan", "job"))
    v = validate_fan(fan)
    body = {
        "ok": v.ok,
        "diagnostics": v.diagnostics,
        "complete": is_complete(fan),
        "smooth": is_smooth(fan),
        "rank": fan.lattice_rank,
        "ray_count": len(fan.rays),
        "warnings": warnings,
    }
    return body, not v.ok


def _parse_bhk_input(payload):
    p = _int_matrix(_require(_require(payload, "P", "job"), "entries", "P"),
                    "P entries")
    phases = []
    if payload.get("Q") is not None:
        for row in _as_list(_require(payload["Q"], "phases", "Q"), "Q phases"):
            phases.append(tuple(_fraction(x, "phase entry")
                                for x in _as_list(row, "phase")))
    return p, phases


def _cmd_bhk(payload, height_bound):
    p, phases = _parse_bhk_input(payload)
    rep = bhk_pair(p, phases)
    crit = rep.criterion
    groups = {
        "symmetry_factors": crit.symmetry_group.invariant_factors,
        "q_factors": crit.q_group.invariant_factors,
        "q_dual_factors": crit.q_dual_group.invariant_factors,
        "quotient_factors": crit.quotient_factors,
        "dual_quotient_factors": crit.dual_quotient_factors,
        "criterion_holds": crit.holds,
    }
    return {"report": _mirror_json(rep), "groups": groups}, not rep.passed


def _cmd_bb(payload, height_bound):
    rank = _as_int(_require(payload, "rank", "job"), "rank")
    gens = _int_matrix(_require(payload, "generators", "job"), "generators")
    if any(len(g) != rank for g in gens):
        raise InputError("generator length does not match the rank")
    ell_dual = _int_vector(_require(payload, "ell_dual", "job"), "ell_dual")
    splitting = _int_matrix(_require(payload, "splitting", "job"), "splitting")
    dual_splitting = None
    if payload.get("dual_splitting") is not None:
        dual_splitting = _int_matrix(payload["dual_splitting"],
                                     "dual_splitting")
    cone = Cone(gens, rank)
    refl = is_reflexive(cone, height_bound)
    if refl.cone_report.functional is not None \
            and tuple(ell_dual) != refl.cone_report.functional:
        raise InputError(
            f"ell_dual {list(ell_dual)} does not match the height functional "
            f"{list(refl.cone_report.functional)} of the cone")
    rep = _bb_pair(cone, refl, splitting, dual_splitting)
    return {"report": _mirror_json(rep)}, not rep.passed


def _parse_summands(fan, payload, key, what):
    """The nonempty list `payload[key]` of divisors on `fan`."""
    summands = _require(payload, key, "job")
    if not isinstance(summands, (list, tuple)) or not summands:
        raise InputError(f"{key} must be a nonempty list")
    return [_parse_divisor(fan, d, what) for d in summands]


def _parse_bundle_input(payload):
    fan, warnings = parse_fan(_require(payload, "fan", "job"))
    divisors = _parse_summands(fan, payload, "bundles", "bundle summand")
    basis = None
    if payload.get("basis_rays") is not None:
        basis = []
        for el in _as_list(payload["basis_rays"], "basis_rays"):
            if isinstance(el, (list, tuple)):
                basis.append(_int_vector(el, "basis ray"))
            else:
                basis.append(_as_int(el, "basis ray index"))
    return fan, divisors, basis, warnings


def _cmd_givental(payload, build):
    fan, divisors, basis, warnings = _parse_bundle_input(payload)
    rep = build(fan, divisors, basis)
    return {"report": _mirror_json(rep), "warnings": warnings}, not rep.passed


def _cmd_quintic(payload, height_bound):
    try:
        rep = quintic_pipeline()
    except ValueError as e:  # no input to reject: dualfan itself broke
        raise InternalError(str(e)) from e
    body = {
        "report": _mirror_json(rep),
        "dual_fans": rep.duality.verdict,
        "xi_count": rep.count("xi_count"),
        "xi_prime_count": rep.count("xi_prime_count"),
    }
    return body, not rep.passed


def _cmd_section_polytope(payload, height_bound):
    fan, warnings = parse_fan(_require(payload, "fan", "job"))
    divisor = _parse_divisor(fan, _require(payload, "divisor", "job"),
                             "divisor")
    poly = section_polytope(divisor)
    points = poly.lattice_points()
    # the points are tuples of exact ints inside the vertex box, so a box
    # strictly inside ±2^53 vouches for every entry; a box that reaches
    # the limit leaves the list to `_jsonable`'s own walk
    if all(-_INT_LIMIT < x < _INT_LIMIT for v in poly.vertices for x in v):
        points = _SmallIntRows(points)
    body = {
        "cartier": is_cartier(divisor) is not None,
        "vertices": poly.vertices,
        "lattice_points": points,
        "count": len(points),
        "warnings": warnings,
    }
    return body, False


def _cmd_bundle_fan(payload, height_bound):
    fan, warnings = parse_fan(_require(payload, "fan", "job"))
    total = split_bundle_fan(_parse_summands(fan, payload, "divisors",
                                             "divisor"))
    return {"fan": emit_fan(total), "warnings": warnings}, False


# name: (handler, needs_input, help); a handler takes (payload,
# height_bound) and returns (body, failed), and `failed` means exit 1
_COMMANDS = {
    "dualcheck": (_cmd_dualcheck, True,
                  "test two marked fans for nonnegative marker pairing"),
    "fan-validate": (_cmd_fan_validate, True,
                     "run the fan condition and report diagnostics"),
    "bhk": (_cmd_bhk, True,
            "mirror pair from an exponent matrix and a symmetry group"),
    "bb": (_cmd_bb, True,
           "mirror pair from a reflexive cone and a splitting"),
    "givental": (lambda p, h: _cmd_givental(p, givental_mirror), True,
                 "split-bundle mirror with positive fiber signs"),
    "hori-vafa": (lambda p, h: _cmd_givental(p, hori_vafa_mirror), True,
                  "split-bundle mirror with negative fiber signs"),
    "quintic": (_cmd_quintic, False,
                "the built-in degree-five pipeline"),
    "section-polytope": (_cmd_section_polytope, True,
                         "sections of one divisor on a complete fan"),
    "bundle-fan": (_cmd_bundle_fan, True,
                   "total-space fan of a sum of Cartier divisors"),
}


def _load_payload(args):
    if not _COMMANDS[args.command][1]:
        return None
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as e:
        raise InputError(f"cannot read {args.input}: {e}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"invalid JSON: {e}")
    except RecursionError:
        raise InputError("invalid JSON: nested too deeply") from None
    except ValueError:  # an integer literal past the decimal digit limit
        raise _too_many_digits("an input integer") from None


# the option defaults, shared by `_parser` and `_plain_args`
_DEFAULTS = {"out": None, "height_bound": 3, "verbose": False}


def _plain_args(argv):
    """The namespace argparse returns for `COMMAND` or `COMMAND INPUT`, or
    None for any other argv (options, help, errors) to go to argparse."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    inputs = argv[1:]
    if len(inputs) != _COMMANDS[argv[0]][1] or any(
            t != "-" and t.startswith("-") for t in inputs):
        return None
    args = SimpleNamespace(command=argv[0], **_DEFAULTS)
    if inputs:
        args.input = inputs[0]
    return args


def _parser(names):
    """The `dualfan` parser with a subparser for each command in `names`."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="dualfan",
        description="dual fans, bundle total spaces, and mirror pipelines")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        _, needs_input, help_text = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", default=_DEFAULTS["out"], metavar="PATH",
                       help="write the report here instead of stdout")
        p.add_argument("--height-bound", type=int,
                       default=_DEFAULTS["height_bound"], metavar="H",
                       help="reflexivity scan depth (default %(default)s)")
        p.add_argument("--verbose", action="store_true",
                       default=_DEFAULTS["verbose"],
                       help="print timing to stderr")
        if needs_input:
            p.add_argument("input",
                           help="path to a JSON job file, or - for stdin")
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv)
    if args is None:
        # A job needs only its command's subparser, whose help and errors
        # do not depend on its siblings.  Leftover arguments go to the full
        # tree: its "unrecognized arguments" usage line lists every command.
        named = argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS
        args, extra = _parser(named).parse_known_args(argv)
        if extra:
            _parser(_COMMANDS).parse_args(argv)

    started = time.monotonic()
    try:
        payload = _load_payload(args)
        body, failed = _COMMANDS[args.command][0](payload, args.height_bound)
        text = canonical_json(
            {"schema_version": SCHEMA_VERSION, "command": args.command, **body})
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InternalError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            print(f"error: cannot write {args.out}: {e}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    if args.verbose:
        elapsed = time.monotonic() - started
        print(f"{args.command} finished in {elapsed:.3f}s", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
