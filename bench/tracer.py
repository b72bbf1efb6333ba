"""Per-layer spans recorded from outside the program.

`Tracer.install()` wraps the public functions and methods of each
dualfan layer in place, after the package is imported.  A wrapped call
is one span named `<layer>.<name>`.  For every span name the tracer
keeps the number of calls, the self time (the span's duration minus the
wrapped calls inside it) and the inclusive time of the outermost calls.
The tracer's own bookkeeping is charged to no span.  `LatticeMap`
construction and products, `primitive_vector` and other helpers that
run thousands of times per job are left unwrapped; their time counts
toward the layer that calls them.
"""

import functools
import importlib
import math
import sys
import time
from collections import Counter

# (span name, module, attribute path); several attributes may share a span
SPANS = [
    ("lattice.hnf", "dualfan.lattice", "hnf"),
    ("lattice.snf", "dualfan.lattice", "snf"),
    ("lattice.smith_diagonal", "dualfan.lattice", "smith_diagonal"),
    ("lattice.kernel_basis", "dualfan.lattice", "kernel_basis"),
    ("lattice.int_inverse", "dualfan.lattice", "int_inverse"),
    ("lattice.rational_inverse", "dualfan.lattice", "rational_inverse"),
    ("lattice.solve", "dualfan.lattice", "solve_integer"),
    ("lattice.solve", "dualfan.lattice", "solve_integer_matrix"),
    ("lattice.column_lattice_basis", "dualfan.lattice",
     "column_lattice_basis"),
    ("lattice.saturate", "dualfan.lattice", "saturate_column_lattice"),
    ("lattice.cokernel", "dualfan.lattice", "cokernel"),
    ("lattice.annihilator", "dualfan.lattice", "annihilator_lattice"),
    ("lattice.rank", "dualfan.lattice", "LatticeMap.rank"),
    ("lattice.det", "dualfan.lattice", "LatticeMap.det"),
    ("groups.from_phases", "dualfan.groups", "FiniteAbelianGroup.from_phases"),
    ("groups.contains_phase", "dualfan.groups",
     "FiniteAbelianGroup.contains_phase"),
    ("groups.elements", "dualfan.groups", "FiniteAbelianGroup.elements"),
    ("groups.is_subgroup_of", "dualfan.groups",
     "FiniteAbelianGroup.is_subgroup_of"),
    ("groups.quotient_factors", "dualfan.groups",
     "FiniteAbelianGroup.quotient_factors"),
    ("polyhedra.cone", "dualfan.polyhedra", "Cone.__init__"),
    ("polyhedra.from_inequalities", "dualfan.polyhedra",
     "Cone.from_inequalities"),
    ("polyhedra.intersection", "dualfan.polyhedra", "Cone.intersection"),
    ("polyhedra.minimal_face", "dualfan.polyhedra",
     "Cone.minimal_face_containing"),
    ("polyhedra.all_faces", "dualfan.polyhedra", "Cone.all_faces"),
    ("polyhedra.faces", "dualfan.polyhedra", "Cone.faces"),
    ("polyhedra.is_face_of", "dualfan.polyhedra", "Cone.is_face_of"),
    ("polyhedra.from_vertices", "dualfan.polyhedra", "Polytope.from_vertices"),
    ("polyhedra.from_hrep", "dualfan.polyhedra", "Polytope.from_hrep"),
    ("polyhedra.lattice_points", "dualfan.polyhedra",
     "Polytope.lattice_points"),
    ("polyhedra.polar", "dualfan.polyhedra", "Polytope.polar"),
    ("polyhedra.normal_fan", "dualfan.polyhedra", "Polytope.normal_fan"),
    ("fans.fan", "dualfan.fans", "Fan.__init__"),
    ("fans.from_maximal_cones", "dualfan.fans", "Fan.from_maximal_cones"),
    ("fans.validate_fan", "dualfan.fans", "validate_fan"),
    ("fans.k_cones", "dualfan.fans", "k_cones"),
    ("fans.is_dual_pair", "dualfan.fans", "is_dual_pair"),
    ("fans.is_complete", "dualfan.fans", "is_complete"),
    ("fans.is_smooth", "dualfan.fans", "is_smooth"),
    ("fans.quotient_fan", "dualfan.fans", "quotient_fan"),
    ("fans.relabel_fan", "dualfan.fans", "relabel_fan"),
    ("symbols.param_poly", "dualfan.symbols", "ParamPoly.__init__"),
    ("symbols.potential", "dualfan.symbols", "Potential.__init__"),
    ("toric_lg.is_cartier", "dualfan.toric_lg", "is_cartier"),
    ("toric_lg.section_polytope", "dualfan.toric_lg", "section_polytope"),
    ("toric_lg.split_bundle_fan", "dualfan.toric_lg", "split_bundle_fan"),
    ("toric_lg.auxiliary_lg", "dualfan.toric_lg", "AuxiliaryLG.__init__"),
    ("toric_lg.auxiliary_lg_from_ci", "dualfan.toric_lg",
     "auxiliary_lg_from_ci"),
    ("toric_lg.base_change_check", "dualfan.toric_lg", "base_change_check"),
    ("toric_lg.specialization", "dualfan.toric_lg", "Specialization.__init__"),
    ("toric_lg.apply_specialization", "dualfan.toric_lg",
     "apply_specialization"),
    ("toric_lg.recover_ci_data", "dualfan.toric_lg", "recover_ci_data"),
    ("mirrors.is_gorenstein", "dualfan.mirrors.bb", "is_gorenstein"),
    ("mirrors.is_reflexive", "dualfan.mirrors.bb", "is_reflexive"),
    ("mirrors.support_partition", "dualfan.mirrors.bb", "support_partition"),
    ("mirrors.dual_splittings", "dualfan.mirrors.bb", "dual_splittings"),
    ("mirrors.bb_mirror_pair", "dualfan.mirrors.bb", "bb_mirror_pair"),
    ("mirrors.phase_symmetries", "dualfan.mirrors.bhk", "phase_symmetries"),
    ("mirrors.krawitz_dual_group", "dualfan.mirrors.bhk",
     "krawitz_dual_group"),
    ("mirrors.verify_bhk_criterion", "dualfan.mirrors.bhk",
     "verify_bhk_criterion"),
    ("mirrors.bhk_pair", "dualfan.mirrors.bhk", "bhk_pair"),
    ("mirrors.splitting_basis", "dualfan.mirrors.givental", "splitting_basis"),
    ("mirrors.givental_mirror", "dualfan.mirrors.givental", "givental_mirror"),
    ("mirrors.hori_vafa_mirror", "dualfan.mirrors.givental",
     "hori_vafa_mirror"),
    ("mirrors.quintic_pipeline", "dualfan.mirrors.quintic",
     "quintic_pipeline"),
    ("mirrors.report", "dualfan.mirrors.report", "MirrorReport.__init__"),
    ("cli.main", "dualfan.cli", "main"),
    ("cli.parse_fan", "dualfan.cli", "parse_fan"),
    ("cli.emit_fan", "dualfan.cli", "emit_fan"),
    ("cli.canonical_json", "dualfan.cli", "canonical_json"),
]

LAYERS = ("lattice", "groups", "polyhedra", "fans", "toric_lg", "symbols",
          "mirrors", "cli")


def _primitive(v):
    g = math.gcd(*v)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def _cone_key(tracer, args, kwargs):
    gens = kwargs.get("generators", args[1] if len(args) > 1 else ())
    rank = kwargs.get("ambient_rank", args[2] if len(args) > 2 else None)
    if not isinstance(gens, (list, tuple)):
        # reading a one-shot iterator here would starve the program
        tracer.cone_inputs.add(("unread", id(gens)))
        return
    key = frozenset(_primitive(tuple(int(x) for x in g))
                    for g in gens if any(g))
    tracer.cone_inputs.add((rank, key))


def _polytope_key(tracer, args, kwargs):
    poly = args[0]
    tracer.polytopes.add((poly.ambient_rank, poly.hrep, poly.vertices))


def _count_points(tracer, args, result):
    tracer.points += len(result)


HOOKS = {
    "polyhedra.cone": (_cone_key, None),
    "polyhedra.lattice_points": (_polytope_key, _count_points),
}


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_ns = Counter()
        self.incl_ns = Counter()
        self.depth = Counter()
        self.children = [0]
        self.cone_inputs = set()
        self.polytopes = set()
        self.points = 0

    @classmethod
    def install(cls):
        """Wrap every attribute in SPANS, in the defining module and in
        every dualfan module that imported it by name."""
        tracer = cls()
        for name, module, path in SPANS:
            tracer._wrap(name, importlib.import_module(module), path)
        return tracer

    def _wrap(self, name, module, path):
        before, after = HOOKS.get(name, (None, None))
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(module, cls_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr,
                        classmethod(self.span(name, raw.__func__, before,
                                              after)))
            else:
                setattr(owner, attr, self.span(name, raw, before, after))
            return
        original = getattr(module, path)
        wrapper = self.span(name, original, before, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "dualfan" or mod_name.startswith("dualfan."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def span(self, name, fn, before=None, after=None):
        now = time.perf_counter_ns
        stack = self.children
        calls, self_ns, incl_ns, depth = (self.calls, self.self_ns,
                                          self.incl_ns, self.depth)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter = now()
            if before is not None:
                before(tracer, args, kwargs)
            stack.append(0)
            depth[name] += 1
            done = False
            start = now()
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                end = now()
                inner = stack.pop()
                depth[name] -= 1
                calls[name] += 1
                self_ns[name] += end - start - inner
                if not depth[name]:
                    incl_ns[name] += end - start
                if done and after is not None:
                    after(tracer, args, result)
                stack[-1] += now() - enter
            return result

        return wrapper

    def metrics(self):
        """Per-layer figures for one pass, keyed by metric name."""
        ms = 1e-6
        out = {}

        def calls(span):
            out[f"{span}.calls"] = self.calls[span]

        def self_ms(span):
            out[f"{span}.self_ms"] = self.self_ns[span] * ms

        for span in ("lattice.snf", "lattice.hnf", "lattice.kernel_basis",
                     "lattice.rank", "lattice.solve", "polyhedra.cone",
                     "polyhedra.from_hrep", "polyhedra.lattice_points"):
            calls(span)
            self_ms(span)
        for span in ("groups.from_phases", "polyhedra.all_faces",
                     "polyhedra.is_face_of", "polyhedra.intersection",
                     "fans.validate_fan", "fans.is_complete",
                     "toric_lg.section_polytope", "mirrors.is_reflexive",
                     "cli.main"):
            calls(span)
        for span in ("fans.quotient_fan", "fans.validate_fan",
                     "fans.is_complete"):
            out[f"{span}.incl_ms"] = self.incl_ns[span] * ms
        for span in ("cli.parse_fan", "cli.canonical_json"):
            self_ms(span)
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = ms * sum(
                v for k, v in self.self_ns.items()
                if k.split(".")[0] == layer)
        cones = self.calls["polyhedra.cone"]
        out["polyhedra.cone.distinct_ratio"] = \
            len(self.cone_inputs) / cones if cones else 0.0
        enumerations = self.calls["polyhedra.lattice_points"]
        out["polyhedra.lattice_points.distinct_ratio"] = \
            len(self.polytopes) / enumerations if enumerations else 0.0
        out["polyhedra.lattice_points.points"] = self.points
        return out
