"""Common result type for the mirror pipelines."""

from .._value import InternalError, Value
from ..fans import DualFanReport, Fan, is_dual_pair
from ..lattice import _integer
from ..symbols import Potential
from ..toric_lg import BaseChangeReport


def _named_tuple(pairs, label):
    out = tuple((str(name), value) for name, value in pairs)
    seen = set()
    for name, _ in out:
        if name in seen:
            raise ValueError(f"duplicate {label} name: {name}")
        seen.add(name)
    return out


def _lookup(pairs, name):
    """The value named `name` among (name, value) pairs."""
    for n, v in pairs:
        if n == name:
            return v
    raise KeyError(name)


def built_duality(sigma, sigma_prime) -> DualFanReport:
    """`is_dual_pair` of a pair that a pipeline built.  The construction
    makes every accepted input dual, so a witness is a fault in dualfan,
    raised as an `InternalError` that names it."""
    duality = is_dual_pair(sigma, sigma_prime)
    if not duality:
        m, n, value = duality.witness
        raise InternalError(f"the built fans are not dual: ray {list(m)} "
                            f"pairs to {value} with ray {list(n)}")
    return duality


class MirrorReport(Value):
    """A constructed mirror pair together with everything verified about it.

    `checks` holds named booleans, `counts` named integers, `potentials`
    named `Potential` values, `notes` free-form caveats.  The two base
    change reports compare each potential family against the fan on the
    opposite side.  `criterion` is the BHK group comparison, or None
    elsewhere.
    """

    __slots__ = ("sigma_x", "sigma_x_prime", "duality", "to_gamma",
                 "to_gamma_prime", "checks", "counts", "potentials", "notes",
                 "criterion")

    def __init__(self, sigma_x, sigma_x_prime, duality, *, to_gamma,
                 to_gamma_prime, checks=(), counts=(), potentials=(),
                 notes=(), criterion=None):
        if not isinstance(sigma_x, Fan) or not isinstance(sigma_x_prime, Fan):
            raise TypeError("sigma_x and sigma_x_prime must be fans")
        if not isinstance(duality, DualFanReport):
            raise TypeError("duality must be a DualFanReport")
        if not (isinstance(to_gamma, BaseChangeReport)
                and isinstance(to_gamma_prime, BaseChangeReport)):
            raise TypeError("base change entries must be BaseChangeReport")
        checks = _named_tuple(((n, bool(v)) for n, v in checks), "check")
        counts = _named_tuple(((n, _integer(v)) for n, v in counts), "count")
        potentials = _named_tuple(potentials, "potential")
        for _, pot in potentials:
            if not isinstance(pot, Potential):
                raise TypeError("potential entries must be Potential values")
        object.__setattr__(self, "sigma_x", sigma_x)
        object.__setattr__(self, "sigma_x_prime", sigma_x_prime)
        object.__setattr__(self, "duality", duality)
        object.__setattr__(self, "to_gamma", to_gamma)
        object.__setattr__(self, "to_gamma_prime", to_gamma_prime)
        object.__setattr__(self, "checks", checks)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "potentials", potentials)
        object.__setattr__(self, "notes", tuple(str(n) for n in notes))
        object.__setattr__(self, "criterion", criterion)

    @property
    def passed(self):
        """True when the fans are dual and every named check succeeded."""
        return self.duality.verdict and all(v for _, v in self.checks)

    def check(self, name):
        return _lookup(self.checks, name)

    def count(self, name):
        return _lookup(self.counts, name)

    def potential(self, name):
        return _lookup(self.potentials, name)

    def __repr__(self):
        verdict = "passed" if self.passed else "failed"
        return (f"MirrorReport({verdict}, {len(self.checks)} checks, "
                f"{len(self.counts)} counts)")
