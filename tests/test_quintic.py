"""The degree-five pipeline, checked against hand-computed values, and
the Fermat pipeline of every degree, against closed forms and against
the benchmark's own build from public functions."""

import importlib.util
from math import comb
from pathlib import Path

import pytest

import dualfan.mirrors.quintic
from dualfan.fans import is_smooth, validate_fan
from dualfan.mirrors import fermat_pipeline, quintic_pipeline
from dualfan.symbols import ParamPoly
from dualfan.toric_lg import AuxiliaryLG

POWER_MARKERS = {
    (4, -1, -1, -1, 1),
    (-1, 4, -1, -1, 1),
    (-1, -1, 4, -1, 1),
    (-1, -1, -1, 4, 1),
    (-1, -1, -1, -1, 1),
}
PRODUCT_MARKER = (0, 0, 0, 0, 1)


@pytest.fixture(scope="module")
def report():
    return quintic_pipeline()


def test_pipeline_passes(report):
    assert report.passed
    assert report.duality.verdict
    assert report.duality.witness is None


def test_total_space_shape(report):
    assert len(report.sigma_x.rays) == 6
    assert len(report.sigma_x.max_cones) == 5
    assert is_smooth(report.sigma_x)
    assert validate_fan(report.sigma_x).ok
    assert validate_fan(report.sigma_x_prime).ok


def test_section_counts(report):
    assert report.count("xi_count") == 126
    assert report.count("xi_prime_count") == 6
    assert report.count("surviving_coefficients") == 6
    assert report.count("dropped_coefficients") == 120


def test_deck_group(report):
    assert report.check("finite_quotient")
    assert report.check("deck_group_factors")
    assert report.count("deck_group_order") == 125


def test_markers_are_the_power_monomials(report):
    assert set(report.sigma_x_prime.marked_generators) == (
        POWER_MARKERS | {PRODUCT_MARKER})
    assert report.check("markers_are_power_monomials")
    assert report.check("invariant_sections_match_markers")


def test_dual_side_rays_equal_their_markers(report):
    # every marker is already primitive here
    assert set(report.sigma_x_prime.rays) == set(
        report.sigma_x_prime.marked_generators)


def test_base_changes(report):
    assert report.to_gamma.verdict and not report.to_gamma.is_isomorphism
    assert len(report.to_gamma.surviving) == 6
    assert report.to_gamma_prime.is_isomorphism


def test_one_parameter_potential(report):
    w = report.potential("w_fermat")
    assert len(w.terms) == 6
    coefficients = dict(w.terms)
    assert coefficients[PRODUCT_MARKER] == ParamPoly.parameter("psi", coeff=-5)
    for m in POWER_MARKERS:
        assert coefficients[m] == ParamPoly.constant(1)


def test_runs_are_deterministic():
    a = quintic_pipeline()
    b = quintic_pipeline()
    assert a.sigma_x_prime == b.sigma_x_prime
    assert a.sigma_x_prime.rays == b.sigma_x_prime.rays
    assert a.checks == b.checks
    assert a.counts == b.counts
    assert a.potentials == b.potentials


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_fermat_pipeline_matches_its_closed_forms(n):
    report = fermat_pipeline(n)
    assert report.passed
    assert report.count("rank") == n + 1
    assert report.count("xi_count") == comb(2 * n + 1, n)
    assert report.count("xi_prime_count") == n + 2
    # the check compares the invariant factors with (n + 1,) * (n - 1)
    assert report.check("deck_group_factors")
    assert report.count("deck_group_order") == (n + 1) ** (n - 1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_family_missing_a_section_fails_the_monomial_dictionary(
        monkeypatch, n):
    # without one exponent that is no marker, every degree vector is still
    # a degree-d monomial and every other check holds; only the count
    # shows that the dictionary no longer reaches every monomial
    markers = set(fermat_pipeline(n).sigma_x_prime.marked_generators)
    build = dualfan.mirrors.quintic.auxiliary_lg_from_ci

    def missing_one(divisors):
        family, verticals = build(divisors)
        exponents = list(family.exponents)
        exponents.remove(next(e for e in exponents if e not in markers))
        return AuxiliaryLG(family.fan, exponents), verticals

    monkeypatch.setattr(dualfan.mirrors.quintic, "auxiliary_lg_from_ci",
                        missing_one)
    report = fermat_pipeline(n)
    assert report.count("xi_count") == comb(2 * n + 1, n) - 1
    assert not report.check("monomial_dictionary")
    assert not report.passed
    assert all(ok for name, ok in report.checks
               if name != "monomial_dictionary")


@pytest.fixture(scope="module")
def bench_workloads():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_fermat_pipeline_matches_the_benchmark_build(bench_workloads, n):
    # the benchmark keeps its own build, from public functions and one
    # elimination per power, so that it can time any revision
    bench, deck = bench_workloads.fermat_pipeline(n)
    report = fermat_pipeline(n)
    assert report.sigma_x == bench.sigma_x
    assert report.sigma_x_prime.rays == bench.sigma_x_prime.rays
    assert (report.sigma_x_prime.marked_generators
            == bench.sigma_x_prime.marked_generators)
    assert report.duality.verdict == bench.duality.verdict
    assert report.to_gamma.surviving == bench.to_gamma.surviving
    assert report.potential("w_fermat") == bench.potential("w_fermat")
    for name, value in bench.counts:
        assert report.count(name) == value
    for name, value in bench.checks:
        assert report.check(name) == value
    assert deck.invariant_factors == (n + 1,) * (n - 1)
    assert report.count("deck_group_order") == deck.order
