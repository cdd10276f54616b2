"""Randomized invariants for solution families and classification reports."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tsl import (
    CapacityError,
    MultiplicityError,
    Origin,
    ProbMeasure,
    SolutionLawFamily,
    act,
    classify,
    deterministic_translate_families,
    fourier_trichotomy,
    mixture_family,
    stationary_law,
    strongness_witness,
    uniform_solution,
)

from helpers import cyclic_noise
from oracles import (
    cesaro_reference,
    fourier_oracle,
    state_window_reference,
    strongness_residuals_reference,
    window_reference,
)
from problems import every_problem, images, problems


def _solves_the_recursion(p) -> None:
    noise = p.noise
    report = classify(noise, p.context)
    for _, fam in report.extremals:
        below = fam.law_at(-fam.depth - 1)
        for k in range(-fam.depth, 1):
            assert fam.law_at(k) == act(noise.measure_at(k), below)
            below = fam.law_at(k)
        period = fam.tail_period
        for j in range(period):
            deep = -fam.depth - 1 - j
            assert fam.law_at(deep) == act(noise.tail, fam.law_at(deep - 1))
            assert fam.law_at(deep) == fam.law_at(deep - period)


@given(problems("semigroup"))
def test_families_solve_the_recursion_externally(p):
    _solves_the_recursion(p)


@given(problems("cyclic"))
def test_cyclic_families_solve_the_recursion_externally(p):
    _solves_the_recursion(p)


@every_problem
def test_window_laws_match_the_convolution_reference(p):
    # the limit analysis takes the Cesaro law as fixed below the prefix, and
    # every family derives its window from its tail cycle; both must agree
    # with pushing every window position through its noise law
    noise = p.noise
    report = classify(noise, p.context)
    limit = report.limit
    assert images(limit.cesaro) == cesaro_reference(images(noise.tail))
    depth = len(limit.cesaro_window) - 1
    assert limit.cesaro_window == window_reference(noise, limit.cesaro, depth)
    if limit.converges_in_law or not report.certified_extremal:
        for x, fam in report.extremals:
            entry = ProbMeasure.point(p.entry.carrier, x)
            assert fam.window == tuple((k, act(m, entry)) for k, m in limit.cesaro_window)
            assert fam.tail_cycle == (act(limit.cesaro, entry),)
    for _, fam in report.extremals:
        below = fam.law_at(-fam.depth - 1)
        assert fam.window == state_window_reference(noise, below, fam.depth)


def _yamada_watanabe(report) -> None:
    # pathwise uniqueness forces uniqueness in law plus strongness, and a
    # certified non-unique list can never be pathwise unique
    if report.pathwise_unique:
        assert report.unique_in_law
        assert report.all_extremal_strong is True
    if report.certified_extremal and not report.unique_in_law:
        assert report.pathwise_unique is False
    assert report.unique_in_law == (len(report.extremals) == 1)


@given(problems("semigroup"))
def test_yamada_watanabe_consistency_on_semigroups(p):
    report = classify(p.noise, p.context)
    _yamada_watanabe(report)
    assert report.fourier is None
    assert report.notes
    if report.limit.as_convergence:
        assert report.all_extremal_strong is True


@given(problems("cyclic"))
def test_yamada_watanabe_consistency_on_cyclic_groups(p):
    report = classify(p.noise, p.context)
    _yamada_watanabe(report)
    assert report.fourier is not None
    assert report.certified_extremal
    # family count against the spectral case split
    if p.spec.size > 1:
        assert report.unique_in_law == (report.trichotomy == "C1")


@given(problems("cyclic", rare=False, wide=True))
def test_fourier_matches_the_independent_oracle(p):
    # the oracle's float moduli cannot tell a weight of 10^-60 from none
    report = fourier_trichotomy(p.noise, p.context)
    oracle = fourier_oracle(p.spec.size, {int(r): w for r, w in p.spec.tail})
    assert report.pi == oracle["pi"]
    assert report.z_mu == oracle["z"]
    assert report.p_mu == oracle["p_mu"]
    assert report.h_mu == oracle["h"]
    assert report.trichotomy == oracle["case"]


@given(problems("cyclic", wide=True))
def test_fourier_structure(prob):
    n = prob.spec.size
    rep = fourier_trichotomy(prob.noise, prob.context)
    z = set(rep.z_mu)
    assert 0 in z
    assert all((a + b) % n in z for a in z for b in z)
    assert rep.pi == tuple(1 if p in z else 0 for p in range(n))
    assert rep.h_mu == tuple(
        g for g in range(n) if all((p * g) % n == 0 for p in z)
    )
    if rep.p_mu == 0:
        assert z == {0}
    else:
        assert z == {(rep.p_mu * t) % n for t in range(n)}
    assert rep.trichotomy == {0: "C1", 1: "C2"}.get(rep.p_mu, "C3")
    assert len(rep.z_mu) * len(rep.h_mu) == n


@given(st.integers(2, 6), st.data())
def test_barycenter_of_translates_is_uniform(n, data):
    g = data.draw(st.integers(0, n - 1))
    ctx, noise = cyclic_noise(n, {g: Fraction(1)})
    fams = [fam for _, fam in deterministic_translate_families(noise, ctx)]
    assert len(fams) == n
    bary = mixture_family(noise, fams, [Fraction(1, n)] * n)
    assert bary.same_laws(uniform_solution(noise, ctx))


@given(problems())
def test_stationary_law_is_invariant_when_unique(p):
    tail = p.noise.tail
    try:
        pi = stationary_law(tail)
    except MultiplicityError as exc:
        assert len(exc.classes) > 1
        return
    assert act(tail, pi) == pi
    assert sum(w for _, w in pi.atoms) == 1


@given(problems())
def test_witness_reports_are_well_formed(p):
    noise = p.noise
    report = classify(noise, p.context)
    for _, fam in report.extremals[:2]:
        witness = strongness_witness(noise, fam, depth=8)
        depths = [d for d, _ in witness.depths]
        assert depths == sorted(depths)
        assert depths[-1] == 8
        assert witness.residual == witness.depths[-1][1]
        for _, r in witness.depths:
            assert 0 <= r <= 1
        if report.limit.as_convergence and report.unique_in_law:
            # synchronizing limits leave nothing unpredictable eventually
            deeper = strongness_witness(noise, fam, depth=16)
            assert deeper.residual <= witness.residual


@every_problem
def test_witness_matches_the_convolution_reference(p):
    # a budget past every support, and one that some products exceed
    noise, depth = p.noise, p.depth
    family = SolutionLawFamily(((0, p.entry),), (p.entry,), Origin("extremal"))
    for budget in (10**6, 12):
        try:
            expected = strongness_residuals_reference(noise, family, depth, budget)
        except CapacityError as exc:
            with pytest.raises(CapacityError) as got:
                strongness_witness(noise, family, depth=depth, budget=budget)
            assert str(got.value) == str(exc)
            continue
        witness = strongness_witness(noise, family, depth=depth, budget=budget)
        assert (witness.depths, witness.residual) == (expected, expected[-1][1])
