"""Randomized invariants for solution families and classification reports."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tsl import (
    CapacityError,
    MultiplicityError,
    NoiseSpec,
    Origin,
    ProbMeasure,
    SolutionLawFamily,
    StateSpace,
    TransformationElement,
    act,
    classify,
    deterministic_translate_families,
    element_carrier,
    fourier_trichotomy,
    mixture_family,
    semigroup_context,
    state_carrier,
    stationary_law,
    strongness_witness,
    uniform_solution,
)

from helpers import cyclic_noise
from oracles import fourier_oracle, strongness_residuals_reference, window_reference
from test_measures_properties import measure_batch

COMMON = settings(max_examples=120, derandomize=True, deadline=None)


def _weights(draw, keys):
    raw = [draw(st.integers(1, 9)) for _ in keys]
    total = sum(raw)
    return {k: Fraction(r, total) for k, r in zip(keys, raw)}


@st.composite
def semigroup_noise(draw):
    n = draw(st.integers(2, 3))
    space = StateSpace.of_size(n)
    car = element_carrier(space)

    def measure() -> ProbMeasure:
        count = draw(st.integers(1, 3))
        support = set()
        for _ in range(count):
            support.add(
                TransformationElement(tuple(draw(st.integers(0, n - 1)) for _ in range(n)))
            )
        return ProbMeasure.from_weights(car, _weights(draw, sorted(support)))

    mu = measure()
    prefix = tuple(measure() for _ in range(draw(st.integers(0, 2))))
    return space, NoiseSpec(mu, prefix)


@st.composite
def cyclic_noise_spec(draw, max_modulus: int = 8):
    n = draw(st.integers(2, max_modulus))
    residues = draw(
        st.sets(st.integers(0, n - 1), min_size=1, max_size=min(n, 3))
    )
    return n, _weights(draw, sorted(residues))


@COMMON
@given(semigroup_noise())
def test_families_solve_the_recursion_externally(data):
    space, noise = data
    report = classify(noise, semigroup_context(space))
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


@COMMON
@given(semigroup_noise())
def test_window_laws_match_the_convolution_reference(data):
    # the limit analysis takes the Cesaro law as fixed below the prefix, and
    # the entry-point families push its action on x through the state noise;
    # both must agree with convolving every element law and then acting
    space, noise = data
    report = classify(noise, semigroup_context(space))
    limit = report.limit
    depth = len(limit.cesaro_window) - 1
    assert limit.cesaro_window == window_reference(noise, limit.cesaro, depth)
    if limit.converges_in_law or not report.certified_extremal:
        for x, fam in report.extremals:
            entry = ProbMeasure.point(state_carrier(space), x)
            assert fam.window == tuple((k, act(m, entry)) for k, m in limit.cesaro_window)
            assert fam.tail_cycle == (act(limit.cesaro, entry),)


@COMMON
@given(cyclic_noise_spec())
def test_cyclic_families_solve_the_recursion_externally(data):
    n, weights = data
    ctx, noise = cyclic_noise(n, weights)
    report = classify(noise, ctx)
    for _, fam in report.extremals:
        below = fam.law_at(-fam.depth - 1)
        for k in range(-fam.depth, 1):
            assert fam.law_at(k) == act(noise.measure_at(k), below)
            below = fam.law_at(k)
        for j in range(fam.tail_period):
            deep = -fam.depth - 1 - j
            assert fam.law_at(deep) == act(noise.tail, fam.law_at(deep - 1))


def _yamada_watanabe(report) -> None:
    # pathwise uniqueness forces uniqueness in law plus strongness, and a
    # certified non-unique list can never be pathwise unique
    if report.pathwise_unique:
        assert report.unique_in_law
        assert report.all_extremal_strong is True
    if report.certified_extremal and not report.unique_in_law:
        assert report.pathwise_unique is False
    assert report.unique_in_law == (len(report.extremals) == 1)


@COMMON
@given(semigroup_noise())
def test_yamada_watanabe_consistency_on_semigroups(data):
    space, noise = data
    report = classify(noise, semigroup_context(space))
    _yamada_watanabe(report)
    assert report.fourier is None
    assert report.notes
    if report.limit.as_convergence:
        assert report.all_extremal_strong is True


@COMMON
@given(cyclic_noise_spec())
def test_yamada_watanabe_consistency_on_cyclic_groups(data):
    n, weights = data
    ctx, noise = cyclic_noise(n, weights)
    report = classify(noise, ctx)
    _yamada_watanabe(report)
    assert report.fourier is not None
    assert report.certified_extremal
    # family count against the spectral case split
    if n > 1:
        assert report.unique_in_law == (report.trichotomy == "C1")


@COMMON
@given(cyclic_noise_spec(max_modulus=12))
def test_fourier_matches_the_independent_oracle(data):
    n, weights = data
    ctx, noise = cyclic_noise(n, weights)
    report = fourier_trichotomy(noise, ctx)
    oracle = fourier_oracle(n, weights)
    assert report.pi == oracle["pi"]
    assert report.z_mu == oracle["z"]
    assert report.p_mu == oracle["p_mu"]
    assert report.h_mu == oracle["h"]
    assert report.trichotomy == oracle["case"]


@COMMON
@given(cyclic_noise_spec(max_modulus=12))
def test_fourier_structure(data):
    n, weights = data
    ctx, noise = cyclic_noise(n, weights)
    rep = fourier_trichotomy(noise, ctx)
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


@COMMON
@given(st.integers(2, 6), st.data())
def test_barycenter_of_translates_is_uniform(n, data):
    g = data.draw(st.integers(0, n - 1))
    ctx, noise = cyclic_noise(n, {g: Fraction(1)})
    fams = [fam for _, fam in deterministic_translate_families(noise, ctx)]
    assert len(fams) == n
    bary = mixture_family(noise, fams, [Fraction(1, n)] * n)
    assert bary.same_laws(uniform_solution(noise, ctx))


@COMMON
@given(semigroup_noise())
def test_stationary_law_is_invariant_when_unique(data):
    space, noise = data
    try:
        pi = stationary_law(noise.tail)
    except MultiplicityError as exc:
        assert len(exc.classes) > 1
        return
    assert act(noise.tail, pi) == pi
    assert sum(w for _, w in pi.atoms) == 1


@COMMON
@given(semigroup_noise())
def test_witness_reports_are_well_formed(data):
    space, noise = data
    report = classify(noise, semigroup_context(space))
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


@COMMON
@given(
    st.integers(1, 3).flatmap(lambda count: measure_batch(count, 1, max_states=3)),
    st.integers(1, 8),
    st.integers(1, 40),
)
def test_witness_matches_the_convolution_reference(batch, depth, budget):
    _, (tail, *prefix), (entry,) = batch
    noise = NoiseSpec(tail, tuple(prefix))
    family = SolutionLawFamily(((0, entry),), (entry,), Origin("extremal"))
    try:
        expected = strongness_residuals_reference(noise, family, depth, budget)
    except CapacityError as exc:
        with pytest.raises(CapacityError) as got:
            strongness_witness(noise, family, depth=depth, budget=budget)
        assert str(got.value) == str(exc)
        return
    witness = strongness_witness(noise, family, depth=depth, budget=budget)
    assert witness.depths == expected
    assert witness.residual == expected[-1][1]
