"""Randomized exact laws for measures: bilinearity, associativity, metrics."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from tsl import (
    MultiplicityError,
    NoiseSpec,
    ProbMeasure,
    SimConfig,
    StateSpace,
    TransformationElement,
    act,
    build_product_chain,
    compose,
    convolve,
    element_carrier,
    mix,
    state_carrier,
    stationary_law,
    stopping_time_stats,
    tv_distance,
)

from helpers import element_measure
from oracles import (
    absorption_time_reference,
    dense_absorption,
    dense_stationary,
    product_chain_reference,
)

COMMON = settings(max_examples=120, derandomize=True, deadline=None)


def _normalized(weights: list[int]) -> list[Fraction]:
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


@st.composite
def measure_batch(draw, element_count: int, state_count: int = 0, max_states: int = 4):
    """Element measures (and optional state measures) on one shared space."""
    n = draw(st.integers(2, max_states))
    space = StateSpace.of_size(n)
    e_car = element_carrier(space)
    out = []
    for _ in range(element_count):
        atom_count = draw(st.integers(1, 4))
        atoms = {}
        for _ in range(atom_count):
            img = tuple(draw(st.integers(0, n - 1)) for _ in range(n))
            atoms[TransformationElement(img)] = 0
        raw = [draw(st.integers(1, 9)) for _ in atoms]
        for key, w in zip(list(atoms), _normalized(raw)):
            atoms[key] = w
        out.append(ProbMeasure.from_weights(e_car, atoms))
    states = []
    s_car = state_carrier(space)
    for _ in range(state_count):
        raw = [draw(st.integers(0, 9)) for _ in range(n)]
        if sum(raw) == 0:
            raw[0] = 1
        states.append(
            ProbMeasure.from_weights(
                s_car, dict(zip(range(n), _normalized(raw)))
            )
        )
    return space, out, states


@COMMON
@given(measure_batch(3))
def test_convolution_is_associative(batch):
    _, (m1, m2, m3), _ = batch
    assert convolve(convolve(m1, m2), m3) == convolve(m1, convolve(m2, m3))


@COMMON
@given(measure_batch(2, state_count=1))
def test_action_is_mixed_associative(batch):
    _, (m1, m2), (lam,) = batch
    assert act(convolve(m1, m2), lam) == act(m1, act(m2, lam))


@COMMON
@given(measure_batch(2, state_count=1), st.integers(1, 9), st.integers(1, 9))
def test_convolution_and_action_are_bilinear(batch, wa, wb):
    _, (m1, m2), (lam,) = batch
    w = Fraction(wa, wa + wb)
    blend = mix([m1, m2], [w, 1 - w])
    assert convolve(blend, m1) == mix(
        [convolve(m1, m1), convolve(m2, m1)], [w, 1 - w]
    )
    assert convolve(m1, blend) == mix(
        [convolve(m1, m1), convolve(m1, m2)], [w, 1 - w]
    )
    assert act(blend, lam) == mix([act(m1, lam), act(m2, lam)], [w, 1 - w])


@COMMON
@given(measure_batch(1, state_count=1))
def test_point_action_is_a_pushforward(batch):
    space, (m,), (lam,) = batch
    sigma = m.support[0]
    delta = ProbMeasure.point(element_carrier(space), sigma)
    assert act(delta, lam) == lam.pushforward(lambda x: sigma.image[x])


@COMMON
@given(measure_batch(2))
def test_convolution_support_is_the_product_set(batch):
    _, (m1, m2), _ = batch
    expected = {compose(a, b) for a in m1.support for b in m2.support}
    assert set(convolve(m1, m2).support) == expected


@COMMON
@given(measure_batch(3))
def test_tv_distance_is_a_metric(batch):
    _, (m1, m2, m3), _ = batch
    assert tv_distance(m1, m2) == tv_distance(m2, m1)
    assert (tv_distance(m1, m2) == 0) == (m1 == m2)
    assert tv_distance(m1, m3) <= tv_distance(m1, m2) + tv_distance(m2, m3)
    assert 0 <= tv_distance(m1, m2) <= 1


@COMMON
@given(measure_batch(3))
def test_mix_commutes_with_weight_lookup(batch, ):
    _, measures, _ = batch
    weights = [Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)]
    blend = mix(measures, weights)
    keys = {k for m in measures for k in m.support}
    for key in keys:
        expected = sum(w * m.weight(key) for m, w in zip(measures, weights))
        assert blend.weight(key) == expected


@COMMON
@given(measure_batch(3), st.integers(-20, 0))
def test_noise_schedule_matches_prefix_listing(batch, k):
    _, measures, _ = batch
    tail, *prefix = measures
    noise = NoiseSpec(tail, tuple(prefix))
    expected = prefix[-k] if -k < len(prefix) else tail
    assert noise.measure_at(k) == expected


@COMMON
@given(measure_batch(1))
def test_chain_solves_match_the_dense_reference(batch):
    _, (tail,), _ = batch
    chain = build_product_chain(NoiseSpec(tail))
    rows = chain.transitions
    for cls in chain.recurrent_classes:
        members = list(cls.member_ids)
        pi = dict(cls.stationary)
        assert sum(pi.values()) == 1
        for j in members:
            assert sum(pi[i] * rows[i][j] for i in members) == pi[j]
        assert [pi[v] for v in members] == dense_stationary(rows, members)
        assert cls.absorption == dense_absorption(
            rows, list(chain.initial), list(chain.transient_ids), members
        )
    assert sum(c.absorption for c in chain.recurrent_classes) == 1


@COMMON
@given(measure_batch(1))
def test_stationary_law_matches_the_dense_reference(batch):
    space, (mu,), _ = batch
    n = space.size
    rows = [[Fraction(0)] * n for _ in range(n)]
    for sigma, w in mu.atoms:
        for x in range(n):
            rows[x][sigma.image[x]] += w
    try:
        law = stationary_law(mu)
    except MultiplicityError:
        # several stationary laws: the all-state system is singular
        with pytest.raises(ValueError):
            dense_stationary(rows, list(range(n)))
        return
    assert [law.weight(x) for x in range(n)] == dense_stationary(rows, list(range(n)))


def _absorption_case(n: int, tail: dict, *prefix: dict):
    space = StateSpace.of_size(n)
    return space, [element_measure(space, m) for m in (tail, *prefix)], []


@COMMON
@given(st.integers(1, 3).flatmap(lambda count: measure_batch(count, max_states=3)))
# Cases whose closure has a closed class of several products: a swap that
# is never left, entered with probability 3/5 and 3/4 ...
@example(_absorption_case(2, {(1, 0): 1}, {(0, 1): "3/5", (1, 1): "2/5"}))
@example(_absorption_case(2, {(1, 0): 1}, {(1, 0): "3/4", (0, 0): "1/4"}, {(0, 1): 1}))
# ... a four-product class the prefix steers around (E[T] = 2) ...
@example(_absorption_case(3, {(2, 1, 2): "1/2", (2, 2, 1): "1/2"}, {(2, 1, 1): 1}))
# ... and a pure permutation walk, which never absorbs.
@example(_absorption_case(3, {(1, 0, 2): 1}))
def test_absorption_time_matches_the_definition(batch):
    _, (tail, *prefix), _ = batch
    noise = NoiseSpec(tail, tuple(prefix))
    stats = stopping_time_stats(noise, SimConfig(depth=1, trials=1))

    def images(m: ProbMeasure) -> dict:
        return {e.image: w for e, w in m.atoms}

    assert (stats.exact_mean, stats.infinite_mass) == absorption_time_reference(
        [images(m) for m in prefix], images(tail)
    )


@COMMON
@given(st.integers(1, 3).flatmap(lambda count: measure_batch(count, max_states=3)))
# the prefix atom (2 1 1) sorts first, so the tail's closure ids start at 1
@example(_absorption_case(3, {(2, 1, 2): "1/2", (2, 2, 1): "1/2"}, {(2, 1, 1): 1}))
def test_product_chain_matches_the_object_level_search(batch):
    # prefix stages widen the closure, so closure ids and chain positions differ
    _, (tail, *prefix), _ = batch
    chain = build_product_chain(NoiseSpec(tail, tuple(prefix)))
    states, rows, initial = product_chain_reference({e.image: w for e, w in tail.atoms})
    assert [s.image for s in chain.states] == states
    assert [dict(row) for row in chain.rows] == rows
    assert list(chain.initial) == initial
