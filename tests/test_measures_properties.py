"""Randomized exact laws for measures: bilinearity, associativity, metrics."""

from __future__ import annotations

from fractions import Fraction
from math import lcm

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
    find_subgroups,
    generate_closure,
    is_right_invariant,
    mix,
    state_carrier,
    stationary_law,
    stopping_time_stats,
    tv_distance,
)
from tsl.measures import _strongly_connected_components, absorption, closed_classes, tail_chain

from helpers import element_measure
from oracles import (
    absorption_time_reference,
    dense_absorption,
    dense_expected_steps,
    dense_stationary,
    kernel_classes_reference,
    product_chain_reference,
    right_invariance_reference,
    stagewise_product_law,
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
@given(measure_batch(2, max_states=3), st.data())
def test_right_invariance_matches_the_pushforward_reference(batch, data):
    space, (mu, other), _ = batch
    sg = generate_closure(space, [*mu.support, *other.support])
    sub = data.draw(st.sampled_from(find_subgroups(sg)))
    invariant = convolve(mu, ProbMeasure.uniform(mu.carrier, sub.elements))
    # moving half the mass onto a member a != e breaks invariance: a h != a
    moved = [x for i, x in zip(sub.member_ids, sub.elements) if i != sub.identity_id]
    point = ProbMeasure.point(mu.carrier, (moved or sub.elements)[0])
    tilted = mix([invariant, point], [Fraction(1, 2), Fraction(1, 2)])
    for nu in (mu, other, invariant, tilted):
        assert is_right_invariant(nu, sub) == right_invariance_reference(nu, sub)
    assert is_right_invariant(invariant, sub)
    assert is_right_invariant(tilted, sub) == sub.is_trivial


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


def _absorption_case(n: int, tail: dict, *prefix: dict):
    space = StateSpace.of_size(n)
    return space, [element_measure(space, m) for m in (tail, *prefix)], []


@COMMON
@given(measure_batch(1))
# a group tail: its 24-state class is doubly stochastic, the uniform law ...
@example(_absorption_case(4, {(1, 0, 2, 3): "1/2", (1, 2, 3, 0): "1/2"}))
# ... and a 4-state class whose columns do not sum to 1, the general solve
@example(_absorption_case(3, {(1, 0, 0): "3/4", (1, 0, 1): "1/4"}))
def test_chain_solves_match_the_dense_reference(batch):
    _, (tail,), _ = batch
    chain = build_product_chain(NoiseSpec(tail))
    rows = chain.transitions
    classes = chain.recurrent_classes
    for cls in classes:
        members = list(cls.member_ids)
        pi = dict(cls.stationary)
        assert sum(pi.values()) == 1
        for j in members:
            assert sum(pi[i] * rows[i][j] for i in members) == pi[j]
        assert [pi[v] for v in members] == dense_stationary(rows, members)
    assert [cls.absorption for cls in classes] == dense_absorption(
        rows,
        list(chain.initial),
        list(chain.transient_ids),
        [list(cls.member_ids) for cls in classes],
    )
    assert sum(c.absorption for c in classes) == 1


@COMMON
@given(measure_batch(1))
# the same group tail moves the states uniformly too ...
@example(_absorption_case(4, {(1, 0, 2, 3): "1/2", (1, 2, 3, 0): "1/2"}))
# ... while a swap and a merge into state 1, half each, give (2/3, 1/3)
@example(_absorption_case(2, {(1, 0): "1/2", (0, 0): "1/2"}))
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


@COMMON
@given(st.integers(1, 3).flatmap(lambda count: measure_batch(count, max_states=3)))
# perfbench's cyc4-rank3, and its cyc4-rank2 behind a prefix
@example(_absorption_case(4, {(1, 2, 3, 0): "1/2", (0, 0, 2, 3): "1/2"}))
@example(_absorption_case(4, {(1, 2, 3, 0): "1/2", (0, 0, 0, 3): "1/2"}, {(0, 0, 2, 3): 1}))
def test_recurrent_classes_are_the_kernel_grouped_by_image(batch):
    # products of tail factors are the chain's states; a prefix only widens
    # the closure the chain's ids come from
    _, (tail, *prefix), _ = batch
    chain = build_product_chain(NoiseSpec(tail, tuple(prefix)))
    classes = {
        frozenset(chain.states[i] for i in cls.member_ids)
        for cls in chain.recurrent_classes
    }
    kernel = kernel_classes_reference([e.image for e in tail.support])
    assert classes == {frozenset(map(TransformationElement, g)) for g in kernel}


@COMMON
@given(st.integers(1, 8).flatmap(lambda n: st.lists(st.sets(st.integers(0, n - 1)), min_size=n, max_size=n)))
def test_components_match_reachability_and_come_out_downstream_first(succ):
    reach = []
    for v in range(len(succ)):
        seen, frontier = {v}, [v]
        while frontier:
            frontier = [t for u in frontier for t in succ[u] if t not in seen]
            seen.update(frontier)
        reach.append(seen)
    components = _strongly_connected_components(succ)
    position = {v: i for i, (comp, _) in enumerate(components) for v in comp}
    for i, (comp, closed) in enumerate(components):
        v = comp[0]
        assert set(comp) == {w for w in reach[v] if v in reach[w]}
        assert closed == (reach[v] == set(comp))
        assert all(position[t] <= i for u in comp for t in succ[u])
    # v's component is closed when everything v reaches reaches v back
    closed_sets = {tuple(sorted(r)) for v, r in enumerate(reach) if all(v in reach[w] for w in r)}
    assert closed_classes(succ) == sorted(closed_sets)


@COMMON
@given(st.integers(1, 3).flatmap(lambda count: measure_batch(count, max_states=3)))
# a group tail behind a prefix that reaches 3 of the 27 closure ids
@example(
    _absorption_case(
        3,
        {(1, 0, 2): "1/2", (0, 2, 1): "1/2"},
        {(0, 0, 1): 1},
        {(1, 0, 2): "1/2", (0, 2, 1): "1/2"},
        {(0, 2, 1): 1},
    )
)
def test_tail_chain_from_the_law_after_the_prefix_matches_the_object_level_search(batch):
    # the walk simulate's exact absorption time takes: from the law of the
    # product of the prefix factors (of the first factor when there is none)
    _, (tail, *prefix), _ = batch
    noise = NoiseSpec(tail, tuple(prefix))

    def images(m: ProbMeasure) -> dict:
        return {e.image: w for e, w in m.atoms}

    start = stagewise_product_law(
        [images(m) for m in prefix], images(tail), max(len(prefix), 1)
    )
    index = noise.closure.element_index
    den = lcm(*(w.denominator for w in start.values()))
    law = {index[TransformationElement(s)]: int(w * den) for s, w in start.items()}
    ids, out, initial = tail_chain(noise, (law, den))
    states, rows, weights = product_chain_reference(images(tail), start)
    assert ids == [index[TransformationElement(s)] for s in states]
    assert out == rows
    assert initial == weights


@COMMON
@given(st.integers(2, 3).flatmap(lambda count: measure_batch(count, max_states=3)))
# a four-product class entered from the identity, and cyc4-rank3 behind a
# prefix: 48 transient products in 4 blocks, over 3 of its 4 absorbing ones
@example(_absorption_case(3, {(1, 0, 0): "3/4", (1, 0, 1): "1/4"}, {(0, 1, 2): 1}))
@example(_absorption_case(4, {(1, 2, 3, 0): "1/2", (0, 0, 2, 3): "1/2"}, {(0, 0, 2, 3): 1}))
def test_absorption_from_the_law_after_a_prefix_matches_the_dense_reference(batch):
    _, (tail, *prefix), _ = batch
    noise = NoiseSpec(tail, tuple(prefix))
    *_, law = noise.product_laws(len(prefix))
    ids, out, initial = tail_chain(noise, law)
    classes, hits, transient, steps = absorption(out, initial)
    assert classes == closed_classes(out)
    assert set(transient) == set(range(len(ids))) - {v for c in classes for v in c}
    rows = [[row.get(j, Fraction(0)) for j in range(len(ids))] for row in out]
    assert hits == dense_absorption(rows, initial, list(transient), list(map(list, classes)))
    assert steps == dense_expected_steps(rows, initial, list(transient))
