"""Randomized exact laws for measures: bilinearity, associativity, metrics."""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, strategies as st

from tsl import (
    MultiplicityError,
    ProbMeasure,
    SimConfig,
    TransformationElement,
    act,
    build_product_chain,
    compose,
    convolve,
    element_carrier,
    find_subgroups,
    is_right_invariant,
    limit_analysis,
    mix,
    stationary_law,
    stopping_time_stats,
    tv_distance,
)
from tsl.measures import _strongly_connected_components, absorption, closed_classes, tail_chain

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
from problems import every_problem, images, problems, schedule


@given(problems(laws=3))
def test_convolution_is_associative(p):
    m1, m2, m3 = p.laws(3)
    assert convolve(convolve(m1, m2), m3) == convolve(m1, convolve(m2, m3))


@given(problems(laws=2))
def test_action_is_mixed_associative(p):
    m1, m2 = p.laws(2)
    assert act(convolve(m1, m2), p.entry) == act(m1, act(m2, p.entry))


@given(problems(laws=2), st.integers(1, 9), st.integers(1, 9))
def test_convolution_and_action_are_bilinear(p, wa, wb):
    m1, m2 = p.laws(2)
    w = Fraction(wa, wa + wb)
    blend = mix([m1, m2], [w, 1 - w])
    assert convolve(blend, m1) == mix(
        [convolve(m1, m1), convolve(m2, m1)], [w, 1 - w]
    )
    assert convolve(m1, blend) == mix(
        [convolve(m1, m1), convolve(m1, m2)], [w, 1 - w]
    )
    assert act(blend, p.entry) == mix([act(m1, p.entry), act(m2, p.entry)], [w, 1 - w])


@given(problems())
def test_point_action_is_a_pushforward(p):
    sigma = p.noise.tail.support[0]
    delta = ProbMeasure.point(element_carrier(p.noise.space), sigma)
    assert act(delta, p.entry) == p.entry.pushforward(lambda x: sigma.image[x])


@given(problems(laws=2))
def test_convolution_support_is_the_product_set(p):
    m1, m2 = p.laws(2)
    expected = {compose(a, b) for a in m1.support for b in m2.support}
    assert set(convolve(m1, m2).support) == expected


@given(problems(laws=2), st.data())
def test_right_invariance_matches_the_pushforward_reference(p, data):
    mu, other = p.laws(2)
    sub = data.draw(st.sampled_from(find_subgroups(p.noise.closure)))
    invariant = convolve(mu, ProbMeasure.uniform(mu.carrier, sub.elements))
    # moving half the mass onto a member a != e breaks invariance: a h != a
    moved = [x for i, x in zip(sub.member_ids, sub.elements) if i != sub.identity_id]
    point = ProbMeasure.point(mu.carrier, (moved or sub.elements)[0])
    tilted = mix([invariant, point], [Fraction(1, 2), Fraction(1, 2)])
    for nu in (mu, other, invariant, tilted):
        assert is_right_invariant(nu, sub) == right_invariance_reference(nu, sub)
    assert is_right_invariant(invariant, sub)
    assert is_right_invariant(tilted, sub) == sub.is_trivial


@given(problems(laws=3))
def test_tv_distance_is_a_metric(p):
    m1, m2, m3 = p.laws(3)
    assert tv_distance(m1, m2) == tv_distance(m2, m1)
    assert (tv_distance(m1, m2) == 0) == (m1 == m2)
    assert tv_distance(m1, m3) <= tv_distance(m1, m2) + tv_distance(m2, m3)
    assert 0 <= tv_distance(m1, m2) <= 1


@given(problems(laws=3))
def test_mix_commutes_with_weight_lookup(p):
    measures = p.laws(3)
    weights = [Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)]
    blend = mix(measures, weights)
    keys = {k for m in measures for k in m.support}
    for key in keys:
        expected = sum(w * m.weight(key) for m, w in zip(measures, weights))
        assert blend.weight(key) == expected


@given(problems(), st.integers(-20, 0))
def test_noise_schedule_matches_prefix_listing(p, k):
    # the law a problem file declares at k, and the tail at every other time
    spec = p.spec
    if spec.mode == "semigroup":
        by_name = dict(spec.generators)
    else:
        by_name = {str(r): e.image for r, e in enumerate(p.context.group_elements)}
    law: dict = {}
    for name, w in dict(spec.prefix).get(k, spec.tail):
        law[by_name[name]] = law.get(by_name[name], 0) + w
    assert images(p.noise.measure_at(k)) == law


@given(problems())
def test_measures_from_numerators_equal_their_fraction_weights(p):
    # the integer boundary reduces each distinct numerator once and checks
    # the sum in integers; one numerator too many must still be refused
    element = p.noise.closure.element
    for numerators, den in p.noise.product_laws(p.depth):
        weights = {element(i): Fraction(n, den) for i, n in numerators.items()}
        by_key = {element(i): n for i, n in numerators.items()}
        measure = ProbMeasure.from_numerators(p.noise.carrier, by_key, den)
        assert measure == ProbMeasure.from_weights(p.noise.carrier, weights)
    first = next(iter(by_key))
    with pytest.raises(ValueError, match="weights sum to"):
        ProbMeasure.from_numerators(p.noise.carrier, {**by_key, first: by_key[first] + 1}, den)


@every_problem
def test_chain_solves_match_the_dense_reference(p):
    chain = build_product_chain(p.noise)
    rows = chain.transitions
    classes = chain.recurrent_classes
    for cls in classes:
        members = list(cls.member_ids)
        pi = dict(cls.stationary)
        assert sum(pi.values()) == 1
        for j in members:
            assert sum(pi[i] * rows[i][j] for i in members) == pi[j]
        assert cls.stationary == tuple(zip(members, dense_stationary(rows, members)))
    assert [cls.absorption for cls in classes] == dense_absorption(
        rows,
        list(chain.initial),
        list(chain.transient_ids),
        [list(cls.member_ids) for cls in classes],
    )
    assert sum(c.absorption for c in classes) == 1


@every_problem
def test_absorption_time_matches_the_definition(p):
    stats = stopping_time_stats(p.noise, SimConfig(depth=1, trials=1))
    assert (stats.exact_mean, stats.infinite_mass) == absorption_time_reference(*schedule(p.noise))


@every_problem
def test_product_chain_matches_the_object_level_search(p):
    # prefix stages widen the closure, so closure ids and chain positions differ
    chain = build_product_chain(p.noise)
    states, rows, initial = product_chain_reference(images(p.noise.tail))
    assert [s.image for s in chain.states] == states
    assert [dict(row) for row in chain.rows] == rows
    assert list(chain.initial) == initial


@every_problem
def test_recurrent_classes_are_the_kernel_grouped_by_image(p):
    # products of tail factors are the chain's states; a prefix only widens
    # the closure the chain's ids come from
    chain = build_product_chain(p.noise)
    classes = {frozenset(chain.states[i].image for i in c.member_ids) for c in chain.recurrent_classes}
    assert classes == kernel_classes_reference(list(images(p.noise.tail)))


@every_problem
def test_products_converge_almost_surely_iff_each_kernel_product_is_alone_with_its_image(p):
    # the running products settle exactly when every recurrent class is one
    # product, and the classes are the kernel's products grouped by image
    report = limit_analysis(p.noise, p.context)
    kernel = kernel_classes_reference(list(images(p.noise.tail)))
    assert report.as_convergence == all(len(c) == 1 for c in kernel)


@every_problem
def test_tail_chain_from_the_law_after_the_prefix_matches_the_object_level_search(p):
    # the walk simulate's exact absorption time takes: from the law of the
    # product of the prefix factors (of the first factor when there is none)
    noise = p.noise
    prefix, tail = schedule(noise)
    start = stagewise_product_law(prefix, tail, max(len(prefix), 1))
    index = noise.closure.element_index
    den = lcm(*(w.denominator for w in start.values()))
    law = {index[TransformationElement(s)]: int(w * den) for s, w in start.items()}
    ids, out, initial = tail_chain(noise, (law, den))
    states, rows, weights = product_chain_reference(tail, start)
    assert ids == [index[TransformationElement(s)] for s in states]
    assert out == rows
    assert initial == weights


@every_problem
def test_stationary_law_matches_the_dense_reference(p):
    mu, n = p.noise.tail, p.noise.space.size
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


@every_problem
def test_absorption_from_the_law_after_a_prefix_matches_the_dense_reference(p):
    noise = p.noise
    *_, law = noise.product_laws(max(noise.prefix_length, 1))
    ids, out, initial = tail_chain(noise, law)
    classes, hits, transient, steps = absorption(out, initial)
    assert classes == closed_classes(out)
    assert set(transient) == set(range(len(ids))) - {v for c in classes for v in c}
    rows = [[row.get(j, Fraction(0)) for j in range(len(ids))] for row in out]
    assert hits == dense_absorption(rows, initial, list(transient), list(map(list, classes)))
    assert steps == dense_expected_steps(rows, initial, list(transient))
