"""Randomized structural laws for the transformation algebra."""

from __future__ import annotations

import itertools
from math import comb

import pytest
from hypothesis import example, given, strategies as st

import tsl.algebra

from tsl import (
    CapacityError,
    StateSpace,
    TransformationElement,
    classify_elements,
    compose,
    constant_element,
    core_orbit,
    coset_structure,
    cyclic_group_context,
    find_subgroups,
    full_transformation_monoid,
    generate_closure,
    identity_element,
    is_left_cancellative,
    is_subgroup,
    power_core,
    power_orbit_intersection,
)

from helpers import count_calls, product_table
from oracles import compose_images, generate_closure_reference, subgroups_reference
from problems import every_problem

# the subgroup reference closes every pair of elements
SUBGROUP_CAP = 16


@st.composite
def element_tuple(draw, count: int, min_size: int = 2, max_size: int = 4):
    n = draw(st.integers(min_size, max_size))
    out = []
    for _ in range(count):
        img = tuple(draw(st.integers(0, n - 1)) for _ in range(n))
        out.append(TransformationElement(img))
    return StateSpace.of_size(n), tuple(out)


@st.composite
def generator_sets(draw, size: int = 4, max_gens: int = 3):
    n = size
    count = draw(st.integers(1, max_gens))
    gens = []
    for _ in range(count):
        img = tuple(draw(st.integers(0, n - 1)) for _ in range(n))
        gens.append(TransformationElement(img))
    return StateSpace.of_size(n), gens


@given(element_tuple(3))
def test_compose_is_associative(data):
    _, (a, b, c) = data
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


@given(element_tuple(2))
def test_compose_matches_pointwise_oracle(data):
    _, (a, b) = data
    assert compose(a, b).image == compose_images(a.image, b.image)


@given(element_tuple(1))
def test_identity_is_two_sided_neutral(data):
    space, (a,) = data
    e = identity_element(space)
    assert compose(e, a) == a
    assert compose(a, e) == a


@given(element_tuple(2))
def test_constants_absorb_composition_on_the_left(data):
    space, (a, _) = data
    for target in range(space.size):
        c = constant_element(space, target)
        assert compose(c, a) == c


@given(generator_sets(size=3))
def test_closure_table_matches_composition(data):
    space, gens = data
    sg = generate_closure(space, gens)
    for g in gens:
        assert g in sg.element_index
    for i in range(sg.size):
        for j in range(sg.size):
            product = sg.element(sg.mul(i, j))
            assert product == compose(sg.element(i), sg.element(j))


@st.composite
def capped_generator_lists(draw):
    n = draw(st.integers(1, 5))
    image = st.tuples(*[st.integers(0, n - 1)] * n)
    gens = draw(st.lists(image, min_size=1, max_size=4))
    if len(gens) < 4 and draw(st.booleans()):
        gens.append(draw(st.sampled_from(gens)))
    # uncapped closures on 4 or 5 states reach thousands of elements, which
    # the all-pairs reference takes minutes to build
    caps = st.integers(1, 100)
    cap = draw((caps | st.none()) if n <= 3 else caps)
    return StateSpace.of_size(n), [TransformationElement(g) for g in gens], cap


def closure_outcome(build, space, gens, cap):
    try:
        return build(space, gens, cap=cap)
    except CapacityError as exc:
        return str(exc), exc.cap


def library_closure(space, gens, cap):
    # the table of products and the right Cayley graph, against the
    # reference's table of composed pairs
    sg = generate_closure(space, gens, cap=cap)
    return sg.elements, product_table(sg), sg.generators


@given(capped_generator_lists())
def test_closure_matches_the_all_pairs_reference(data):
    assert closure_outcome(library_closure, *data) == closure_outcome(
        generate_closure_reference, *data
    )


@given(capped_generator_lists())
def test_closure_past_256_states_matches_the_byte_closure(data):
    # fixed points pad each map to 257 states, past the byte images: the
    # tuple closure keeps the right graph, the generator ids, the images on
    # the drawn states and the capacity outcome of the byte closure
    space, gens, cap = data
    n = space.size

    def closure(space, gens, cap):
        sg = generate_closure(space, gens, cap=cap)
        return sg.right, sg.generators, tuple(e.image[:n] for e in sg.elements)

    wide = [TransformationElement(g.image + tuple(range(n, 257))) for g in gens]
    assert closure_outcome(closure, StateSpace.of_size(257), wide, cap) == (
        closure_outcome(closure, space, gens, cap)
    )


@given(generator_sets(size=4))
def test_core_orbit_equals_power_orbit_intersection(data):
    # the two descriptions of the eventual range coincide on every closure
    space, gens = data
    sg = generate_closure(space, gens)
    assert core_orbit(sg) == power_orbit_intersection(sg)


@given(generator_sets(size=4))
def test_power_core_is_right_absorbing(data):
    space, gens = data
    sg = generate_closure(space, gens)
    powers, core = power_core(sg)
    assert powers[-1] == core
    stepped = frozenset(sg.mul(a, b) for a in core for b in range(sg.size))
    assert stepped == core


@given(generator_sets(size=4))
def test_power_sets_multiply_factor_counts(data):
    space, gens = data
    sg = generate_closure(space, gens)
    powers, _ = power_core(sg)
    everything = range(sg.size)
    assert powers[0] == frozenset(everything)
    for m in range(1, len(powers)):
        expected = frozenset(
            sg.mul(a, b) for a in powers[m - 1] for b in everything
        )
        assert powers[m] == expected
    assert all(powers[m] > powers[m + 1] for m in range(len(powers) - 1))


@given(generator_sets(size=4))
def test_classification_matches_image_shape(data):
    space, gens = data
    sg = generate_closure(space, gens)
    kinds = classify_elements(sg)
    for i in range(sg.size):
        img = sg.element(i).image
        injective = len(set(img)) == len(img)
        constant = len(set(img)) == 1
        assert (i in kinds.cancellative_ids) == injective
        assert (i in kinds.synchronizing_ids) == constant
        if constant:
            assert kinds.collapse_target[i] == img[0]


@given(generator_sets(size=3))
def test_left_cancellative_agrees_with_table_scan(data):
    space, gens = data
    sg = generate_closure(space, gens)
    brute = all(
        len({sg.mul(a, b) for b in range(sg.size)}) == sg.size
        for a in range(sg.size)
    )
    assert is_left_cancellative(sg) == brute


@given(generator_sets())
def test_left_rows_are_the_composed_products(data):
    # left_row reads each product along the right Cayley graph; the oracle
    # composes every pair of images
    space, gens = data
    sg = generate_closure(space, gens)
    index = {e.image: i for i, e in enumerate(sg.elements)}
    for a in range(sg.size):
        assert sg.left_row(a) == [
            index[compose_images(sg.elements[a].image, b.image)] for b in sg.elements
        ]


@given(generator_sets())
def test_cancellative_and_injective_iff_every_generator_is_a_permutation(data):
    # classify's strongness branch tests only the generators
    space, gens = data
    sg = generate_closure(space, gens)
    general = is_left_cancellative(sg) and all(e.is_injective() for e in sg.elements)
    assert general == all(g.is_injective() for g in gens)


@given(generator_sets(size=3, max_gens=2))
def test_found_subgroups_satisfy_group_axioms(data):
    space, gens = data
    sg = generate_closure(space, gens)
    subs = find_subgroups(sg, cap=64)
    seen = set()
    for sub in subs:
        assert sub.member_ids not in seen
        seen.add(sub.member_ids)
        assert is_subgroup(sg, sub.member_ids) == sub.identity_id
        assert sub.elements == tuple(sg.element(i) for i in sub.member_ids)
    for e in sg.idempotent_ids:
        assert (e,) in seen


@given(generator_sets(size=3, max_gens=2), st.integers(1, 2))
def test_found_subgroups_are_sorted_by_order_then_members(data, max_gen):
    # limit_analysis takes the first qualifying subgroup as the smallest
    space, gens = data
    subs = find_subgroups(generate_closure(space, gens), max_gen=max_gen, cap=64)
    keys = [(sub.order, sub.member_ids) for sub in subs]
    assert keys == sorted(keys)


@given(
    st.one_of(
        generator_sets(size=3, max_gens=2).map(lambda data: generate_closure(*data)),
        st.integers(1, 10).map(lambda n: cyclic_group_context(n).ambient_semigroup()),
    ),
    st.integers(1, 2),
)
# S3: the one subgroup no cycle part gives, the closure of two generators
@example(
    generate_closure(
        StateSpace.of_size(3),
        [TransformationElement((1, 0, 2)), TransformationElement((1, 2, 0))],
    ),
    2,
)
def test_found_subgroups_are_every_cycle_and_closure_subgroup(sg, max_gen):
    # the search closes no one-element set: its group closures are cycle parts
    found = {sub.member_ids for sub in find_subgroups(sg, max_gen=max_gen, cap=64)}
    assert found == subgroups_reference(sg.elements, max_gen)


@pytest.mark.parametrize("max_gen", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_full_monoid_subgroups_are_every_cycle_and_closure_subgroup(n, max_gen):
    sg = full_transformation_monoid(StateSpace.of_size(n))
    found = {sub.member_ids for sub in find_subgroups(sg, max_gen=max_gen, cap=64)}
    assert found == subgroups_reference(sg.elements, max_gen)


@every_problem
def test_subgroups_of_the_ambient_semigroup_match_the_reference(p):
    # the ambient semigroup at a small cap (Z N, or every map on 1-2 states),
    # and the noise closure when it is as small
    try:
        searched = [p.context.ambient_semigroup(cap=SUBGROUP_CAP), p.noise.closure]
    except CapacityError:
        searched = [p.noise.closure]
    for sg in searched:
        if sg.size <= SUBGROUP_CAP:
            found = {sub.member_ids for sub in find_subgroups(sg, cap=SUBGROUP_CAP)}
            assert found == subgroups_reference(sg.elements, 2)


def _maximal_subgroup_orders(n: int) -> list[int]:
    """|H_e| for each idempotent e of the full monoid on n points.

    In that monoid two maps are H-related exactly when they have the same
    image and the same kernel, so H_e is counted over all n^n maps.
    """
    maps = list(itertools.product(range(n), repeat=n))

    def kernel(f):
        return frozenset(frozenset(x for x in range(n) if f[x] == f[y]) for y in range(n))

    return [
        sum(1 for g in maps if set(g) == set(e) and kernel(g) == kernel(e))
        for e in maps
        if compose_images(e, e) == e
    ]


@pytest.mark.parametrize("max_gen", [2, 3])
def test_subgroup_search_closes_only_sets_inside_one_maximal_subgroup(
    monkeypatch, max_gen
):
    # T3: S3, six H-classes of order 2 and three of order 1, where its 27
    # elements make C(27, 2) = 351 pairs
    calls = count_calls(monkeypatch, tsl.algebra, "_closure_ids")
    find_subgroups(full_transformation_monoid(StateSpace.of_size(3)), max_gen=max_gen)
    orders = _maximal_subgroup_orders(3)
    assert sorted(orders) == [1, 1, 1, 2, 2, 2, 2, 2, 2, 6]
    expected = sum(comb(h, r) for h in orders for r in range(2, max_gen + 1))
    assert len(calls) == expected == {2: 21, 3: 41}[max_gen]


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_subgroup_search_prunes_nothing_on_a_cyclic_group(monkeypatch, n):
    # every element of Z/n has the one identity, so every pair is closed
    sg = cyclic_group_context(n).ambient_semigroup()
    calls = count_calls(monkeypatch, tsl.algebra, "_closure_ids")
    found = {sub.member_ids for sub in find_subgroups(sg, cap=64)}
    assert len(calls) == comb(n, 2)
    assert found == subgroups_reference(sg.elements, 2)


@given(st.integers(2, 10), st.data())
def test_cyclic_coset_factorization(n, data):
    sg = cyclic_group_context(n).ambient_semigroup()
    divisor = data.draw(
        st.sampled_from([d for d in range(1, n + 1) if n % d == 0])
    )
    members = tuple(range(0, n, n // divisor))
    identity = is_subgroup(sg, members)
    assert identity == 0
    sub = next(s for s in find_subgroups(sg, cap=1024) if s.member_ids == members)
    cs = coset_structure(sg, sub)
    assert sorted(x for coset in cs.cosets for x in coset) == list(range(n))
    b = data.draw(st.integers(0, n - 1))
    h = data.draw(st.sampled_from(members))
    a = sg.mul(b, h)
    assert cs.coset_index(a) == cs.coset_index(b)
    assert cs.kappa(a, b) == h
    assert sg.mul(b, cs.kappa(a, b)) == a
