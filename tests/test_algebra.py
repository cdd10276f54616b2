"""Exact fixtures for composition, closures, cores, and subgroup machinery."""

from __future__ import annotations

import pytest

from tsl import (
    AmbiguityError,
    CapacityError,
    DimensionError,
    FiniteSemigroup,
    StateSpace,
    SubgroupDescriptor,
    TransformationElement,
    classify_elements,
    compose,
    constant_element,
    coset_structure,
    core_orbit,
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

import tsl.algebra

from helpers import CLOSURE_IMAGES, GEN_A, GEN_B, THREE, count_calls


@pytest.fixture(scope="module")
def closure():
    return generate_closure(THREE, [GEN_A, GEN_B])


def test_compose_convention_first_applies_right():
    # (ab)(x) = a(b(x)); the two-generator product collapses to a constant
    assert compose(GEN_A, GEN_B) == constant_element(THREE, 1)
    assert compose(GEN_B, GEN_A) == constant_element(THREE, 2)


def test_compose_identity_neutral():
    e = identity_element(THREE)
    assert compose(e, GEN_A) == GEN_A
    assert compose(GEN_A, e) == GEN_A


def test_compose_squares():
    assert compose(GEN_A, GEN_A) == TransformationElement((0, 1, 0))
    assert compose(GEN_B, GEN_B) == TransformationElement((0, 0, 2))


def test_compose_rejects_mismatched_degrees():
    with pytest.raises(DimensionError):
        compose(GEN_A, TransformationElement((0, 1)))


def test_closure_has_exactly_seven_elements(closure):
    assert closure.size == 7
    assert tuple(e.image for e in closure.elements) == CLOSURE_IMAGES


def test_closure_ordering_is_breadth_first_with_lexicographic_ties(closure):
    # generators first, then each product generation sorted by image list
    assert closure.elements[0] == GEN_A
    assert closure.elements[1] == GEN_B
    first_products = [e.image for e in closure.elements[2:6]]
    assert first_products == sorted(first_products)


def test_closure_cayley_is_associative(closure):
    n = closure.size
    for a in range(n):
        for b in range(n):
            for c in range(n):
                assert closure.mul(closure.mul(a, b), c) == closure.mul(
                    a, closure.mul(b, c)
                )


def test_closure_of_identity_is_singleton():
    sg = generate_closure(THREE, [identity_element(THREE)])
    assert sg.size == 1


def test_full_monoid_on_two_points_closes_at_four():
    sg = full_transformation_monoid(StateSpace.of_size(2))
    assert sg.size == 4


# generators of the full transformation monoid on six states (46,656 maps)
SIX = StateSpace.of_size(6)
FULL_SIX_GENERATORS = [
    TransformationElement((1, 2, 3, 4, 5, 0)),
    TransformationElement((1, 0, 2, 3, 4, 5)),
    TransformationElement((0, 0, 2, 3, 4, 5)),
]


def test_generate_closure_capacity_guard():
    with pytest.raises(CapacityError) as exc:
        generate_closure(SIX, FULL_SIX_GENERATORS, cap=100)
    assert exc.value.cap == 100
    assert str(exc.value) == "closure exceeded the cap of 100 elements"


def test_generate_closure_stops_at_the_first_product_past_the_cap(monkeypatch):
    calls = count_calls(monkeypatch, tsl.algebra, "compose")
    with pytest.raises(CapacityError):
        generate_closure(SIX, FULL_SIX_GENERATORS, cap=100)
    # the first two rounds compose all 3^2 and 10^2 pairs; the cap stops the
    # third, over 50 elements, at the first product that makes 101
    seen = set(FULL_SIX_GENERATORS)
    for count, (a, b) in enumerate(calls, 1):
        seen.add(compose(a, b))
        if len(seen) > 100:
            break
    else:
        pytest.fail("the composed products never exceed the cap")
    assert count == len(calls)
    assert len(calls) < 3**2 + 10**2 + 50**2


def test_power_core_is_whole_closure(closure):
    powers, core = power_core(closure)
    assert core == frozenset(range(closure.size))
    assert powers[0] == frozenset(range(closure.size))


def test_power_core_is_subsemigroup(closure):
    _, core = power_core(closure)
    for a in core:
        for b in core:
            assert closure.mul(a, b) in core


def test_power_core_monoid_stabilizes_at_everything():
    sg = full_transformation_monoid(StateSpace.of_size(2))
    _, core = power_core(sg)
    assert core == frozenset(range(sg.size))


def test_power_core_single_generator_collapses():
    sg = generate_closure(THREE, [TransformationElement((1, 2, 2))])
    _, core = power_core(sg)
    members = {sg.element(i) for i in core}
    assert members == {constant_element(THREE, 2)}


def test_core_orbit_everything(closure):
    assert core_orbit(closure) == frozenset({0, 1, 2})


def test_core_orbit_single_generator():
    sg = generate_closure(THREE, [TransformationElement((1, 2, 2))])
    assert core_orbit(sg) == frozenset({2})


def test_core_orbit_trivial_group():
    sg = generate_closure(THREE, [identity_element(THREE)])
    assert core_orbit(sg) == frozenset({0, 1, 2})


def test_core_orbit_agrees_with_power_orbit_intersection(closure):
    assert core_orbit(closure) == power_orbit_intersection(closure)
    single = generate_closure(THREE, [TransformationElement((1, 2, 2))])
    assert core_orbit(single) == power_orbit_intersection(single)


def test_power_iteration_runs_once_per_semigroup(monkeypatch):
    sg = generate_closure(THREE, [GEN_A, GEN_B])
    calls = count_calls(monkeypatch, FiniteSemigroup, "mul")
    powers, core = power_core(sg)
    first = len(calls)
    assert first > 0
    # an analyze report reads the power sets, the core and the core orbit
    assert core_orbit(sg) == power_orbit_intersection(sg)
    assert power_core(sg) == (powers, core)
    assert len(calls) == first


def test_classification_of_the_two_map_closure(closure):
    kinds = classify_elements(closure)
    assert kinds.cancellative_ids == frozenset()
    sync = {closure.element(i) for i in kinds.synchronizing_ids}
    assert sync == {constant_element(THREE, t) for t in range(3)}
    for i in kinds.synchronizing_ids:
        target = kinds.collapse_target[i]
        assert all(x == target for x in closure.element(i).image)


def test_classification_of_permutations_is_all_cancellative():
    ctx = cyclic_group_context(4)
    sg = ctx.ambient_semigroup()
    kinds = classify_elements(sg)
    assert kinds.cancellative_ids == frozenset(range(sg.size))
    assert kinds.synchronizing_ids == frozenset()


def test_classification_of_full_monoid_on_two_points():
    sg = full_transformation_monoid(StateSpace.of_size(2))
    kinds = classify_elements(sg)
    canc = {sg.element(i).image for i in kinds.cancellative_ids}
    sync = {sg.element(i).image for i in kinds.synchronizing_ids}
    assert canc == {(0, 1), (1, 0)}
    assert sync == {(0, 0), (1, 1)}
    assert kinds.cancellative_ids.isdisjoint(kinds.synchronizing_ids)


def test_left_cancellative_fails_on_constants(closure):
    assert not is_left_cancellative(closure)


def test_left_cancellative_holds_on_groups():
    assert is_left_cancellative(cyclic_group_context(5).ambient_semigroup())


def test_left_cancellative_fails_on_left_zero_table():
    from tsl import FiniteSemigroup

    sg = FiniteSemigroup.from_cayley([[0, 0], [1, 1]])
    assert not is_left_cancellative(sg)


def test_find_subgroups_on_two_map_closure(closure):
    subs = find_subgroups(closure)
    by_members = {s.member_ids: s for s in subs}
    # five idempotent singletons plus the two order-2 groups around them;
    # the pair {a, a^2} is closed with a^2 idempotent and a its own inverse
    assert set(by_members) == {
        (2,),
        (3,),
        (4,),
        (5,),
        (6,),
        (0, 3),
        (1, 2),
    }
    assert by_members[(0, 3)].identity_id == 3
    assert by_members[(1, 2)].identity_id == 2
    assert all(s.is_trivial == (s.order == 1) for s in subs)
    assert [s.order for s in subs] == sorted(s.order for s in subs)


def test_find_subgroups_passes_independent_group_axioms(closure):
    for sub in find_subgroups(closure):
        members = set(sub.member_ids)
        e = sub.identity_id
        assert e in members
        for a in members:
            assert closure.mul(e, a) == a
            assert closure.mul(a, e) == a
            assert any(
                closure.mul(a, b) == e and closure.mul(b, a) == e for b in members
            )
            for b in members:
                assert closure.mul(a, b) in members


def test_find_subgroups_single_generator_finds_rotations():
    sg = full_transformation_monoid(THREE)
    order3 = [s for s in find_subgroups(sg, max_gen=1) if s.order == 3]
    assert len(order3) == 1
    images = {sg.element(i).image for i in order3[0].member_ids}
    assert images == {(0, 1, 2), (1, 2, 0), (2, 0, 1)}


def test_find_subgroups_cyclic_four_lattice():
    sg = cyclic_group_context(4).ambient_semigroup()
    subs = find_subgroups(sg)
    assert {s.member_ids for s in subs} == {(0,), (0, 2), (0, 1, 2, 3)}


def test_find_subgroups_capacity_error():
    sg = full_transformation_monoid(StateSpace.of_size(3))
    with pytest.raises(CapacityError):
        find_subgroups(sg, cap=10)


def test_is_subgroup_accepts_and_rejects(closure):
    assert is_subgroup(closure, (0, 3)) == 3
    assert is_subgroup(closure, (4, 5)) is None  # right-zero pair, no identity
    assert is_subgroup(closure, (0, 1)) is None  # not closed


def test_coset_structure_on_cyclic_four():
    sg = cyclic_group_context(4).ambient_semigroup()
    sub = next(s for s in find_subgroups(sg) if s.member_ids == (0, 2))
    cs = coset_structure(sg, sub)
    assert cs.cosets == ((0, 2), (1, 3))
    assert cs.kappa(3, 1) == 2
    assert cs.kappa(1, 3) == 2
    assert cs.kappa(2, 0) == 2
    # different cosets fall back to the subgroup identity
    assert cs.kappa(2, 1) == sub.identity_id


def test_coset_structure_on_permutations_of_three():
    sg = generate_closure(
        THREE,
        [TransformationElement((1, 2, 0)), TransformationElement((1, 0, 2))],
    )
    assert sg.size == 6
    rotations = next(s for s in find_subgroups(sg) if s.order == 3)
    cs = coset_structure(sg, rotations)
    assert len(cs.cosets) == 2
    for cid, coset in enumerate(cs.cosets):
        rep = cs.section[cid]
        assert rep == min(coset)
        assert tuple(sorted({sg.mul(rep, h) for h in rotations.member_ids})) == coset


def test_coset_of_constant_absorbs_subgroup(closure):
    # a constant map times anything is itself, so its coset is a singleton
    sg = full_transformation_monoid(THREE)
    rotations = next(s for s in find_subgroups(sg, max_gen=1) if s.order == 3)
    cs = coset_structure(sg, rotations)
    const_id = sg.element_index[constant_element(THREE, 0)]
    assert cs.cosets[cs.coset_index(const_id)] == (const_id,)


def test_kappa_cocycle_identity_on_a_group():
    sg = cyclic_group_context(6).ambient_semigroup()
    sub = next(s for s in find_subgroups(sg) if s.member_ids == (0, 2, 4))
    cs = coset_structure(sg, sub)
    for a in range(6):
        for b in range(6):
            if cs.coset_index(a) != cs.coset_index(b):
                continue
            h = cs.kappa(a, b)
            assert sg.mul(b, h) == a
            for k in sub.member_ids:
                lhs = cs.kappa(sg.mul(a, k), b)
                assert lhs == sg.mul(cs.kappa(a, b), k)


def test_kappa_ambiguity_on_collapsing_host(closure):
    sub = next(s for s in find_subgroups(closure) if s.member_ids == (0, 3))
    cs = coset_structure(closure, sub)
    # constants swallow both subgroup members: two witnesses for the factor
    const2 = closure.element_index[constant_element(THREE, 1)]
    with pytest.raises(AmbiguityError):
        cs.kappa(const2, const2)


def test_subgroup_descriptor_rejects_non_groups(closure):
    with pytest.raises(ValueError):
        coset_structure(
            closure,
            SubgroupDescriptor(
                member_ids=(4, 5),
                identity_id=4,
                elements=(closure.element(4), closure.element(5)),
            ),
        )
