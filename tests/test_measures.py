"""Exact-measure fixtures: convolution, noise schedules, and limit laws."""

from __future__ import annotations

from fractions import Fraction

import pytest

import tsl.measures
from tsl import (
    CarrierMismatchError,
    NoiseSpec,
    ProbMeasure,
    StateSpace,
    TransformationElement,
    UnsupportedCaseError,
    act,
    build_product_chain,
    constant_element,
    convolve,
    element_carrier,
    find_subgroups,
    full_transformation_monoid,
    identity_element,
    is_right_invariant,
    limit_analysis,
    mix,
    state_carrier,
    tv_distance,
)
from tsl.measures import (
    _strongly_connected_components,
    absorption,
    closed_classes,
    tail_chain,
)

from helpers import (
    GEN_A,
    GEN_B,
    THREE,
    count_calls,
    cyclic_noise,
    element_measure,
    three_ctx,
    two_map_noise,
)
from oracles import dense_absorption, dense_expected_steps
from record_pins import PROBLEMS, run

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)

ELEMENTS = element_carrier(THREE)
STATES = state_carrier(THREE)

CONSTANTS = tuple(constant_element(THREE, t) for t in range(3))


def c(t: int) -> TransformationElement:
    return CONSTANTS[t]


@pytest.fixture(scope="module")
def half_noise() -> NoiseSpec:
    return two_map_noise(HALF, HALF)


def test_from_weights_sorts_and_strips_zeros():
    m = ProbMeasure.from_weights(
        STATES, {2: HALF, 0: HALF, 1: Fraction(0)}
    )
    assert m.atoms == ((0, HALF), (2, HALF))
    assert m.support == (0, 2)
    assert m.weight(1) == 0
    assert m.weight(2) == HALF


def test_point_and_uniform_constructors():
    assert ProbMeasure.point(STATES, 1).atoms == ((1, Fraction(1)),)
    u = ProbMeasure.uniform(ELEMENTS, [GEN_B, GEN_A, GEN_A])
    assert u.atoms == ((GEN_A, HALF), (GEN_B, HALF))


def test_measure_rejects_bad_total_and_signs():
    with pytest.raises(ValueError, match="sum"):
        ProbMeasure.from_weights(STATES, {0: HALF})
    with pytest.raises(ValueError, match="positive"):
        ProbMeasure.from_weights(STATES, {0: Fraction(3, 2), 1: Fraction(-1, 2)})
    with pytest.raises(ValueError, match="sorted"):
        ProbMeasure(STATES, ((1, HALF), (0, HALF)))


def test_measure_rejects_foreign_keys():
    with pytest.raises(ValueError, match="state key"):
        ProbMeasure.from_weights(STATES, {GEN_A: Fraction(1)})
    with pytest.raises(ValueError, match="element key"):
        ProbMeasure.from_weights(ELEMENTS, {0: Fraction(1)})
    with pytest.raises(CarrierMismatchError):
        ProbMeasure.point(ELEMENTS, TransformationElement((0, 1)))
    with pytest.raises(ValueError, match="outside"):
        ProbMeasure.point(STATES, 3)


def test_pushforward_merges_fibers():
    m = ProbMeasure.uniform(STATES, [0, 1, 2])
    pushed = m.pushforward(lambda x: min(x, 1))
    assert pushed.atoms == ((0, THIRD), (1, Fraction(2, 3)))


def test_mix_is_exact_and_checks_carriers():
    a = ProbMeasure.point(STATES, 0)
    b = ProbMeasure.uniform(STATES, [0, 1])
    mixed = mix([a, b], [Fraction(1, 3), Fraction(2, 3)])
    assert mixed.atoms == ((0, Fraction(2, 3)), (1, THIRD))
    with pytest.raises(CarrierMismatchError):
        mix([a, ProbMeasure.point(ELEMENTS, GEN_A)], [HALF, HALF])


def test_convolution_of_the_generator_pair(half_noise):
    mu = half_noise.tail
    square = convolve(mu, mu)
    quarter = Fraction(1, 4)
    assert square.atoms == (
        (TransformationElement((0, 0, 2)), quarter),
        (TransformationElement((0, 1, 0)), quarter),
        (c(1), quarter),
        (c(2), quarter),
    )


def test_convolution_identity_is_neutral(half_noise):
    mu = half_noise.tail
    delta_e = ProbMeasure.point(ELEMENTS, identity_element(THREE))
    assert convolve(delta_e, mu) == mu
    assert convolve(mu, delta_e) == mu


def test_convolution_needs_element_measures():
    with pytest.raises(CarrierMismatchError):
        convolve(ProbMeasure.point(STATES, 0), ProbMeasure.point(STATES, 0))


def test_action_on_a_point_state(half_noise):
    mu = half_noise.tail
    hit = act(mu, ProbMeasure.point(STATES, 0))
    assert hit.atoms == ((1, HALF), (2, HALF))


def test_action_of_identity_fixes_state_laws():
    lam = ProbMeasure.from_weights(STATES, {0: THIRD, 2: Fraction(2, 3)})
    delta_e = ProbMeasure.point(ELEMENTS, identity_element(THREE))
    assert act(delta_e, lam) == lam


def test_action_argument_order_is_checked(half_noise):
    lam = ProbMeasure.point(STATES, 0)
    with pytest.raises(CarrierMismatchError):
        act(lam, half_noise.tail)


def test_tv_distance_basics(half_noise):
    mu = half_noise.tail
    assert tv_distance(mu, mu) == 0
    square = convolve(mu, mu)
    assert tv_distance(mu, square) == 1  # disjoint supports
    third = two_map_noise(THIRD, Fraction(2, 3)).tail
    assert tv_distance(mu, third) == Fraction(1, 6)
    assert tv_distance(third, mu) == Fraction(1, 6)


def test_right_invariance_under_rotations():
    ambient = full_transformation_monoid(THREE)
    rotations = next(
        s for s in find_subgroups(ambient, max_gen=1) if s.order == 3
    )
    nu = ProbMeasure.uniform(ELEMENTS, CONSTANTS)
    assert is_right_invariant(nu, rotations)
    assert not is_right_invariant(ProbMeasure.point(ELEMENTS, GEN_A), rotations)


def test_noise_schedule_lookup(half_noise):
    delta_a = ProbMeasure.point(ELEMENTS, GEN_A)
    noise = NoiseSpec(half_noise.tail, (delta_a, delta_a))
    assert noise.prefix_length == 2
    assert noise.measure_at(0) == delta_a
    assert noise.measure_at(-1) == delta_a
    assert noise.measure_at(-2) == half_noise.tail
    assert noise.measure_at(-100) == half_noise.tail
    with pytest.raises(ValueError):
        noise.measure_at(1)


def test_noise_support_and_iid_flags(half_noise):
    assert half_noise.support_elements() == (GEN_A, GEN_B)
    assert half_noise.is_iid()
    delta_a = ProbMeasure.point(ELEMENTS, GEN_A)
    staged = NoiseSpec(half_noise.tail, (delta_a,))
    assert staged.support_elements() == (GEN_A, GEN_B)
    assert not staged.is_iid()
    assert NoiseSpec(half_noise.tail, (half_noise.tail,)).is_iid()
    assert staged.space == THREE
    assert staged.carrier == ELEMENTS


def test_noise_rejects_state_measures_and_mixed_carriers():
    with pytest.raises(CarrierMismatchError):
        NoiseSpec(ProbMeasure.point(STATES, 0))
    other = ProbMeasure.point(element_carrier(THREE), GEN_A)
    two = ProbMeasure.point(element_carrier(THREE), GEN_B)
    NoiseSpec(other, (two,))  # same carrier is fine
    with pytest.raises(CarrierMismatchError):
        NoiseSpec(other, (ProbMeasure.point(STATES, 0),))


def test_product_chain_of_the_generator_pair(half_noise):
    chain = build_product_chain(half_noise)
    assert len(chain.states) == 7
    assert chain.space == THREE
    assert chain.state_index(GEN_A) == 0
    assert chain.state_index(GEN_B) == 1

    # mass enters at the two generators and moves by right multiplication
    assert chain.initial[0] == HALF
    assert chain.initial[1] == HALF
    assert sum(chain.initial) == 1
    row = chain.transitions[0]
    assert row[chain.state_index(TransformationElement((0, 1, 0)))] == HALF
    assert row[chain.state_index(c(1))] == HALF

    classes = chain.recurrent_classes
    assert [cl.member_ids for cl in classes] == [(4,), (5,), (6,)]
    assert {chain.states[cl.member_ids[0]] for cl in classes} == set(CONSTANTS)
    for cl in classes:
        assert cl.is_singleton
        assert cl.period == 1
        assert cl.absorption == THIRD
        assert cl.stationary == ((cl.member_ids[0], Fraction(1)),)
    assert chain.transient_ids == (0, 1, 2, 3)


def test_product_chain_keeps_sparse_rows(half_noise):
    chain = build_product_chain(half_noise)
    for row, dense in zip(chain.rows, chain.transitions, strict=True):
        assert [j for j, _ in row] == [j for j, w in enumerate(dense) if w]
        assert all(dense[j] == w for j, w in row)
    again = build_product_chain(half_noise)
    assert chain == again
    assert hash(chain) == hash(again)
    assert [chain.state_index(e) for e in chain.states] == list(range(len(chain.states)))
    with pytest.raises(ValueError, match="not a state"):
        chain.state_index(identity_element(THREE))


def test_transition_rows_are_stochastic(half_noise):
    chain = build_product_chain(half_noise)
    for row in chain.transitions:
        assert sum(row) == 1


def test_limit_analysis_on_the_generator_pair(half_noise):
    report = limit_analysis(half_noise, three_ctx())
    assert report.as_convergence
    assert report.converges_in_law
    assert report.nu == ProbMeasure.uniform(ELEMENTS, CONSTANTS)
    assert report.cesaro == report.nu
    ks = tuple(k for k, _ in report.nu_window)
    assert ks == tuple(range(0, -9, -1))
    for _, law in report.nu_window:
        assert law == report.nu
    assert report.window_law(0) == report.nu
    with pytest.raises(ValueError):
        report.window_law(-9)


def test_limit_analysis_unbalanced_weights():
    noise = two_map_noise(THIRD, Fraction(2, 3))
    report = limit_analysis(noise, three_ctx())
    assert report.nu is not None
    assert report.nu.atoms == (
        (c(0), Fraction(7, 20)),
        (c(1), Fraction(1, 4)),
        (c(2), Fraction(2, 5)),
    )
    # stationarity: one more noise step leaves the limit law fixed
    assert convolve(noise.tail, report.nu) == report.nu


def test_limit_analysis_certifies_the_rotation_subgroup(half_noise):
    report = limit_analysis(half_noise, three_ctx())
    assert report.p2_error is None
    assert len(report.p2_qualifying) == 1
    sub = report.p2_subgroup
    assert sub is not None
    assert sub.order == 3
    assert sub.member_ids == (5, 15, 19)
    images = {e.image for e in sub.elements}
    assert images == {(0, 1, 2), (1, 2, 0), (2, 0, 1)}


def test_limit_analysis_reports_capacity_instead_of_raising(half_noise):
    report = limit_analysis(half_noise, three_ctx(), subgroup_cap=2)
    assert report.nu is not None  # parts (a)-(c) unaffected
    assert report.p2_subgroup is None
    assert report.p2_qualifying == ()
    assert (
        report.p2_error
        == "full transformation monoid on 3 states has 27 elements, "
        "exceeding the cap of 2"
    )


def test_limit_analysis_pushes_the_prefix(half_noise):
    delta_a = ProbMeasure.point(ELEMENTS, GEN_A)
    noise = NoiseSpec(half_noise.tail, (delta_a,))
    report = limit_analysis(noise, three_ctx())
    assert report.window_law(-1) == ProbMeasure.uniform(ELEMENTS, CONSTANTS)
    assert report.window_law(0) == ProbMeasure.from_weights(
        ELEMENTS, {c(0): THIRD, c(1): Fraction(2, 3)}
    )


def test_limit_analysis_window_covers_long_prefixes(half_noise):
    delta_a = ProbMeasure.point(ELEMENTS, GEN_A)
    noise = NoiseSpec(half_noise.tail, (delta_a,) * 12)
    report = limit_analysis(noise, three_ctx())
    ks = tuple(k for k, _ in report.nu_window)
    assert ks == tuple(range(0, -13, -1))
    laws = dict(report.nu_window)
    below = report.nu
    for k in range(-12, 1):
        expected = convolve(noise.measure_at(k), below)
        assert laws[k] == expected
        below = expected


def test_limit_analysis_convolves_only_through_the_prefix(monkeypatch, half_noise):
    # one check that the tail fixes the limit law, then one push per prefix
    # stage: the laws further down are the limit law, whatever the window
    delta_a = ProbMeasure.point(ELEMENTS, GEN_A)
    noise = NoiseSpec(half_noise.tail, (delta_a, half_noise.tail, delta_a))
    calls = count_calls(monkeypatch, tsl.measures, "convolve")
    for window in (8, 64):
        calls.clear()
        report = limit_analysis(noise, three_ctx(), window=window)
        assert len(calls) == noise.prefix_length + 1
        assert len(report.nu_window) == window + 1


def test_periodic_group_noise_has_no_limit_law():
    ctx, noise = cyclic_noise(3, {1: Fraction(1)})
    report = limit_analysis(noise, ctx)
    assert not report.as_convergence
    assert not report.converges_in_law
    assert report.nu is None
    assert report.nu_window is None
    (cls,) = report.chain.recurrent_classes
    assert cls.period == 3
    assert cls.absorption == 1
    assert report.cesaro == ProbMeasure.uniform(
        element_carrier(ctx.space), ctx.group_elements
    )
    with pytest.raises(UnsupportedCaseError):
        report.window_law(0)
    assert report.p2_subgroup is None
    assert report.p2_qualifying == ()


def test_aperiodic_group_noise_converges_in_law_only():
    ctx, noise = cyclic_noise(2, {0: HALF, 1: HALF})
    report = limit_analysis(noise, ctx)
    assert not report.as_convergence
    assert report.converges_in_law
    assert report.nu == ProbMeasure.uniform(
        element_carrier(ctx.space), ctx.group_elements
    )
    (cls,) = report.chain.recurrent_classes
    assert cls.member_ids == (0, 1)
    assert cls.period == 1
    sub = report.p2_subgroup
    assert sub is not None
    assert sub.member_ids == (0, 1)
    assert sub.order == 2


def test_absorption_solves_transient_blocks_in_order_like_the_dense_reference(monkeypatch):
    # perfbench's cyc4-rank3: 124 transient products in 11 strongly connected
    # blocks, each entered only from blocks solved before it
    tail = element_measure(StateSpace.of_size(4), {(1, 2, 3, 0): HALF, (0, 0, 2, 3): HALF})
    noise = NoiseSpec(tail)
    ids, out, initial = tail_chain(noise, noise.atom_numerators[-1])
    blocks = [c for c, closed in _strongly_connected_components(out) if not closed]
    passes = count_calls(monkeypatch, tsl.measures, "_strongly_connected_components")
    classes, hits, transient, steps = absorption(out, initial)
    assert len(passes) == 1
    assert classes == closed_classes(out)
    assert (len(ids), len(classes), len(blocks)) == (128, 4, 11)
    assert max(map(len, blocks)) == 12
    rows = [[row.get(j, Fraction(0)) for j in range(len(ids))] for row in out]
    assert hits == dense_absorption(rows, initial, list(transient), list(map(list, classes)))
    assert steps == dense_expected_steps(rows, initial, list(transient))


@pytest.mark.parametrize(("name", "unknowns"), [("T5", 31), ("W3952", 127)])
def test_analyze_and_simulate_solve_no_system_past_the_image_chain(
    name, unknowns, tmp_path, monkeypatch
):
    # at most 2^n - 1 image sets on n states; the product chains have 3,120
    # and 3,945 transient products, whose largest blocks have 240 and 186
    path = tmp_path / f"{name}.tsl"
    path.write_text(PROBLEMS[name], encoding="utf-8")
    solves = count_calls(monkeypatch, tsl.measures, "solve_linear")
    assert run(["analyze", str(path)])[0] == 0
    assert run(["simulate", str(path), "--seed", "1", "--trials", "200"])[0] == 0
    assert solves and max(len(system) for system, _ in solves) <= unknowns
