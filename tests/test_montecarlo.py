"""Simulation layer: RNG reproducibility, estimators against exact laws."""

from __future__ import annotations

from fractions import Fraction

import pytest

from tsl import (
    CapacityError,
    NoiseSpec,
    ProbMeasure,
    SimConfig,
    SplitMix64,
    StateSpace,
    TransformationElement,
    ci_coupling,
    compose,
    coupling_samples,
    deterministic_translate_families,
    element_carrier,
    estimate_law,
    exact_product_law,
    exact_state_law,
    extremal_solutions,
    simulate_paths,
    state_carrier,
    stopping_time_stats,
    trial_stream,
    within_three_sigma,
)

import tsl.measures

from helpers import (
    THREE,
    count_calls,
    cyclic_noise,
    element_measure,
    three_ctx,
    two_map_noise,
)
from oracles import (
    absorption_time_reference,
    apply_law,
    convolution_power,
    splitmix64_reference,
    three_state_absorption_tail,
    three_state_expected_absorption,
)
from test_algebra import FULL_SIX_GENERATORS, SIX

HALF = Fraction(1, 2)


def half_noise() -> NoiseSpec:
    return two_map_noise(HALF, HALF)


# ----------------------------------------------------------------- the RNG


def test_splitmix64_matches_the_published_vector():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix64_matches_the_reference_transliteration():
    for seed in (0, 1, 42, 0xDEADBEEF, (1 << 64) - 1):
        rng = SplitMix64(seed)
        assert [rng.next_u64() for _ in range(50)] == splitmix64_reference(seed, 50)


def test_trial_streams_are_reproducible_and_order_free():
    a = trial_stream(42, 7)
    b = trial_stream(42, 7)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]
    assert trial_stream(42, 7).next_u64() != trial_stream(43, 7).next_u64()


def test_trial_streams_do_not_overlap_as_windows():
    # consecutive trials must not read shifted windows of one global
    # sequence, otherwise across-trial averages are badly correlated
    base = trial_stream(42, 0)
    run = [base.next_u64() for _ in range(64)]
    for trial in (1, 2, 3):
        head = trial_stream(42, trial)
        window = [head.next_u64() for _ in range(8)]
        for offset in range(len(run) - len(window) + 1):
            assert run[offset : offset + len(window)] != window


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(depth=0)
    with pytest.raises(ValueError):
        SimConfig(trials=0)
    with pytest.raises(ValueError):
        SimConfig(seed=-1)


# ------------------------------------------------------------------- paths


def test_simulated_paths_compose_correctly():
    noise = half_noise()
    cfg = SimConfig(depth=6, trials=40, seed=9)
    for sample in simulate_paths(noise, cfg, entry=0):
        prod = sample.noise[0]
        assert sample.products[0] == prod
        for m in range(1, cfg.depth):
            prod = compose(prod, sample.noise[m])
            assert sample.products[m] == prod
        assert sample.x_path is not None
        assert sample.x_path[cfg.depth] == 0
        for m in range(cfg.depth):
            assert sample.x_path[m] == sample.noise[m].image[sample.x_path[m + 1]]
        if sample.absorbed_at is not None:
            t = sample.absorbed_at
            fixed = sample.products[t - 1]
            assert all(
                compose(fixed, g).image == fixed.image
                for g in noise.support_elements()
            )
            if t >= 2:
                loose = sample.products[t - 2]
                assert any(
                    compose(loose, g) != loose for g in noise.support_elements()
                )


def test_paths_without_entry_have_no_state_track():
    noise = half_noise()
    sample = next(iter(simulate_paths(noise, SimConfig(depth=3, trials=1, seed=5))))
    assert sample.x_path is None
    assert len(sample.noise) == 3
    assert len(sample.products) == 3


def test_identity_noise_absorbs_immediately():
    noise = NoiseSpec(element_measure(THREE, {(0, 1, 2): Fraction(1)}))
    for sample in simulate_paths(noise, SimConfig(depth=3, trials=5, seed=1)):
        assert sample.absorbed_at == 1


# -------------------------------------------------------------- estimators


def test_product_estimates_match_exact_law_at_three_sigma():
    noise = half_noise()
    for depth in (8, 32, 64):
        cfg = SimConfig(depth=depth, trials=2000, seed=42)
        estimate = estimate_law(noise, cfg)
        exact = exact_product_law(noise, depth)
        for key, count, freq, stderr in estimate.atoms:
            assert within_three_sigma(count, cfg.trials, exact.weight(key))
            assert freq == count / cfg.trials
            if 0 < count < cfg.trials:
                assert stderr > 0


def test_state_estimates_match_exact_law_at_three_sigma():
    noise = half_noise()
    cfg = SimConfig(depth=16, trials=2000, seed=42)
    for entry in (0, ProbMeasure.uniform(state_carrier(THREE), range(3))):
        estimate = estimate_law(noise, cfg, observable="state", entry=entry)
        exact = exact_state_law(noise, 16, entry)
        for key, count, _, _ in estimate.atoms:
            assert within_three_sigma(count, cfg.trials, exact.weight(key))


def test_group_walk_estimates_match_exact_law():
    _, noise = cyclic_noise(4, {1: HALF, 3: HALF})
    cfg = SimConfig(depth=9, trials=2000, seed=7)
    estimate = estimate_law(noise, cfg)
    exact = exact_product_law(noise, 9)
    for key, count, _, _ in estimate.atoms:
        assert within_three_sigma(count, cfg.trials, exact.weight(key))


def test_estimate_law_argument_validation():
    noise = half_noise()
    cfg = SimConfig(depth=4, trials=10, seed=1)
    with pytest.raises(ValueError, match="observable"):
        estimate_law(noise, cfg, observable="window")
    with pytest.raises(ValueError, match="entry"):
        estimate_law(noise, cfg, observable="state")


def test_estimates_are_deterministic_per_seed():
    noise = half_noise()
    cfg = SimConfig(depth=12, trials=400, seed=3)
    assert estimate_law(noise, cfg) == estimate_law(noise, cfg)
    other = estimate_law(noise, SimConfig(depth=12, trials=400, seed=4))
    assert estimate_law(noise, cfg) != other


# ------------------------------------------------------------ exact layers


def test_exact_product_law_matches_the_raw_dict_oracle():
    cases = [
        half_noise(),
        two_map_noise(Fraction(1, 3), Fraction(2, 3)),
        cyclic_noise(4, {1: HALF, 3: HALF})[1],
    ]
    for noise in cases:
        raw = {e.image: w for e, w in noise.tail.atoms}
        for depth in range(1, 7):
            expected = convolution_power(raw, depth)
            got = exact_product_law(noise, depth)
            assert {e.image: w for e, w in got.atoms} == {
                k: w for k, w in expected.items() if w != 0
            }


def test_exact_product_law_sixteen_step_pin():
    law = exact_product_law(half_noise(), 16)
    unit = Fraction(1, 65536)
    assert law.weight(TransformationElement((0, 0, 0))) == Fraction(5461, 16384)
    assert law.weight(TransformationElement((1, 1, 1))) == 21845 * unit
    assert law.weight(TransformationElement((2, 2, 2))) == 21845 * unit
    assert law.weight(TransformationElement((0, 1, 0))) == unit
    assert law.weight(TransformationElement((0, 0, 2))) == unit
    assert law.weight(TransformationElement((1, 0, 1))) == 0


def test_exact_state_law_matches_the_oracle_and_prefix():
    noise = two_map_noise(HALF, HALF, prefix=[
        ProbMeasure.point(half_noise().tail.carrier, TransformationElement((1, 0, 1)))
    ])
    raw_product = {e.image: w for e, w in exact_product_law(noise, 5).atoms}
    got = exact_state_law(noise, 5, 1)
    assert {x: w for x, w in got.atoms} == {
        x: w for x, w in apply_law(raw_product, {1: Fraction(1)}).items() if w != 0
    }
    with pytest.raises(ValueError):
        exact_product_law(noise, 0)


# ---------------------------------------------------------- stopping times


def test_stopping_time_exact_mean_matches_the_oracle():
    for p, q in [(HALF, HALF), (Fraction(1, 3), Fraction(2, 3))]:
        stats = stopping_time_stats(
            two_map_noise(p, q), SimConfig(depth=64, trials=2000, seed=42)
        )
        assert stats.exact_mean == three_state_expected_absorption(p, q)
        assert stats.infinite_mass == 0
        assert stats.unabsorbed == 0
        assert abs(stats.empirical_mean - float(stats.exact_mean)) <= max(
            3 * stats.empirical_stderr, 1e-12
        )


def test_stopping_time_tail_frequency():
    noise = half_noise()
    cfg = SimConfig(depth=64, trials=2000, seed=42)
    deep = sum(
        1
        for s in simulate_paths(noise, cfg)
        if s.absorbed_at is None or s.absorbed_at > 4
    )
    assert within_three_sigma(deep, cfg.trials, three_state_absorption_tail(4))


def test_stopping_time_immediate_cases():
    identity = NoiseSpec(element_measure(THREE, {(0, 1, 2): Fraction(1)}))
    stats = stopping_time_stats(identity, SimConfig(depth=8, trials=50, seed=1))
    assert stats.exact_mean == 1
    assert stats.empirical_mean == 1.0
    assert stats.median == 1 and stats.q90 == 1
    assert stats.absorbed == 50 and stats.unabsorbed == 0

    const = NoiseSpec(element_measure(THREE, {(0, 0, 0): Fraction(1)}))
    assert stopping_time_stats(
        const, SimConfig(depth=8, trials=20, seed=1)
    ).exact_mean == 1


def test_stopping_time_never_absorbs_on_group_walks():
    ctx, noise = cyclic_noise(4, {1: Fraction(1)})
    stats = stopping_time_stats(noise, SimConfig(depth=32, trials=30, seed=2))
    assert stats.exact_mean is None
    assert stats.infinite_mass == 1
    assert stats.absorbed == 0
    assert stats.unabsorbed == 30
    assert stats.empirical_mean is None
    assert stats.median is None and stats.q90 is None

    _, uniform2 = cyclic_noise(2, {0: HALF, 1: HALF})
    stats = stopping_time_stats(uniform2, SimConfig(depth=16, trials=20, seed=2))
    assert stats.exact_mean is None
    assert stats.infinite_mass == 1


def test_stopping_time_with_prefix_counts_the_remaining_factors():
    # prefix factor is a rotation: it can never be absorbed while rotations
    # remain, so absorption waits for the tail regime
    rot = TransformationElement((1, 2, 0))
    car = half_noise().tail.carrier
    noise = NoiseSpec(half_noise().tail, (ProbMeasure.point(car, rot),))
    stats = stopping_time_stats(noise, SimConfig(depth=64, trials=500, seed=11))
    assert stats.infinite_mass == 0
    assert stats.exact_mean == 1 + three_state_expected_absorption(HALF, HALF)
    assert abs(stats.empirical_mean - float(stats.exact_mean)) <= max(
        3 * stats.empirical_stderr, 1e-12
    )


@pytest.mark.parametrize(
    "images, expected",
    [(((1, 2, 3, 0), (0, 0, 0, 3)), 7), (((1, 2, 3, 0), (0, 0, 2, 3)), 20)],
    ids=["cyc4-rank2", "cyc4-rank3"],
)
def test_stopping_time_on_four_states_matches_the_definition(images, expected):
    # the benchmark's four-state carriers: the 4-cycle and a rank-2 or rank-3
    # map, 1/2 each
    tail = dict.fromkeys(images, HALF)
    noise = NoiseSpec(element_measure(StateSpace.of_size(4), tail))
    stats = stopping_time_stats(noise, SimConfig(depth=1, trials=1))
    assert (stats.exact_mean, stats.infinite_mass) == (expected, 0)
    assert absorption_time_reference([], tail) == (expected, 0)


def test_stopping_time_stats_builds_one_closure(monkeypatch):
    calls = count_calls(monkeypatch, tsl.measures, "generate_closure")
    stopping_time_stats(half_noise(), SimConfig(depth=8, trials=10, seed=1))
    assert len(calls) == 1


def test_exact_absorption_solves_over_the_reachable_products(monkeypatch):
    # space 3, tail uniform on a = 2 1 3 and b = 1 3 2, c = 1 1 2 at 0 and
    # b at -2: the closure has 27 products, 3 are reached after the prefix
    a, b, c = (1, 0, 2), (0, 2, 1), (0, 0, 1)
    tail = element_measure(THREE, {a: HALF, b: HALF})
    prefix = (element_measure(THREE, {c: 1}), tail, element_measure(THREE, {b: 1}))
    noise = NoiseSpec(tail, prefix)
    calls = count_calls(monkeypatch, NoiseSpec, "tail_rows")
    stats = stopping_time_stats(noise, SimConfig(depth=8, trials=10, seed=1))
    assert (stats.exact_mean, stats.infinite_mass) == (None, 1)
    assert noise.closure.size == 27
    assert sum(len(products) for _, products in calls) == 3


def test_one_noise_spec_builds_its_closure_once(monkeypatch):
    calls = count_calls(monkeypatch, tsl.measures, "generate_closure")
    prefix = [two_map_noise(Fraction(1, 3), Fraction(2, 3)).tail]
    noise = two_map_noise(HALF, HALF, prefix=prefix)
    cfg = SimConfig(depth=8, trials=10, seed=1)
    estimate_law(noise, cfg)
    stopping_time_stats(noise, cfg)
    exact_product_law(noise, 8)
    list(simulate_paths(noise, cfg))
    assert len(calls) == 1


def test_library_calls_stop_at_the_closure_cap():
    noise = NoiseSpec(ProbMeasure.uniform(element_carrier(SIX), FULL_SIX_GENERATORS))
    cfg = SimConfig(depth=4, trials=5, seed=1)
    calls = [
        lambda: estimate_law(noise, cfg),
        lambda: stopping_time_stats(noise, cfg),
        lambda: exact_product_law(noise, 4),
    ]
    for call in calls:
        with pytest.raises(CapacityError) as exc:
            call()
        assert str(exc.value) == "closure exceeded the cap of 4096 elements"


# ---------------------------------------------------------------- coupling


def test_coupling_collides_after_synchronization():
    noise = half_noise()
    (_, fam), = extremal_solutions(noise, three_ctx())
    deep = ci_coupling(noise, fam, fam, SimConfig(depth=64, trials=2000, seed=42))
    assert deep.collisions == deep.trials
    assert deep.frequency == 1.0

    shallow = ci_coupling(noise, fam, fam, SimConfig(depth=2, trials=2000, seed=42))
    assert within_three_sigma(shallow.collisions, 2000, Fraction(7, 9))


def test_coupling_frequency_on_the_group_walk():
    ctx, noise = cyclic_noise(2, {0: HALF, 1: HALF})
    (_, fam), = extremal_solutions(noise, ctx)
    stats = ci_coupling(noise, fam, fam, SimConfig(depth=16, trials=2000, seed=42))
    assert within_three_sigma(stats.collisions, 2000, HALF)
    assert stats.stderr == pytest.approx(
        (stats.frequency * (1 - stats.frequency) / 2000) ** 0.5
    )


def test_coupling_of_deterministic_translates():
    ctx, noise = cyclic_noise(3, {1: Fraction(1)})
    fams = [f for _, f in deterministic_translate_families(noise, ctx)]
    cfg = SimConfig(depth=9, trials=50, seed=3)
    same = ci_coupling(noise, fams[0], fams[0], cfg)
    assert same.collisions == 50
    different = ci_coupling(noise, fams[0], fams[1], cfg)
    assert different.collisions == 0
    for sample in coupling_samples(noise, fams[0], fams[1], cfg):
        assert sample.collision == (sample.final_first == sample.final_second)
        assert not sample.collision


def test_coupling_is_deterministic_per_seed():
    noise = half_noise()
    (_, fam), = extremal_solutions(noise, three_ctx())
    cfg = SimConfig(depth=4, trials=300, seed=8)
    assert ci_coupling(noise, fam, fam, cfg) == ci_coupling(noise, fam, fam, cfg)


# ------------------------------------------------------------ acceptance aid


def test_within_three_sigma_edges():
    assert within_three_sigma(0, 100, Fraction(0))
    assert not within_three_sigma(1, 100, Fraction(0))
    assert within_three_sigma(100, 100, Fraction(1))
    assert not within_three_sigma(99, 100, Fraction(1))
    assert within_three_sigma(547, 1000, HALF)
    assert not within_three_sigma(550, 1000, HALF)
    assert within_three_sigma(453, 1000, HALF)
    assert not within_three_sigma(450, 1000, HALF)
