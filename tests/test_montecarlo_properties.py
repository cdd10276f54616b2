"""Randomized checks of the Monte Carlo trial kernel, the trial tally and the
exact laws against the definitions."""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from random import Random
from statistics import median_high

from hypothesis import assume, example, given, settings, strategies as st

from tsl import (
    CapacityError,
    NoiseSpec,
    ProbMeasure,
    SimConfig,
    SplitMix64,
    StateSpace,
    TransformationElement,
    coupling_samples,
    element_carrier,
    estimate_law,
    exact_product_law,
    simulate_paths,
    state_carrier,
    stopping_time_stats,
    strongness_witness,
    trial_stream,
)
from tsl.montecarlo import (
    GAMMA,
    _BLOCK,
    _exact_absorption,
    _jump,
    _skip_to_window_end,
    _stages,
    _tables,
    _trial_kernel,
)
from tsl.solver import Origin, SolutionLawFamily

from helpers import element_measure
from oracles import (
    backward_product_reference,
    exact_absorption_reference,
    pick_reference,
    splitmix64_reference,
    stagewise_product_law,
    step_reference,
    strongness_residuals_reference,
)
from test_measures_properties import COMMON, _absorption_case, measure_batch

TRIALS = 6
MASK = (1 << 64) - 1

noises = st.integers(1, 3).flatmap(
    lambda count: measure_batch(count, state_count=1, max_states=3)
)
depths = st.integers(1, 10)
seeds = st.integers(0, (1 << 64) - 1)
# three maps on four states at 1/3 each: a 62-product closure, so 64 product
# rows (with "no factor yet" and "done") times 4 codes (3 guide atoms and the
# split marker) is exactly the 256 that byte lanes allow
AT_BYTE_LIMIT = _absorption_case(
    4, {(1, 0, 1, 3): "1/3", (2, 1, 3, 1): "1/3", (2, 1, 0, 2): "1/3"}
)


def _images(m: ProbMeasure) -> dict:
    return {e.image: w for e, w in m.atoms}


def _entry(space, states) -> ProbMeasure:
    return states[0] if states else ProbMeasure.point(state_carrier(space), 0)


def _check_trials(noise, batch, entry, cfg) -> list:
    """Each trial of the kernel, the coupling and the state observable against
    the full-draw reference; returns (product, first entry) per trial."""
    _, (tail, *prefix), _ = batch
    prefix_images, tail_images = [_images(m) for m in prefix], _images(tail)
    depth, seed = cfg.depth, cfg.seed
    family = SolutionLawFamily(((0, entry),), (entry,), Origin("extremal"))
    couplings = list(coupling_samples(noise, family, family, cfg))
    runs = list(_trial_kernel(noise, _stages(noise), cfg))
    assert len(runs) == len(couplings) == cfg.trials
    seen, states = [], [0] * noise.space.size
    for trial, ((rng, pid, got_at), coupling) in enumerate(zip(runs, couplings)):
        start = trial_stream(seed, trial).state
        product, absorbed_at = backward_product_reference(
            prefix_images, tail_images, depth, start
        )
        draws = splitmix64_reference(start, depth + 2)

        assert noise.closure.elements[pid].image == product
        assert got_at == absorbed_at
        # drawing stops right after the absorbing factor ...
        stop = depth if absorbed_at is None else absorbed_at
        assert SplitMix64(rng.state).next_u64() == draws[stop]
        # ... and the skip leaves the stream where all depth draws would
        _skip_to_window_end(rng, depth, got_at)
        assert [rng.next_u64() for _ in range(2)] == draws[depth:]

        x1, x2 = (pick_reference(dict(entry.atoms), u) for u in draws[depth:])
        assert coupling.entry_first == x1
        assert coupling.entry_second == x2
        assert coupling.final_first == product[x1]
        assert coupling.final_second == product[x2]
        states[product[x1]] += 1
        seen.append((product, x1))
    state_law = estimate_law(noise, cfg, "state", entry)
    assert [state_law.count(x) for x in range(noise.space.size)] == states
    return seen


@COMMON
@given(noises, depths, seeds)
# a first factor that the tail fixes but the next prefix factor does not
@example(_absorption_case(2, {(0, 1): 1}, {(1, 0): 1}, {(0, 0): "1/2", (1, 1): "1/2"}), 3, 1)
# a four-product closed class that the prefix steers around
@example(_absorption_case(3, {(2, 1, 2): "1/2", (2, 2, 1): "1/2"}, {(2, 1, 1): 1}), 6, 1)
# a permutation walk: nothing is ever absorbed, every factor is drawn
@example(_absorption_case(3, {(1, 0, 2): 1}), 5, 2)
# a 1/3, 2/3 tail: trial 0's first draw, 0x5568..., has top byte 0x55, the
# bucket that the breakpoint ceil(2^64 / 3) = 0x5555...56 splits
@example(_absorption_case(2, {(0, 1): "1/3", (1, 0): "2/3"}), 3, 105)
# a mixed prefix, then a point-mass tail whose draws are never mixed: the
# stream must still move by GAMMA for each of them
@example(_absorption_case(3, {(1, 2, 0): 1}, {(0, 1, 2): "1/3", (1, 2, 0): "2/3"}), 6, 3)
def test_trial_kernel_matches_the_full_draw_reference(batch, depth, seed):
    space, (tail, *prefix), states = batch
    noise = NoiseSpec(tail, tuple(prefix))
    entry = _entry(space, states)
    seen = _check_trials(noise, batch, entry, SimConfig(depth, TRIALS, seed))
    for trial, (product, x1) in enumerate(seen):
        # the state observable, run on this trial's stream alone: trial t
        # under seed s reads the stream of trial 0 under seed s + t * GAMMA
        alone = SimConfig(depth, 1, (seed + trial * GAMMA) & MASK)
        state_law = estimate_law(noise, alone, "state", entry)
        assert state_law.count(product[x1]) == 1


def test_trial_blocks_match_the_full_draw_reference_across_block_edges():
    # a 1/3, 2/3 group tail behind a mixed prefix stage and a run of two
    # different point masses: nothing absorbs, so every lane draws every
    # factor, and the breakpoint ceil(2^64 / 3) splits bucket 0x55, which
    # some lanes of every block hit
    batch = _absorption_case(
        3,
        {(1, 0, 2): "1/3", (1, 2, 0): "2/3"},
        {(0, 2, 1): "1/3", (2, 0, 1): "2/3"},
        {(2, 0, 1): 1},
        {(0, 2, 1): 1},
    )
    space, (tail, *prefix), _ = batch
    noise = NoiseSpec(tail, tuple(prefix))
    entry = ProbMeasure.from_weights(
        state_carrier(space), {0: Fraction(1, 2), 1: Fraction(1, 4), 2: Fraction(1, 4)}
    )
    trials = 2 * _BLOCK + 3
    for depth in (1, 7):
        for seed in (1, MASK):
            _check_trials(noise, batch, entry, SimConfig(depth, trials, seed))


def test_absorbing_trial_blocks_match_the_full_draw_reference_across_block_edges():
    cases = [
        # a 1/3, 2/3 tail that absorbs into the constants, split at bucket
        # 0x55, behind a mixed prefix stage and a point mass that can absorb:
        # about half the lanes retire at the point mass, the rest at later
        # tail factors, so every block repacks its int
        _absorption_case(
            3,
            {(0, 1, 1): "1/3", (1, 2, 0): "2/3"},
            {(0, 0, 1): "1/2", (1, 2, 0): "1/2"},
            {(0, 0, 1): 1},
        ),
        # a constant tail: every lane retires at the first factor
        _absorption_case(3, {(0, 0, 0): 1}),
    ]
    trials = 2 * _BLOCK + 3
    for batch in cases:
        space, (tail, *prefix), _ = batch
        noise = NoiseSpec(tail, tuple(prefix))
        entry = ProbMeasure.from_weights(
            state_carrier(space), {0: Fraction(1, 2), 1: Fraction(1, 4), 2: Fraction(1, 4)}
        )
        for depth in (1, 7, 64):
            for seed in (1, MASK):
                _check_trials(noise, batch, entry, SimConfig(depth, trials, seed))


def test_trial_blocks_match_the_full_draw_reference_at_and_past_the_byte_limit():
    cases = [
        # T4's generators at 1/3 each: 256 products, absorbing into the
        # constants; 258 rows are past the byte limit, so each lane steps alone
        (_absorption_case(4, {(1, 0, 2, 3): "1/3", (1, 2, 3, 0): "1/3", (0, 0, 2, 3): "1/3"}), False),
        # S5 at 1/3, 2/3: 120 products that never absorb, 122 rows x 3 codes
        # past the limit, and the breakpoint ceil(2^64 / 3) splits bucket 0x55
        (_absorption_case(5, {(1, 0, 2, 3, 4): "1/3", (1, 2, 3, 4, 0): "2/3"}), False),
        # exactly at the limit: byte lanes; lanes retire from the first
        # factors on, about half of them by factor 14, so at depth 64 every
        # block repacks
        (AT_BYTE_LIMIT, True),
    ]
    trials = 2 * _BLOCK + 3
    for batch, byte in cases:
        space, (tail, *prefix), _ = batch
        noise = NoiseSpec(tail, tuple(prefix))
        assert _tables(noise, _stages(noise))[0] is byte
        entry = ProbMeasure.from_weights(
            state_carrier(space), {0: Fraction(1, 2), 1: Fraction(1, 4), 2: Fraction(1, 4)}
        )
        for depth in (1, 7, 64):
            for seed in (1, MASK):
                _check_trials(noise, batch, entry, SimConfig(depth, trials, seed))


@COMMON
@given(noises)
@example(AT_BYTE_LIMIT)
def test_byte_step_tables_match_the_right_cayley_graph(batch):
    _, (tail, *prefix), _ = batch
    noise = NoiseSpec(tail, tuple(prefix))
    closure, stages = noise.closure, _stages(noise)
    byte, _, tables = _tables(noise, stages)
    # at most 3 states and 4 atoms a stage: 29 rows x 5 codes fit in a byte
    assert byte
    start, done = closure.size, closure.size + 1
    for stage in stages:
        move, guide, codes, absorbing = tables[id(stage)]
        if stage.absorbing:
            assert [absorbing[p] for p in range(done + 1)] == [
                p in stage.absorbing for p in range(done + 1)
            ]
        if stage.guide is None:
            (f,) = stage.ids
            assert [move[p] for p in range(start)] == [row[f] for row in closure.right]
            assert (move[start], move[done]) == (f, done)
            continue
        assert codes == len(set(stage.guide) - {-1}) + 1
        for b, f in enumerate(stage.guide):
            step = [move[p * codes + guide[b]] for p in range(done + 1)]
            # the done row stays done; a split bucket gives the marker, 255
            assert step[done] == done
            if f == -1:
                assert step[:done] == [255] * done
            else:
                assert step[:done] == [row[f] for row in closure.right] + [f]


def test_each_trial_stream_is_made_once_and_moves_one_gamma_per_draw(monkeypatch):
    # the contract that the benchmark's tracer reads draws from: it wraps
    # `trial_stream` and counts each stream's state difference in GAMMAs
    cases = [
        # a 1/3, 2/3 tail absorbing into the constants behind a mixed stage
        # and a point mass that can absorb
        _absorption_case(
            3,
            {(0, 1, 1): "1/3", (1, 2, 0): "2/3"},
            {(0, 0, 1): "1/2", (1, 2, 0): "1/2"},
            {(0, 0, 1): 1},
        ),
        # a group tail behind a run of point masses: nothing absorbs
        _absorption_case(3, {(1, 0, 2): "1/3", (1, 2, 0): "2/3"}, {(2, 0, 1): 1}, {(0, 2, 1): 1}),
        # T4 past the byte limit
        _absorption_case(4, {(1, 0, 2, 3): "1/3", (1, 2, 3, 0): "1/3", (0, 0, 2, 3): "1/3"}),
    ]
    made = []

    def recording(seed, trial):
        rng = trial_stream(seed, trial)
        made.append((seed, trial, rng, rng.state))
        return rng

    monkeypatch.setattr("tsl.montecarlo.trial_stream", recording)
    trials = 2 * _BLOCK + 3
    for batch in cases:
        _, (tail, *prefix), _ = batch
        noise = NoiseSpec(tail, tuple(prefix))
        prefix_images, tail_images = [_images(m) for m in prefix], _images(tail)
        for depth in (1, 7, 64):
            made.clear()
            stats = stopping_time_stats(noise, SimConfig(depth, trials, MASK))
            assert sorted(trial for _, trial, _, _ in made) == list(range(trials))
            absorbed = 0
            for seed, trial, rng, start in made:
                assert seed == MASK
                _, absorbed_at = backward_product_reference(
                    prefix_images, tail_images, depth, start
                )
                absorbed += absorbed_at is not None
                draws = depth if absorbed_at is None else absorbed_at
                assert (rng.state - start) & MASK == (draws * GAMMA) & MASK
            assert stats.absorbed == absorbed


@COMMON
@given(noises)
def test_jump_maps_equal_single_steps(batch):
    _, (tail, *prefix), _ = batch
    closure = NoiseSpec(tail, tuple(prefix)).closure
    # the closure's rows, then the "no factor yet" row
    table = (*closure.right, closure.generators)
    for atom in range(len(closure.generators)):
        walk = list(range(len(table)))
        for k in range(1, 4001):
            walk = [table[p][atom] for p in walk]
            if k <= 70 or k == 4000:
                assert _jump(table, atom, k) == walk


@COMMON
@given(noises)
@example(_absorption_case(2, {(0, 1): "1/3", (1, 0): "2/3"}))
@example(_absorption_case(2, {(1, 0): 1}, {(0, 0): "1/4", (1, 1): "3/4"}))
def test_stage_guides_agree_with_the_pick_reference(batch):
    _, (tail, *prefix), _ = batch
    noise = NoiseSpec(tail, tuple(prefix))
    for stage, atoms in zip(_stages(noise), noise.atom_ids):
        weights = dict(atoms)
        if len(weights) == 1:
            assert stage.guide is None
            continue
        for b, f in enumerate(stage.guide):
            if f != -1:
                lowest, highest = b << 56, ((b + 1) << 56) - 1
                assert pick_reference(weights, lowest) == f == pick_reference(weights, highest)
        inner = [x for x in stage.breaks if x < 1 << 64]
        for u in {v for x in inner for v in (x - 1, x, x + 1) if v < 1 << 64}:
            f = stage.guide[u >> 56]
            if f == -1:
                f = stage.ids[bisect_right(stage.breaks, u)]
            assert f == pick_reference(weights, u)
        # a breakpoint off the bucket edges splits its bucket, and nothing
        # else does: an all -1 guide, which never takes the fast path, fails
        split = {x >> 56 for x in inner if x % (1 << 56)}
        assert [b for b, f in enumerate(stage.guide) if f == -1] == sorted(split)


@COMMON
@given(noises, depths, seeds)
@example(_absorption_case(2, {(1, 0): 1}, {(1, 0): "3/4", (0, 0): "1/4"}, {(0, 1): 1}), 4, 3)
def test_paths_and_kernel_share_one_absorption_time(batch, depth, seed):
    _, (tail, *prefix), _ = batch
    noise = NoiseSpec(tail, tuple(prefix))
    cfg = SimConfig(depth, TRIALS, seed)
    runs = _trial_kernel(noise, _stages(noise), cfg)
    for sample, (_, pid, absorbed_at) in zip(simulate_paths(noise, cfg), runs, strict=True):
        assert sample.absorbed_at == absorbed_at
        assert sample.products[-1] == noise.closure.elements[pid]


@COMMON
@given(noises, depths, seeds)
@example(_absorption_case(2, {(0, 1): 1}, {(1, 0): 1}, {(0, 0): "1/2", (1, 1): "1/2"}), 3, 1)
@example(_absorption_case(3, {(1, 0, 2): 1}), 5, 2)
def test_tally_matches_the_full_draw_reference(batch, depth, seed):
    _, (tail, *prefix), _ = batch
    noise = NoiseSpec(tail, tuple(prefix))
    cfg = SimConfig(depth, TRIALS, seed)
    stats = stopping_time_stats(noise, cfg)
    assert stats.products == estimate_law(noise, cfg)
    prefix_images, tail_images = [_images(m) for m in prefix], _images(tail)
    counts: dict = {}
    times = []
    for trial in range(TRIALS):
        product, absorbed_at = backward_product_reference(
            prefix_images, tail_images, depth, trial_stream(seed, trial).state
        )
        counts[product] = counts.get(product, 0) + 1
        if absorbed_at is not None:
            times.append(absorbed_at)
    assert {k.image: c for k, c, _, _ in stats.products.atoms if c} == counts
    assert (stats.absorbed, stats.unabsorbed) == (len(times), TRIALS - len(times))
    if times:
        assert stats.empirical_mean == sum(times) / len(times)
        assert stats.median == median_high(times)
    else:
        assert stats.empirical_mean is stats.median is None


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
# a swap class entered with probability 3/4, and an absorbing tail
@example(_absorption_case(2, {(1, 0): 1}, {(1, 0): "3/4", (0, 0): "1/4"}, {(0, 1): 1}))
@example(_absorption_case(2, {(0, 0): "1/2", (1, 0): "1/2"}))
def test_exact_absorption_matches_the_all_ids_reference(batch):
    _, (tail, *prefix), _ = batch
    noise = NoiseSpec(tail, tuple(prefix))
    stages = _stages(noise)
    assert _exact_absorption(noise, stages) == exact_absorption_reference(noise, stages)


@COMMON
@given(noises, depths)
def test_exact_product_law_matches_the_stagewise_reference(batch, depth):
    _, (tail, *prefix), _ = batch
    noise = NoiseSpec(tail, tuple(prefix))
    expected = stagewise_product_law([_images(m) for m in prefix], _images(tail), depth)
    assert _images(exact_product_law(noise, depth)) == expected


RARE = Fraction(1, 10**60)
RARE_CYCLE = NoiseSpec(
    element_measure(StateSpace.of_size(3), {(1, 2, 0): 1 - RARE, (0, 0, 0): RARE}),
    (
        element_measure(StateSpace.of_size(3), {(1, 2, 0): "1/3", (0, 0, 0): "2/3"}),
        element_measure(StateSpace.of_size(3), {(1, 2, 0): "3/7", (0, 0, 0): "4/7"}),
    ),
)


@st.composite
def mixed_denominator_noise(draw):
    """(noise, depth): noise over 1-3 maps on 1-5 states with 0-3 prefix
    stages, and a depth of 1-40.

    Everything comes from a drawn seed: the maps, each stage's support and
    its weights, all but the last over a denominator of its own, so stages
    differ in denominator and a stage of three atoms mixes them; one stage
    may carry a weight of 1/10^60.  Closures past 64 elements are rejected:
    the absorption reference solves densely over every closure id.
    """
    rng = Random(draw(st.integers(0, 2**32)))
    # five states and three maps more often: their laws have the most atoms
    n = rng.choice((1, 2, 3, 4, 5, 5))
    maps = [tuple(rng.randrange(n) for _ in range(n)) for _ in range(3)]
    gens = sorted(set(map(TransformationElement, maps)))[: rng.choice((1, 2, 3, 3))]
    stages = rng.randint(1, 4)
    rare = rng.randint(0, stages)  # no 1/10^60 weight when it is `stages`
    laws = []
    for m in range(stages):
        support = rng.sample(gens, rng.randint(1, len(gens)))
        k = len(support)
        # all but the last weight below 1/k, each over its own denominator
        dens = rng.choices((2, 3, 5, 7, 11), k=k - 1)
        weights = [Fraction(rng.randint(1, b - 1), b * k) for b in dens]
        if m == rare and k > 1:
            weights[0] = RARE
        weights.append(1 - sum(weights))
        laws.append(
            ProbMeasure.from_weights(
                element_carrier(StateSpace.of_size(n)), dict(zip(support, weights))
            )
        )
    noise = NoiseSpec(laws[0], tuple(laws[1:]))
    try:
        assume(noise.closure.size <= 64)
    except CapacityError:
        assume(False)
    return noise, rng.randint(1, 40)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(mixed_denominator_noise())
# a cycle and a constant drawn with probability 10^-60, behind two prefix
# stages over thirds and sevenths
@example((RARE_CYCLE, 40))
def test_integer_laws_equal_the_fraction_step_reference(problem):
    noise, depth = problem
    atoms = noise.atom_ids
    expected = [dict(atoms[0])]
    for t in range(1, depth):
        expected.append(step_reference(noise, expected[-1], atoms[min(t, len(atoms) - 1)]))
    laws = noise.product_laws(depth)
    assert [{i: Fraction(n, den) for i, n in law.items()} for law, den in laws] == expected
    element = noise.closure.element
    assert exact_product_law(noise, depth) == ProbMeasure.from_weights(
        noise.carrier, {element(i): w for i, w in expected[-1].items()}
    )
    ids, d = range(noise.closure.size), noise.atom_numerators[-1][1]
    rows = [{q: Fraction(n, d) for q, n in row.items()} for row in noise.tail_rows(ids)]
    assert rows == [step_reference(noise, {p: Fraction(1)}, atoms[-1]) for p in ids]
    stages = _stages(noise)
    assert _exact_absorption(noise, stages) == exact_absorption_reference(noise, stages)

    entry = ProbMeasure.uniform(state_carrier(noise.space), range(noise.space.size))
    family = SolutionLawFamily(((0, entry),), (entry,), Origin("extremal"))
    assert strongness_witness(noise, family, depth=depth).depths == (
        strongness_residuals_reference(noise, family, depth, 10**6)
    )
