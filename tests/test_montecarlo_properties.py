"""Randomized checks of the Monte Carlo trial kernel, the trial tally and the
exact laws against the definitions."""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from statistics import median_high

from hypothesis import assume, example, given, settings, strategies as st

from tsl import (
    ProbMeasure,
    SimConfig,
    SplitMix64,
    coupling_samples,
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

from oracles import (
    absorbing_reference,
    absorption_time_reference,
    backward_product_reference,
    pick_reference,
    splitmix64_reference,
    stagewise_product_law,
    step_reference,
    strongness_residuals_reference,
)
from problems import every_problem, images, problem, problems, schedule

TRIALS = 6
MASK = (1 << 64) - 1
BLOCK_EDGES = 2 * _BLOCK + 3

seeds = st.integers(0, MASK)
# three maps on four states at 1/3 each: a 62-product closure, so 64 product
# rows (with "no factor yet" and "done") times 4 codes (3 guide atoms and the
# split marker) is exactly the 256 that byte lanes allow
AT_BYTE_LIMIT = problem("space 4; gen a = 2 1 2 4; gen b = 3 2 4 2; gen c = 3 2 1 3; noise iid a:1/3 b:1/3 c:1/3")
# a 1/3, 2/3 tail absorbing into the constants, split at bucket 0x55, behind
# a mixed prefix stage and a point mass that can absorb: about half the lanes
# retire at the point mass, the rest at later tail factors
ABSORBING = problem("space 3; gen a = 1 2 2; gen c = 2 3 1; gen k = 1 1 2; noise iid a:1/3 c:2/3; noise at 0 k:1/2 c:1/2; noise at -1 k:1")
# T4's generators at 1/3 each: 256 products, absorbing into the constants;
# 258 rows are past the byte limit, so each lane steps alone
T4 = problem("space 4; gen t = 2 1 3 4; gen c = 2 3 4 1; gen m = 1 1 3 4; noise iid t:1/3 c:1/3 m:1/3")


def _skewed_entry(noise) -> ProbMeasure:
    return ProbMeasure.from_weights(
        state_carrier(noise.space), {0: Fraction(1, 2), 1: Fraction(1, 4), 2: Fraction(1, 4)}
    )


def _check_trials(noise, entry, cfg) -> list:
    """Each trial of the kernel, the coupling and the state observable against
    the full-draw reference; returns (product, first entry) per trial."""
    prefix_images, tail_images = schedule(noise)
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


@given(problems(), seeds)
# a first factor that the tail fixes but the next prefix factor does not
@example(problem("space 2; gen e = 1 2; gen s = 2 1; gen z = 1 1; gen o = 2 2; noise iid e:1; noise at 0 s:1; noise at -1 z:1/2 o:1/2", depth=3), 1)
# a four-product closed class that the prefix steers around
@example(problem("space 3; gen a = 3 2 3; gen b = 3 3 2; gen c = 3 2 2; noise iid a:1/2 b:1/2; noise at 0 c:1", depth=6), 1)
# a permutation walk: nothing is ever absorbed, every factor is drawn
@example(problem("space 3; gen s = 2 1 3; noise iid s:1", depth=5), 2)
# a 1/3, 2/3 tail: trial 0's first draw, 0x5568..., has top byte 0x55, the
# bucket that the breakpoint ceil(2^64 / 3) = 0x5555...56 splits
@example(problem("space 2; gen e = 1 2; gen s = 2 1; noise iid e:1/3 s:2/3", depth=3), 105)
# a mixed prefix, then a point-mass tail whose draws are never mixed: the
# stream must still move by GAMMA for each of them
@example(problem("space 3; gen c = 2 3 1; gen e = 1 2 3; noise iid c:1; noise at 0 e:1/3 c:2/3", depth=6), 3)
def test_trial_kernel_matches_the_full_draw_reference(p, seed):
    noise, entry = p.noise, p.entry
    seen = _check_trials(noise, entry, SimConfig(p.depth, TRIALS, seed))
    for trial, (product, x1) in enumerate(seen):
        # the state observable, run on this trial's stream alone: trial t
        # under seed s reads the stream of trial 0 under seed s + t * GAMMA
        alone = SimConfig(p.depth, 1, (seed + trial * GAMMA) & MASK)
        state_law = estimate_law(noise, alone, "state", entry)
        assert state_law.count(product[x1]) == 1


def test_trial_blocks_match_the_full_draw_reference_across_block_edges():
    # a 1/3, 2/3 group tail behind a mixed prefix stage and a run of two
    # different point masses: nothing absorbs, so every lane draws every
    # factor, and the breakpoint ceil(2^64 / 3) splits bucket 0x55, which
    # some lanes of every block hit
    noise = problem(
        "space 3; gen s = 2 1 3; gen c = 2 3 1; gen t = 1 3 2; gen r = 3 1 2;"
        "noise iid s:1/3 c:2/3; noise at 0 t:1/3 r:2/3; noise at -1 r:1; noise at -2 t:1"
    ).noise
    for depth in (1, 7):
        for seed in (1, MASK):
            _check_trials(noise, _skewed_entry(noise), SimConfig(depth, BLOCK_EDGES, seed))


def test_absorbing_trial_blocks_match_the_full_draw_reference_across_block_edges():
    # every block repacks its int as lanes retire; under a constant tail
    # every lane retires at the first factor
    for p in (ABSORBING, problem("space 3; gen z = 1 1 1; noise iid z:1")):
        for depth in (1, 7, 64):
            for seed in (1, MASK):
                _check_trials(p.noise, _skewed_entry(p.noise), SimConfig(depth, BLOCK_EDGES, seed))


def test_trial_blocks_match_the_full_draw_reference_at_and_past_the_byte_limit():
    cases = [
        (T4, False),
        # S5 at 1/3, 2/3: 120 products that never absorb, 122 rows x 3 codes
        # past the limit, and the breakpoint ceil(2^64 / 3) splits bucket 0x55
        (problem("space 5; gen t = 2 1 3 4 5; gen c = 2 3 4 5 1; noise iid t:1/3 c:2/3"), False),
        # exactly at the limit: byte lanes; lanes retire from the first
        # factors on, about half of them by factor 14, so at depth 64 every
        # block repacks
        (AT_BYTE_LIMIT, True),
    ]
    for p, byte in cases:
        noise = p.noise
        assert _tables(noise, _stages(noise))[0] is byte
        for depth in (1, 7, 64):
            for seed in (1, MASK):
                _check_trials(noise, _skewed_entry(noise), SimConfig(depth, BLOCK_EDGES, seed))


@given(problems())
@example(AT_BYTE_LIMIT)
def test_byte_step_tables_match_the_right_cayley_graph(p):
    noise = p.noise
    closure, stages = noise.closure, _stages(noise)
    byte, _, tables = _tables(noise, stages)
    # past the byte limit (63 or 64 products and a stage of three atoms) the
    # per-lane tables take over, which the block tests above cover
    assume(byte)
    start, done = closure.size, closure.size + 1
    for stage in stages:
        move, guide, codes, absorbing = tables[id(stage)]
        if stage.absorbing:
            assert [absorbing[q] for q in range(done + 1)] == [
                q in stage.absorbing for q in range(done + 1)
            ]
        if stage.guide is None:
            (f,) = stage.ids
            assert [move[q] for q in range(start)] == [row[f] for row in closure.right]
            assert (move[start], move[done]) == (f, done)
            continue
        assert codes == len(set(stage.guide) - {-1}) + 1
        for b, f in enumerate(stage.guide):
            step = [move[q * codes + guide[b]] for q in range(done + 1)]
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
        ABSORBING,
        # a group tail behind a run of point masses: nothing absorbs
        problem("space 3; gen s = 2 1 3; gen c = 2 3 1; gen r = 3 1 2; gen t = 1 3 2; noise iid s:1/3 c:2/3; noise at 0 r:1; noise at -1 t:1"),
        # T4 past the byte limit
        T4,
    ]
    made = []

    def recording(seed, trial):
        rng = trial_stream(seed, trial)
        made.append((seed, trial, rng, rng.state))
        return rng

    monkeypatch.setattr("tsl.montecarlo.trial_stream", recording)
    for p in cases:
        prefix_images, tail_images = schedule(p.noise)
        for depth in (1, 7, 64):
            made.clear()
            stats = stopping_time_stats(p.noise, SimConfig(depth, BLOCK_EDGES, MASK))
            assert sorted(trial for _, trial, _, _ in made) == list(range(BLOCK_EDGES))
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


@given(problems())
def test_jump_maps_equal_single_steps(p):
    closure = p.noise.closure
    # the closure's rows, then the "no factor yet" row
    table = (*closure.right, closure.generators)
    for atom in range(len(closure.generators)):
        walk = list(range(len(table)))
        for k in range(1, 4001):
            walk = [table[q][atom] for q in walk]
            if k <= 70 or k == 4000:
                assert _jump(table, atom, k) == walk


@given(problems())
@example(problem("space 2; gen e = 1 2; gen s = 2 1; noise iid e:1/3 s:2/3"))
@example(problem("space 2; gen s = 2 1; gen z = 1 1; gen o = 2 2; noise iid s:1; noise at 0 z:1/4 o:3/4"))
def test_stage_guides_agree_with_the_pick_reference(p):
    noise = p.noise
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


@given(problems(), seeds)
@example(problem("space 2; gen s = 2 1; gen z = 1 1; gen e = 1 2; noise iid s:1; noise at 0 s:3/4 z:1/4; noise at -1 e:1", depth=4), 3)
def test_paths_and_kernel_share_one_absorption_time(p, seed):
    noise = p.noise
    cfg = SimConfig(p.depth, TRIALS, seed)
    runs = _trial_kernel(noise, _stages(noise), cfg)
    for sample, (_, pid, absorbed_at) in zip(simulate_paths(noise, cfg), runs, strict=True):
        assert sample.absorbed_at == absorbed_at
        assert sample.products[-1] == noise.closure.elements[pid]


@given(problems(), seeds)
@example(problem("space 2; gen e = 1 2; gen s = 2 1; gen z = 1 1; gen o = 2 2; noise iid e:1; noise at 0 s:1; noise at -1 z:1/2 o:1/2", depth=3), 1)
@example(problem("space 3; gen s = 2 1 3; noise iid s:1", depth=5), 2)
def test_tally_matches_the_full_draw_reference(p, seed):
    noise, depth = p.noise, p.depth
    cfg = SimConfig(depth, TRIALS, seed)
    stats = stopping_time_stats(noise, cfg)
    assert stats.products == estimate_law(noise, cfg)
    prefix_images, tail_images = schedule(noise)
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


@every_problem
def test_exact_absorption_matches_the_all_ids_reference(p):
    # each stage's absorbing set is every closure id that all later atoms fix
    noise = p.noise
    prefix, tail = schedule(noise)
    stages = _stages(noise)
    expected = absorbing_reference(prefix, tail, [e.image for e in noise.closure.elements])
    assert [set(stage.absorbing) for stage in stages] == expected
    assert _exact_absorption(noise, stages) == absorption_time_reference(prefix, tail)


@every_problem
def test_exact_product_law_matches_the_stagewise_reference(p):
    prefix, tail = schedule(p.noise)
    expected = stagewise_product_law(prefix, tail, p.depth)
    assert images(exact_product_law(p.noise, p.depth)) == expected


@settings(max_examples=200)
@every_problem
def test_integer_laws_equal_the_fraction_step_reference(p):
    noise, depth = p.noise, p.depth
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
    ids, (_, d) = range(noise.closure.size), noise.atom_numerators[-1]
    rows = [{q: Fraction(n, d) for q, n in row.items()} for row in noise.tail_rows(ids)]
    assert rows == [step_reference(noise, {i: Fraction(1)}, atoms[-1]) for i in ids]
    stages = _stages(noise)
    assert _exact_absorption(noise, stages) == absorption_time_reference(*schedule(noise))

    family = SolutionLawFamily(((0, p.entry),), (p.entry,), Origin("extremal"))
    assert strongness_witness(noise, family, depth=depth).depths == (
        strongness_residuals_reference(noise, family, depth, 10**6)
    )
