"""Path simulation with a reproducible, platform-independent RNG.

The generator is SplitMix64; trial t uses its own stream seeded as
(seed + (t+1) * GAMMA) mod 2^64, so results are independent of trial order
and identical on every platform and Python version.  Atoms are sampled by
comparing one 64-bit draw against precomputed integer breakpoints
ceil(c * 2^64) for the cumulative weights c, which is exactly the event
u / 2^64 < c; no floating point enters the sampling path.

Per trial the draw order is fixed: the noise for k = 0, -1, ..., -depth+1
first, then any entry-state draws.  The estimators stop drawing noise once
the running product is absorbed, that is, fixed by every factor that can
still come: the remaining factors cannot change it.  Before any entry draw
the stream is advanced in O(1) to where all depth noise draws would have
left it (SplitMix64 adds GAMMA to its state per draw), so every result is
the same as with all draws made.  `simulate_paths` still draws every
factor, because it reports them.  Estimators report empirical frequencies
with binomial standard errors; exact references for the same quantities
come from the measure layer, so tests can hold simulation against closed
form at three sigma.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import sqrt
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

from .algebra import TransformationElement
from .errors import CarrierMismatchError, InternalInconsistencyError
from .linear import solve_linear
from .measures import (
    NoiseSpec,
    ProbMeasure,
    act,
    closed_classes,
    state_carrier,
    transient_system,
)
from .solver import SolutionLawFamily

__all__ = [
    "GAMMA",
    "SplitMix64",
    "trial_stream",
    "SimConfig",
    "PathSample",
    "CouplingSample",
    "LawEstimate",
    "StoppingTimeStats",
    "CouplingStats",
    "simulate_paths",
    "estimate_law",
    "stopping_time_stats",
    "coupling_samples",
    "ci_coupling",
    "exact_product_law",
    "exact_state_law",
    "within_three_sigma",
]

_MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """The standard 64-bit mixer; one instance is one stream."""

    __slots__ = ("state",)

    def __init__(self, state: int):
        self.state = state & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + GAMMA) & _MASK
        return _mix64(self.state)


def trial_stream(seed: int, trial: int) -> SplitMix64:
    """Stream for one trial, reproducible in isolation.

    The trial's start state is the finalizer of seed + (trial+1) * GAMMA.
    Without that mixing step, stream t would be stream 0 advanced t draws,
    and windows read by nearby trials would overlap almost entirely; the
    finalizer places the streams at unrelated points of the state cycle.
    """
    return SplitMix64(_mix64((seed + (trial + 1) * GAMMA) & _MASK))


@dataclass(frozen=True)
class SimConfig:
    depth: int = 64
    trials: int = 10000
    seed: int = 1
    rng: str = "splitmix64"

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be at least 1")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not 0 <= self.seed < (1 << 64):
            raise ValueError("seed must fit in 64 bits")
        if self.rng != "splitmix64":
            raise ValueError(f"unknown rng {self.rng!r}")


class _Sampler:
    """Exact inverse-CDF sampling via integer breakpoints."""

    __slots__ = ("breaks",)

    def __init__(self, weights: Sequence[Fraction]):
        cum = Fraction(0)
        breaks = []
        for w in weights:
            cum += w
            num, den = cum.numerator, cum.denominator
            breaks.append(((num << 64) + den - 1) // den)
        if breaks[-1] != 1 << 64:
            raise InternalInconsistencyError("sampler weights do not sum to one")
        self.breaks = breaks

    def draw(self, rng: SplitMix64) -> int:
        # the first i with u < breaks[i]; the last breakpoint exceeds every u
        return bisect_right(self.breaks, rng.next_u64())


class _Stage(NamedTuple):
    """One factor draw: sampler breakpoints, atom ids, and the products that
    every factor still to come after this one leaves fixed."""

    breaks: list
    ids: list
    absorbing: frozenset


class _Compiled:
    """Sampling tables for one noise spec: stages, products, actions.

    Ids index `NoiseSpec.closure`, built once per spec.  ``stages[m]`` is the
    draw of the factor at time -m for m below the prefix length; the last
    stage serves every later time, from the tail.  Exact laws are stepped by
    `NoiseSpec.step` instead.
    """

    def __init__(self, noise: NoiseSpec):
        self.noise = noise
        closure = noise.closure
        assert closure.elements is not None
        self.elements = closure.elements
        self.cayley = closure.cayley
        self.action = tuple(e.image for e in self.elements)
        self.prefix_len = plen = noise.prefix_length
        stages = []
        later: set = set()  # ids of every factor after stage m, the tail's included
        for m in range(plen, -1, -1):
            later.update(i for i, _ in noise.atom_ids[min(m + 1, plen)])
            breaks = _Sampler([w for _, w in noise.atom_ids[m]]).breaks
            ids = [i for i, _ in noise.atom_ids[m]]
            stages.append(_Stage(breaks, ids, self._absorbing_set(later)))
        self.stages = stages[::-1]

    def _absorbing_set(self, factor_ids: set) -> frozenset:
        return frozenset(
            i
            for i in range(len(self.elements))
            if all(self.cayley[i][f] == i for f in factor_ids)
        )

    def plan(self, depth: int) -> list[_Stage]:
        """The stages of the factors for k = 0, -1, ..., -depth+1, in draw order."""
        return [self.stages[min(m, self.prefix_len)] for m in range(depth)]

    def trial_kernel(
        self, depth: int
    ) -> Callable[[SplitMix64], tuple[int, Optional[int]]]:
        """The trial loop over `depth` factors: stream -> (product id, absorbed_at).

        ``absorbed_at`` is the first count t of factors whose product lies in
        the absorbing set of stage t-1, None if there is none within the
        depth.  Every later factor fixes that product, so drawing stops there
        and the stream is left after draw t; the product id is the product of
        all `depth` factors either way.  When no stage can absorb, the loop
        makes no membership test.
        """
        plan = self.plan(depth)
        # one extra row for "no factor yet": it maps each factor to itself
        table = (*self.cayley, tuple(range(len(self.elements))))
        start = len(self.elements)

        # The same loop without the absorption test: on group carriers, where
        # nothing absorbs, the test costs about 8% of perfbench's mc-group
        # run_s (10 of 10 alternating pairs, Python 3.11, Intel Xeon).
        if not any(stage.absorbing for stage in plan):

            def run_all(rng: SplitMix64) -> tuple[int, Optional[int]]:
                state, pid = rng.state, start
                for breaks, ids, _ in plan:
                    state = (state + GAMMA) & _MASK
                    z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
                    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
                    pid = table[pid][ids[bisect_right(breaks, z ^ (z >> 31))]]
                rng.state = state
                return pid, None

            return run_all

        def run_until_absorbed(rng: SplitMix64) -> tuple[int, Optional[int]]:
            state, pid = rng.state, start
            for t, (breaks, ids, absorbing) in enumerate(plan, 1):
                state = (state + GAMMA) & _MASK
                z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
                pid = table[pid][ids[bisect_right(breaks, z ^ (z >> 31))]]
                if pid in absorbing:
                    rng.state = state
                    return pid, t
            rng.state = state
            return pid, None

        return run_until_absorbed


def _skip_to_window_end(rng: SplitMix64, depth: int, absorbed_at: Optional[int]) -> None:
    """Move the stream to where all `depth` factor draws would have left it.

    SplitMix64 adds GAMMA to its state per draw, so skipping k draws is one
    addition of k * GAMMA.
    """
    if absorbed_at is not None:
        rng.state = (rng.state + (depth - absorbed_at) * GAMMA) & _MASK


@dataclass(frozen=True)
class PathSample:
    """One simulated path: drawn noise, running products, optional states.

    ``noise[m]`` is the factor at time -m; ``products[m]`` composes the
    factors for times 0..-m.  ``absorbed_at`` is the first count of factors
    after which the product is fixed by every remaining factor, None if that
    never happens within the depth.  ``x_path[m]`` is the state at time -m
    when an entry was requested.
    """

    trial: int
    noise: tuple[TransformationElement, ...]
    products: tuple[TransformationElement, ...]
    absorbed_at: Optional[int]
    x_path: Optional[tuple[int, ...]]


@dataclass(frozen=True)
class CouplingSample:
    trial: int
    entry_first: int
    entry_second: int
    final_first: int
    final_second: int
    collision: bool


def _entry_sampler(entry: ProbMeasure) -> tuple[_Sampler, list]:
    return _Sampler([w for _, w in entry.atoms]), [k for k, _ in entry.atoms]


def _as_entry_measure(noise: NoiseSpec, entry: Union[ProbMeasure, int]) -> ProbMeasure:
    if isinstance(entry, int):
        return ProbMeasure.point(state_carrier(noise.space), entry)
    if entry.carrier != state_carrier(noise.space):
        raise CarrierMismatchError("entry law must be a state measure on the noise space")
    return entry


def simulate_paths(
    noise: NoiseSpec,
    cfg: SimConfig,
    entry: Optional[Union[ProbMeasure, int]] = None,
) -> Iterator[PathSample]:
    """Generate one PathSample per trial under the documented draw order."""
    comp = _Compiled(noise)
    entry_tables = None
    if entry is not None:
        entry_tables = _entry_sampler(_as_entry_measure(noise, entry))
    plan = comp.plan(cfg.depth)
    cayley = comp.cayley
    for trial in range(cfg.trials):
        rng = trial_stream(cfg.seed, trial)
        ids = [stage.ids[bisect_right(stage.breaks, rng.next_u64())] for stage in plan]
        product_ids = list(accumulate(ids, lambda p, f: cayley[p][f]))
        absorbed = next(
            (
                t
                for t, (pid, stage) in enumerate(zip(product_ids, plan), 1)
                if pid in stage.absorbing
            ),
            None,
        )
        x_path = None
        if entry_tables is not None:
            sampler, keys = entry_tables
            x = keys[sampler.draw(rng)]
            xs = [0] * (cfg.depth + 1)
            xs[cfg.depth] = x
            for m in range(cfg.depth - 1, -1, -1):
                xs[m] = comp.action[ids[m]][xs[m + 1]]
            x_path = tuple(xs)
        yield PathSample(
            trial,
            tuple(comp.elements[i] for i in ids),
            tuple(comp.elements[i] for i in product_ids),
            absorbed,
            x_path,
        )


@dataclass(frozen=True)
class LawEstimate:
    """Empirical law with per-atom counts and binomial standard errors."""

    trials: int
    depth: int
    atoms: tuple[tuple[object, int, float, float], ...]

    def frequency(self, key) -> float:
        for k, _, f, _ in self.atoms:
            if k == key:
                return f
        return 0.0

    def count(self, key) -> int:
        for k, c, _, _ in self.atoms:
            if k == key:
                return c
        return 0


def _estimate_from_counts(counts: dict, keys: Sequence, trials: int, depth: int) -> LawEstimate:
    atoms = []
    for k in keys:
        c = counts.get(k, 0)
        p = c / trials
        atoms.append((k, c, p, sqrt(p * (1 - p) / trials)))
    return LawEstimate(trials, depth, tuple(atoms))


def estimate_law(
    noise: NoiseSpec,
    cfg: SimConfig,
    observable: str = "product",
    entry: Optional[Union[ProbMeasure, int]] = None,
) -> LawEstimate:
    """Empirical law of the depth-long product, or of the state at k = 0.

    The state observable needs an entry law or entry state; the path then
    runs X(-depth) = entry, X(k) = noise(k) applied to X(k-1).
    """
    if observable not in ("product", "state"):
        raise ValueError(f"unknown observable {observable!r}")
    comp = _Compiled(noise)
    run_trial = comp.trial_kernel(cfg.depth)
    counts: dict = {}
    if observable == "product":
        for trial in range(cfg.trials):
            pid, _ = run_trial(trial_stream(cfg.seed, trial))
            key = comp.elements[pid]
            counts[key] = counts.get(key, 0) + 1
        return _estimate_from_counts(counts, list(comp.elements), cfg.trials, cfg.depth)
    if entry is None:
        raise ValueError("the state observable needs an entry law or state")
    sampler, keys = _entry_sampler(_as_entry_measure(noise, entry))
    for trial in range(cfg.trials):
        rng = trial_stream(cfg.seed, trial)
        pid, absorbed_at = run_trial(rng)
        _skip_to_window_end(rng, cfg.depth, absorbed_at)
        x = keys[sampler.draw(rng)]
        y = comp.action[pid][x]
        counts[y] = counts.get(y, 0) + 1
    return _estimate_from_counts(
        counts, list(range(noise.space.size)), cfg.trials, cfg.depth
    )


@dataclass(frozen=True)
class StoppingTimeStats:
    """Absorption-time summary: empirical side plus the exact reference.

    ``exact_mean`` is None when absorption is not almost sure; then
    ``infinite_mass`` carries the exact probability of never absorbing and
    the empirical side reports the frequency of trials that never absorbed
    within the simulated depth.
    """

    trials: int
    depth: int
    absorbed: int
    unabsorbed: int
    empirical_mean: Optional[float]
    empirical_stderr: Optional[float]
    median: Optional[int]
    q90: Optional[int]
    exact_mean: Optional[Fraction]
    infinite_mass: Fraction


def _exact_absorption(comp: _Compiled) -> tuple[Optional[Fraction], Fraction]:
    """Exact E[T] and P(T = infinity) for the generalized absorption time.

    E[T] = sum over t >= 0 of P(T > t).  Over the prefix, `product_laws`
    steps the law of the product; from the first all-tail time on, the rest
    is the expected absorption time of the homogeneous product chain, solved
    exactly via the fundamental matrix on its transient states.  Under the
    tail, singleton closed classes are the absorbing products and larger ones
    are never left, so entering them means T = infinity.
    """
    m = len(comp.elements)
    # the laws after t = 1..steps factors; head is P(T > t) for t < steps
    *earlier, law = comp.noise.product_laws(max(comp.prefix_len, 1))
    head = Fraction(0)
    for stage, seen in zip(comp.stages, earlier):
        head += sum(w for i, w in seen.items() if i not in stage.absorbing)
    # one tail step from each product: the rows of the product chain
    out = comp.noise.tail_rows(range(m))
    classes = closed_classes([sorted(row) for row in out])
    absorbing = {members[0] for members in classes if len(members) == 1}
    never = {v for members in classes if len(members) > 1 for v in members}
    transient = [i for i in range(m) if i not in absorbing and i not in never]
    pos, identity_minus_q, (into_never,) = transient_system(
        out, transient, dict.fromkeys(never, 0), 1
    )
    hit_never, expected = solve_linear(
        identity_minus_q, [into_never, [Fraction(1)] * len(transient)]
    )
    infinite = Fraction(0)
    total = Fraction(1) + head
    for s, w in law.items():
        if s in absorbing:
            continue
        if s in never:
            infinite += w
        else:
            infinite += w * hit_never[pos[s]]
            total += w * expected[pos[s]]
    if infinite != 0:
        return None, infinite
    return total, Fraction(0)


def stopping_time_stats(noise: NoiseSpec, cfg: SimConfig) -> StoppingTimeStats:
    """Empirical absorption times against the exact fundamental-matrix value."""
    comp = _Compiled(noise)
    run_trial = comp.trial_kernel(cfg.depth)
    times = []
    unabsorbed = 0
    for trial in range(cfg.trials):
        _, absorbed = run_trial(trial_stream(cfg.seed, trial))
        if absorbed is None:
            unabsorbed += 1
        else:
            times.append(absorbed)
    exact_mean, infinite = _exact_absorption(comp)
    if times:
        mean = sum(times) / len(times)
        var = sum((t - mean) ** 2 for t in times) / len(times)
        stderr = sqrt(var / len(times))
        ordered = sorted(times)
        median = ordered[len(ordered) // 2]
        q90 = ordered[min(len(ordered) - 1, (len(ordered) * 9) // 10)]
    else:
        mean = stderr = None
        median = q90 = None
    return StoppingTimeStats(
        trials=cfg.trials,
        depth=cfg.depth,
        absorbed=len(times),
        unabsorbed=unabsorbed,
        empirical_mean=mean,
        empirical_stderr=stderr,
        median=median,
        q90=q90,
        exact_mean=exact_mean,
        infinite_mass=infinite,
    )


def coupling_samples(
    noise: NoiseSpec,
    first: SolutionLawFamily,
    second: SolutionLawFamily,
    cfg: SimConfig,
) -> Iterator[CouplingSample]:
    """Share the noise, draw the two entries independently, compare at 0.

    The entry for each family is its own law at -depth, which is exactly
    the conditional law of the state given the shared window noise for
    families with remote-past entries.
    """
    comp = _Compiled(noise)
    run_trial = comp.trial_kernel(cfg.depth)
    s1, k1 = _entry_sampler(first.law_at(-cfg.depth))
    s2, k2 = _entry_sampler(second.law_at(-cfg.depth))
    for trial in range(cfg.trials):
        rng = trial_stream(cfg.seed, trial)
        pid, absorbed_at = run_trial(rng)
        _skip_to_window_end(rng, cfg.depth, absorbed_at)
        x1 = k1[s1.draw(rng)]
        x2 = k2[s2.draw(rng)]
        y1 = comp.action[pid][x1]
        y2 = comp.action[pid][x2]
        yield CouplingSample(trial, x1, x2, y1, y2, y1 == y2)


@dataclass(frozen=True)
class CouplingStats:
    trials: int
    depth: int
    collisions: int
    frequency: float
    stderr: float


def ci_coupling(
    noise: NoiseSpec,
    first: SolutionLawFamily,
    second: SolutionLawFamily,
    cfg: SimConfig,
) -> CouplingStats:
    """Collision frequency at k = 0 for two solutions sharing the noise."""
    collisions = sum(1 for s in coupling_samples(noise, first, second, cfg) if s.collision)
    p = collisions / cfg.trials
    return CouplingStats(
        cfg.trials, cfg.depth, collisions, p, sqrt(p * (1 - p) / cfg.trials)
    )


def exact_product_law(noise: NoiseSpec, depth: int) -> ProbMeasure:
    """Exact law of the product of the most recent `depth` factors."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    (law,) = deque(noise.product_laws(depth), maxlen=1)
    element = noise.closure.element
    return ProbMeasure.from_weights(noise.carrier, {element(i): w for i, w in law.items()})


def exact_state_law(
    noise: NoiseSpec, depth: int, entry: Union[ProbMeasure, int]
) -> ProbMeasure:
    """Exact law at k = 0 given the entry law at k = -depth."""
    return act(exact_product_law(noise, depth), _as_entry_measure(noise, entry))


def within_three_sigma(count: int, trials: int, p: Fraction) -> bool:
    """Binomial three-sigma acceptance against an exact probability."""
    if p == 0 or p == 1:
        return count == trials * p
    sigma = sqrt(float(p) * (1 - float(p)) / trials)
    return abs(count / trials - float(p)) <= 3 * sigma
