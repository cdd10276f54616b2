"""Path simulation with a reproducible, platform-independent RNG.

The generator is SplitMix64; trial t uses its own stream seeded as
(seed + (t+1) * GAMMA) mod 2^64, so results are independent of trial order
and identical on every platform and Python version.  Atoms are sampled by
comparing one 64-bit draw against precomputed integer breakpoints
ceil(c * 2^64) for the cumulative weights c, which is exactly the event
u / 2^64 < c; no floating point enters the sampling path.  The trial kernel
decides each factor from only the bits that fix it: a point-mass factor
needs none, so its draw is not mixed (the stream still moves by GAMMA), and
any other factor is read from a 256-entry guide on the draw's top byte
(Chen & Asau, AIIE Trans. 6, 1974), with the breakpoint search only where a
breakpoint splits that byte's bucket.

The kernel runs the trials in blocks of 256, trial j's state in bits 128j
to 128j + 63 of one int S (see `_pack` for rep and M), and one draw for
every lane is S = (S + GAMMA * rep) & M and the two xorshift-multiply
rounds, with & M before each multiply.  That is exact: every lane holds a
value below 2^64, so a 64 x 64-bit product fits in its 128 bits and carries
into no other lane, and the bits that a right shift moves in from the next
lane land at 64 and above, where the mask clears them before they reach a
multiply.  Byte 16j + 7 of the mixed int, in little-endian order, is the
top byte of lane j's mix, which reads the guide.

Per trial the draw order is fixed: the noise for k = 0, -1, ..., -depth+1
first, then any entry-state draws.  Ids are `NoiseSpec.closure` ids.  The
estimators stop drawing noise once the running product is absorbed, fixed
by every factor still to come, and `_entry_runs` advances the stream in
O(1) to where all depth draws would have left it (SplitMix64 adds GAMMA per
draw), so every result is the one all draws give; `simulate_paths` draws
every factor, as it reports them.  `stopping_time_stats` runs each trial
once for both the absorption times and the product law (its ``products``,
equal to `estimate_law`'s).  Estimators report binomial standard errors
against exact references from the measure layer (for the absorption times,
`measures.kernel_absorption` on kernel partitions), so tests can hold
simulation against closed form at three sigma.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress, groupby
from math import sqrt
from typing import Iterator, NamedTuple, Optional, Union

from .algebra import TransformationElement
from .errors import CarrierMismatchError, InternalInconsistencyError
from .measures import NoiseSpec, ProbMeasure, act, kernel_absorption, state_carrier
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
# trials per block of the trial kernel; absorbed trials retire from it
_BLOCK = 256


def _mix64(z):
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
    """Stream for one trial, reproducible in isolation: the finalizer of seed +
    (trial+1) * GAMMA.  Without it, stream t would be stream 0 advanced t
    draws, and nearby trials would read almost the same windows."""
    return SplitMix64(_mix64((seed + (trial + 1) * GAMMA) & _MASK))


@dataclass(frozen=True)
class SimConfig:
    depth: int = 64
    trials: int = 10000
    seed: int = 1

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be at least 1")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not 0 <= self.seed < (1 << 64):
            raise ValueError("seed must fit in 64 bits")


def _sampler(atoms):
    """(breaks, keys) for exact inverse-CDF sampling of (key, weight) atoms.

    ``keys[bisect_right(breaks, u)]`` is the first key whose cumulative
    weight exceeds u / 2^64: the last breakpoint, 2^64, exceeds every u.
    """
    cum = Fraction(0)
    breaks, keys = [], []
    for key, w in atoms:
        cum += w
        num, den = cum.numerator, cum.denominator
        breaks.append(((num << 64) + den - 1) // den)
        keys.append(key)
    if breaks[-1] != 1 << 64:
        raise InternalInconsistencyError("sampler weights do not sum to one")
    return breaks, keys


class _Stage(NamedTuple):
    """One factor draw: sampler breakpoints, atom ids, the guide, and the
    products that every factor still to come after this one leaves fixed.

    ``guide[b]`` is the atom id of every draw u with top byte b (u >> 56 ==
    b) when no breakpoint splits that bucket, and -1 when one does; there
    the breakpoints decide.  A point mass has no guide (None): its factor is
    the same for every draw.
    """

    breaks: list
    ids: list
    guide: Optional[list]
    absorbing: frozenset


def _guide(breaks, ids):
    """The top-byte guide of a sampler (see `_Stage`), None for a point mass:
    bucket b, the draws b * 2^56 .. (b+1) * 2^56 - 1, is fixed when the first
    breakpoint above its lowest draw lies at or above its end."""
    if len(ids) == 1:
        return None
    guide = []
    for b in range(256):
        i = bisect_right(breaks, b << 56)
        guide.append(ids[i] if breaks[i] >= (b + 1) << 56 else -1)
    return guide


def _stages(noise):
    """One `_Stage` per prefix time, then one for the tail.

    Ids index `NoiseSpec.closure`; ``stages[m]`` draws the factor at time -m,
    the last stage every later one.  Atom ids are also generator columns of
    ``closure.right`` (`generate_closure` numbers the distinct support
    elements 0..k-1): the absorbing sets here and the kernel's products index
    ``right`` by atom id.
    """
    right, plen = noise.closure.right, noise.prefix_length
    stages = []
    later: set = set()  # ids of every factor after stage m, the tail's included
    for m in range(plen, -1, -1):
        later.update(i for i, _ in noise.atom_ids[min(m + 1, plen)])
        absorbing = frozenset(
            i for i, row in enumerate(right) if all(row[f] == i for f in later)
        )
        breaks, ids = _sampler(noise.atom_ids[m])
        stages.append(_Stage(breaks, ids, _guide(breaks, ids), absorbing))
    return stages[::-1]


def _plan(stages, depth):
    """The stages of the factors for k = 0, -1, ..., -depth+1, in draw order."""
    return [stages[min(m, len(stages) - 1)] for m in range(depth)]


def _jump(table, atom, count):
    """The product after `count` factors `atom`, for every row p of ``table``:
    the `count`-th power of p -> table[p][atom] by repeated squaring."""
    step, jump = [row[atom] for row in table], list(range(len(table)))
    while count:
        if count & 1:
            jump = [step[p] for p in jump]
        count >>= 1
        if count:
            step = [step[p] for p in step]
    return jump


def _pack(lanes, incs):
    """(S, M, adds) for streams given as 16 little-endian bytes each: S has
    lane j in bits 128j .. 128j + 127, and with rep the int with a 1 at the
    bottom of every lane, M = (2^64 - 1) * rep and adds[i] = incs[i] * rep."""
    rep = ((1 << (128 * len(lanes))) - 1) // ((1 << 128) - 1)
    return int.from_bytes(b"".join(lanes), "little"), _MASK * rep, [i * rep for i in incs]


def _tables(noise, stages):
    """(byte, rows, tables): the trial kernel's product rows and step tables.

    The rows are those of ``closure.right``, then "no factor yet" (generator
    column j is element j), then "done" for retired lanes, which every factor
    leaves; each other row ends in the split marker, which a split bucket's
    guide entry (-1) picks.  A mixed stage's codes are its distinct guide
    atoms and -1, the marker's code; a point mass's are its atom.  The lanes
    are bytes, with marker 255, when rows x codes <= 256 for every stage;
    past that byte limit the marker is -1.  ``tables[id(stage)]`` is (move,
    guide, k, absorbing) with k codes: ``move[p * k + c]`` is the step of
    product p by the c-th code, so a point mass steps p to ``move[p]``; on
    byte lanes move is a `bytes.translate` table, a mixed stage's
    ``guide[b]`` is the code of bucket b, and ``absorbing`` a 0/1 table.
    """
    closure, done = noise.closure, noise.closure.size + 1
    rows = [*closure.right, closure.generators, [done] * len(closure.generators)]
    cols = {id(s): (*sorted(set(s.guide) - {-1}), -1) if s.guide else s.ids for s in stages}
    byte = len(rows) * max(map(len, cols.values())) <= 256
    rows = [(*row, 255 if byte else -1) for row in rows]
    rows[done] = (done,) * len(rows[done])
    tables = {}
    for stage in stages:
        codes, guide, absorbing = cols[id(stage)], stage.guide, stage.absorbing
        move = [row[a] for row in rows for a in codes]
        if byte:
            move, guide = bytes(move).ljust(256, b"\0"), guide and bytes(map(codes.index, guide))
            absorbing = absorbing and bytes(p in absorbing for p in range(256))
        tables[id(stage)] = move, guide, len(codes), absorbing
    return byte, rows, tables


def _trial_kernel(noise, stages, cfg):
    """Run the trials in trial order: (stream, product id, absorbed_at) each.

    The stream is `trial_stream(cfg.seed, t)`.  ``absorbed_at`` is the first
    count t of factors whose product lies in the absorbing set of stage t-1,
    None if there is none within the depth; every later factor fixes that
    product, so drawing stops after draw t.  The product id is that of all
    ``cfg.depth`` factors either way.

    A factor moves the stream by GAMMA, as `SplitMix64.next_u64` does, and
    mixes it only when the factor depends on the draw.  The guide is read at
    ``z >> 56`` of the mix before the final xorshift, the top byte of the
    draw ``z ^ (z >> 31)`` as ``z >> 31 < 2^33``; a lane in a split bucket
    finishes its draw, so every factor is ``ids[bisect_right(breaks, draw)]``.

    The trials run in blocks of `_BLOCK` (see the module docstring), one
    product id per lane.  On byte lanes (see `_tables`) the product ids are
    bytes and each step is `bytes.translate`: a point mass translates
    them; a mixed step translates the lanes' top bytes to codes, then the
    bytes of ids * codes + code through ``move``, no byte carrying into the
    next as each stays below 256.  Past the byte limit each lane steps on its
    own, ``rows[p][guide[b]]``.  A run of k point-mass factors that cannot
    absorb is one k * GAMMA stream step and one `_jump` map.  After a step
    whose stage can absorb, the absorbed lanes record their products and
    retire to the "done" row; S drops them once at most half are live.
    """
    byte, rows, tables = _tables(noise, stages)
    start, done, marker = len(rows) - 2, len(rows) - 1, rows[0][-1]
    # (factors so far, increment index or None, move, guide, codes, absorbing,
    # breaks, ids): one step per mixed factor, per point-mass factor that can
    # absorb and per maximal run of those that cannot; the increment of a
    # mixed step carries the GAMMAs of the point-mass steps since the last one
    steps, incs, t, inc = [], {}, 0, 0
    for fold, run in groupby(
        _plan(stages, cfg.depth), key=lambda stage: not stage.absorbing and stage.guide is None
    ):
        if fold:
            atoms = [stage.ids[0] for stage in run]
            jump = list(range(len(rows)))
            for atom, same in groupby(atoms):
                power = _jump(rows, atom, sum(1 for _ in same))
                jump = [power[p] for p in jump]
            t, inc = t + len(atoms), inc + len(atoms)
            jump = bytes(jump).ljust(256, b"\0") if byte else jump
            steps.append((t, None, jump, None, 1, None, None, None))
            continue
        for stage in run:
            t, inc, add = t + 1, inc + 1, None
            if stage.guide:
                add, inc = incs.setdefault((inc * GAMMA) & _MASK, len(incs)), 0
            steps.append((t, add, *tables[id(stage)], stage.breaks, stage.ids))
    incs, skip = list(incs), (cfg.depth * GAMMA) & _MASK
    for first in range(0, cfg.trials, _BLOCK):
        rngs = [trial_stream(cfg.seed, t) for t in range(first, min(first + _BLOCK, cfg.trials))]
        # per trial: product id, absorbed_at, stream increment; each lane's trial
        products = [None] * len(rngs)
        times = [None] * len(rngs)
        ends = [skip] * len(rngs)
        trials, live = list(range(len(rngs))), len(rngs)
        s, m, adds = _pack([rng.state.to_bytes(16, "little") for rng in rngs], incs)
        pids = bytes([start] * live) if byte else [start] * live
        for t, add, move, guide, codes, absorbing, breaks, ids in steps:
            if add is None:
                pids = pids.translate(move) if byte else [move[p] for p in pids]
            else:
                s = (s + adds[add]) & m
                z = (((s ^ (s >> 30)) & m) * 0xBF58476D1CE4E5B9) & m
                z = ((z ^ (z >> 27)) & m) * 0x94D049BB133111EB
                lane = z.to_bytes(16 * len(pids), "little")
                if byte:
                    code = int.from_bytes(pids, "little") * codes
                    code += int.from_bytes(lane[7::16].translate(guide), "little")
                    stepped = code.to_bytes(len(pids), "little").translate(move)
                    if marker in stepped:
                        stepped = bytearray(stepped)
                else:
                    stepped = [rows[p][guide[b]] for p, b in zip(pids, lane[7::16])]
                j = -1
                for _ in range(stepped.count(marker)):
                    j = stepped.index(marker, j + 1)
                    u = int.from_bytes(lane[16 * j : 16 * j + 8], "little")
                    stepped[j] = rows[pids[j]][ids[bisect_right(breaks, u ^ (u >> 31))]]
                pids = stepped
            # an empty set would still walk every lane
            if not absorbing:
                continue
            if byte:
                hits = pids.translate(absorbing)
                if 1 not in hits:
                    continue
                pids, hits = bytearray(pids), compress(range(len(pids)), hits)
            elif absorbing.isdisjoint(pids):
                continue
            else:
                hits = [j for j, pid in enumerate(pids) if pid in absorbing]
            for j in hits:
                k = trials[j]
                products[k], times[k], ends[k] = pids[j], t, (t * GAMMA) & _MASK
                pids[j] = done
                live -= 1
            if not live:
                break
            if 2 * live <= len(pids):
                keep = [j for j, pid in enumerate(pids) if pid != done]
                lanes = s.to_bytes(16 * len(pids), "little")
                s, m, adds = _pack([lanes[16 * j : 16 * j + 16] for j in keep], incs)
                trials = [trials[j] for j in keep]
                pids = type(pids)([pids[j] for j in keep])
        if live < len(rngs):
            for j, pid in zip(trials, pids):
                if pid != done:
                    products[j] = pid
            pids = products
        for rng, pid, end, absorbed_at in zip(rngs, pids, ends, times):
            rng.state = (rng.state + end) & _MASK
            yield rng, pid, absorbed_at


def _skip_to_window_end(rng, depth, absorbed_at):
    """Move the stream to where all `depth` factor draws would have left it:
    SplitMix64 adds GAMMA to its state per draw."""
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


def _as_entry_measure(noise, entry):
    if isinstance(entry, int):
        return ProbMeasure.point(state_carrier(noise.space), entry)
    if entry.carrier != state_carrier(noise.space):
        raise CarrierMismatchError("entry law must be a state measure on the noise space")
    return entry


def _entry_runs(noise, cfg, entries):
    """Per trial: (trial, image of the product, one draw from each entry law).

    The kernel, `_skip_to_window_end`, then the entry draws in order: the
    documented draw order.
    """
    samplers = [_sampler(law.atoms) for law in entries]
    elements = noise.closure.elements
    for trial, (rng, pid, absorbed_at) in enumerate(_trial_kernel(noise, _stages(noise), cfg)):
        _skip_to_window_end(rng, cfg.depth, absorbed_at)
        draws = [keys[bisect_right(breaks, rng.next_u64())] for breaks, keys in samplers]
        yield trial, elements[pid].image, draws


def simulate_paths(
    noise: NoiseSpec,
    cfg: SimConfig,
    entry: Optional[Union[ProbMeasure, int]] = None,
) -> Iterator[PathSample]:
    """Generate one PathSample per trial under the documented draw order."""
    plan = _plan(_stages(noise), cfg.depth)
    entry_law = None
    if entry is not None:
        entry_law = _sampler(_as_entry_measure(noise, entry).atoms)
    right, elements = noise.closure.right, noise.closure.elements
    for trial in range(cfg.trials):
        rng = trial_stream(cfg.seed, trial)
        ids = [stage.ids[bisect_right(stage.breaks, rng.next_u64())] for stage in plan]
        product_ids = list(accumulate(ids, lambda p, f: right[p][f]))
        steps = enumerate(zip(product_ids, plan), 1)
        absorbed = next((t for t, (pid, stage) in steps if pid in stage.absorbing), None)
        x_path = None
        if entry_law is not None:
            breaks, keys = entry_law
            xs = [0] * (cfg.depth + 1)
            xs[cfg.depth] = keys[bisect_right(breaks, rng.next_u64())]
            for m in range(cfg.depth - 1, -1, -1):
                xs[m] = elements[ids[m]].image[xs[m + 1]]
            x_path = tuple(xs)
        yield PathSample(
            trial,
            tuple(elements[i] for i in ids),
            tuple(elements[i] for i in product_ids),
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
        return next((f for k, _, f, _ in self.atoms if k == key), 0.0)

    def count(self, key) -> int:
        return next((c for k, c, _, _ in self.atoms if k == key), 0)


def _estimate_from_counts(counts, keys, cfg):
    atoms = []
    for k, c in zip(keys, counts):
        p = c / cfg.trials
        atoms.append((k, c, p, sqrt(p * (1 - p) / cfg.trials)))
    return LawEstimate(cfg.trials, cfg.depth, tuple(atoms))


def _tally(noise, stages, cfg):
    """Run each trial once: product counts by closure id, and the absorption
    times of the trials that absorbed, in trial order."""
    counts = [0] * noise.closure.size
    times = []
    for _, pid, absorbed in _trial_kernel(noise, stages, cfg):
        counts[pid] += 1
        if absorbed is not None:
            times.append(absorbed)
    return counts, times


def estimate_law(
    noise: NoiseSpec,
    cfg: SimConfig,
    observable: str = "product",
    entry: Optional[Union[ProbMeasure, int]] = None,
) -> LawEstimate:
    """Empirical law of the depth-long product, or of the state at k = 0.

    The product law is the one `stopping_time_stats` reports as ``products``.
    The state observable needs an entry law or entry state; the path then
    runs X(-depth) = entry, X(k) = noise(k) applied to X(k-1).
    """
    if observable not in ("product", "state"):
        raise ValueError(f"unknown observable {observable!r}")
    if observable == "product":
        counts, _ = _tally(noise, _stages(noise), cfg)
        return _estimate_from_counts(counts, noise.closure.elements, cfg)
    if entry is None:
        raise ValueError("the state observable needs an entry law or state")
    counts = [0] * noise.space.size
    for _, image, (x,) in _entry_runs(noise, cfg, [_as_entry_measure(noise, entry)]):
        counts[image[x]] += 1
    return _estimate_from_counts(counts, range(noise.space.size), cfg)


@dataclass(frozen=True)
class StoppingTimeStats:
    """Absorption-time summary: empirical side plus the exact reference.

    ``exact_mean`` is None when absorption is not almost sure; then
    ``infinite_mass`` carries the exact probability of never absorbing and
    the empirical side reports the frequency of trials that never absorbed
    within the simulated depth.  ``products`` is the empirical law of the
    depth-long product over the same trials, as `estimate_law` gives it.
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
    products: LawEstimate


def _exact_absorption(noise, stages):
    """Exact E[T] and P(T = infinity) for the generalized absorption time.

    E[T] = sum over t >= 0 of P(T > t).  Over the prefix, `product_laws`
    steps the law of the product in integer numerators over one denominator,
    and each P(T > t) is one Fraction.  From the first all-tail time on,
    `measures.kernel_absorption` gives the rest and P(T = infinity), on the
    kernel partitions of the products from the law after the prefix.
    """
    # the laws after t = 1..steps factors; head is P(T > t) for t < steps
    *earlier, law = noise.product_laws(max(noise.prefix_length, 1))
    head = 0
    for stage, (seen, d) in zip(stages, earlier):
        head += Fraction(sum(n for i, n in seen.items() if i not in stage.absorbing), d)
    steps, infinite = kernel_absorption(noise, law)
    if infinite != 0:
        return None, infinite
    return 1 + head + steps, Fraction(0)


def stopping_time_stats(noise: NoiseSpec, cfg: SimConfig) -> StoppingTimeStats:
    """Empirical absorption times against the exact fundamental-matrix value,
    and the empirical product law, from one run of the trials."""
    stages = _stages(noise)
    counts, times = _tally(noise, stages, cfg)
    exact_mean, infinite = _exact_absorption(noise, stages)
    mean = stderr = median = q90 = None
    if times:
        mean = sum(times) / len(times)
        var = sum((t - mean) ** 2 for t in times) / len(times)
        stderr = sqrt(var / len(times))
        times.sort()  # in place, after the sums that run in trial order
        median = times[len(times) // 2]
        q90 = times[min(len(times) - 1, (len(times) * 9) // 10)]
    return StoppingTimeStats(
        trials=cfg.trials,
        depth=cfg.depth,
        absorbed=len(times),
        unabsorbed=cfg.trials - len(times),
        empirical_mean=mean,
        empirical_stderr=stderr,
        median=median,
        q90=q90,
        exact_mean=exact_mean,
        infinite_mass=infinite,
        products=_estimate_from_counts(counts, noise.closure.elements, cfg),
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
    laws = [first.law_at(-cfg.depth), second.law_at(-cfg.depth)]
    for trial, image, (x1, x2) in _entry_runs(noise, cfg, laws):
        yield CouplingSample(trial, x1, x2, image[x1], image[x2], image[x1] == image[x2])


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
    """Exact law of the product of the most recent `depth` factors.

    Stepped in integer numerators over one denominator; its weights become
    Fractions only here, where `ProbMeasure` checks that they sum to one.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    law, den = deque(noise.product_laws(depth), maxlen=1).pop()
    element = noise.closure.element
    return ProbMeasure.from_weights(
        noise.carrier, {element(i): Fraction(n, den) for i, n in law.items()}
    )


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
