"""The one generator of noise problems that the property tests draw from.

`problems` draws a whole problem file: `space N` with named maps, or
`group Z N`; an i.i.d. law and up to three `noise at K` stages, with gaps that
the tail fills; weights over mixed denominators, 1/10^60 among them.  Each
draw comes back as a `Problem`: the parsed spec, the context and noise that
`compile_problem` builds from it, an entry law on the states and a depth.
`problem` turns a short problem text into the same, for `@example` cases,
and `every_problem` runs a test on the drawn problems and on every carried
example.  Each exact fast path has one such test that holds it to its
independent reference in `oracles`, so every fast path meets its reference
on the same problems (McKeeman, "Differential testing for software",
*Digital Technical Journal* 10(1), 1998).
"""

from __future__ import annotations

from fractions import Fraction
from random import Random
from typing import NamedTuple

from hypothesis import example, given, strategies as st

from tsl import (
    ActionContext,
    CapacityError,
    NoiseSpec,
    ProbMeasure,
    StateSpace,
    TransformationElement,
    generate_closure,
    state_carrier,
)
from tsl.cli import ProblemSpec, compile_problem, parse_spec

RARE = Fraction(1, 10**60)
# a weight below 1/k in a law of k atoms is one of these over k: each has a
# prime denominator of its own
SHARES = [Fraction(n, d) for d in (2, 3, 5, 7, 11) for n in range(1, d)]
# (maps, closure elements, N of `group Z N`) at most: the dense references
# solve over every product, so larger closures are redrawn; wide problems
# take every closure on 1-4 states (|T4| = 256)
NARROW = (3, 64, 8)
WIDE = (4, 256, 12)


class Problem(NamedTuple):
    """A problem file as the library sees it, an entry law on its states, and
    the depth to which a fast path steps its laws."""

    spec: ProblemSpec
    context: ActionContext
    noise: NoiseSpec
    entry: ProbMeasure
    depth: int

    def laws(self, count: int) -> list[ProbMeasure]:
        """The noise laws at k = 0, -1, ..., -(count - 1): pairwise distinct
        when the problem was drawn with ``laws=count``."""
        return [self.noise.measure_at(-m) for m in range(count)]


def _compiled(spec: ProblemSpec, entry_weights, depth: int) -> Problem:
    compiled = compile_problem(spec)
    car = state_carrier(compiled.context.space)
    total = sum(entry_weights)
    entry = ProbMeasure.from_weights(
        car, {x: Fraction(w, total) for x, w in enumerate(entry_weights)}
    )
    return Problem(spec, compiled.context, compiled.noise, entry, depth)


def problem(text: str, depth: int = 8) -> Problem:
    """The problem of a one-line problem text, `;` between its lines, with a
    uniform entry law."""
    spec = parse_spec(text.replace(";", "\n"))
    return _compiled(spec, [1] * spec.size, depth)


def images(law: ProbMeasure) -> dict:
    """An element law's weights by map image, as the references in `oracles` take laws."""
    return {e.image: w for e, w in law.atoms}


def schedule(noise: NoiseSpec) -> tuple[list[dict], dict]:
    """The prefix laws and the tail law of `noise`, each by map image."""
    return [images(m) for m in noise.prefix], images(noise.tail)


def noise_law(rng: Random, names: list[str], rare: bool) -> tuple[tuple[str, Fraction], ...]:
    """Positive weights on a non-empty set of atoms, in drawn order.

    Each weight but the last lies below 1/k, over a denominator of its own,
    so one law mixes denominators; with ``rare`` the first of them is 1/10^60.
    """
    atoms = rng.sample(names, rng.randint(1, len(names)))
    weights = [rng.choice(SHARES) / len(atoms) for _ in atoms[1:]]
    if rare and weights:
        weights[0] = RARE
    weights.append(1 - sum(weights))
    return tuple(zip(atoms, weights))


def _generators(
    rng: Random, size: int, count: tuple[int, int], max_closure: int, distinct: bool
) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """`count[0]`-`count[1]` maps on `size` states, drawn again until their
    closure has at most `max_closure` elements (and, with `distinct`, until
    no two are equal)."""
    while True:
        maps = [tuple(rng.randrange(size) for _ in range(size)) for _ in range(rng.randint(*count))]
        if distinct and len(set(maps)) < len(maps):
            continue
        try:
            generate_closure(StateSpace.of_size(size), [TransformationElement(m) for m in maps], cap=max_closure)
        except CapacityError:
            continue
        return tuple((f"g{i}", image) for i, image in enumerate(maps))


@st.composite
def problems(
    draw,
    mode: str | None = None,
    rare: bool = True,
    laws: int = 1,
    wide: bool = False,
) -> Problem:
    """A problem in ``mode``, either when None: "semigroup", 1-3 maps on 1-5
    states whose closure has at most 64 elements, or "cyclic", `group Z N`
    with N <= 8; with ``wide``, 1-4 maps, 256 elements and N <= 12.

    Everything comes from one drawn seed.  The i.i.d. law and 0-3 stages at
    times -4..0 each draw their atoms; with ``rare`` one law in every other
    problem gets a weight of 1/10^60 when it has two atoms or more.  With
    ``laws`` > 1 there are stages at 0, -1, ..., -(laws - 2), and the laws at
    0, -1, ..., -(laws - 1) are pairwise distinct, over at least two distinct
    maps.  The entry law puts 0-9 on each state, uniform when all are 0, and
    the depth is 1-40.
    """
    rng = Random(draw(st.integers(0, 2**32)))
    mode = mode or rng.choice(("semigroup", "cyclic"))
    maps, max_closure, max_modulus = WIDE if wide else NARROW
    smallest = 1 if laws == 1 else 2
    if mode == "semigroup":
        size = rng.choice((1, 2, 3, 3, 4, 4, 5, 5)[smallest - 1 :])
        generators = _generators(rng, size, (smallest, maps), max_closure, laws > 1)
        names = [name for name, _ in generators]
    else:
        size, generators = rng.randint(smallest, max_modulus), ()
        names = [str(r) for r in range(size)]
    drawn = rng.sample(range(-4, 1), rng.randint(0, 3))
    times = sorted(set(drawn) | set(range(2 - laws, 1)), reverse=True)
    rare_at = rng.randint(0, 2 * len(times) + 1) if rare else -1
    while True:
        tail, *stages = (noise_law(rng, names, m == rare_at) for m in range(len(times) + 1))
        at = dict(zip(times, stages))
        if len({frozenset(at.get(-m, tail)) for m in range(laws)}) == laws:
            break
    spec = ProblemSpec(mode, size, generators, tail, tuple(zip(times, stages)))
    entry = [rng.randint(0, 9) for _ in range(size)]
    return _compiled(spec, entry if any(entry) else [1] * size, rng.randint(1, 40))


# Problems carried from the examples of the earlier fast-path tests; every
# fast path meets its reference on each of them.
CARRIED = [
    # a group tail: its 24-state class is doubly stochastic, the uniform law ...
    problem("space 4; gen t = 2 1 3 4; gen c = 2 3 4 1; noise iid t:1/2 c:1/2"),
    # ... and a 4-state class whose columns do not sum to 1, the general solve
    problem("space 3; gen a = 2 1 1; gen b = 2 1 2; noise iid a:3/4 b:1/4"),
    # ... the same class entered from the identity
    problem("space 3; gen a = 2 1 1; gen b = 2 1 2; gen e = 1 2 3; noise iid a:3/4 b:1/4; noise at 0 e:1"),
    # a swap and a merge into state 1, half each: states (2/3, 1/3), and an
    # absorbing tail
    problem("space 2; gen s = 2 1; gen z = 1 1; noise iid s:1/2 z:1/2"),
    # a swap that is never left, entered with probability 3/5 and 3/4
    problem("space 2; gen s = 2 1; gen e = 1 2; gen o = 2 2; noise iid s:1; noise at 0 e:3/5 o:2/5"),
    problem("space 2; gen s = 2 1; gen z = 1 1; gen e = 1 2; noise iid s:1; noise at 0 s:3/4 z:1/4; noise at -1 e:1"),
    # a four-product class the prefix steers around (E[T] = 2); the prefix
    # atom (3 2 2) sorts first, so the tail's closure ids start at 1
    problem("space 3; gen a = 3 2 3; gen b = 3 3 2; gen c = 3 2 2; noise iid a:1/2 b:1/2; noise at 0 c:1"),
    # two aperiodic classes entered with chances 3/4 and 1/4, each weighing
    # its 2 kernel partitions 1/8 and 3/8 per product over a group of order
    # 2: neither the image law nor the partition law is uniform
    problem("space 4; gen c = 4 1 2 3; gen m = 1 1 3 3; noise iid c:1/3 m:2/3"),
    # a pure permutation walk, which never absorbs
    problem("space 3; gen s = 2 1 3; noise iid s:1"),
    # S3, the one subgroup no cycle part gives
    problem("space 3; gen t = 2 1 3; gen c = 2 3 1; noise iid t:1/2 c:1/2"),
    # perfbench's cyc4-rank3, alone and behind a prefix: 48 transient products
    # in 4 blocks, over 3 of its 4 absorbing ones; and its cyc4-rank2
    problem("space 4; gen c = 2 3 4 1; gen m = 1 1 3 4; noise iid c:1/2 m:1/2"),
    problem("space 4; gen c = 2 3 4 1; gen m = 1 1 3 4; noise iid c:1/2 m:1/2; noise at 0 m:1"),
    problem("space 4; gen c = 2 3 4 1; gen r = 1 1 1 4; gen m = 1 1 3 4; noise iid c:1/2 r:1/2; noise at 0 m:1"),
    # a group tail behind a prefix that reaches 3 of the 27 closure ids, with
    # the tail in the gap at -1
    problem("space 3; gen s = 2 1 3; gen t = 1 3 2; gen k = 1 1 2; noise iid s:1/2 t:1/2; noise at 0 k:1; noise at -2 t:1"),
    # a cycle and a constant drawn with probability 10^-60, behind two prefix
    # stages over thirds and sevenths
    problem(f"space 3; gen c = 2 3 1; gen z = 1 1 1; noise iid c:{1 - RARE} z:{RARE}; noise at 0 c:1/3 z:2/3; noise at -1 c:3/7 z:4/7", depth=40),
    # a rotation of Z/3, period-3 families, behind a mixed stage and a gap
    problem("group Z 3; noise iid 1:1; noise at -1 0:1/3 2:2/3"),
]


def every_problem(test):
    """`test(p)` on the problems that `problems()` draws and on every CARRIED one."""
    for p in reversed(CARRIED):
        test = example(p)(test)
    return given(problems())(test)
