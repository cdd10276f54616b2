"""Exact probability measures and limit analysis of backward products.

Every weight is exact: laws of products are stepped as integer numerators
over one common denominator (`NoiseSpec.step`), and every weight that leaves
that layer is a `fractions.Fraction`, so equality of measures is decidable and
decided exactly.  Floats never enter this module.

The central object is the right-multiplication chain of running products
P(1) = T(1), P(t+1) = P(t) T(t+1) with T(t) drawn i.i.d. from the stationary
tail of the noise.  All limit statements about the backward products reduce
to the recurrent structure of that chain; the finite noise prefix is applied
afterwards as exact left steps on closure ids, and the laws become
`ProbMeasure`s only for the report.

The recurrent classes are the kernel of the tail semigroup, grouped by
image.  That kernel is completely simple, so no linear system runs over
products: each class's entry chance and law come from two small walks, one
on the kernel's images and one on its kernel partitions
(`build_product_chain`).  The partition walk also gives the absorption times
(`kernel_absorption`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import gcd, lcm
from typing import Iterable, Iterator, Literal, Mapping, Optional, Sequence, Union

from .algebra import (
    FiniteSemigroup,
    StateSpace,
    SubgroupDescriptor,
    TransformationElement,
    compose,
    find_subgroups,
    generate_closure,
)
from .context import ActionContext
from .errors import (
    CapacityError,
    CarrierMismatchError,
    InternalInconsistencyError,
    UnsupportedCaseError,
)
from .linear import solve_linear

__all__ = [
    "Carrier",
    "ProbMeasure",
    "NoiseSpec",
    "ProductChain",
    "RecurrentClass",
    "LimitLawReport",
    "element_carrier",
    "state_carrier",
    "convolve",
    "act",
    "tv_distance",
    "is_right_invariant",
    "build_product_chain",
    "limit_analysis",
]

MeasureKey = Union[TransformationElement, int]

# The largest noise closure any analysis or simulation will build.
CLOSURE_CAP = 4096


@dataclass(frozen=True)
class Carrier:
    """What a measure lives on: maps over a space, or the states themselves."""

    space: StateSpace
    kind: Literal["element", "state"]


def element_carrier(space: StateSpace) -> Carrier:
    return Carrier(space, "element")


def state_carrier(space: StateSpace) -> Carrier:
    return Carrier(space, "state")


@dataclass(frozen=True)
class ProbMeasure:
    """A probability measure with exact rational weights.

    Atoms are stored zero-stripped and sorted, so equal measures compare
    equal structurally and iteration order is deterministic.
    """

    carrier: Carrier
    atoms: tuple[tuple[MeasureKey, Fraction], ...]

    def __post_init__(self):
        previous = None
        for key, weight in self.atoms:
            self._check_key(key)
            if not isinstance(weight, Fraction):
                raise ValueError(f"weight of {key!r} is not a Fraction")
            if weight.numerator <= 0:
                raise ValueError(f"weight of {key!r} must be positive, got {weight}")
            order = self._key_sort(key)
            if previous is not None and not previous < order:
                raise ValueError("atoms must be strictly sorted")
            previous = order
        # summed exactly in integers, over the lcm of the denominators
        den = lcm(*(w.denominator for _, w in self.atoms))
        total = sum(w.numerator * (den // w.denominator) for _, w in self.atoms)
        if total != den:
            raise ValueError(f"weights sum to {Fraction(total, den)}, expected 1")

    def _check_key(self, key: MeasureKey) -> None:
        if self.carrier.kind == "element":
            if not isinstance(key, TransformationElement):
                raise ValueError(f"expected an element key, got {key!r}")
            if key.degree != self.carrier.space.size:
                raise CarrierMismatchError(
                    f"element degree {key.degree} does not match space size "
                    f"{self.carrier.space.size}"
                )
        else:
            if not isinstance(key, int) or isinstance(key, bool):
                raise ValueError(f"expected a state key, got {key!r}")
            if not 0 <= key < self.carrier.space.size:
                raise ValueError(f"state {key} outside the space")

    @staticmethod
    def _key_sort(key: MeasureKey):
        if isinstance(key, TransformationElement):
            return key.image
        return (key,)

    @classmethod
    def from_weights(
        cls, carrier: Carrier, weights: Mapping[MeasureKey, Fraction]
    ) -> "ProbMeasure":
        atoms = tuple(
            (k, w if isinstance(w, Fraction) else Fraction(w))
            for k, w in sorted(weights.items(), key=lambda kv: cls._key_sort(kv[0]))
            if w != 0
        )
        return cls(carrier, atoms)

    @classmethod
    def from_numerators(
        cls, carrier: Carrier, numerators: Mapping[MeasureKey, int], denominator: int
    ) -> "ProbMeasure":
        """Weight n / denominator at each key, each distinct n reduced once."""
        weight = {n: Fraction(n, denominator) for n in set(numerators.values())}
        keys = sorted((k for k, n in numerators.items() if n), key=cls._key_sort)
        return cls(carrier, tuple((k, weight[numerators[k]]) for k in keys))

    @classmethod
    def point(cls, carrier: Carrier, key: MeasureKey) -> "ProbMeasure":
        return cls(carrier, ((key, Fraction(1)),))

    @classmethod
    def uniform(cls, carrier: Carrier, keys: Iterable[MeasureKey]) -> "ProbMeasure":
        keys = sorted(set(keys), key=cls._key_sort)
        if not keys:
            raise ValueError("uniform measure needs at least one atom")
        w = Fraction(1, len(keys))
        return cls(carrier, tuple((k, w) for k in keys))

    @property
    def support(self) -> tuple[MeasureKey, ...]:
        return tuple(k for k, _ in self.atoms)

    def weight(self, key: MeasureKey) -> Fraction:
        for k, w in self.atoms:
            if k == key:
                return w
        return Fraction(0)

    def items(self) -> tuple[tuple[MeasureKey, Fraction], ...]:
        return self.atoms

    def pushforward(self, f) -> "ProbMeasure":
        return ProbMeasure.from_weights(self.carrier, _summed((f(k), w) for k, w in self.atoms))


def _summed(pairs: Iterable[tuple]) -> dict:
    """The weights of (key, weight) pairs, summed by key."""
    out: dict = {}
    for k, w in pairs:
        out[k] = out.get(k, 0) + w
    return out


def mix(measures: Sequence[ProbMeasure], weights: Sequence[Fraction]) -> ProbMeasure:
    """Exact convex combination; weights must sum to 1."""
    if not measures:
        raise ValueError("nothing to mix")
    carrier = measures[0].carrier
    if any(m.carrier != carrier for m, _ in zip(measures, weights)):
        raise CarrierMismatchError("mixture components live on different carriers")
    pairs = ((k, w * v) for m, w in zip(measures, weights) for k, v in m.atoms)
    return ProbMeasure.from_weights(carrier, _summed(pairs))


def convolve(mu1: ProbMeasure, mu2: ProbMeasure) -> ProbMeasure:
    """(mu1 * mu2)(c) = sum of mu1(a) mu2(b) over factorizations c = a b."""
    if mu1.carrier != mu2.carrier or mu1.carrier.kind != "element":
        raise CarrierMismatchError("convolution needs two element measures on one space")
    pairs = ((compose(a, b), wa * wb) for a, wa in mu1.atoms for b, wb in mu2.atoms)
    return ProbMeasure.from_weights(mu1.carrier, _summed(pairs))


def act(mu: ProbMeasure, lam: ProbMeasure) -> ProbMeasure:
    """(mu * lam)(y) = sum over sigma(x) = y of mu(sigma) lam(x)."""
    if mu.carrier.kind != "element" or lam.carrier.kind != "state":
        raise CarrierMismatchError("act needs an element measure and a state measure")
    if mu.carrier.space != lam.carrier.space:
        raise CarrierMismatchError("element and state measures live on different spaces")
    pairs = ((sigma.image[x], ws * wx) for sigma, ws in mu.atoms for x, wx in lam.atoms)
    return ProbMeasure.from_weights(lam.carrier, _summed(pairs))


def tv_distance(m1: ProbMeasure, m2: ProbMeasure) -> Fraction:
    """Total variation distance, exact."""
    if m1.carrier != m2.carrier:
        raise CarrierMismatchError("total variation needs a shared carrier")
    keys = {*m1.support, *m2.support}
    total = sum(abs(m1.weight(k) - m2.weight(k)) for k in keys)
    return total / 2


def is_right_invariant(nu: ProbMeasure, subgroup: SubgroupDescriptor) -> bool:
    """True iff the pushforward by every right factor from the subgroup fixes nu."""
    if nu.carrier.kind != "element":
        raise CarrierMismatchError("right invariance is about element measures")
    # no weights need summing: a factor that merges two atoms shrinks the
    # support, so the moved dict differs from nu's either way
    weights = dict(nu.atoms)
    return all(
        {compose(sigma, h): w for sigma, w in nu.atoms} == weights
        for h in subgroup.elements
    )


@dataclass(frozen=True)
class NoiseSpec:
    """Noise law per time k <= 0: a finite prefix over a stationary tail.

    ``prefix[m]`` is the law at k = -m; every k below the prefix uses
    ``tail``.  An empty prefix is the i.i.d. case.
    """

    tail: ProbMeasure
    prefix: tuple[ProbMeasure, ...] = ()

    def __post_init__(self):
        if self.tail.carrier.kind != "element":
            raise CarrierMismatchError("noise must be a measure over elements")
        for m in self.prefix:
            if m.carrier != self.tail.carrier:
                raise CarrierMismatchError("all noise measures must share one carrier")

    @property
    def carrier(self) -> Carrier:
        return self.tail.carrier

    @property
    def space(self) -> StateSpace:
        return self.tail.carrier.space

    @property
    def prefix_length(self) -> int:
        return len(self.prefix)

    def measure_at(self, k: int) -> ProbMeasure:
        if k > 0:
            raise ValueError(f"noise is indexed by k <= 0, got {k}")
        return self.prefix[-k] if -k < len(self.prefix) else self.tail

    def support_elements(self) -> tuple[TransformationElement, ...]:
        return tuple(sorted({e for m in (self.tail, *self.prefix) for e in m.support}))

    @cached_property
    def closure(self) -> FiniteSemigroup:
        """The closure of the support, built once; CapacityError past CLOSURE_CAP."""
        return generate_closure(self.space, self.support_elements(), cap=CLOSURE_CAP)

    @cached_property
    def atom_ids(self) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
        """Each prefix law, then the tail law, as (closure id, weight) pairs."""
        index = self.closure.element_index
        laws = (*self.prefix, self.tail)
        return tuple(tuple((index[e], w) for e, w in mu.atoms) for mu in laws)

    @cached_property
    def atom_numerators(self) -> tuple:
        """Each stage of `atom_ids` as a law of one factor, as `step` holds laws."""
        out = []
        for atoms in self.atom_ids:
            d = lcm(*(w.denominator for _, w in atoms))
            out.append(({i: int(w * d) for i, w in atoms}, d))
        return tuple(out)

    def step(self, law: tuple, stage: tuple) -> tuple:
        """The law after one more factor drawn from `stage`, on the right.

        A law is (numerator by closure id, denominator): numerators and
        denominators multiply, and nothing is reduced.
        """
        right = self.closure.right
        out = {}
        for p, n in law[0].items():
            row = right[p]
            for f, nf in stage[0].items():
                out[row[f]] = out.get(row[f], 0) + n * nf
        return out, law[1] * stage[1]

    def product_laws(self, depth: int) -> Iterator[tuple]:
        """Exact laws of the products of the first t factors, t = 1..depth.

        Each is held as `step` holds laws.  The first is the cached first
        stage of `atom_numerators` itself, so the laws are read, never written.
        """
        stages = (self.atom_numerators[min(m, self.prefix_length)] for m in range(depth))
        return accumulate(stages, self.step)

    def tail_rows(self, products: Iterable[int]) -> list[dict[int, int]]:
        """One tail step from each product: its successors' ids and numerators.

        The numerators are over the tail stage's denominator.
        """
        return [self.step(({p: 1}, 1), self.atom_numerators[-1])[0] for p in products]

    def is_iid(self) -> bool:
        return all(m == self.tail for m in self.prefix)

    def window(self, cycle: Sequence, depth: int, apply) -> tuple:
        """(k, law) for k = 0 .. -depth, law(k) = apply(k, law(k-1)).

        From the prefix down only the tail acts, so there the laws repeat the
        tail-consistent ``cycle`` as `SolutionLawFamily.law_at` indexes it.
        """
        below = range(-depth, 1 - self.prefix_length)
        laws = [cycle[(-k - depth - 1) % len(cycle)] for k in below]
        for k in range(1 - self.prefix_length, 1):
            laws.append(apply(k, laws[-1]))
        return tuple(zip(range(0, -len(laws), -1), reversed(laws)))


def _left_step(stage: tuple, law: tuple, rows: Mapping) -> tuple:
    """The law after one more factor drawn from `stage`, on the left.

    Both are held as `NoiseSpec.step` holds laws, and ``rows[a][b]`` is the
    id of a b: the mirror of `step`, which multiplies on the right.
    """
    out = {}
    for a, na in stage[0].items():
        row = rows[a]
        for b, nb in law[0].items():
            c = row[b]
            out[c] = out.get(c, 0) + na * nb
    return out, stage[1] * law[1]


def _same_law(a: tuple, b: tuple) -> bool:
    """Whether two laws, held as `NoiseSpec.step` holds laws, are equal."""
    (na, da), (nb, db) = a, b
    return na.keys() == nb.keys() and all(n * db == nb[i] * da for i, n in na.items())


@dataclass(frozen=True)
class RecurrentClass:
    member_ids: tuple[int, ...]
    period: int
    absorption: Fraction
    stationary: tuple[tuple[int, Fraction], ...]

    @property
    def is_singleton(self) -> bool:
        return len(self.member_ids) == 1


@dataclass(frozen=True)
class ProductChain:
    """Markov chain of running products over the tail support closure.

    ``rows[i]`` lists the (successor, weight) pairs of state i by successor;
    ``transitions`` is the same matrix dense, built on first read.
    """

    space: StateSpace
    states: tuple[TransformationElement, ...]
    rows: tuple[tuple[tuple[int, Fraction], ...], ...]
    initial: tuple[Fraction, ...]
    recurrent_classes: tuple[RecurrentClass, ...]
    transient_ids: tuple[int, ...]

    @cached_property
    def transitions(self) -> tuple[tuple[Fraction, ...], ...]:
        zero = Fraction(0)
        columns = range(len(self.states))
        return tuple(tuple(r.get(j, zero) for j in columns) for r in map(dict, self.rows))

    @cached_property
    def _positions(self) -> dict[TransformationElement, int]:
        return {e: i for i, e in enumerate(self.states)}

    def state_index(self, e: TransformationElement) -> int:
        try:
            return self._positions[e]
        except KeyError:
            raise ValueError(f"{e!r} is not a state of the chain") from None


def _strongly_connected_components(
    succ: Sequence[Iterable[int]],
) -> list[tuple[list[int], bool]]:
    """Tarjan, iterative: each component sorted, and whether it is closed.

    ``succ[v]`` holds the states one step from v.  A component is closed when
    no step leaves it, and it comes out after every component it reaches.
    """
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[tuple[list[int], bool]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work: list[tuple[int, Optional[Iterator[int]]]] = [(root, None)]
        while work:
            node, successors = work[-1]
            if successors is None:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
                successors = iter(succ[node])
                work[-1] = (node, successors)
            for nxt in successors:
                if index[nxt] == -1:
                    work.append((nxt, None))
                    break
                if on_stack[nxt]:
                    low[node] = min(low[node], index[nxt])
            else:
                work.pop()
                if low[node] == index[node]:
                    comp = []
                    while not comp or comp[-1] != node:
                        comp.append(stack.pop())
                    # a step to a state still on the stack stays in comp: one
                    # to a state below it would have lowered low[node]
                    closed = all(on_stack[t] for v in comp for t in succ[v])
                    for v in comp:
                        on_stack[v] = False
                    components.append((sorted(comp), closed))
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
    return components


def closed_classes(succ: Sequence[Iterable[int]]) -> list[tuple[int, ...]]:
    """The closed strongly connected components, each sorted, in sorted order.

    ``succ[v]`` holds the states reachable from v in one step; a component is
    closed when no step leaves it.  These are the recurrent classes.
    """
    return sorted(tuple(c) for c, closed in _strongly_connected_components(succ) if closed)


def _class_period(members: Sequence[int], succ: Sequence[Iterable[int]]) -> int:
    """The period of the closed class ``members``: the gcd over its steps u -> v
    of level(u) + 1 - level(v), with levels from one breadth-first search."""
    level = {members[0]: 0}
    queue = deque(level)
    while queue:
        u = queue.popleft()
        for v in succ[u]:
            if v not in level:
                level[v] = level[u] + 1
                queue.append(v)
    return gcd(*(level[u] + 1 - level[v] for u in members for v in succ[u])) or 1


def tail_chain(
    noise: NoiseSpec, law: tuple, act=None
) -> tuple[list, list[dict[int, Fraction]], list[Fraction]]:
    """The keys that tail steps reach from ``law``, their rows, and ``law`` on them.

    ``law`` is held as `NoiseSpec.step` holds laws, over closure ids, or with
    ``act`` over keys that a tail map g moves to ``act(key, g.image)``.
    Breadth first: the support of ``law``, then each level's new successors,
    each level sorted (ids by image).  ``out[j]`` maps the position of each
    successor of ``keys[j]`` to its one-step weight; weights are Fractions.
    """
    nums, den = law
    stage, d = noise.atom_numerators[-1]
    order, rows_of = noise.closure.element, noise.tail_rows
    if act is not None:
        order, maps = None, [(noise.closure.element(f).image, n) for f, n in stage.items()]

        def rows_of(keys):
            return [_summed((act(key, g), n) for g, n in maps) for key in keys]

    keys = sorted(nums, key=order)
    index = {k: j for j, k in enumerate(keys)}
    rows: list[dict] = []  # the rows of keys[:len(rows)]
    while len(rows) < len(keys):
        level = rows_of(keys[len(rows):])
        rows.extend(level)
        for q in sorted({q for row in level for q in row if q not in index}, key=order):
            index[q] = len(keys)
            keys.append(q)
    out = [{index[q]: Fraction(n, d) for q, n in row.items()} for row in rows]
    return keys, out, [Fraction(nums.get(k, 0), den) for k in keys]


def absorption(
    out: Sequence[Mapping[int, Fraction]], initial: Sequence[Fraction]
) -> tuple[list[tuple[int, ...]], list[Fraction], tuple[int, ...], Fraction]:
    """The closed classes, and where and how soon the chain from ``initial`` enters them.

    ``out[v]`` maps each successor of state v to its transition weight.  One
    Tarjan pass gives the closed classes, ordered as by `closed_classes`, and
    the transient blocks.  The expected visits y to the transient states solve
    y (I - Q) = initial one block at a time, upstream blocks first.  Returns
    the classes, the probability of entering each, the transient states, and
    the expected number of steps before entering any: the sum of y.
    """
    components = _strongly_connected_components(out)
    classes = sorted(tuple(c) for c, closed in components if closed)
    class_of = {v: k for k, members in enumerate(classes) for v in members}
    transient = tuple(v for v in range(len(out)) if v not in class_of)
    hits = [sum((initial[v] for v in members), Fraction(0)) for members in classes]
    visits = list(initial)  # a transient block's inflow until it is solved
    # Tarjan emits a block after every block it reaches: reversed, upstream first
    for block, closed in reversed(components):
        if closed:
            continue
        at, system = _transposed_rows(block, out)
        for s, y in zip(block, solve_linear(system, [visits[s] for s in block])):
            visits[s] = y
            for t, w in out[s].items():
                if t in class_of:
                    hits[class_of[t]] += y * w
                elif t not in at:
                    visits[t] += y * w
    return classes, hits, transient, sum((visits[s] for s in transient), Fraction(0))


def _transposed_rows(
    members: Sequence[int], out: Sequence[Mapping[int, Fraction]]
) -> tuple[dict[int, int], list[dict[int, Fraction]]]:
    """The position of each member, and the rows of (I - P) transposed on them.

    Row i is column i of I - P: 1 at i, less each step's weight into member i.
    """
    at = {v: j for j, v in enumerate(members)}
    rows = [{j: Fraction(1)} for j in range(len(members))]
    for j, v in enumerate(members):
        for t, w in out[v].items():
            if t in at:
                row = rows[at[t]]
                row[j] = row.get(j, 0) - w
    return at, rows


def _blocks(labels: Iterable) -> tuple[int, ...]:
    """Each point's block by ``labels``, blocks numbered by first point."""
    first: dict = {}
    return tuple(first.setdefault(v, len(first)) for v in labels)


def _pull(kernel: tuple, g: tuple) -> tuple:
    """The kernel partition g^-1(kernel): that of p g when ``kernel`` is p's."""
    return _blocks(kernel[y] for y in g)


def build_product_chain(noise: NoiseSpec) -> ProductChain:
    """Chain of running products under the stationary tail, exact.

    States are the products reachable from the tail support under right
    multiplication by the tail support, in `tail_chain` order, so a closure
    past CLOSURE_CAP raises CapacityError.  A recurrent class is the kernel's
    products with one image I.  The kernel is completely simple, so each
    class's law is a law mu on its images, one nu on its kernel partitions
    and the uniform law on its group H (Hognas & Mukherjea, *Probability
    Measures on Semigroups*, 2011).  By Letac's principle g1 ... gt and
    gt ... g1 have one law (Diaconis & Freedman, *SIAM Review* 41, 1999), so
    the chance of entering a class is mu(I), mu stationary for I -> g(I); a
    member p weighs nu(ker p) / |H|, nu stationary for ker p -> g^-1(ker p).
    Each walk is one closed class, over the kernel's images or partitions.
    """
    ids, out, initial = tail_chain(noise, noise.atom_numerators[-1])
    element = noise.closure.element
    closed = closed_classes(out)
    images = [tuple(sorted(set(element(ids[c[0]]).image))) for c in closed]
    kernels = {v: _blocks(element(ids[v]).image) for c in closed for v in c}

    def law(start: Iterable, act) -> dict:
        keys, moves, _ = tail_chain(noise, (dict.fromkeys(start, 1), 1), act)
        return dict(zip(keys, stationary_on_class(range(len(keys)), moves)))

    mu = law(images, lambda y, g: tuple(sorted({g[x] for x in y})))
    nu = law(kernels.values(), _pull)
    classes = [
        RecurrentClass(
            members, _class_period(members, out), mu[image],
            tuple((v, nu[kernels[v]] / (len(members) // len(nu))) for v in members),
        )
        for members, image in zip(closed, images)
    ]
    recurrent = {v for c in classes for v in c.member_ids}
    return ProductChain(
        noise.space, tuple(map(element, ids)),
        tuple(tuple(sorted(row.items())) for row in out), tuple(initial),
        tuple(classes), tuple(v for v in range(len(out)) if v not in recurrent),
    )


def kernel_absorption(noise: NoiseSpec, law: tuple) -> tuple[Fraction, Fraction]:
    """The tail walk of products from ``law``: the expected number of times,
    ``law``'s included, before it is absorbed, and the chance it never is.

    ``law`` is held as `NoiseSpec.step` holds laws.  Both are `absorption` on
    kernel partitions: p -> p g moves ker p to g^-1(ker p), a lumped chain
    (Kemeny & Snell, *Finite Markov Chains*, §6.3), and p g = p exactly when
    g keeps each point in its block of ker p.
    """
    element = noise.closure.element
    start = _summed((_blocks(element(p).image), n) for p, n in law[0].items())
    kernels, out, initial = tail_chain(noise, (start, law[1]), _pull)
    classes, hits, _, steps = absorption(out, initial)
    maps = [g.image for g in noise.tail.support]
    # an absorbed partition is a closed singleton that every tail map keeps
    # pointwise: tail maps that permute its blocks never fix a product
    never = (
        hit for (first, *_), hit in zip(classes, hits)
        if any(tuple(kernels[first][y] for y in g) != kernels[first] for g in maps)
    )
    return steps, sum(never, Fraction(0))


def stationary_on_class(
    members: Sequence[int], out: Sequence[Mapping[int, Fraction]]
) -> list[Fraction]:
    """Stationary law of the closed class ``members``, aligned with it.

    ``out[v]`` maps each successor of state v to its transition weight.
    Uniform when every column sums to 1, which is pi P = pi for uniform pi;
    else solves pi (I - P) = 0 with the last equation replaced by
    normalization.
    """
    m = len(members)
    _, system = _transposed_rows(members, out)
    if all(sum(row.values()) == 0 for row in system):
        return [Fraction(1, m)] * m
    system[-1] = dict.fromkeys(range(m), Fraction(1))
    pi = solve_linear(system, [0] * (m - 1) + [1])
    if any(v < 0 for v in pi):
        raise InternalInconsistencyError("negative stationary weight")
    return pi


@dataclass(frozen=True)
class LimitLawReport:
    """Limit behavior of the backward products, all parts exact.

    ``nu`` is the limit law of the running tail products when it exists
    (every reachable recurrent class aperiodic); ``cesaro`` always exists.
    ``nu_window``/``cesaro_window`` hold the element law at each represented
    k: the tail fixes its Cesaro limit, so below the prefix that is the base
    law itself, and each prefix stage above pushes it once; a stage that fixes
    the law below it leaves the same measure.  ``p2_subgroup``
    is the smallest non-trivial subgroup certifying convergence modulo a
    subgroup, see module docs for the three conditions.
    """

    noise: NoiseSpec
    chain: ProductChain
    as_convergence: bool
    converges_in_law: bool
    nu: Optional[ProbMeasure]
    nu_window: Optional[tuple[tuple[int, ProbMeasure], ...]]
    cesaro: ProbMeasure
    cesaro_window: tuple[tuple[int, ProbMeasure], ...]
    p2_subgroup: Optional[SubgroupDescriptor]
    p2_qualifying: tuple[SubgroupDescriptor, ...]
    p2_error: Optional[str]

    def window_law(self, k: int) -> ProbMeasure:
        if self.nu_window is None:
            raise UnsupportedCaseError("no limit law; use the cesaro window")
        for kk, m in self.nu_window:
            if kk == k:
                return m
        raise ValueError(f"k={k} outside the analysis window")


def _subgroup_qualifies(
    subgroup: SubgroupDescriptor,
    chain: ProductChain,
    nu: ProbMeasure,
    window: Sequence[tuple[int, ProbMeasure]],
) -> bool:
    # (i) the coset observable is constant on every reachable recurrent
    # class, so the coset-valued products converge almost surely.
    for cls in chain.recurrent_classes:
        cosets = {
            frozenset(compose(chain.states[i], h) for h in subgroup.elements)
            for i in cls.member_ids
        }
        if len(cosets) != 1:
            return False
    # (ii) the limit law is right invariant, exactly, at the tail and at
    # every represented window position; the laws below the prefix are nu.
    if not is_right_invariant(nu, subgroup):
        return False
    for _, m in window:
        if m is not nu and not is_right_invariant(m, subgroup):
            raise InternalInconsistencyError(
                "window law lost right invariance that the tail law has"
            )
    # (iii) the left action of the subgroup on the support of the limit law
    # is simply transitive: the residual limit randomness is one uniform
    # draw over a free orbit.  This pins the canonical subgroup; without it
    # absorbing supports would let arbitrarily small subgroups qualify.
    return all(
        sum(1 for h in subgroup.elements if compose(h, a) == b) == 1
        for a in nu.support
        for b in nu.support
    )


def limit_analysis(
    noise: NoiseSpec,
    context: ActionContext,
    *,
    window: int = 8,
    subgroup_cap: int = 64,
) -> LimitLawReport:
    """Decide convergence of the backward products and describe the limits.

    (a) Almost-sure convergence holds iff every reachable recurrent class of
        the product chain is a singleton (necessarily absorbing).
    (b) Convergence in law holds iff every reachable recurrent class is
        aperiodic; the limit is the absorption-weighted mixture of the
        per-class stationary laws.
    (c) The Cesaro limit is that same mixture and always exists.
    (d) Convergence modulo a subgroup is certified per the three conditions
        in :func:`_subgroup_qualifies`, searched over the ambient semigroup
        smallest-first; a capacity overflow is reported, not raised, so
        (a)-(c) always come back.
    """
    chain = build_product_chain(noise)
    classes = chain.recurrent_classes
    as_convergence = all(c.is_singleton for c in classes)
    converges_in_law = all(c.period == 1 for c in classes)

    # the Cesaro law, as `NoiseSpec.step` holds laws: each class's entry
    # probability times its stationary law, over the lcm of their denominators
    closure = noise.closure
    index, element = closure.element_index, closure.element
    terms = [
        (index[chain.states[i]], c.absorption.numerator * w.numerator,
         c.absorption.denominator * w.denominator)
        for c in classes for i, w in c.stationary
    ]
    den = lcm(*(d for _, _, d in terms))
    law = ({i: n * (den // d) for i, n, d in terms}, den)

    def measure(held: tuple) -> ProbMeasure:
        return ProbMeasure.from_numerators(
            noise.carrier, {element(i): n for i, n in held[0].items()}, held[1]
        )

    # the Cesaro limit of the tail's convolution powers is fixed by the tail,
    # so every window law from the prefix down is the limit law itself; the
    # check composes each product afresh, independent of the chain's rows
    tail = noise.atom_numerators[-1]
    composed = {a: {b: index[compose(element(a), element(b))] for b in law[0]} for a in tail[0]}
    if not _same_law(_left_step(tail, law, composed), law):
        raise InternalInconsistencyError("the tail law does not fix its Cesaro limit")

    # the left row of each prefix factor, once
    prefix_ids = {a for numerators, _ in noise.atom_numerators[:-1] for a in numerators}
    left = {a: closure.left_row(a) for a in prefix_ids}

    def push(k: int, below: tuple) -> tuple:
        above = _left_step(noise.atom_numerators[-k], below[0], left)
        # a stage that fixes the law below it leaves it and its measure:
        # every stage fixes the uniform law on a group
        return below if _same_law(above, below[0]) else (above, measure(above))

    # each prefix stage pushes the law above it once, on ids
    cesaro = measure(law)
    pushed = noise.window(((law, cesaro),), max(window, noise.prefix_length), push)
    cesaro_window = tuple((k, m) for k, (_, m) in pushed)
    nu = cesaro if converges_in_law else None
    nu_window = cesaro_window if converges_in_law else None

    if as_convergence and not converges_in_law:
        raise InternalInconsistencyError("a.s. convergence without convergence in law")

    p2_qualifying: tuple[SubgroupDescriptor, ...] = ()
    p2_error = None
    if nu is not None:
        try:
            ambient = context.ambient_semigroup(cap=subgroup_cap)
            subgroups = find_subgroups(ambient, cap=subgroup_cap)
        except (CapacityError, UnsupportedCaseError) as exc:
            p2_error = str(exc)
            subgroups = ()
        # find_subgroups sorts by (order, member_ids): the first is smallest
        p2_qualifying = tuple(
            sg
            for sg in subgroups
            if not sg.is_trivial and _subgroup_qualifies(sg, chain, nu, nu_window)
        )

    report = LimitLawReport(
        noise=noise,
        chain=chain,
        as_convergence=as_convergence,
        converges_in_law=converges_in_law,
        nu=nu,
        nu_window=nu_window,
        cesaro=cesaro,
        cesaro_window=cesaro_window,
        p2_subgroup=p2_qualifying[0] if p2_qualifying else None,
        p2_qualifying=p2_qualifying,
        p2_error=p2_error,
    )
    if report.converges_in_law and report.nu != report.cesaro:
        raise InternalInconsistencyError("limit law differs from Cesaro limit")
    return report
