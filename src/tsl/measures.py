"""Exact probability measures and limit analysis of backward products.

Everything on the analysis path is a `fractions.Fraction`; equality of
measures is decidable and decided exactly.  Floats never enter this module.

The central object is the right-multiplication chain of running products
P(1) = T(1), P(t+1) = P(t) T(t+1) with T(t) drawn i.i.d. from the stationary
tail of the noise.  All limit statements about the backward products reduce
to the recurrent structure of that chain; the finite noise prefix is applied
afterwards as an exact pushforward.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import gcd
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
        total = Fraction(0)
        previous = None
        for key, weight in self.atoms:
            self._check_key(key)
            if not isinstance(weight, Fraction):
                raise ValueError(f"weight of {key!r} is not a Fraction")
            if weight <= 0:
                raise ValueError(f"weight of {key!r} must be positive, got {weight}")
            if previous is not None and not self._key_sort(previous) < self._key_sort(key):
                raise ValueError("atoms must be strictly sorted")
            previous = key
            total += weight
        if total != 1:
            raise ValueError(f"weights sum to {total}, expected 1")

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
            (k, Fraction(w))
            for k, w in sorted(weights.items(), key=lambda kv: cls._key_sort(kv[0]))
            if w != 0
        )
        return cls(carrier, atoms)

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
        out: dict[MeasureKey, Fraction] = {}
        for k, w in self.atoms:
            kk = f(k)
            out[kk] = out.get(kk, Fraction(0)) + w
        return ProbMeasure.from_weights(self.carrier, out)


def mix(measures: Sequence[ProbMeasure], weights: Sequence[Fraction]) -> ProbMeasure:
    """Exact convex combination; weights must sum to 1."""
    if not measures:
        raise ValueError("nothing to mix")
    carrier = measures[0].carrier
    out: dict[MeasureKey, Fraction] = {}
    for m, w in zip(measures, weights):
        if m.carrier != carrier:
            raise CarrierMismatchError("mixture components live on different carriers")
        for k, v in m.atoms:
            out[k] = out.get(k, Fraction(0)) + w * v
    return ProbMeasure.from_weights(carrier, out)


def convolve(mu1: ProbMeasure, mu2: ProbMeasure) -> ProbMeasure:
    """(mu1 * mu2)(c) = sum of mu1(a) mu2(b) over factorizations c = a b."""
    if mu1.carrier != mu2.carrier or mu1.carrier.kind != "element":
        raise CarrierMismatchError("convolution needs two element measures on one space")
    out: dict[MeasureKey, Fraction] = {}
    for a, wa in mu1.atoms:
        for b, wb in mu2.atoms:
            c = compose(a, b)
            out[c] = out.get(c, Fraction(0)) + wa * wb
    return ProbMeasure.from_weights(mu1.carrier, out)


def act(mu: ProbMeasure, lam: ProbMeasure) -> ProbMeasure:
    """(mu * lam)(y) = sum over sigma(x) = y of mu(sigma) lam(x)."""
    if mu.carrier.kind != "element" or lam.carrier.kind != "state":
        raise CarrierMismatchError("act needs an element measure and a state measure")
    if mu.carrier.space != lam.carrier.space:
        raise CarrierMismatchError("element and state measures live on different spaces")
    out: dict[MeasureKey, Fraction] = {}
    for sigma, ws in mu.atoms:
        for x, wx in lam.atoms:
            y = sigma.image[x]
            out[y] = out.get(y, Fraction(0)) + ws * wx
    return ProbMeasure.from_weights(lam.carrier, out)


def tv_distance(m1: ProbMeasure, m2: ProbMeasure) -> Fraction:
    """Total variation distance, exact."""
    if m1.carrier != m2.carrier:
        raise CarrierMismatchError("total variation needs a shared carrier")
    keys = {k for k, _ in m1.atoms} | {k for k, _ in m2.atoms}
    total = sum((abs(m1.weight(k) - m2.weight(k)) for k in keys), Fraction(0))
    return total / 2


def is_right_invariant(nu: ProbMeasure, subgroup: SubgroupDescriptor) -> bool:
    """True iff the pushforward by every right factor from the subgroup fixes nu."""
    if nu.carrier.kind != "element":
        raise CarrierMismatchError("right invariance is about element measures")
    for h in subgroup.elements:
        if nu.pushforward(lambda sigma: compose(sigma, h)) != nu:
            return False
    return True


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
        idx = -k
        if idx < len(self.prefix):
            return self.prefix[idx]
        return self.tail

    def support_elements(self) -> tuple[TransformationElement, ...]:
        seen = set(self.tail.support)
        for m in self.prefix:
            seen.update(m.support)
        return tuple(sorted(seen))

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

    def step(self, law: Mapping[int, Fraction], atoms: Sequence) -> dict[int, Fraction]:
        """Exact law after one more factor, multiplied on the right, from `atoms`."""
        right = self.closure.right
        out: dict[int, Fraction] = {}
        for p, w in law.items():
            row = right[p]
            for f, wf in atoms:
                out[row[f]] = out.get(row[f], Fraction(0)) + w * wf
        return out

    def product_laws(self, depth: int) -> Iterator[dict[int, Fraction]]:
        """Exact laws of the products of the first t factors, t = 1..depth."""
        first, *later = (self.atom_ids[min(m, self.prefix_length)] for m in range(depth))
        return accumulate(later, self.step, initial=dict(first))

    def tail_rows(self, products: Iterable[int]) -> list[dict[int, Fraction]]:
        """One tail step from each product: its successors' ids and weights."""
        return [self.step({p: Fraction(1)}, self.atom_ids[-1]) for p in products]

    def is_iid(self) -> bool:
        return all(m == self.tail for m in self.prefix)

    def window(self, cycle: Sequence[ProbMeasure], depth: int, apply) -> tuple:
        """(k, law) for k = 0 .. -depth, law(k) = apply(noise at k, law(k-1)).

        From the prefix down only the tail acts, so there the laws repeat the
        tail-consistent ``cycle`` as `SolutionLawFamily.law_at` indexes it.
        """
        below = range(-depth, 1 - self.prefix_length)
        laws = [cycle[(-k - depth - 1) % len(cycle)] for k in below]
        for k in range(1 - self.prefix_length, 1):
            laws.append(apply(self.measure_at(k), laws[-1]))
        return tuple(zip(range(0, -len(laws), -1), reversed(laws)))


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


def _strongly_connected_components(succ: Sequence[Iterable[int]]) -> list[list[int]]:
    """Tarjan, iterative; components come out in a deterministic order."""
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            node, child = work[-1]
            if child == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            successors = list(succ[node])
            while child < len(successors):
                nxt = successors[child]
                child += 1
                if index[nxt] == -1:
                    work[-1] = (node, child)
                    work.append((nxt, 0))
                    advanced = True
                    break
                if on_stack[nxt]:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                comp = []
                while True:
                    v = stack.pop()
                    on_stack[v] = False
                    comp.append(v)
                    if v == node:
                        break
                components.append(sorted(comp))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return components


def closed_classes(succ: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """The closed strongly connected components, each sorted, in sorted order.

    ``succ[v]`` lists the states reachable from v in one step; a component is
    closed when no step leaves it.  These are the recurrent classes.
    """
    components = _strongly_connected_components(succ)
    comp_of = {}
    for ci, comp in enumerate(components):
        for v in comp:
            comp_of[v] = ci
    return sorted(
        tuple(comp)
        for ci, comp in enumerate(components)
        if all(comp_of[t] == ci for v in comp for t in succ[v])
    )


def _class_period(members: Sequence[int], succ: Sequence[Sequence[int]]) -> int:
    base = members[0]
    level = {base: 0}
    queue = deque([base])
    member_set = set(members)
    while queue:
        u = queue.popleft()
        for v in succ[u]:
            if v in member_set and v not in level:
                level[v] = level[u] + 1
                queue.append(v)
    g = 0
    for u in members:
        for v in succ[u]:
            if v in member_set:
                g = gcd(g, level[u] + 1 - level[v])
    return abs(g) if g else 1


def tail_chain(
    noise: NoiseSpec, law: Iterable[int]
) -> tuple[list[int], list[dict[int, Fraction]]]:
    """The closure ids reachable from ``law`` by tail steps, and their rows.

    Breadth first: the support of ``law``, then each level's new successors,
    each level in image order.  ``out[j]`` maps the position of each
    successor of ``ids[j]`` to its one-step weight.
    """
    element = noise.closure.element
    ids = sorted(law, key=element)
    index = {p: j for j, p in enumerate(ids)}
    rows: list[dict[int, Fraction]] = []  # the rows of ids[:len(rows)]
    while len(rows) < len(ids):
        level = noise.tail_rows(ids[len(rows):])
        rows.extend(level)
        for p in sorted({q for row in level for q in row if q not in index}, key=element):
            index[p] = len(ids)
            ids.append(p)
    return ids, [{index[q]: w for q, w in row.items()} for row in rows]


def absorption(
    out: Sequence[Mapping[int, Fraction]],
    targets: Sequence[Sequence[int]],
    initial: Sequence[Fraction],
) -> tuple[tuple[int, ...], list[Fraction], Fraction]:
    """Where and how soon the chain started from ``initial`` enters a target.

    ``out[v]`` maps each successor of state v to its transition weight; each
    target is a group of recurrent states, and together they hold every
    closed class.  The expected visits y to the other, transient, states
    solve y (I - Q) = initial one strongly connected block at a time,
    upstream blocks first, each with one right-hand side.  Returns the
    transient states, the probability of entering each target, and the
    expected number of steps before entering any: the sum of y.
    """
    target_of = {v: k for k, group in enumerate(targets) for v in group}
    transient = tuple(v for v in range(len(out)) if v not in target_of)
    hits = [sum((initial[v] for v in group), Fraction(0)) for group in targets]
    visits = list(initial)  # a transient block's inflow until it is solved
    succ = [() if v in target_of else out[v] for v in range(len(out))]
    # Tarjan emits a block after every block it reaches: reversed, upstream first
    for block in reversed(_strongly_connected_components(succ)):
        if block[0] in target_of:
            continue
        at = {s: j for j, s in enumerate(block)}
        system = [{j: Fraction(1)} for j in range(len(block))]
        for s, j in at.items():
            for t, w in out[s].items():
                if t in at:
                    system[at[t]][j] = system[at[t]].get(j, 0) - w
        (solved,) = solve_linear(system, [[visits[s] for s in block]])
        for s, y in zip(block, solved):
            visits[s] = y
            for t, w in out[s].items():
                if t in target_of:
                    hits[target_of[t]] += y * w
                elif t not in at:
                    visits[t] += y * w
    return transient, hits, sum((visits[s] for s in transient), Fraction(0))


def build_product_chain(noise: NoiseSpec) -> ProductChain:
    """Chain of running products under the stationary tail.

    States are the products reachable from the tail support under right
    multiplication by the tail support, in `tail_chain` order, so a closure
    past CLOSURE_CAP raises CapacityError.
    Transitions, absorption probabilities and per-class stationary laws are
    exact rationals.
    """
    tail = dict(noise.atom_ids[-1])
    ids, out = tail_chain(noise, tail)
    succ = [sorted(row) for row in out]
    recurrent_sets = closed_classes(succ)
    initial = [tail.get(p, Fraction(0)) for p in ids]
    transient, absorptions, _ = absorption(out, recurrent_sets, initial)
    classes = []
    for members, hit in zip(recurrent_sets, absorptions):
        period = _class_period(members, succ)
        stationary = tuple(zip(members, stationary_on_class(members, out)))
        classes.append(RecurrentClass(members, period, hit, stationary))
    return ProductChain(
        noise.space, tuple(map(noise.closure.element, ids)),
        tuple(tuple(sorted(row.items())) for row in out), tuple(initial),
        tuple(classes), transient,
    )


def stationary_on_class(
    members: Sequence[int], out: Sequence[Mapping[int, Fraction]]
) -> list[Fraction]:
    """Stationary law of the closed class ``members``, aligned with it.

    ``out[v]`` maps each successor of state v to its transition weight.
    Uniform when every column sums to 1, which is pi P = pi for uniform pi;
    else solves pi P = pi with the last balance equation replaced by
    normalization.
    """
    m = len(members)
    pos = {v: i for i, v in enumerate(members)}
    system: list[dict[int, Fraction]] = [{j: Fraction(-1)} for j in range(m)]
    for i, v in enumerate(members):
        for t, w in out[v].items():
            balance = system[pos[t]]
            balance[i] = balance.get(i, Fraction(0)) + w
    if all(sum(balance.values()) == 0 for balance in system):
        return [Fraction(1, m)] * m
    system[-1] = dict.fromkeys(range(m), Fraction(1))
    (pi,) = solve_linear(system, [[0] * (m - 1) + [1]])
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
    law itself, and each prefix stage above pushes it once.  ``p2_subgroup``
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


def _coset_of(
    sigma: TransformationElement, subgroup: SubgroupDescriptor
) -> frozenset[TransformationElement]:
    return frozenset(compose(sigma, h) for h in subgroup.elements)


def _subgroup_qualifies(
    subgroup: SubgroupDescriptor,
    chain: ProductChain,
    nu: ProbMeasure,
    window: Sequence[tuple[int, ProbMeasure]],
) -> bool:
    # (i) the coset observable is constant on every reachable recurrent
    # class, so the coset-valued products converge almost surely.
    for cls in chain.recurrent_classes:
        cosets = {_coset_of(chain.states[i], subgroup) for i in cls.member_ids}
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
    support = [s for s in nu.support if isinstance(s, TransformationElement)]
    return all(
        sum(1 for h in subgroup.elements if compose(h, a) == b) == 1
        for a in support
        for b in support
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
    as_convergence = all(c.is_singleton for c in chain.recurrent_classes)
    converges_in_law = all(c.period == 1 for c in chain.recurrent_classes)

    element_car = noise.carrier
    mixture_parts = []
    mixture_weights = []
    for cls in chain.recurrent_classes:
        law = ProbMeasure.from_weights(
            element_car,
            {chain.states[i]: w for i, w in cls.stationary},
        )
        mixture_parts.append(law)
        mixture_weights.append(cls.absorption)
    cesaro = mix(mixture_parts, mixture_weights)

    # the Cesaro limit of the tail's convolution powers is fixed by the tail,
    # so every window law from the prefix down is the limit law itself
    if convolve(noise.tail, cesaro) != cesaro:
        raise InternalInconsistencyError("the tail law does not fix its Cesaro limit")
    cesaro_window = noise.window((cesaro,), max(window, noise.prefix_length), convolve)
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
