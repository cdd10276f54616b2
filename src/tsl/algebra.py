"""Finite transformation semigroups acting on finite state spaces.

Elements are total maps on {0, ..., n-1} in canonical image-list form.
Composition is (a b)(x) = a(b(x)): the right factor acts first, so products
that grow "into the past" extend on the right.  All containers are immutable
and every enumeration order is deterministic (image-list lexicographic), so
identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

from .errors import AmbiguityError, CapacityError, DimensionError

__all__ = [
    "StateSpace",
    "TransformationElement",
    "FiniteSemigroup",
    "SubgroupDescriptor",
    "CosetStructure",
    "ElementClassification",
    "compose",
    "identity_element",
    "constant_element",
    "generate_closure",
    "full_transformation_monoid",
    "power_core",
    "core_orbit",
    "power_orbit_intersection",
    "classify_elements",
    "is_left_cancellative",
    "is_subgroup",
    "find_subgroups",
    "coset_structure",
]


@dataclass(frozen=True)
class StateSpace:
    """A finite, non-empty set of states with distinct display labels."""

    size: int
    labels: tuple[str, ...]

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"state space must be non-empty, got size {self.size}")
        if len(self.labels) != self.size:
            raise ValueError(
                f"expected {self.size} labels, got {len(self.labels)}"
            )
        if len(set(self.labels)) != self.size:
            raise ValueError("state labels must be distinct")

    @classmethod
    def of_size(cls, n: int) -> "StateSpace":
        """State space {0..n-1} labeled 1..n for display."""
        return cls(n, tuple(str(i + 1) for i in range(n)))

    def label(self, x: int) -> str:
        return self.labels[x]


@dataclass(frozen=True, order=True)
class TransformationElement:
    """A total map on states, stored as the tuple (image of 0, image of 1, ...).

    Equality and ordering are by image tuple, which is the canonical form.
    """

    image: tuple[int, ...]

    def __post_init__(self):
        n = len(self.image)
        if n == 0:
            raise ValueError("transformation on an empty state space")
        for v in self.image:
            if not 0 <= v < n:
                raise ValueError(f"image value {v} outside 0..{n - 1}")

    @property
    def degree(self) -> int:
        return len(self.image)

    def apply(self, x: int) -> int:
        return self.image[x]

    def is_constant(self) -> bool:
        return len(set(self.image)) == 1

    def is_injective(self) -> bool:
        return len(set(self.image)) == len(self.image)

    def describe(self, space: Optional[StateSpace] = None) -> str:
        """Render as 1-based image list, e.g. '(2 1 2)'."""
        if space is not None:
            return "(" + " ".join(space.label(v) for v in self.image) + ")"
        return "(" + " ".join(str(v + 1) for v in self.image) + ")"


def compose(a: TransformationElement, b: TransformationElement) -> TransformationElement:
    """Product a b with b acting first: (a b)(x) = a(b(x))."""
    if a.degree != b.degree:
        raise DimensionError(
            f"cannot compose maps of degree {a.degree} and {b.degree}"
        )
    return TransformationElement(tuple(a.image[v] for v in b.image))


def identity_element(space: StateSpace) -> TransformationElement:
    return TransformationElement(tuple(range(space.size)))


def constant_element(space: StateSpace, target: int) -> TransformationElement:
    return TransformationElement((target,) * space.size)


@dataclass(frozen=True)
class FiniteSemigroup:
    """A finite semigroup given by its Cayley table.

    ``cayley[a][b]`` is the id of the product (element a) * (element b).
    Transformation-backed semigroups carry their elements and state space;
    abstract table-only semigroups leave both as None, and operations that
    need the action raise on them.
    """

    cayley: tuple[tuple[int, ...], ...]
    generators: tuple[int, ...]
    elements: Optional[tuple[TransformationElement, ...]] = None
    space: Optional[StateSpace] = None

    def __post_init__(self):
        n = len(self.cayley)
        if n == 0:
            raise ValueError("semigroup must be non-empty")
        for row in self.cayley:
            if len(row) != n or any(not 0 <= v < n for v in row):
                raise ValueError("Cayley table must be square over element ids")
        if self.elements is not None and len(self.elements) != n:
            raise ValueError("element list does not match Cayley table size")
        if not self.generators:
            raise ValueError("generator list must be non-empty")
        for g in self.generators:
            if not 0 <= g < n:
                raise ValueError(f"generator id {g} out of range")

    @classmethod
    def from_cayley(
        cls,
        cayley: Sequence[Sequence[int]],
        generators: Optional[Sequence[int]] = None,
        validate: bool = True,
    ) -> "FiniteSemigroup":
        """Build an abstract semigroup from a raw table, checking associativity."""
        table = tuple(tuple(row) for row in cayley)
        n = len(table)
        if generators is None:
            generators = tuple(range(n))
        sg = cls(table, tuple(generators))
        if validate:
            for a in range(n):
                for b in range(n):
                    ab = table[a][b]
                    for c in range(n):
                        if table[ab][c] != table[a][table[b][c]]:
                            raise ValueError(
                                f"table is not associative at ({a},{b},{c})"
                            )
        return sg

    @property
    def size(self) -> int:
        return len(self.cayley)

    def mul(self, a: int, b: int) -> int:
        return self.cayley[a][b]

    @cached_property
    def element_index(self) -> Mapping[TransformationElement, int]:
        if self.elements is None:
            raise ValueError("semigroup has no transformation elements")
        return {e: i for i, e in enumerate(self.elements)}

    def element(self, i: int) -> TransformationElement:
        if self.elements is None:
            raise ValueError("semigroup has no transformation elements")
        return self.elements[i]

    @cached_property
    def idempotent_ids(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.size) if self.mul(i, i) == i)

    @cached_property
    def power_sets(self) -> tuple[frozenset[int], ...]:
        """The iteration of :func:`power_core`, run once per semigroup."""
        everything = range(self.size)
        powers = [frozenset(everything)]
        while True:
            nxt = frozenset(self.mul(a, b) for a in powers[-1] for b in everything)
            if nxt == powers[-1]:
                return tuple(powers)
            powers.append(nxt)

    @cached_property
    def identity_id(self) -> Optional[int]:
        for e in range(self.size):
            if all(self.mul(e, x) == x and self.mul(x, e) == x for x in range(self.size)):
                return e
        return None


def generate_closure(
    space: StateSpace,
    generators: Sequence[TransformationElement],
    cap: Optional[int] = None,
) -> FiniteSemigroup:
    """Close a generator list under composition.

    Element order is breadth-first from the generators (kept in given order,
    deduplicated), with each new frontier sorted by image-list lexicographic
    order.  The order is part of the contract: reports index elements by it.
    A cap bounds the closure size; the product that would exceed it raises
    CapacityError at once, before the rest of its round is composed.
    """
    if not generators:
        raise ValueError("need at least one generator")
    for g in generators:
        if g.degree != space.size:
            raise DimensionError(
                f"generator degree {g.degree} does not match space size {space.size}"
            )
    order: list[TransformationElement] = []
    index: dict[TransformationElement, int] = {}
    for g in generators:
        if g not in index:
            index[g] = len(order)
            order.append(g)
    while True:
        fresh = set()
        for a in order:
            for b in order:
                p = compose(a, b)
                if p not in index:
                    fresh.add(p)
                    if cap is not None and len(order) + len(fresh) > cap:
                        raise CapacityError(
                            f"closure exceeded the cap of {cap} elements",
                            cap=cap,
                        )
        if not fresh:
            break
        for p in sorted(fresh):
            index[p] = len(order)
            order.append(p)
    elements = tuple(order)
    cayley = tuple(
        tuple(index[compose(a, b)] for b in elements) for a in elements
    )
    gen_ids = []
    for g in generators:
        gid = index[g]
        if gid not in gen_ids:
            gen_ids.append(gid)
    return FiniteSemigroup(cayley, tuple(gen_ids), elements, space)


def full_transformation_monoid(space: StateSpace, cap: Optional[int] = None) -> FiniteSemigroup:
    """All n^n maps on the space, ordered image-list lexicographically."""
    n = space.size
    total = n**n
    if cap is not None and total > cap:
        raise CapacityError(
            f"full transformation monoid on {n} states has {total} elements, "
            f"exceeding the cap of {cap}",
            cap=cap,
        )
    elements = tuple(
        TransformationElement(img) for img in itertools.product(range(n), repeat=n)
    )
    index = {e: i for i, e in enumerate(elements)}
    cayley = tuple(
        tuple(index[compose(a, b)] for b in elements) for a in elements
    )
    return FiniteSemigroup(cayley, tuple(range(total)), elements, space)


def power_core(sg: FiniteSemigroup) -> tuple[tuple[frozenset[int], ...], frozenset[int]]:
    """Iterated power sets and their fixed point.

    Returns (powers, core) where powers[m] is the set of products of exactly
    m+1 factors and core is the first fixed point of the recursion
    next = current * (whole semigroup).  The core is itself closed under
    the product, which callers may rely on.
    """
    return sg.power_sets, sg.power_sets[-1]


def core_orbit(sg: FiniteSemigroup) -> frozenset[int]:
    """States reachable under the power core: {sigma(x) : sigma in core, x in S}."""
    if sg.elements is None or sg.space is None:
        raise ValueError("core_orbit needs a transformation-backed semigroup")
    _, core = power_core(sg)
    return frozenset(
        sg.elements[i].image[x] for i in core for x in range(sg.space.size)
    )


def power_orbit_intersection(sg: FiniteSemigroup) -> frozenset[int]:
    """Intersection over m of the orbit of the m-th power set.

    Independent route to the same set as :func:`core_orbit`; the two are
    compared in tests as an equality check on the underlying lemma.
    """
    if sg.elements is None or sg.space is None:
        raise ValueError("power_orbit_intersection needs transformation elements")
    powers, _ = power_core(sg)
    states = frozenset(range(sg.space.size))
    result = states
    for level in powers:
        orbit = frozenset(
            sg.elements[i].image[x] for i in level for x in states
        )
        result &= orbit
    return result


@dataclass(frozen=True)
class ElementClassification:
    """Partition of elements into injective and constant maps.

    ``collapse_target`` sends each constant map's id to the state it hits.
    On a one-point space every map is both injective and constant; for two
    or more states the two classes are disjoint.
    """

    cancellative_ids: frozenset[int]
    synchronizing_ids: frozenset[int]
    collapse_target: Mapping[int, int]


def classify_elements(sg: FiniteSemigroup) -> ElementClassification:
    if sg.elements is None:
        raise ValueError("classify_elements needs a transformation-backed semigroup")
    cancellative = []
    synchronizing = []
    target = {}
    for i, e in enumerate(sg.elements):
        if e.is_injective():
            cancellative.append(i)
        if e.is_constant():
            synchronizing.append(i)
            target[i] = e.image[0]
    return ElementClassification(
        frozenset(cancellative), frozenset(synchronizing), dict(target)
    )


def is_left_cancellative(sg: FiniteSemigroup) -> bool:
    """True iff every row of the Cayley table is injective.

    Row a lists the products a*b over all b, so row injectivity says
    a*b1 = a*b2 forces b1 = b2.
    """
    n = sg.size
    return all(len(set(sg.cayley[a])) == n for a in range(n))


@dataclass(frozen=True)
class SubgroupDescriptor:
    """A subgroup inside a host semigroup, by member ids.

    ``elements`` carries the transformation forms when the host has them,
    in member-id order, so callers can act with the subgroup without holding
    the host table.
    """

    member_ids: tuple[int, ...]
    identity_id: int
    elements: Optional[tuple[TransformationElement, ...]] = None

    def __post_init__(self):
        if tuple(sorted(self.member_ids)) != self.member_ids:
            raise ValueError("member_ids must be sorted")
        if self.identity_id not in self.member_ids:
            raise ValueError("identity must be a member")

    @property
    def order(self) -> int:
        return len(self.member_ids)

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    def identity_element(self) -> TransformationElement:
        if self.elements is None:
            raise ValueError("subgroup has no transformation elements")
        return self.elements[self.member_ids.index(self.identity_id)]


def is_subgroup(sg: FiniteSemigroup, members: Iterable[int]) -> Optional[int]:
    """Check the group axioms on a subset; return the identity id or None.

    Closure, a two-sided identity inside the subset, and an inverse for each
    member.  Associativity is inherited from the host.
    """
    ids = sorted(set(members))
    if not ids:
        return None
    member_set = set(ids)
    for a in ids:
        for b in ids:
            if sg.mul(a, b) not in member_set:
                return None
    identity = None
    for e in ids:
        if all(sg.mul(e, x) == x and sg.mul(x, e) == x for x in ids):
            identity = e
            break
    if identity is None:
        return None
    for a in ids:
        if not any(
            sg.mul(a, b) == identity and sg.mul(b, a) == identity for b in ids
        ):
            return None
    return identity


def _closure_ids(sg: FiniteSemigroup, seed: Sequence[int]) -> frozenset[int]:
    known = set(seed)
    frontier = list(known)
    while frontier:
        fresh = []
        for a in list(known):
            for b in frontier:
                for p in (sg.mul(a, b), sg.mul(b, a)):
                    if p not in known:
                        known.add(p)
                        fresh.append(p)
        frontier = fresh
    return frozenset(known)


def _cycle_part(sg: FiniteSemigroup, g: int) -> frozenset[int]:
    # Power orbit g, g^2, ... is a rho shape; its cycle is a cyclic group.
    seen: dict[int, int] = {}
    orbit: list[int] = []
    x = g
    while x not in seen:
        seen[x] = len(orbit)
        orbit.append(x)
        x = sg.mul(x, g)
    return frozenset(orbit[seen[x]:])


def find_subgroups(
    sg: FiniteSemigroup, max_gen: int = 2, cap: int = 64
) -> tuple[SubgroupDescriptor, ...]:
    """All subgroups reachable as closures of at most ``max_gen`` elements.

    Also includes, for every element g, the cycle part of its power orbit
    (a cyclic group even when the closure of {g} is not).  Trivial one-element
    subgroups at idempotents are included; callers filter on ``is_trivial``.
    Raises CapacityError when the host exceeds ``cap`` elements.
    """
    if sg.size > cap:
        raise CapacityError(
            f"subgroup search over {sg.size} elements exceeds the cap of {cap}; "
            f"raise the cap to proceed",
            cap=cap,
        )
    found: dict[tuple[int, ...], int] = {}

    def consider(ids: frozenset[int]) -> None:
        key = tuple(sorted(ids))
        if key in found:
            return
        identity = is_subgroup(sg, ids)
        if identity is not None:
            found[key] = identity

    for g in range(sg.size):
        consider(_cycle_part(sg, g))
    for r in range(1, max_gen + 1):
        for combo in itertools.combinations(range(sg.size), r):
            consider(_closure_ids(sg, combo))

    descriptors = []
    for key in sorted(found, key=lambda k: (len(k), k)):
        elems = None
        if sg.elements is not None:
            elems = tuple(sg.elements[i] for i in key)
        descriptors.append(SubgroupDescriptor(key, found[key], elems))
    return tuple(descriptors)


@dataclass(frozen=True)
class CosetStructure:
    """Right cosets sigma H of a subgroup, with section and factor maps.

    A coset's id is its canonical member tuple (sorted element ids).  The
    section picks the minimum-id member m of each coset; m H equals the coset
    again because left translation by a group member permutes H.
    """

    semigroup: FiniteSemigroup
    subgroup: SubgroupDescriptor
    cosets: tuple[tuple[int, ...], ...]
    coset_of: tuple[int, ...]
    section: tuple[int, ...]

    def coset_index(self, element_id: int) -> int:
        return self.coset_of[element_id]

    def kappa(self, a: int, b: int) -> int:
        """The unique h in H with a = b h, else the subgroup identity.

        Uniqueness can only fail when the host is not left-cancellative; in
        that case the colliding factors are reported as an ambiguity.
        """
        witnesses = [
            h for h in self.subgroup.member_ids if self.semigroup.mul(b, h) == a
        ]
        if len(witnesses) > 1:
            raise AmbiguityError(
                f"factor of {a} over {b} is not unique: ids {witnesses} all work "
                f"(host semigroup is not left-cancellative)"
            )
        if len(witnesses) == 1:
            return witnesses[0]
        return self.subgroup.identity_id


def coset_structure(sg: FiniteSemigroup, subgroup: SubgroupDescriptor) -> CosetStructure:
    """Partition-like map sigma -> sigma H over the whole host semigroup."""
    if is_subgroup(sg, subgroup.member_ids) != subgroup.identity_id:
        raise ValueError("descriptor is not a subgroup of this semigroup")
    coset_keys: list[tuple[int, ...]] = []
    key_index: dict[tuple[int, ...], int] = {}
    coset_of = []
    for sigma in range(sg.size):
        key = tuple(sorted({sg.mul(sigma, h) for h in subgroup.member_ids}))
        if key not in key_index:
            key_index[key] = len(coset_keys)
            coset_keys.append(key)
        coset_of.append(key_index[key])
    order = sorted(range(len(coset_keys)), key=lambda i: coset_keys[i])
    relabel = {old: new for new, old in enumerate(order)}
    cosets = tuple(coset_keys[i] for i in order)
    coset_of_tuple = tuple(relabel[c] for c in coset_of)
    section = tuple(min(c) for c in cosets)
    return CosetStructure(sg, subgroup, cosets, coset_of_tuple, section)
