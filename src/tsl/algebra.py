"""Finite transformation semigroups acting on finite state spaces.

Elements are total maps on {0, ..., n-1} in canonical image-list form.
Composition is (a b)(x) = a(b(x)): the right factor acts first, so products
that grow "into the past" extend on the right.  All containers are immutable
and every enumeration order is deterministic, so identical inputs give
bit-identical outputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
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
            raise ValueError(f"expected {self.size} labels, got {len(self.labels)}")
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
        raise DimensionError(f"cannot compose maps of degree {a.degree} and {b.degree}")
    return TransformationElement(tuple(a.image[v] for v in b.image))


def identity_element(space: StateSpace) -> TransformationElement:
    return TransformationElement(tuple(range(space.size)))


def constant_element(space: StateSpace, target: int) -> TransformationElement:
    return TransformationElement((target,) * space.size)


@dataclass(frozen=True)
class FiniteSemigroup:
    """A finite transformation semigroup stored as its right Cayley graph.

    ``right[a][j]`` is the id of (element a) * (element ``generators[j]``):
    n*|G| entries, the representation of Froidure and Pin (1997), and the
    only product structure stored.  Any other product comes from ``mul``.
    """

    right: tuple[tuple[int, ...], ...]
    generators: tuple[int, ...]
    elements: tuple[TransformationElement, ...]
    space: StateSpace

    def __post_init__(self):
        n, k = len(self.elements), len(self.generators)
        if n == 0:
            raise ValueError("semigroup must be non-empty")
        if k == 0:
            raise ValueError("generator list must be non-empty")
        for g in self.generators:
            if not 0 <= g < n:
                raise ValueError(f"generator id {g} out of range")
        if len(self.right) != n or any(
            len(row) != k or min(row) < 0 or max(row) >= n for row in self.right
        ):
            raise ValueError("right Cayley graph must be n rows of |G| element ids")

    @property
    def size(self) -> int:
        return len(self.elements)

    def mul(self, a: int, b: int) -> int:
        """The id of a * b: composed on first request, then remembered."""
        key = a * len(self.elements) + b
        try:
            return self._products[key]
        except KeyError:
            product = self.element_index[compose(self.elements[a], self.elements[b])]
            self._products[key] = product
            return product

    @cached_property
    def _products(self) -> dict[int, int]:
        return {}

    def left_row(self, a: int) -> list[int]:
        """The id of a * b at each id b, read along the right Cayley graph.

        a * (x * g) = (a * x) * g, so a breadth-first tree of the right graph
        from the generators spells every product with no composition.
        """
        right = self.right
        row = [0] * self.size
        for j, g in enumerate(self.generators):
            row[g] = right[a][j]
        for y, x, j in self._right_tree:
            row[y] = right[row[x]][j]
        return row

    @cached_property
    def _right_tree(self) -> tuple[tuple[int, int, int], ...]:
        """(y, x, j) with y = x * generators[j], for every id y past the
        generators, each x a generator or an earlier y."""
        found = list(dict.fromkeys(self.generators))
        known = set(found)
        tree = []
        for x in found:  # a growing queue
            for j, y in enumerate(self.right[x]):
                if y not in known:
                    known.add(y)
                    found.append(y)
                    tree.append((y, x, j))
        return tuple(tree)

    @cached_property
    def element_index(self) -> Mapping[TransformationElement, int]:
        return {e: i for i, e in enumerate(self.elements)}

    def element(self, i: int) -> TransformationElement:
        return self.elements[i]

    @cached_property
    def idempotent_ids(self) -> tuple[int, ...]:
        return tuple(i for i, e in enumerate(self.elements) if compose(e, e) == e)

    @cached_property
    def power_sets(self) -> tuple[frozenset[int], ...]:
        """The iteration of :func:`power_core`, run once per semigroup.

        ``current * S`` is the right ideal generated by ``current * G``: a
        breadth-first walk over the right Cayley graph.
        """
        right = self.right
        powers = [frozenset(range(self.size))]
        while True:
            start = {b for a in powers[-1] for b in right[a]}
            nxt = frozenset(_reach(start, right.__getitem__))
            if nxt == powers[-1]:
                return tuple(powers)
            powers.append(nxt)


def _reach(start: Iterable[int], successors) -> set[int]:
    """``start`` and every id reachable from it, breadth first."""
    found = list(dict.fromkeys(start))
    known = set(found)
    for x in found:  # a growing queue
        for y in successors(x):
            if y not in known:
                known.add(y)
                found.append(y)
    return known


def _compose_images(a, b):
    """The image of a * b: ``b.translate(a)`` on bytes images, with ``a``
    padded to 256 bytes; ``a`` read at each value of ``b`` on tuples."""
    if type(b) is bytes:
        return b.translate(a)
    return tuple(map(a.__getitem__, b))


def generate_closure(
    space: StateSpace,
    generators: Sequence[TransformationElement],
    cap: Optional[int] = None,
) -> FiniteSemigroup:
    """Close a generator list under composition (Froidure and Pin, 1997).

    Reports index elements in this order: the generators (given order,
    deduplicated) as ids 0..k-1, so generator column j is element j, then
    rounds r = 1, 2, ... sorted by image list, round r holding the elements
    whose shortest word has length L, ceil(log2 L) = r.  Cost: n*|G|
    compositions give the right Cayley graph, which is what the semigroup
    stores.  The element past ``cap`` raises CapacityError.

    On at most 256 states an image is a ``bytes`` string, so each product is
    one ``bytes.translate`` in C and its own dict key, and bytes sort as
    their image lists; above 256 states images stay tuples.  T5 (3,125
    elements) closes in about 9 ms, A7 (2,520) in about 7 ms (16 and 11 ms
    on tuples; Python 3.11, two Xeon vCPUs).
    """
    if not generators:
        raise ValueError("need at least one generator")
    for g in generators:
        if g.degree != space.size:
            raise DimensionError(
                f"generator degree {g.degree} does not match space size {space.size}"
            )
    small = space.size <= 256
    gens = tuple(dict.fromkeys(bytes(g.image) if small else g.image for g in generators))
    pad = bytes(256 - space.size) if small else ()
    k = len(gens)
    if cap is not None and k > cap:
        raise CapacityError(f"closure exceeded the cap of {cap} elements", cap=cap)
    # length[x] letters spell x; right[x * k + j] = x * gens[j]
    images, length, right = list(gens), [1] * k, []
    index = {g: i for i, g in enumerate(gens)}
    for x, image in enumerate(images):  # a growing queue
        a = image + pad
        for g in gens:
            p = _compose_images(a, g)
            y = index.get(p)
            if y is None:
                y = len(images)
                if y == cap:
                    raise CapacityError(f"closure exceeded the cap of {cap} elements", cap=cap)
                index[p] = y
                images.append(p)
                length.append(length[x] + 1)
            right.append(y)
    n = len(images)
    order = [*range(k)] + sorted(
        range(k, n), key=lambda x: ((length[x] - 1).bit_length(), images[x])
    )
    pos = sorted(range(n), key=order.__getitem__)  # the inverse of order
    right = tuple(tuple(map(pos.__getitem__, right[x * k : x * k + k])) for x in order)
    elements = tuple(TransformationElement(tuple(images[x])) for x in order)
    return FiniteSemigroup(right, tuple(range(k)), elements, space)


def full_transformation_monoid(space: StateSpace, cap: Optional[int] = None) -> FiniteSemigroup:
    """All n^n maps on the space, ordered image-list lexicographically.

    Stored as the right Cayley graph over its classical generators: the
    transposition of states 0 and 1, the n-cycle and the map sending 1 to 0,
    deduplicated (on one state all three are the identity).
    """
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
    index = {e.image: i for i, e in enumerate(elements)}
    second = min(1, n - 1)
    swap, merge = list(range(n)), list(range(n))
    swap[0], swap[second] = second, 0
    merge[second] = 0
    cycle = [(x + 1) % n for x in range(n)]
    gens = tuple(dict.fromkeys(index[tuple(g)] for g in (swap, cycle, merge)))
    right = tuple(
        tuple(index[_compose_images(e.image, elements[g].image)] for g in gens)
        for e in elements
    )
    return FiniteSemigroup(right, gens, elements, space)


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
    _, core = power_core(sg)
    return frozenset(
        sg.elements[i].image[x] for i in core for x in range(sg.space.size)
    )


def power_orbit_intersection(sg: FiniteSemigroup) -> frozenset[int]:
    """Intersection over m of the orbit of the m-th power set.

    Independent route to the same set as :func:`core_orbit`; the two are
    compared in tests as an equality check on the underlying lemma.
    """
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
    target = {i: e.image[0] for i, e in enumerate(sg.elements) if e.is_constant()}
    return ElementClassification(
        frozenset(i for i, e in enumerate(sg.elements) if e.is_injective()),
        frozenset(target),
        target,
    )


def is_left_cancellative(sg: FiniteSemigroup) -> bool:
    """True iff a*b1 = a*b2 forces b1 = b2, i.e. every left translate is injective.

    Left multiplication by a product is the composite of its factors' left
    multiplications, so it is enough to check the generators' left translates;
    a permutation's is injective, as g*b determines b.
    """
    return all(
        g.is_injective()
        or len({_compose_images(g.image, e.image) for e in sg.elements}) == sg.size
        for g in map(sg.element, sg.generators)
    )


@dataclass(frozen=True)
class SubgroupDescriptor:
    """A subgroup inside a host semigroup, by member ids.

    ``elements`` carries the transformation forms in member-id order, so
    callers can act with the subgroup without holding the host.
    """

    member_ids: tuple[int, ...]
    identity_id: int
    elements: tuple[TransformationElement, ...]

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
    return frozenset(_reach(seed, lambda x: [sg.mul(x, g) for g in seed]))


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

    For every element g the cycle part of its power orbit is taken: a cyclic
    group even when the closure of {g} is not, and that closure itself when
    it is a group, so only sets of 2..``max_gen`` elements are closed.
    Those sets are drawn from one maximal subgroup at a time.
    Trivial one-element subgroups at idempotents are included; callers filter
    on ``is_trivial``.  Sorted by (order, member_ids), so the first
    non-trivial subgroup with a property is a smallest one.  Raises
    CapacityError when the host exceeds ``cap`` elements.
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

    # g is a group element exactly when it lies in its own cycle part, and
    # its identity e is the one idempotent there.  A subgroup with identity e
    # lies inside the maximal subgroup H_e, the H-class of e (Howie 1995,
    # section 2.2): a set that mixes buckets, or holds a non-group element,
    # never closes to a group, and sum_e C(|H_e|, r) closures remain per r
    # (21 pairs rather than 351 on the full monoid on three points).
    buckets: dict[int, list[int]] = {}  # identity id -> its group elements
    idempotents = frozenset(sg.idempotent_ids)
    for g in range(sg.size):
        cycle = _cycle_part(sg, g)
        consider(cycle)
        if g in cycle:
            (e,) = cycle & idempotents
            buckets.setdefault(e, []).append(g)
    # the closure of {g} is a group only when it is g's cycle part, found above
    for r in range(2, max_gen + 1):
        for bucket in buckets.values():
            for combo in itertools.combinations(bucket, r):
                consider(_closure_ids(sg, combo))

    return tuple(
        SubgroupDescriptor(key, found[key], tuple(sg.elements[i] for i in key))
        for key in sorted(found, key=lambda k: (len(k), k))
    )


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
