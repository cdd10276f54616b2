"""Problem contexts: what acts on what.

A context fixes the state space and the ambient semigroup convention.

* ``semigroup``: named maps act on an abstract state space; the ambient
  semigroup for subgroup searches is the full transformation monoid.
* ``group``: a finite group acting on itself by left translation; states and
  group elements are identified, and the ambient semigroup is the group.
* ``cyclic``: the group case specialized to Z/n, which additionally enables
  the character-based machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional, Sequence

from .algebra import (
    FiniteSemigroup,
    StateSpace,
    TransformationElement,
    full_transformation_monoid,
    generate_closure,
)
from .errors import UnsupportedCaseError

__all__ = ["ActionContext", "semigroup_context", "group_context", "cyclic_group_context"]


@dataclass(frozen=True)
class ActionContext:
    space: StateSpace
    kind: Literal["semigroup", "group", "cyclic"]
    group_elements: Optional[tuple[TransformationElement, ...]] = None
    modulus: Optional[int] = None

    def __post_init__(self):
        if self.kind in ("group", "cyclic") and self.group_elements is None:
            raise ValueError(f"{self.kind} context needs its group elements")
        if self.kind == "cyclic" and self.modulus != self.space.size:
            raise ValueError("cyclic context must act on Z/n itself")

    @property
    def is_group(self) -> bool:
        return self.kind in ("group", "cyclic")

    def ambient_semigroup(self, cap: Optional[int] = None) -> FiniteSemigroup:
        """The semigroup that subgroup searches range over."""
        if self.is_group:
            assert self.group_elements is not None
            if cap is not None and len(self.group_elements) > cap:
                raise UnsupportedCaseError(
                    f"group of order {len(self.group_elements)} exceeds the cap of {cap}"
                )
            return generate_closure(self.space, list(self.group_elements))
        return full_transformation_monoid(self.space, cap=cap)

    def state_product(self, x: int, g: int) -> int:
        """Group product of two states (group contexts only).

        States are group elements there; x * g is the left translation of g
        evaluated nowhere, i.e. the image of x under right translation by g.
        Implemented through the element table: translation by x applied to g.
        """
        if not self.is_group:
            raise UnsupportedCaseError("states form a group only in group contexts")
        assert self.group_elements is not None
        return self.group_elements[x].image[g]

    def element_state(self, e: TransformationElement) -> int:
        """The group element a translation map represents (its value at the identity).

        In group contexts state 0 is the group identity by construction, so a
        left translation by g sends 0 to g.
        """
        if not self.is_group:
            raise UnsupportedCaseError("elements name states only in group contexts")
        return e.image[0]


def semigroup_context(space: StateSpace) -> ActionContext:
    return ActionContext(space, "semigroup")


def group_context(cayley: Sequence[Sequence[int]]) -> ActionContext:
    """A finite group acting on itself, given by a Cayley table.

    Element 0 must be the identity (rows and columns are checked).  The
    translations x -> g x become the transformation elements.
    """
    n = len(cayley)
    table = tuple(tuple(row) for row in cayley)
    space = StateSpace.of_size(n)
    if any(table[0][x] != x for x in range(n)) or any(
        table[x][0] != x for x in range(n)
    ):
        raise ValueError("element 0 must be the group identity")
    elements = tuple(TransformationElement(table[g]) for g in range(n))
    sg = generate_closure(space, list(elements))
    if sg.size != n:
        raise ValueError("table is not closed as a group of translations")
    for g in range(n):
        if not elements[g].is_injective():
            raise ValueError(f"row {g} is not a permutation; not a group")
    return ActionContext(space, "group", elements)


def cyclic_group_context(n: int) -> ActionContext:
    """Z/n acting on itself by addition."""
    if n < 1:
        raise ValueError("modulus must be positive")
    space = StateSpace(n, tuple(str(i) for i in range(n)))
    elements = tuple(
        TransformationElement(tuple((g + x) % n for x in range(n))) for g in range(n)
    )
    return ActionContext(space, "cyclic", elements, modulus=n)
