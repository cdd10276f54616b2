"""Solution families of the backward recursion and their classification.

A solution is described by its one-dimensional marginal laws: an exact law
per time k in a finite window, plus a periodic rule for every k below the
window.  Every family solves law(k) = noise at k acting on law(k-1), exactly.
The library's own families derive their window from a tail cycle checked
against the tail noise; `make_family` checks the laws a caller gives.

`classify` runs the decision tree over the limit analysis: almost-sure
convergence, convergence modulo a subgroup with cancellativity hypotheses,
group-carrier fallbacks with the cyclic Fourier trichotomy, and an explicit
abstention otherwise.  Verdict notes carry citation tags (strings like
"Thm 4.6") that name the catalogued result backing each claim; the tags are
an output convention required by downstream report consumers, and are kept
in the CITE_* constants below.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Literal, Mapping, Optional, Sequence

from .algebra import SubgroupDescriptor, TransformationElement
from .context import ActionContext
from .errors import (
    CapacityError,
    InternalInconsistencyError,
    MultiplicityError,
    UnsupportedCaseError,
)
from .measures import (
    LimitLawReport,
    NoiseSpec,
    ProbMeasure,
    act,
    closed_classes,
    limit_analysis,
    mix,
    state_carrier,
    stationary_on_class,
)

__all__ = [
    "Origin",
    "SolutionLawFamily",
    "make_family",
    "extremal_solutions",
    "cesaro_solutions",
    "cyclic_coset_families",
    "deterministic_translate_families",
    "uniform_solution",
    "mixture_family",
    "translate_family",
    "translate_orbit_check",
    "joint_window_law",
    "stationary_law",
    "strongness_witness",
    "WitnessReport",
    "fourier_trichotomy",
    "FourierReport",
    "classify",
    "ClassificationReport",
]

# Citation tags attached to classification notes.  Consumers grep for these
# exact strings; keep them stable.
CITE_ALL_STRONG = "Thm 4.2"
CITE_SYNCHRONIZING = "Thm 4.6"
CITE_SYNC_EXAMPLE = "Thm 5.1(ii),(iv)"
CITE_INJECTIVE = "Thm 4.4"
CITE_YW = "Thm 2.14"
CITE_EXTREMAL_FORM = "Lemma 4.1"
CITE_POINT_STRONG = "Prop 4.7"
CITE_POINT_NONSTRONG = "Prop 4.8"
CITE_STRONG_DICHOTOMY = "Thm 4.10"
CITE_UNIFORM = "Thm 3.6"
CITE_TRANSLATES = "Thm 3.7"
CITE_TRICHOTOMY = "Thm 3.3"


@dataclass(frozen=True)
class Origin:
    """How a family was produced; mixtures keep their parts for joint laws."""

    kind: Literal["extremal", "mixture", "uniform-group"]
    entry_state: Optional[int] = None
    weights: Optional[tuple[Fraction, ...]] = None
    parts: Optional[tuple["SolutionLawFamily", ...]] = None

    def describe(self) -> str:
        if self.kind == "extremal":
            return f"extremal(x={self.entry_state})"
        if self.kind == "mixture":
            ws = ", ".join(str(w) for w in self.weights or ())
            return f"mixture({ws})"
        return "uniform-group"


def _minimal_cycle(cycle: tuple[ProbMeasure, ...]) -> tuple[ProbMeasure, ...]:
    n = len(cycle)
    for p in range(1, n + 1):
        if n % p == 0 and cycle == cycle[:p] * (n // p):
            return cycle[:p]
    return cycle


@dataclass(frozen=True)
class SolutionLawFamily:
    """Marginal laws of one solution: a window plus a periodic far past.

    ``window`` holds (k, law) for k = 0 down to -depth.  For k below the
    window the law is ``tail_cycle[(-k - depth - 1) % len(tail_cycle)]``; a
    length-one cycle is the stabilized case.
    """

    window: tuple[tuple[int, ProbMeasure], ...]
    tail_cycle: tuple[ProbMeasure, ...]
    origin: Origin

    @property
    def depth(self) -> int:
        return -self.window[-1][0]

    @property
    def tail_period(self) -> int:
        return len(self.tail_cycle)

    def law_at(self, k: int) -> ProbMeasure:
        if k > 0:
            raise ValueError(f"solutions are indexed by k <= 0, got {k}")
        if k >= -self.depth:
            return self.window[-k][1]
        return self.tail_cycle[(-k - self.depth - 1) % len(self.tail_cycle)]

    def same_laws(self, other: "SolutionLawFamily") -> bool:
        return (
            self.window == other.window
            and _minimal_cycle(self.tail_cycle) == _minimal_cycle(other.tail_cycle)
        )

    def describe(self) -> str:
        return f"{self.origin.describe()} depth={self.depth} period={self.tail_period}"


def _family(
    noise: NoiseSpec, cycle: Sequence[ProbMeasure], depth: int, origin: Origin
) -> SolutionLawFamily:
    """The family whose laws below a window of `depth` repeat `cycle`, checked against the tail."""
    cycle = _minimal_cycle(tuple(cycle))
    if not cycle:
        raise ValueError("empty tail cycle")
    p = len(cycle)
    for j in range(p):
        if act(noise.tail, cycle[(j + 1) % p]) != cycle[j]:
            raise ValueError(f"tail cycle inconsistent at offset {j}")
    return SolutionLawFamily(noise.window(cycle, depth, act), cycle, origin)


def make_family(
    noise: NoiseSpec,
    window_laws: Mapping[int, ProbMeasure],
    tail_cycle: Sequence[ProbMeasure],
    origin: Origin,
) -> SolutionLawFamily:
    """Build a family from given laws and verify the defining relation exactly.

    Raises ValueError when a provided law fails law(k) = noise(k) * law(k-1)
    or when the periodic tail is not consistent with the stationary tail
    noise.
    """
    if not window_laws:
        raise ValueError("empty window")
    ks = sorted(window_laws, reverse=True)
    depth = -ks[-1]
    if ks != list(range(0, -depth - 1, -1)):
        raise ValueError("window keys must be contiguous 0, -1, ..., -depth")
    if depth < noise.prefix_length:
        raise ValueError(
            f"window depth {depth} too small for a prefix of length "
            f"{noise.prefix_length}"
        )
    if not tail_cycle:
        raise ValueError("empty tail cycle")
    for m in [*window_laws.values(), *tail_cycle]:
        if m.carrier != state_carrier(noise.space):
            raise ValueError("family laws must be state measures on the noise space")
    family = _family(noise, tail_cycle, depth, origin)
    for k, expected in reversed(family.window):
        if expected != window_laws[k]:
            raise ValueError(f"law at k={k} does not solve the recursion")
    return family


def _dedupe(pairs: Sequence[tuple[int, SolutionLawFamily]]) -> tuple[tuple[int, SolutionLawFamily], ...]:
    out: list[tuple[int, SolutionLawFamily]] = []
    for x, fam in pairs:
        if not any(kept.same_laws(fam) for _, kept in out):
            out.append((x, fam))
    return tuple(out)


def _entry_point_families(
    noise: NoiseSpec, law: ProbMeasure, depth: int
) -> list[tuple[int, SolutionLawFamily]]:
    """One family per entry state x: the tail-fixed `law` acting on x, pushed up to k = 0."""
    car = state_carrier(noise.space)
    pairs = []
    for x in range(noise.space.size):
        cycle = (act(law, ProbMeasure.point(car, x)),)
        pairs.append((x, _family(noise, cycle, depth, Origin("extremal", entry_state=x))))
    return pairs


def extremal_solutions(
    noise: NoiseSpec,
    context: ActionContext,
    *,
    window: int = 8,
) -> tuple[tuple[int, SolutionLawFamily], ...]:
    """The distinct entry-point families law(k) = nu(k) acting on a point.

    Requires the limit law; each state x yields a family, duplicates are
    dropped keeping the smallest x.  Every extremal solution law is of this
    form when the products converge in law.
    """
    limit = limit_analysis(noise, context, window=window)
    if limit.nu is None:
        raise UnsupportedCaseError(
            "backward products do not converge in law; no entry-point families"
        )
    return _dedupe(_entry_point_families(noise, limit.nu, len(limit.nu_window) - 1))


def cesaro_solutions(
    noise: NoiseSpec,
    context: ActionContext,
    *,
    window: int = 8,
    limit: Optional[LimitLawReport] = None,
) -> tuple[tuple[int, SolutionLawFamily], ...]:
    """Entry-point families built from the Cesaro limit.

    These always satisfy the recursion exactly, but they are only candidate
    extremals: without convergence in law a periodic solution can average
    into one of these without being recovered from it.
    """
    if limit is None:
        limit = limit_analysis(noise, context, window=window)
    return _dedupe(_entry_point_families(noise, limit.cesaro, len(limit.cesaro_window) - 1))


def _require_cyclic(context: ActionContext) -> None:
    if context.kind != "cyclic" or context.modulus is None:
        raise UnsupportedCaseError("operation needs a cyclic group carrier")


def cyclic_coset_families(
    noise: NoiseSpec,
    context: ActionContext,
    *,
    window: int = 8,
) -> tuple[tuple[int, SolutionLawFamily], ...]:
    """Extremal families on a cyclic group, convergent or not.

    The tail support sits inside a single coset of the invariance subgroup
    H read off the Fourier data, so uniform laws on translated cosets solve
    the recursion with a periodic drift.  One family per coset of H; this
    list is the complete set of extremal solutions for cyclic carriers.
    """
    _require_cyclic(context)
    n = context.modulus
    four = fourier_trichotomy(noise, context)
    h = four.h_mu
    g0 = min(context.element_state(e) for e in noise.tail.support)
    drift_order = next(t for t in range(1, n + 1) if (t * g0) % n in h)
    reps = sorted({min((a + e) % n for e in h) for a in range(n)})
    depth = max(window, noise.prefix_length)
    car = state_carrier(noise.space)
    pairs = []
    for a in reps:
        cycle = [
            ProbMeasure.uniform(car, [(a + (-depth - 1 - j) * g0 + e) % n for e in h])
            for j in range(drift_order)
        ]
        pairs.append((a, _family(noise, cycle, depth, Origin("extremal", entry_state=a))))
    return _dedupe(pairs)


def deterministic_translate_families(
    noise: NoiseSpec,
    context: ActionContext,
    *,
    window: int = 8,
) -> tuple[tuple[int, SolutionLawFamily], ...]:
    """Point-mass solutions for point-mass noise on a group carrier."""
    if not context.is_group:
        raise UnsupportedCaseError("translate families need a group carrier")
    if not _all_point_mass(noise):
        raise UnsupportedCaseError("translate families need point-mass noise")
    n = noise.space.size

    def inverse(a: int) -> int:
        for b in range(n):
            if context.state_product(a, b) == 0:
                return b
        raise InternalInconsistencyError(f"state {a} has no inverse")

    def left_factor(k: int) -> int:
        (elem, _), = noise.measure_at(k).atoms
        return context.element_state(elem)

    g_tail = left_factor(-10**9)
    inv_tail = inverse(g_tail)
    drift_order = 1
    acc = g_tail
    while acc != 0:
        acc = context.state_product(g_tail, acc)
        drift_order += 1
    depth = max(window, noise.prefix_length)
    car = state_carrier(noise.space)
    pairs = []
    for x in range(n):
        xs = {0: x}
        for k in range(0, -depth - 1, -1):
            xs[k - 1] = context.state_product(inverse(left_factor(k)), xs[k])
        cycle_states = [xs[-depth - 1]]
        for _ in range(drift_order - 1):
            cycle_states.append(context.state_product(inv_tail, cycle_states[-1]))
        window_laws = {k: ProbMeasure.point(car, xs[k]) for k in range(0, -depth - 1, -1)}
        cycle = tuple(ProbMeasure.point(car, s) for s in cycle_states)
        fam = make_family(noise, window_laws, cycle, Origin("extremal", entry_state=x))
        pairs.append((x, fam))
    return _dedupe(pairs)


def uniform_solution(
    noise: NoiseSpec,
    context: ActionContext,
    *,
    window: int = 8,
) -> SolutionLawFamily:
    """The everywhere-uniform solution; exists exactly on group carriers."""
    if not context.is_group:
        raise UnsupportedCaseError("the uniform solution needs a group carrier")
    n = noise.space.size
    car = state_carrier(noise.space)
    u = ProbMeasure.uniform(car, range(n))
    return _family(noise, (u,), max(window, noise.prefix_length), Origin("uniform-group"))


def mixture_family(
    noise: NoiseSpec,
    families: Sequence[SolutionLawFamily],
    weights: Sequence[Fraction],
) -> SolutionLawFamily:
    """Convex combination of families, law by law."""
    if len(families) != len(weights) or not families:
        raise ValueError("one weight per family")
    depth = families[0].depth
    if any(f.depth != depth for f in families):
        raise ValueError("families must share a window depth")
    weights = [Fraction(w) for w in weights]
    window_laws = {
        k: mix([f.law_at(k) for f in families], weights)
        for k in range(0, -depth - 1, -1)
    }
    period = 1
    for f in families:
        period = lcm(period, f.tail_period)
    cycle = tuple(
        mix([f.tail_cycle[j % f.tail_period] for f in families], weights)
        for j in range(period)
    )
    origin = Origin("mixture", weights=tuple(weights), parts=tuple(families))
    return make_family(noise, window_laws, cycle, origin)


def translate_family(
    noise: NoiseSpec,
    context: ActionContext,
    family: SolutionLawFamily,
    g: int,
) -> SolutionLawFamily:
    """Right translate of a solution by a group state; again a solution."""
    if not context.is_group:
        raise UnsupportedCaseError("translation needs a group carrier")

    def shift(m: ProbMeasure) -> ProbMeasure:
        return m.pushforward(lambda x: context.state_product(x, g))

    window_laws = {k: shift(family.law_at(k)) for k in range(0, -family.depth - 1, -1)}
    cycle = tuple(shift(m) for m in family.tail_cycle)
    return make_family(noise, window_laws, cycle, family.origin)


def translate_orbit_check(
    noise: NoiseSpec,
    context: ActionContext,
    families: Sequence[SolutionLawFamily],
) -> bool:
    """True iff every ordered pair of families is a right translate."""
    if not context.is_group:
        raise UnsupportedCaseError("translate structure needs a group carrier")
    n = noise.space.size
    for f in families:
        for g_fam in families:
            if not any(
                translate_family(noise, context, f, g).same_laws(g_fam)
                for g in range(n)
            ):
                return False
    return True


def joint_window_law(
    noise: NoiseSpec,
    family: SolutionLawFamily,
    depth: int,
) -> dict[tuple, Fraction]:
    """Exact joint law of (X at -depth, noise at -depth+1 .. 0).

    Keys are (entry_state, e1, ..., e_depth) with the elements in
    chronological order.  For extremal and uniform families the entry state
    is independent of the window noise; mixtures are expanded as mixtures
    of their parts, which is what distinguishes them jointly even when the
    one-dimensional marginals agree.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if family.origin.kind == "mixture" and family.origin.parts is not None:
        out: dict[tuple, Fraction] = {}
        for part, w in zip(family.origin.parts, family.origin.weights or ()):
            for key, v in joint_window_law(noise, part, depth).items():
                out[key] = out.get(key, Fraction(0)) + w * v
        return out
    entry = family.law_at(-depth)
    layers = [noise.measure_at(k) for k in range(-depth + 1, 1)]
    out = {}

    def expand(prefix: tuple, weight: Fraction, idx: int) -> None:
        if idx == len(layers):
            out[prefix] = out.get(prefix, Fraction(0)) + weight
            return
        for e, w in layers[idx].atoms:
            expand(prefix + (e,), weight * w, idx + 1)

    for x, wx in entry.atoms:
        expand((x,), wx, 0)
    return out


def stationary_law(mu: ProbMeasure) -> ProbMeasure:
    """Stationary law of the state chain driven by one noise measure.

    The chain moves x to sigma(x) with sigma drawn from mu.  Raises
    MultiplicityError when the chain has several recurrent classes, listing
    them; otherwise returns the unique stationary law, exact.
    """
    if mu.carrier.kind != "element":
        raise ValueError("stationary law needs an element measure")
    n = mu.carrier.space.size
    out: list[dict[int, Fraction]] = [{} for _ in range(n)]
    for sigma, w in mu.atoms:
        assert isinstance(sigma, TransformationElement)
        for x in range(n):
            y = sigma.image[x]
            out[x][y] = out[x].get(y, Fraction(0)) + w
    classes = closed_classes([sorted(row) for row in out])
    if len(classes) != 1:
        shown = ", ".join(
            "{" + ", ".join(mu.carrier.space.label(v) for v in comp) + "}"
            for comp in classes
        )
        raise MultiplicityError(
            f"state chain has {len(classes)} recurrent classes: {shown}",
            classes=tuple(classes),
        )
    (members,) = classes
    pi = stationary_on_class(members, out)
    return ProbMeasure.from_weights(
        state_carrier(mu.carrier.space), dict(zip(members, pi))
    )


@dataclass(frozen=True)
class WitnessReport:
    """Numeric evidence that a family is (or is not) window-measurable."""

    depths: tuple[tuple[int, Fraction], ...]
    residual: Fraction
    verdict_hint: bool


def strongness_witness(
    noise: NoiseSpec,
    family: SolutionLawFamily,
    *,
    depth: int = 24,
    budget: int = 10**6,
) -> WitnessReport:
    """Residual unpredictability of X at 0 from the last `depth` noises.

    Conditionally on the composed product of the window noises, X at 0 is
    the product applied to an independent entry draw; the residual is the
    expected mass left outside the best single guess.  Residual 0 means X
    at 0 is a.s. a function of the window noise at this depth; a residual
    that is small and still shrinking as the depth doubles is reported as a
    positive hint.  This is evidence, not a proof; `classify` is the
    authority.  Laws are stepped on closure ids, so a closure past
    CLOSURE_CAP raises CapacityError, as does a step past `budget`.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    checkpoints = sorted({max(1, depth // 2), depth})
    results = []
    law = dict(noise.atom_ids[0])
    for l in range(1, depth + 1):
        if l > 1:
            atoms = noise.atom_ids[min(l - 1, noise.prefix_length)]
            if len(law) * len(atoms) > budget:
                raise CapacityError(
                    f"product support would exceed the budget at depth {l}",
                    cap=budget,
                )
            law = noise.step(law, atoms)
        if l in checkpoints:
            entry = family.law_at(-l)
            residual = Fraction(0)
            for p, w in law.items():
                image = noise.closure.element(p).image
                cond: dict[int, Fraction] = {}
                for x, wx in entry.atoms:
                    y = image[x]
                    cond[y] = cond.get(y, Fraction(0)) + wx
                residual += w * (1 - max(cond.values()))
            results.append((l, residual))
    final = results[-1][1]
    hint = final < Fraction(1, 1024) and final <= results[0][1]
    return WitnessReport(tuple(results), final, hint)


@dataclass(frozen=True)
class FourierReport:
    """Character-modulus data of the stationary tail on a cyclic carrier."""

    modulus: int
    pi: tuple[int, ...]
    z_mu: tuple[int, ...]
    p_mu: int
    h_mu: tuple[int, ...]
    trichotomy: str


def fourier_trichotomy(noise: NoiseSpec, context: ActionContext) -> FourierReport:
    """Classify a cyclic-carrier tail by which characters keep modulus one.

    Only the stationary tail matters: any finite prefix multiplies finitely
    many moduli into the double limit and cannot change a 0/1 outcome.
    Character p keeps modulus one iff the tail support lies in one coset of
    the kernel of p, an exact integer test.  The set of such p is a
    subgroup; its minimal positive generator p_mu splits the cases:
    p_mu = 0 full decay (C1), p_mu = 1 point masses (C2), p_mu >= 2 proper
    periodic invariance (C3).  h_mu is the annihilator subgroup.
    """
    _require_cyclic(context)
    n = context.modulus
    support = sorted({context.element_state(e) for e in noise.tail.support})
    g0 = support[0]
    z = tuple(
        p for p in range(n) if all((p * (g - g0)) % n == 0 for g in support)
    )
    if 0 not in z:
        raise InternalInconsistencyError("trivial character lost")
    for a in z:
        for b in z:
            if (a + b) % n not in z:
                raise InternalInconsistencyError("modulus-one set is not a subgroup")
    if z == (0,):
        p_mu = 0
    else:
        p_mu = min(p for p in z if p > 0)
        if z != tuple(sorted({(p_mu * t) % n for t in range(n)})):
            raise InternalInconsistencyError("modulus-one set is not cyclic")
    h = tuple(g for g in range(n) if all((p * g) % n == 0 for p in z))
    pi = tuple(1 if p in z else 0 for p in range(n))
    if p_mu == 0:
        case = "C1"
    elif p_mu == 1:
        case = "C2"
    else:
        case = "C3"
    return FourierReport(n, pi, z, p_mu, h, case)


@dataclass(frozen=True)
class ClassificationReport:
    """Verdicts over one noise/carrier pair, with certifying notes.

    `extremals` pairs each family with its smallest producing entry state;
    `certified_extremal` records whether the list is known to be the full
    extremal set.  `pathwise_unique` and `all_extremal_strong` are None
    when the inputs fall outside the catalogued sufficient conditions.
    """

    limit: LimitLawReport
    extremals: tuple[tuple[int, SolutionLawFamily], ...]
    certified_extremal: bool
    unique_in_law: bool
    pathwise_unique: Optional[bool]
    all_extremal_strong: Optional[bool]
    trichotomy: Optional[str]
    fourier: Optional[FourierReport]
    notes: tuple[str, ...]

    @property
    def p1(self) -> bool:
        return self.limit.as_convergence

    @property
    def p2(self) -> Optional[SubgroupDescriptor]:
        return self.limit.p2_subgroup


def _all_point_mass(noise: NoiseSpec) -> bool:
    return all(len(m.support) == 1 for m in (noise.tail, *noise.prefix))


def classify(
    noise: NoiseSpec,
    context: ActionContext,
    *,
    window: int = 8,
    subgroup_cap: int = 64,
) -> ClassificationReport:
    """Decision tree over the limit analysis.

    Branch 1: almost-sure convergence makes every extremal solution strong;
    a synchronizing limit support upgrades to pathwise uniqueness, and an
    injective one is catalogued separately.  Branch 2: convergence modulo a
    qualifying subgroup decides strongness per family by whether some entry
    state has a singleton subgroup orbit, under the hypotheses that the
    semigroup generated by the noise support and the subgroup is left
    cancellative and injective; for maps both hold iff every noise support
    element and every subgroup element is a permutation.
    Branch 3: group carriers without convergence in law get the uniform
    solution and, when cyclic, the Fourier trichotomy.  Otherwise the
    classifier abstains explicitly rather than guess.
    """
    limit = limit_analysis(noise, context, window=window, subgroup_cap=subgroup_cap)
    notes: list[str] = []
    fourier = (
        fourier_trichotomy(noise, context) if context.kind == "cyclic" else None
    )
    trichotomy = fourier.trichotomy if fourier is not None else None

    if limit.nu is not None:
        entries = _entry_point_families(noise, limit.nu, len(limit.nu_window) - 1)
        extremals = _dedupe(entries)
        certified = True
        notes.append(
            f"extremal solutions realized as entry-point families of the limit law "
            f"({CITE_EXTREMAL_FORM})"
        )
    elif context.kind == "cyclic":
        extremals = cyclic_coset_families(noise, context, window=window)
        certified = True
        notes.append(
            f"extremal solutions are coset translates of one another "
            f"({CITE_TRANSLATES})"
        )
    elif context.is_group and _all_point_mass(noise):
        extremals = deterministic_translate_families(noise, context, window=window)
        certified = True
        notes.append(
            f"deterministic noise: extremal solutions are point-mass translates "
            f"({CITE_TRANSLATES})"
        )
    else:
        extremals = cesaro_solutions(noise, context, window=window, limit=limit)
        certified = False
        notes.append(
            "families shown are Cesaro candidates; the extremal list is not "
            "certified"
        )

    unique_in_law = len(extremals) == 1
    pathwise: Optional[bool]
    all_strong: Optional[bool]

    if limit.as_convergence:
        assert limit.nu is not None
        all_strong = True
        notes.append(
            f"products converge almost surely: every extremal solution is strong "
            f"({CITE_ALL_STRONG})"
        )
        support = [s for s in limit.nu.support if isinstance(s, TransformationElement)]
        if all(s.is_constant() for s in support):
            if not unique_in_law:
                raise InternalInconsistencyError(
                    "synchronizing limit with several entry-point families"
                )
            pathwise = True
            notes.append(
                f"limit support is synchronizing: pathwise uniqueness holds "
                f"({CITE_SYNCHRONIZING}; cf. {CITE_SYNC_EXAMPLE})"
            )
        else:
            if all(s.is_injective() for s in support):
                notes.append(
                    f"limit support is injective; uniqueness reduces to the "
                    f"entry-point family count ({CITE_INJECTIVE})"
                )
            pathwise = unique_in_law
            notes.append(
                f"pathwise uniqueness decided from uniqueness in law among strong "
                f"solutions ({CITE_YW})"
            )
        if limit.p2_subgroup is not None:
            notes.append(
                f"convergence modulo a subgroup of order "
                f"{limit.p2_subgroup.order} also holds"
            )
    elif limit.p2_subgroup is not None:
        subgroup = limit.p2_subgroup
        # Permutations generate only permutations, and a semigroup of
        # permutations is left cancellative: both hypotheses at once.
        if all(
            e.is_injective()
            for e in (*noise.support_elements(), *subgroup.elements)
        ):
            fixed = [
                fam
                for x, fam in entries
                if len({h.image[x] for h in subgroup.elements}) == 1
            ]
            all_strong = all(
                any(kept.same_laws(fam) for fam in fixed) for _, kept in extremals
            )
            if all_strong:
                notes.append(
                    f"every family has an entry state fixed by the subgroup: all "
                    f"extremal solutions are strong ({CITE_POINT_STRONG})"
                )
            else:
                notes.append(
                    f"some family has no entry state fixed by the subgroup: that "
                    f"extremal solution is not strong ({CITE_POINT_NONSTRONG}; "
                    f"{CITE_STRONG_DICHOTOMY})"
                )
            pathwise = unique_in_law and all_strong
            notes.append(
                f"pathwise uniqueness decided from uniqueness in law and "
                f"strongness ({CITE_YW})"
            )
        else:
            all_strong = None
            pathwise = False if not unique_in_law else None
            notes.append(
                "subgroup convergence holds but the cancellativity hypotheses "
                "fail; outside the catalogued sufficient conditions"
            )
    elif context.is_group:
        all_strong = None
        notes.append(
            f"no convergence in law on a group carrier: the uniform solution "
            f"exists and is not strong ({CITE_UNIFORM})"
        )
        pathwise = False
        notes.append(
            f"a non-strong solution exists, so pathwise uniqueness fails "
            f"({CITE_YW})"
        )
        if fourier is not None:
            if fourier.trichotomy == "C2":
                all_strong = True
                notes.append(
                    f"point-mass tail laws: every extremal solution is strong "
                    f"({CITE_TRICHOTOMY})"
                )
            elif fourier.trichotomy == "C3":
                all_strong = False
                notes.append(
                    f"periodic invariance without point masses: extremal "
                    f"solutions are not strong ({CITE_TRICHOTOMY})"
                )
        elif _all_point_mass(noise):
            all_strong = True
            notes.append(
                f"deterministic noise: every extremal solution is strong "
                f"({CITE_TRANSLATES})"
            )
    else:
        all_strong = None
        pathwise = False if not unique_in_law else None
        notes.append(
            "outside the catalogued sufficient conditions: no strongness verdict"
        )

    if fourier is not None:
        notes.append(f"Fourier trichotomy case {fourier.trichotomy} ({CITE_TRICHOTOMY})")
        if certified and noise.space.size > 1:
            expect_unique = fourier.trichotomy == "C1"
            if unique_in_law != expect_unique:
                raise InternalInconsistencyError(
                    "family count disagrees with the Fourier trichotomy"
                )

    if pathwise:
        if not unique_in_law or all_strong is not True:
            raise InternalInconsistencyError(
                "pathwise uniqueness without uniqueness in law and strongness"
            )
    return ClassificationReport(
        limit=limit,
        extremals=extremals,
        certified_extremal=certified,
        unique_in_law=unique_in_law,
        pathwise_unique=pathwise,
        all_extremal_strong=all_strong,
        trichotomy=trichotomy,
        fourier=fourier,
        notes=tuple(notes),
    )
