"""Independent reference computations the test suite checks the library against.

Everything here is written straight from the defining formulas, avoiding the
library's own code paths, so that agreement between the two is meaningful.
The brute-force Fourier oracle below predates the library's integer-test
implementation and stays the authority the tests defer to.  The exceptions
are `strongness_residuals_reference`, which keeps the object-level `convolve`
chain that the library's integer stepping replaced, `window_reference`, which
keeps the convolution through every window position that the library's fixed
point below the prefix replaced, `state_window_reference`, which keeps the
same push for state laws that the library's tail-cycle window replaced, and
`generate_closure_reference`, which
keeps the all-pairs closure loop that the library's Froidure-Pin enumeration
replaced, `right_invariance_reference`, which keeps the measure-level
pushforward per subgroup element that the library's weight dicts replaced,
and `step_reference`, which keeps the Fraction step of closure ids that the
library's integer numerators over one denominator replaced.
"""

from __future__ import annotations

import cmath
import itertools
from fractions import Fraction

from tsl import CapacityError, act, compose, convolve

_M64 = (1 << 64) - 1
_TOL = 1e-9


def splitmix64_reference(seed: int, count: int) -> list[int]:
    """The published 64-bit mixer, transliterated from its reference form."""
    state = seed & _M64
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _M64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        out.append(z ^ (z >> 31))
    return out


def character_modulus(n: int, weights: dict[int, Fraction], p: int) -> float:
    total = sum(
        float(w) * cmath.exp(2j * cmath.pi * p * g / n) for g, w in weights.items()
    )
    return abs(total)


def fourier_oracle(n: int, weights: dict[int, Fraction]) -> dict:
    """Brute-force trichotomy data from complex character moduli.

    pi marks which characters keep modulus one; their index set is read as a
    subgroup of Z/n, its minimal positive element is the generator, and the
    invariance subgroup is the annihilator under the p*g pairing.
    """
    pi = tuple(
        1 if abs(character_modulus(n, weights, p) - 1.0) < _TOL else 0
        for p in range(n)
    )
    z = tuple(p for p in range(n) if pi[p] == 1)
    positive = [p for p in z if p > 0]
    p_mu = min(positive) if positive else 0
    h = tuple(g for g in range(n) if all((p * g) % n == 0 for p in z))
    if p_mu == 0:
        case = "C1"
    elif p_mu == 1:
        case = "C2"
    else:
        case = "C3"
    return {"pi": pi, "z": z, "p_mu": p_mu, "h": h, "case": case}


def compose_images(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(a[b[i]] for i in range(len(b)))


def convolution_power(
    weights: dict[tuple[int, ...], Fraction], steps: int
) -> dict[tuple[int, ...], Fraction]:
    """Law of a product of `steps` i.i.d. factors, raw-dict arithmetic.

    The product grows on the right, matching the backward-product recursion;
    for an i.i.d. law the left/right distinction does not change the result.
    """
    if steps < 1:
        raise ValueError("need at least one factor")
    law = dict(weights)
    for _ in range(steps - 1):
        nxt: dict[tuple[int, ...], Fraction] = {}
        for img1, w1 in law.items():
            for img2, w2 in weights.items():
                key = compose_images(img1, img2)
                nxt[key] = nxt.get(key, Fraction(0)) + w1 * w2
        law = nxt
    return law


def stagewise_product_law(
    prefix: list[dict[tuple[int, ...], Fraction]],
    tail: dict[tuple[int, ...], Fraction],
    depth: int,
) -> dict[tuple[int, ...], Fraction]:
    """Law of the product of the first `depth` factors, raw-dict arithmetic.

    Factor m has law prefix[m] while m < len(prefix) and the tail after that;
    the product grows on the right.
    """
    stages = [prefix[m] if m < len(prefix) else tail for m in range(depth)]
    law = dict(stages[0])
    for weights in stages[1:]:
        nxt: dict[tuple[int, ...], Fraction] = {}
        for img1, w1 in law.items():
            for img2, w2 in weights.items():
                key = compose_images(img1, img2)
                nxt[key] = nxt.get(key, Fraction(0)) + w1 * w2
        law = nxt
    return law


def product_chain_reference(
    tail: dict[tuple[int, ...], Fraction],
    start: dict[tuple[int, ...], Fraction] | None = None,
) -> tuple[list[tuple[int, ...]], list[dict[int, Fraction]], list[Fraction]]:
    """(states, rows, initial) of the chain of running products under `tail`.

    The breadth-first search over composed images from the law `start`, by
    default the tail itself: the states start with its support in image
    order, and each level appends, in image order, the products of the last
    level with a tail factor on the right that are not states yet.  rows[i]
    maps each successor of state i to its weight, and initial puts each
    weight of `start` on its state.
    """
    start = tail if start is None else start
    states = sorted(start)
    index = {s: i for i, s in enumerate(states)}
    frontier = list(states)
    while frontier:
        fresh = {compose_images(s, t) for s in frontier for t in tail} - index.keys()
        frontier = sorted(fresh)
        for p in frontier:
            index[p] = len(states)
            states.append(p)
    rows = []
    for s in states:
        row: dict[int, Fraction] = {}
        for t, w in tail.items():
            j = index[compose_images(s, t)]
            row[j] = row.get(j, Fraction(0)) + w
        rows.append(row)
    return states, rows, [start.get(s, Fraction(0)) for s in states]


def kernel_classes_reference(tail: list[tuple[int, ...]]) -> set[frozenset]:
    """The minimum-rank products of tail factors, grouped by image set.

    These are the recurrent classes of the right walk, found without a
    chain: the walk's closed classes are the minimal right ideals x S, which
    lie in the kernel, and the kernel of a finite transformation semigroup is
    its set of minimum-rank elements, where x S holds the elements with the
    image of x (Rees-Suschkewitsch; Ganyushkin and Mazorchuk, *Classical
    Finite Transformation Semigroups*, 2009).
    """
    products = set(tail)
    frontier = list(tail)
    while frontier:
        frontier = list({compose_images(s, t) for s in frontier for t in tail} - products)
        products.update(frontier)
    rank = min(len(set(s)) for s in products)
    groups: dict[frozenset, set] = {}
    for s in products:
        if len(set(s)) == rank:
            groups.setdefault(frozenset(s), set()).add(s)
    return {frozenset(g) for g in groups.values()}


def cesaro_reference(tail: dict[tuple[int, ...], Fraction]) -> dict[tuple[int, ...], Fraction]:
    """The Cesaro limit of the running products under `tail`, by image.

    Each closed class of the reference chain, `kernel_classes_reference`,
    carries its dense stationary law, weighted by the chance that the chain
    from the first factor enters it.
    """
    states, rows, initial = product_chain_reference(tail)
    at = {s: i for i, s in enumerate(states)}
    dense = [[row.get(j, Fraction(0)) for j in range(len(states))] for row in rows]
    classes = [sorted(at[s] for s in c) for c in kernel_classes_reference(list(tail))]
    recurrent = {v for c in classes for v in c}
    transient = [v for v in range(len(states)) if v not in recurrent]
    law = {}
    for members, hit in zip(classes, dense_absorption(dense, initial, transient, classes)):
        for v, w in zip(members, dense_stationary(dense, members)):
            law[states[v]] = hit * w
    return law


def absorbing_reference(
    prefix: list[dict[tuple[int, ...], Fraction]],
    tail: dict[tuple[int, ...], Fraction],
    images: list[tuple[int, ...]],
) -> list[set[int]]:
    """For each stage m = 0..len(prefix), the positions in `images` that every
    factor after stage m fixes on the right.

    The factors after stage m are the atoms of prefix[m + 1:] and of the
    tail; the last stage is the tail's, after which only tail factors come.
    """
    out = []
    for m in range(len(prefix) + 1):
        later = set(tail).union(*prefix[m + 1 :])
        out.append({i for i, s in enumerate(images) if all(compose_images(s, f) == s for f in later)})
    return out


def strongness_residuals_reference(noise, family, depth: int, budget: int):
    """The (depth, residual) checkpoints of a strongness witness, by `convolve`.

    The law of the product of the first l noises is convolved one factor at a
    time; before each convolution the product of the two support sizes is held
    against `budget`.  At l = max(1, depth // 2) and l = depth the residual is
    the expected mass that the product, applied to the family's law at -l,
    leaves outside its most likely state.
    """
    checkpoints = {max(1, depth // 2), depth}
    law = noise.measure_at(0)
    out = []
    for l in range(1, depth + 1):
        if l > 1:
            nxt = noise.measure_at(-(l - 1))
            if len(law.support) * len(nxt.support) > budget:
                raise CapacityError(
                    f"product support would exceed the budget at depth {l}", cap=budget
                )
            law = convolve(law, nxt)
        if l in checkpoints:
            residual = Fraction(0)
            for prod, w in law.atoms:
                cond: dict[int, Fraction] = {}
                for x, wx in family.law_at(-l).atoms:
                    cond[prod.image[x]] = cond.get(prod.image[x], Fraction(0)) + wx
                residual += w * (1 - max(cond.values()))
            out.append((l, residual))
    return tuple(out)


def window_reference(noise, base, depth: int):
    """Element laws at k = 0 down to -depth: `base` at -depth - 1, convolved up.

    Every position takes one `convolve` with its noise law, the tail positions
    included, so nothing assumes that the tail fixes `base`.
    """
    laws = {}
    below = base
    for k in range(-depth, 1):
        below = laws[k] = convolve(noise.measure_at(k), below)
    return tuple((k, laws[k]) for k in range(0, -depth - 1, -1))


def state_window_reference(noise, below, depth: int):
    """State laws at k = 0 down to -depth: `below` at -depth - 1, acted on up.

    law(k) = noise(k) acting on law(k - 1) at every position, the tail
    positions included, so nothing assumes a periodic tail.
    """
    laws = {}
    for k in range(-depth, 1):
        below = laws[k] = act(noise.measure_at(k), below)
    return tuple((k, laws[k]) for k in range(0, -depth - 1, -1))


def apply_law(
    product_law: dict[tuple[int, ...], Fraction],
    entry_law: dict[int, Fraction],
) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for img, w in product_law.items():
        for x, wx in entry_law.items():
            y = img[x]
            out[y] = out.get(y, Fraction(0)) + w * wx
    return out


def three_state_stationary(p: Fraction, q: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """Closed form of the stationary state law for the two-map fixture."""
    denom = 2 + p * q
    return (
        Fraction(1 - p * q, 1) / denom,
        Fraction(p + p * q, 1) / denom,
        Fraction(q + p * q, 1) / denom,
    )


def three_state_expected_absorption(p: Fraction, q: Fraction) -> Fraction:
    """E[T] for the two-map fixture, by the waiting-time argument.

    After the first factor the running product alternates within one
    transient pair until the opposite letter shows up, so T - 1 is
    geometric: rate q after a first `a`, rate p after a first `b`.
    """
    return 1 + p / q + q / p


def three_state_absorption_tail(steps: int) -> Fraction:
    """P(T > steps) at p = q = 1/2: the opposite letter is a fair coin."""
    if steps < 1:
        return Fraction(1)
    return Fraction(1, 2 ** (steps - 1))


def dense_solve(
    rows: list[list[Fraction]], rhss: list[list[Fraction]]
) -> list[list[Fraction]]:
    """Gauss-Jordan over Fractions on a dense square system, one solution per rhs.

    All right-hand sides ride along as extra columns of one elimination.
    Raises ValueError on a singular system.  This is the dense routine the
    library's sparse solver replaced; it stays here as the reference.
    """
    n = len(rows)
    aug = [list(row) + [rhs[i] for rhs in rhss] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular linear system")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = aug[col][col]
        aug[col] = [v / scale for v in aug[col]]
        # the pivot row's zeros leave every other row as it is
        nonzero = [(c, v) for c, v in enumerate(aug[col]) if v]
        for r in range(n):
            f = aug[r][col]
            if r != col and f:
                row = aug[r]
                for c, v in nonzero:
                    row[c] -= f * v
    return [[aug[i][n + k] for i in range(n)] for k in range(len(rhss))]


def dense_stationary(
    transitions: list[list[Fraction]], members: list[int]
) -> list[Fraction]:
    """pi P = pi on the states `members`, the last balance equation replaced by sum 1.

    Non-singular exactly when the stationary law on `members` is unique.
    """
    m = len(members)
    system = [
        [transitions[vi][vj] - (1 if i == j else 0) for i, vi in enumerate(members)]
        for j, vj in enumerate(members)
    ]
    system[m - 1] = [Fraction(1)] * m
    (pi,) = dense_solve(system, [[Fraction(0)] * (m - 1) + [Fraction(1)]])
    return pi


def dense_absorption(
    transitions: list[list[Fraction]],
    initial: list[Fraction],
    transient: list[int],
    classes: list[list[int]],
) -> list[Fraction]:
    """P(the chain started from `initial` ends in each closed class of `classes`).

    h = Q h + r on the transient states, one r per class: the one-step weight
    into it.  One elimination solves for every class.
    """
    system = [
        [(1 if i == j else 0) - transitions[s][t] for j, t in enumerate(transient)]
        for i, s in enumerate(transient)
    ]
    rhss = [
        [sum((transitions[s][t] for t in members), Fraction(0)) for s in transient]
        for members in classes
    ]
    return [
        sum((initial[v] for v in members), Fraction(0))
        + sum((initial[s] * h for s, h in zip(transient, hit)), Fraction(0))
        for members, hit in zip(classes, dense_solve(system, rhss))
    ]


def dense_expected_steps(
    transitions: list[list[Fraction]], initial: list[Fraction], transient: list[int]
) -> Fraction:
    """Expected steps spent on `transient` by the chain started from `initial`.

    x = Q x + 1 on the transient states, x = 0 elsewhere.
    """
    system = [
        [(1 if i == j else 0) - transitions[s][t] for j, t in enumerate(transient)]
        for i, s in enumerate(transient)
    ]
    (x,) = dense_solve(system, [[Fraction(1)] * len(transient)])
    return sum((initial[s] * v for s, v in zip(transient, x)), Fraction(0))


def absorption_time_reference(
    prefix: list[dict[tuple[int, ...], Fraction]],
    tail: dict[tuple[int, ...], Fraction],
) -> tuple[Fraction | None, Fraction]:
    """(E[T], P(T = infinity)) of the generalized absorption time, from the definitions.

    P(t) composes the first t factors, factor m drawn from prefix[m] while
    m < len(prefix) and from the tail after that.  T is the first t at which
    P(t) is fixed on the right by every factor that can still come.  From the
    first all-tail step on, P moves by right multiplication with a tail
    factor.  Over the products reachable from there, the probability h of
    ever reaching the tail-absorbing set and the expected time x to reach it
    solve h = Q h + r and x = Q x + 1 on the states that can reach the set
    and are not in it.  E[T] is None unless absorption is almost sure.
    """
    steps = max(len(prefix), 1)

    def stage(m: int) -> dict[tuple[int, ...], Fraction]:
        return prefix[m] if m < len(prefix) else tail

    def fixed(s: tuple[int, ...], factors) -> bool:
        return all(compose_images(s, f) == s for f in factors)

    law = dict(stage(0))
    before = Fraction(0)  # P(T > t) summed over t = 1..steps-1
    for t in range(1, steps):
        remaining = set(tail)
        for m in range(t, len(prefix)):
            remaining.update(prefix[m])
        before += sum((w for s, w in law.items() if not fixed(s, remaining)), Fraction(0))
        nxt: dict[tuple[int, ...], Fraction] = {}
        for s, w in law.items():
            for f, wf in stage(t).items():
                p = compose_images(s, f)
                nxt[p] = nxt.get(p, Fraction(0)) + w * wf
        law = nxt

    reachable = set(law)
    frontier = list(law)
    while frontier:
        frontier = [
            p for p in {compose_images(s, f) for s in frontier for f in tail}
            if p not in reachable
        ]
        reachable.update(frontier)
    absorbing = {s for s in reachable if fixed(s, tail)}
    reaches = set(absorbing)
    grew = True
    while grew:
        grew = False
        for s in reachable - reaches:
            if any(compose_images(s, f) in reaches for f in tail):
                reaches.add(s)
                grew = True
    unknown = sorted(reaches - absorbing)
    at = {s: i for i, s in enumerate(unknown)}
    system = [[Fraction(int(i == j)) for j in range(len(unknown))] for i in range(len(unknown))]
    into_absorbing = [Fraction(0)] * len(unknown)
    for s, i in at.items():
        for f, w in tail.items():
            p = compose_images(s, f)
            if p in at:
                system[i][at[p]] -= w
            elif p in absorbing:
                into_absorbing[i] += w
    hit, wait = dense_solve(system, [into_absorbing, [Fraction(1)] * len(unknown)])
    absorbed = sum((w for s, w in law.items() if s in absorbing), Fraction(0))
    absorbed += sum((w * hit[at[s]] for s, w in law.items() if s in at), Fraction(0))
    if absorbed != 1:
        return None, 1 - absorbed
    after = sum((w * wait[at[s]] for s, w in law.items() if s in at), Fraction(0))
    return 1 + before + after, Fraction(0)


def step_reference(noise, law: dict[int, Fraction], atoms) -> dict[int, Fraction]:
    """The Fraction law after one more factor on the right, from (id, weight) `atoms`.

    Each product is composed from the closure's element images and looked up
    by image, and every weight is a Fraction.
    """
    images = [e.image for e in noise.closure.elements]
    index = {s: i for i, s in enumerate(images)}
    out: dict[int, Fraction] = {}
    for p, w in law.items():
        for f, wf in atoms:
            q = index[compose_images(images[p], images[f])]
            out[q] = out.get(q, Fraction(0)) + w * wf
    return out


def generate_closure_reference(space, generators, cap=None):
    """(elements, table, generator ids) of a closure, by rounds of all-pairs products.

    The generators come first (given order, deduplicated); each round then
    composes every pair of known elements and appends the new products in
    image order, and the table composes every pair once more, so
    ``table[a][b]`` is the id of a * b.  Raises the library's CapacityError as
    soon as more than `cap` elements are known, the generators included.
    """

    def check(count):
        if cap is not None and count > cap:
            raise CapacityError(f"closure exceeded the cap of {cap} elements", cap=cap)

    order = list(dict.fromkeys(generators))
    check(len(order))
    index = {g: i for i, g in enumerate(order)}
    while True:
        fresh = set()
        for a in order:
            for b in order:
                p = compose(a, b)
                if p not in index:
                    fresh.add(p)
                    check(len(order) + len(fresh))
        if not fresh:
            break
        for p in sorted(fresh):
            index[p] = len(order)
            order.append(p)
    elements = tuple(order)
    cayley = tuple(tuple(index[compose(a, b)] for b in elements) for a in elements)
    generator_ids = tuple(dict.fromkeys(index[g] for g in generators))
    return elements, cayley, generator_ids


def subgroups_reference(elements, max_gen: int) -> set[tuple[int, ...]]:
    """Sorted member ids of every subgroup among the candidates of a subgroup search.

    The candidates are every element's power-orbit cycle and the closure of
    every set of at most `max_gen` elements, by rounds of all-pairs products;
    a candidate is kept when it has an identity and inverses, checked over
    every pair of its members.
    """
    images = [e.image for e in elements]
    index = {image: i for i, image in enumerate(images)}
    products: dict = {}

    def mul(a, b):
        if (a, b) not in products:
            products[a, b] = compose_images(a, b)
        return products[a, b]

    candidates = set()
    for g in images:
        orbit = [g]
        while mul(orbit[-1], g) not in orbit:
            orbit.append(mul(orbit[-1], g))
        candidates.add(frozenset(orbit[orbit.index(mul(orbit[-1], g)) :]))
    for r in range(1, max_gen + 1):
        for subset in itertools.combinations(images, r):
            members = set(subset)
            while True:
                fresh = {mul(a, b) for a in members for b in members} - members
                if not fresh:
                    break
                members |= fresh
            candidates.add(frozenset(members))

    def is_group(members):
        if any(mul(a, b) not in members for a in members for b in members):
            return False
        units = [e for e in members if all(mul(e, a) == a == mul(a, e) for a in members)]
        return bool(units) and all(
            any(mul(a, b) == units[0] == mul(b, a) for b in members) for a in members
        )

    return {tuple(sorted(index[m] for m in c)) for c in candidates if is_group(c)}


def right_invariance_reference(nu, subgroup) -> bool:
    """True iff pushing nu forward by sigma -> sigma h gives nu back for every h."""
    return all(
        nu.pushforward(lambda sigma: compose(sigma, h)) == nu for h in subgroup.elements
    )


def pick_reference(weights: dict, u: int):
    """The first key, in the dict's order, whose cumulative weight exceeds u / 2^64."""
    cumulative = Fraction(0)
    for key, w in weights.items():
        cumulative += w
        if Fraction(u, 2**64) < cumulative:
            return key
    raise ValueError("the weights sum to at most u / 2^64")


def backward_product_reference(
    prefix: list[dict[tuple[int, ...], Fraction]],
    tail: dict[tuple[int, ...], Fraction],
    depth: int,
    state: int,
) -> tuple[tuple[int, ...], int | None]:
    """(product, absorbed_at) of one trial, drawing all `depth` factors from `state`.

    Factor m is picked from prefix[m] while m < len(prefix) and from the tail
    after that, one stream output each; the product grows on the right.
    absorbed_at is the first t at which every atom of every stage after the
    t-th leaves the product of the first t factors fixed, None if no t up to
    `depth` does.
    """
    product: tuple[int, ...] = ()
    absorbed_at = None
    for m, u in enumerate(splitmix64_reference(state, depth)):
        image = pick_reference(prefix[m] if m < len(prefix) else tail, u)
        product = compose_images(product, image) if product else image
        later = set(tail).union(*prefix[m + 1 :])
        if absorbed_at is None and all(compose_images(product, f) == product for f in later):
            absorbed_at = m + 1
    return product, absorbed_at
