"""Independent reference computations the test suite checks the library against.

Everything here is written straight from the defining formulas, avoiding the
library's own code paths, so that agreement between the two is meaningful.
The brute-force Fourier oracle below predates the library's integer-test
implementation and stays the authority the tests defer to.  The one exception
is `strongness_residuals_reference`, which keeps the object-level `convolve`
chain that the library's integer stepping replaced.
"""

from __future__ import annotations

import cmath
from fractions import Fraction

from tsl import CapacityError, convolve

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
) -> tuple[list[tuple[int, ...]], list[dict[int, Fraction]], list[Fraction]]:
    """(states, rows, initial) of the chain of running products under `tail`.

    The breadth-first search over composed images: the states start with the
    tail support in image order, and each level appends, in image order, the
    products of the last level with a tail factor on the right that are not
    states yet.  rows[i] maps each successor of state i to its weight, and
    initial puts each tail weight on its state.
    """
    states = sorted(tail)
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
    return states, rows, [tail.get(s, Fraction(0)) for s in states]


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


def dense_solve(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gauss-Jordan over Fractions on a dense square system.

    Raises ValueError on a singular system.  This is the dense routine the
    library's sparse solver replaced; it stays here as the reference.
    """
    n = len(rows)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular linear system")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = aug[col][col]
        aug[col] = [v / scale for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


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
    return dense_solve(system, [Fraction(0)] * (m - 1) + [Fraction(1)])


def dense_absorption(
    transitions: list[list[Fraction]],
    initial: list[Fraction],
    transient: list[int],
    members: list[int],
) -> Fraction:
    """P(the chain started from `initial` ends in the closed class `members`).

    h = Q h + r on the transient states, r the one-step weight into the class.
    """
    m = len(transient)
    system = [
        [(1 if i == j else 0) - transitions[s][t] for j, t in enumerate(transient)]
        for i, s in enumerate(transient)
    ]
    rhs = [sum((transitions[s][t] for t in members), Fraction(0)) for s in transient]
    hit = dense_solve(system, rhs) if m else []
    total = sum((initial[v] for v in members), Fraction(0))
    return total + sum((initial[s] * h for s, h in zip(transient, hit)), Fraction(0))


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
    hit = dense_solve(system, into_absorbing) if unknown else []
    absorbed = sum((w for s, w in law.items() if s in absorbing), Fraction(0))
    absorbed += sum((w * hit[at[s]] for s, w in law.items() if s in at), Fraction(0))
    if absorbed != 1:
        return None, 1 - absorbed
    wait = dense_solve(system, [Fraction(1)] * len(unknown)) if unknown else []
    after = sum((w * wait[at[s]] for s, w in law.items() if s in at), Fraction(0))
    return 1 + before + after, Fraction(0)



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
