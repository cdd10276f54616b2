"""Solution families, classification verdicts, and spectral case splits."""

from __future__ import annotations

from fractions import Fraction

import pytest

from tsl import (
    CapacityError,
    MultiplicityError,
    NoiseSpec,
    Origin,
    ProbMeasure,
    SolutionLawFamily,
    StateSpace,
    UnsupportedCaseError,
    act,
    build_product_chain,
    classify,
    cesaro_solutions,
    deterministic_translate_families,
    element_carrier,
    extremal_solutions,
    fourier_trichotomy,
    group_context,
    joint_window_law,
    limit_analysis,
    make_family,
    mixture_family,
    semigroup_context,
    state_carrier,
    stationary_law,
    strongness_witness,
    translate_family,
    translate_orbit_check,
    uniform_solution,
)

import tsl.solver

from helpers import (
    FULL_SIX_GENERATORS,
    SIX,
    THREE,
    count_calls,
    cyclic_noise,
    element_measure,
    three_ctx,
    two_map_noise,
)
from oracles import (
    fourier_oracle,
    three_state_absorption_tail,
    three_state_stationary,
)

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)
UNIFORM3 = ProbMeasure.uniform(state_carrier(THREE), range(3))


def delta(space: StateSpace, x: int) -> ProbMeasure:
    return ProbMeasure.point(state_carrier(space), x)


# ---------------------------------------------------------------- families


def test_single_extremal_family_for_the_generator_pair():
    noise = two_map_noise(HALF, HALF)
    fams = extremal_solutions(noise, three_ctx())
    assert len(fams) == 1
    x, fam = fams[0]
    assert x == 0
    assert fam.origin == Origin("extremal", entry_state=0)
    assert fam.depth == 8
    assert fam.tail_period == 1
    assert fam.tail_cycle == (UNIFORM3,)
    for k in range(0, -30, -1):
        assert fam.law_at(k) == UNIFORM3
    assert fam.describe() == "extremal(x=0) depth=8 period=1"
    with pytest.raises(ValueError):
        fam.law_at(1)


def test_extremal_solutions_need_a_limit_law():
    ctx, noise = cyclic_noise(3, {1: Fraction(1)})
    with pytest.raises(UnsupportedCaseError, match="converge in law"):
        extremal_solutions(noise, ctx)


def test_identity_noise_has_one_family_per_state():
    noise = NoiseSpec(element_measure(THREE, {(0, 1, 2): Fraction(1)}))
    fams = extremal_solutions(noise, three_ctx())
    assert [x for x, _ in fams] == [0, 1, 2]
    for x, fam in fams:
        assert fam.law_at(0) == delta(THREE, x)
        assert fam.tail_cycle == (delta(THREE, x),)


def test_make_family_validates_the_recursion():
    noise = two_map_noise(HALF, HALF)
    window = {k: UNIFORM3 for k in range(0, -9, -1)}
    fam = make_family(noise, window, (UNIFORM3,), Origin("extremal", entry_state=0))
    assert fam.depth == 8

    broken = dict(window)
    broken[0] = delta(THREE, 0)
    with pytest.raises(ValueError, match="does not solve the recursion"):
        make_family(noise, broken, (UNIFORM3,), Origin("extremal", entry_state=0))

    with pytest.raises(ValueError, match="contiguous"):
        make_family(
            noise,
            {0: UNIFORM3, -2: UNIFORM3},
            (UNIFORM3,),
            Origin("extremal", entry_state=0),
        )
    with pytest.raises(ValueError, match="empty window"):
        make_family(noise, {}, (UNIFORM3,), Origin("extremal", entry_state=0))
    with pytest.raises(ValueError, match="tail cycle inconsistent"):
        make_family(
            noise, window, (delta(THREE, 0),), Origin("extremal", entry_state=0)
        )
    with pytest.raises(ValueError, match="state measures"):
        make_family(
            noise,
            {k: noise.tail for k in range(0, -9, -1)},
            (noise.tail,),
            Origin("extremal", entry_state=0),
        )


def test_make_family_window_must_cover_the_prefix():
    iid = two_map_noise(HALF, HALF)
    staged = NoiseSpec(iid.tail, (iid.tail,) * 3)
    with pytest.raises(ValueError, match="too small for a prefix"):
        make_family(
            staged,
            {0: UNIFORM3, -1: UNIFORM3},
            (UNIFORM3,),
            Origin("extremal", entry_state=0),
        )


def test_minimal_cycle_reduction_in_same_laws():
    noise = two_map_noise(HALF, HALF)
    window = {k: UNIFORM3 for k in range(0, -9, -1)}
    once = make_family(noise, window, (UNIFORM3,), Origin("extremal", entry_state=0))
    twice = make_family(
        noise, window, (UNIFORM3, UNIFORM3), Origin("extremal", entry_state=0)
    )
    assert once.same_laws(twice)
    assert twice.tail_period == 1  # make_family already minimizes


# ------------------------------------------------------------- stationary


@pytest.mark.parametrize(
    "p_q",
    [
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1, 3), Fraction(2, 3)),
        (Fraction(1, 5), Fraction(4, 5)),
    ],
)
def test_stationary_law_matches_the_closed_form(p_q):
    p, q = p_q
    noise = two_map_noise(p, q)
    pi = stationary_law(noise.tail)
    expected = three_state_stationary(p, q)
    assert pi.atoms == tuple((x, expected[x]) for x in range(3))
    assert act(noise.tail, pi) == pi


def test_stationary_law_rejects_several_recurrent_classes():
    identity_noise = element_measure(THREE, {(0, 1, 2): Fraction(1)})
    with pytest.raises(MultiplicityError) as exc:
        stationary_law(identity_noise)
    assert str(exc.value) == "state chain has 3 recurrent classes: {1}, {2}, {3}"
    assert exc.value.classes == ((0,), (1,), (2,))

    split = element_measure(THREE, {(1, 1, 2): Fraction(1)})
    with pytest.raises(MultiplicityError) as exc:
        stationary_law(split)
    assert exc.value.classes == ((1,), (2,))


def test_stationary_law_ignores_transient_states():
    from tsl import StateSpace

    two = StateSpace.of_size(2)
    mu = element_measure(two, {(1, 0): HALF, (1, 1): HALF})
    pi = stationary_law(mu)
    assert pi.atoms == ((0, THIRD), (1, Fraction(2, 3)))


def test_stationary_law_needs_an_element_measure():
    with pytest.raises(ValueError):
        stationary_law(UNIFORM3)


# ------------------------------------------------------------------ fourier


def test_fourier_pins_against_the_character_oracle():
    cases = [
        (2, {0: HALF, 1: HALF}, "C1"),
        (3, {1: Fraction(1)}, "C2"),
        (4, {0: HALF, 2: HALF}, "C3"),
    ]
    for n, weights, expected_case in cases:
        ctx, noise = cyclic_noise(n, weights)
        report = fourier_trichotomy(noise, ctx)
        oracle = fourier_oracle(n, weights)
        assert report.modulus == n
        assert report.pi == oracle["pi"]
        assert report.z_mu == oracle["z"]
        assert report.p_mu == oracle["p_mu"]
        assert report.h_mu == oracle["h"]
        assert report.trichotomy == oracle["case"] == expected_case


def test_fourier_exact_values():
    ctx, noise = cyclic_noise(2, {0: HALF, 1: HALF})
    rep = fourier_trichotomy(noise, ctx)
    assert (rep.pi, rep.z_mu, rep.p_mu, rep.h_mu) == ((1, 0), (0,), 0, (0, 1))

    ctx, noise = cyclic_noise(3, {1: Fraction(1)})
    rep = fourier_trichotomy(noise, ctx)
    assert (rep.pi, rep.z_mu, rep.p_mu, rep.h_mu) == ((1, 1, 1), (0, 1, 2), 1, (0,))

    ctx, noise = cyclic_noise(4, {0: HALF, 2: HALF})
    rep = fourier_trichotomy(noise, ctx)
    assert (rep.pi, rep.z_mu, rep.p_mu, rep.h_mu) == ((1, 0, 1, 0), (0, 2), 2, (0, 2))


def test_fourier_prefix_is_irrelevant():
    ctx, plain = cyclic_noise(4, {1: HALF, 3: HALF})
    _, staged = cyclic_noise(4, {1: HALF, 3: HALF}, prefix=[{0: Fraction(1)}])
    assert fourier_trichotomy(plain, ctx) == fourier_trichotomy(staged, ctx)


def test_fourier_needs_a_cyclic_carrier():
    noise = two_map_noise(HALF, HALF)
    with pytest.raises(UnsupportedCaseError, match="cyclic"):
        fourier_trichotomy(noise, three_ctx())


# ------------------------------------------------------------------ classify


def test_classify_synchronizing_branch():
    noise = two_map_noise(HALF, HALF)
    report = classify(noise, three_ctx())
    assert report.p1
    assert report.unique_in_law
    assert report.pathwise_unique
    assert report.all_extremal_strong
    assert report.certified_extremal
    assert report.trichotomy is None and report.fourier is None
    assert report.p2 is not None and report.p2.order == 3
    assert report.notes == (
        "extremal solutions realized as entry-point families of the limit law "
        "(Lemma 4.1)",
        "products converge almost surely: every extremal solution is strong "
        "(Thm 4.2)",
        "limit support is synchronizing: pathwise uniqueness holds "
        "(Thm 4.6; cf. Thm 5.1(ii),(iv))",
        "convergence modulo a subgroup of order 3 also holds",
    )


def test_classify_injective_branch_on_identity_noise():
    ctx, noise = cyclic_noise(2, {0: Fraction(1)})
    report = classify(noise, ctx)
    assert report.p1
    assert not report.unique_in_law
    assert report.pathwise_unique is False
    assert report.all_extremal_strong is True
    assert len(report.extremals) == 2
    assert report.p2 is None
    assert report.notes == (
        "extremal solutions realized as entry-point families of the limit law "
        "(Lemma 4.1)",
        "products converge almost surely: every extremal solution is strong "
        "(Thm 4.2)",
        "limit support is injective; uniqueness reduces to the entry-point "
        "family count (Thm 4.4)",
        "pathwise uniqueness decided from uniqueness in law among strong "
        "solutions (Thm 2.14)",
        "Fourier trichotomy case C2 (Thm 3.3)",
    )


def test_classify_subgroup_branch_without_strongness():
    ctx, noise = cyclic_noise(2, {0: HALF, 1: HALF})
    report = classify(noise, ctx)
    assert not report.p1
    assert report.limit.converges_in_law
    assert report.unique_in_law
    assert report.pathwise_unique is False
    assert report.all_extremal_strong is False
    assert report.trichotomy == "C1"
    assert report.p2 is not None and report.p2.member_ids == (0, 1)
    assert report.notes == (
        "extremal solutions realized as entry-point families of the limit law "
        "(Lemma 4.1)",
        "some family has no entry state fixed by the subgroup: that extremal "
        "solution is not strong (Prop 4.8; Thm 4.10)",
        "pathwise uniqueness decided from uniqueness in law and strongness "
        "(Thm 2.14)",
        "Fourier trichotomy case C1 (Thm 3.3)",
    )


def test_classify_subgroup_branch_on_the_half_period_walk():
    # every entry state has a two-point orbit under the certified subgroup,
    # so neither family is strong
    ctx, noise = cyclic_noise(4, {0: HALF, 2: HALF})
    report = classify(noise, ctx)
    assert not report.p1
    assert report.limit.converges_in_law
    assert len(report.extremals) == 2
    assert not report.unique_in_law
    assert report.all_extremal_strong is False
    assert report.pathwise_unique is False
    assert report.trichotomy == "C3"
    assert report.p2 is not None and report.p2.member_ids == (0, 2)


def test_classify_builds_the_entry_point_families_once(monkeypatch):
    ctx, noise = cyclic_noise(4, {0: HALF, 2: HALF})
    calls = count_calls(monkeypatch, tsl.solver, "_entry_point_families")
    report = classify(noise, ctx)
    assert report.p2 is not None and report.all_extremal_strong is False
    assert len(calls) == 1


@pytest.mark.parametrize(
    "ctx, noise",
    [
        cyclic_noise(4, {0: HALF, 2: HALF}),
        (three_ctx(), two_map_noise(HALF, HALF, (element_measure(THREE, {(1, 1, 2): 1}),))),
        cyclic_noise(6, {1: HALF, 4: HALF}, ({0: HALF, 1: HALF}, {2: 1})),
    ],
    ids=["iid", "prefixed", "prefixed-drift"],
)
def test_classify_state_steps_do_not_grow_with_the_window(monkeypatch, ctx, noise):
    # each family's window comes from its tail cycle: below the prefix no
    # state law is acted on, whatever the window
    counts = []
    for window in (8, 64):
        calls = count_calls(monkeypatch, tsl.solver, "act")
        classify(noise, ctx, window=window)
        counts.append(len(calls))
        monkeypatch.undo()
    assert counts[0] == counts[1] > 0


def test_entry_point_laws_sum_numerators_by_image_without_act(monkeypatch):
    # each entry law is the limit law acting on a point, read off by image
    # in integers; act runs only in the family's own checks.  Here the three
    # entry laws differ: 1 at state 1, 1/3 at 1 and 2/3 at 3, 1 at state 3
    noise = NoiseSpec(element_measure(THREE, {(0, 0, 2): THIRD, (0, 2, 2): Fraction(2, 3)}))
    nu = limit_analysis(noise, three_ctx()).nu
    calls = count_calls(monkeypatch, tsl.solver, "act")
    monkeypatch.setattr(tsl.solver, "_family", lambda noise, cycle, depth, origin: cycle)
    pairs = tsl.solver._entry_point_families(noise, nu, 8)
    assert calls == []
    assert pairs == [
        (x, (act(nu, ProbMeasure.point(state_carrier(THREE), x)),)) for x in range(3)
    ]


def test_classify_subgroup_branch_outside_the_cancellativity_hypotheses():
    # the closure {a, b} is a group of order 2, hence left cancellative, but
    # its maps are not injective
    noise = NoiseSpec(element_measure(THREE, {(0, 0, 2): HALF, (2, 2, 0): HALF}))
    report = classify(noise, three_ctx())
    assert not report.p1
    assert report.limit.converges_in_law
    assert report.p2 is not None and report.p2.order == 2
    assert report.unique_in_law
    assert report.all_extremal_strong is None
    assert report.pathwise_unique is None
    assert report.notes == (
        "extremal solutions realized as entry-point families of the limit law "
        "(Lemma 4.1)",
        "subgroup convergence holds but the cancellativity hypotheses fail; "
        "outside the catalogued sufficient conditions",
    )


def test_classify_cyclic_point_mass_families():
    ctx, noise = cyclic_noise(3, {1: Fraction(1)})
    report = classify(noise, ctx)
    assert not report.limit.converges_in_law
    assert report.trichotomy == "C2"
    assert report.all_extremal_strong is True
    assert report.pathwise_unique is False
    assert not report.unique_in_law
    assert len(report.extremals) == 3
    assert report.notes == (
        "extremal solutions are coset translates of one another (Thm 3.7)",
        "no convergence in law on a group carrier: the uniform solution "
        "exists and is not strong (Thm 3.6)",
        "a non-strong solution exists, so pathwise uniqueness fails "
        "(Thm 2.14)",
        "point-mass tail laws: every extremal solution is strong (Thm 3.3)",
        "Fourier trichotomy case C2 (Thm 3.3)",
    )
    _, fam = report.extremals[0]
    assert fam.tail_period == 3
    assert [fam.law_at(k) for k in (0, -1, -2)] == [
        delta(ctx.space, 0),
        delta(ctx.space, 2),
        delta(ctx.space, 1),
    ]


def test_classify_cyclic_coset_cycle():
    ctx, noise = cyclic_noise(4, {1: HALF, 3: HALF})
    report = classify(noise, ctx)
    assert report.trichotomy == "C3"
    assert report.all_extremal_strong is False
    assert report.pathwise_unique is False
    assert len(report.extremals) == 2
    _, fam = report.extremals[0]
    car = state_carrier(ctx.space)
    assert fam.tail_cycle == (
        ProbMeasure.uniform(car, [1, 3]),
        ProbMeasure.uniform(car, [0, 2]),
    )
    assert fam.law_at(0) == ProbMeasure.uniform(car, [0, 2])


# S3 with the identity at 0: row g lists g x for x = 0..5, where 1 and 2 are
# the 3-cycles and 3, 4, 5 the transpositions
S3_TABLE = [
    [0, 1, 2, 3, 4, 5],
    [1, 2, 0, 4, 5, 3],
    [2, 0, 1, 5, 3, 4],
    [3, 5, 4, 0, 2, 1],
    [4, 3, 5, 1, 0, 2],
    [5, 4, 3, 2, 1, 0],
]


def test_classify_point_mass_families_on_a_non_cyclic_group():
    # a 3-cycle on S3: no Fourier data, so the translate branch decides
    ctx = group_context(S3_TABLE)
    assert [e.image for e in ctx.group_elements] == [tuple(row) for row in S3_TABLE]
    noise = NoiseSpec(ProbMeasure.point(element_carrier(ctx.space), ctx.group_elements[1]))
    report = classify(noise, ctx)
    assert report.fourier is None and report.trichotomy is None
    assert len(report.extremals) == 6
    assert not report.unique_in_law
    assert report.pathwise_unique is False
    assert report.all_extremal_strong is True
    assert report.notes == (
        "deterministic noise: extremal solutions are point-mass translates (Thm 3.7)",
        "no convergence in law on a group carrier: the uniform solution "
        "exists and is not strong (Thm 3.6)",
        "a non-strong solution exists, so pathwise uniqueness fails "
        "(Thm 2.14)",
        "deterministic noise: every extremal solution is strong (Thm 3.7)",
    )
    assert translate_orbit_check(noise, ctx, [fam for _, fam in report.extremals])


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[0, 1, 2], [1, 2, 0], [2, 1, 0]], "not closed"),
        ([[0, 1], [1, 1]], "row 1 is not a permutation"),
        ([[1, 0], [0, 1]], "element 0 must be the group identity"),
    ],
)
def test_group_context_rejects_tables_that_are_not_groups(rows, message):
    with pytest.raises(ValueError, match=message):
        group_context(rows)


def test_classify_abstains_off_catalogue():
    # an invertible rotation on a plain semigroup carrier: no convergence,
    # no subgroup certificate, not a group context
    rot = element_measure(THREE, {(1, 2, 0): Fraction(1)})
    report = classify(NoiseSpec(rot), three_ctx())
    assert not report.limit.converges_in_law
    assert not report.certified_extremal
    assert report.all_extremal_strong is None
    assert report.pathwise_unique is None
    assert report.unique_in_law  # the single Cesaro candidate
    assert report.notes == (
        "families shown are Cesaro candidates; the extremal list is not "
        "certified",
        "outside the catalogued sufficient conditions: no strongness verdict",
    )


def test_cesaro_candidates_satisfy_the_recursion():
    rot = element_measure(THREE, {(1, 2, 0): Fraction(1)})
    fams = cesaro_solutions(NoiseSpec(rot), three_ctx())
    assert len(fams) == 1
    _, fam = fams[0]
    assert fam.tail_cycle == (UNIFORM3,)
    assert fam.law_at(0) == UNIFORM3


# ----------------------------------------------------- translates, mixtures


def test_translate_orbit_on_deterministic_cyclic_noise():
    ctx, noise = cyclic_noise(4, {1: Fraction(1)})
    fams = deterministic_translate_families(noise, ctx)
    assert len(fams) == 4
    families = [fam for _, fam in fams]
    assert translate_orbit_check(noise, ctx, families)
    shifted = translate_family(noise, ctx, families[0], 1)
    assert any(shifted.same_laws(f) for f in families)
    assert not any(
        translate_family(noise, ctx, families[0], g).same_laws(families[0])
        for g in range(1, 4)
    )


def test_equal_weight_barycenter_is_the_uniform_solution():
    ctx, noise = cyclic_noise(4, {1: Fraction(1)})
    families = [fam for _, fam in deterministic_translate_families(noise, ctx)]
    bary = mixture_family(noise, families, [Fraction(1, 4)] * 4)
    assert bary.same_laws(uniform_solution(noise, ctx))
    assert bary.origin.kind == "mixture"
    assert bary.origin.weights == (Fraction(1, 4),) * 4


def test_uniform_solution_needs_a_group():
    noise = two_map_noise(HALF, HALF)
    with pytest.raises(UnsupportedCaseError, match="group carrier"):
        uniform_solution(noise, three_ctx())
    ctx, cyc = cyclic_noise(3, {1: Fraction(1)})
    with pytest.raises(UnsupportedCaseError, match="group carrier"):
        translate_family(cyc, three_ctx(), uniform_solution(cyc, ctx), 1)


def test_mixture_family_validation():
    ctx, noise = cyclic_noise(4, {1: Fraction(1)})
    families = [fam for _, fam in deterministic_translate_families(noise, ctx)]
    with pytest.raises(ValueError, match="one weight per family"):
        mixture_family(noise, families, [HALF])
    with pytest.raises(ValueError, match="one weight per family"):
        mixture_family(noise, [], [])


def test_mixture_tail_period_is_the_lcm():
    ctx, noise = cyclic_noise(4, {1: Fraction(1)})
    families = [fam for _, fam in deterministic_translate_families(noise, ctx)]
    two = mixture_family(noise, families[:2], [HALF, HALF])
    assert two.tail_period == 4
    everything = mixture_family(noise, families, [Fraction(1, 4)] * 4)
    assert everything.tail_period == 1  # uniform cycle collapses


# ------------------------------------------------------------------ witness


def test_witness_decays_for_the_generator_pair():
    noise = two_map_noise(HALF, HALF)
    (_, fam), = extremal_solutions(noise, three_ctx())
    report = strongness_witness(noise, fam, depth=16)
    assert report.depths == (
        (8, Fraction(1, 384)),
        (16, Fraction(1, 98304)),
    )
    assert report.residual == Fraction(1, 98304)
    assert report.verdict_hint
    assert report.residual <= three_state_absorption_tail(16)


def test_witness_stalls_for_uniform_group_noise():
    ctx, noise = cyclic_noise(2, {0: HALF, 1: HALF})
    (_, fam), = extremal_solutions(noise, ctx)
    report = strongness_witness(noise, fam)
    assert report.depths == ((12, HALF), (24, HALF))
    assert report.residual == HALF
    assert not report.verdict_hint


def test_witness_at_depth_one():
    const = element_measure(THREE, {(0, 0, 0): Fraction(1)})
    noise = NoiseSpec(const)
    (_, fam), = extremal_solutions(noise, three_ctx())
    report = strongness_witness(noise, fam, depth=1)
    assert report.depths == ((1, Fraction(0)),)
    assert report.verdict_hint
    with pytest.raises(ValueError, match="at least 1"):
        strongness_witness(noise, fam, depth=0)


def test_witness_budget_guard():
    noise = two_map_noise(HALF, HALF)
    (_, fam), = extremal_solutions(noise, three_ctx())
    with pytest.raises(CapacityError):
        strongness_witness(noise, fam, depth=16, budget=4)


def test_exact_analysis_stops_at_the_closure_cap():
    noise = NoiseSpec(ProbMeasure.uniform(element_carrier(SIX), FULL_SIX_GENERATORS))
    entry = ProbMeasure.uniform(state_carrier(SIX), range(6))
    family = SolutionLawFamily(((0, entry),), (entry,), Origin("extremal"))
    calls = [
        lambda: build_product_chain(noise),
        lambda: limit_analysis(noise, semigroup_context(SIX)),
        lambda: strongness_witness(noise, family, depth=4),
    ]
    for call in calls:
        with pytest.raises(CapacityError) as exc:
            call()
        assert str(exc.value) == "closure exceeded the cap of 4096 elements"


# ---------------------------------------------------------------- joint law


def test_joint_window_law_of_uniform_group_noise():
    ctx, noise = cyclic_noise(2, {0: HALF, 1: HALF})
    (_, fam), = extremal_solutions(noise, ctx)
    joint = joint_window_law(noise, fam, 2)
    assert len(joint) == 8
    assert all(w == Fraction(1, 8) for w in joint.values())
    ids = ctx.group_elements
    for x in (0, 1):
        for e1 in ids:
            for e2 in ids:
                assert joint[(x, e1, e2)] == Fraction(1, 8)


def test_joint_window_law_recovers_the_marginal():
    for builder in (
        lambda: (three_ctx(), two_map_noise(HALF, HALF)),
        lambda: cyclic_noise(4, {1: HALF, 3: HALF}),
    ):
        ctx, noise = builder()
        report = classify(noise, ctx)
        for _, fam in report.extremals:
            for depth in (1, 2, 3):
                joint = joint_window_law(noise, fam, depth)
                assert sum(joint.values()) == 1
                entry_mass = {}
                out_mass = {}
                for key, w in joint.items():
                    x = key[0]
                    entry_mass[x] = entry_mass.get(x, Fraction(0)) + w
                    for e in key[1:]:
                        x = e.image[x]
                    out_mass[x] = out_mass.get(x, Fraction(0)) + w
                assert entry_mass == dict(fam.law_at(-depth).items())
                assert out_mass == dict(fam.law_at(0).items())


def test_joint_window_law_expands_mixtures():
    ctx, noise = cyclic_noise(4, {1: Fraction(1)})
    families = [fam for _, fam in deterministic_translate_families(noise, ctx)]
    mixturew = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)]
    blend = mixture_family(noise, families, mixturew)
    joint = joint_window_law(noise, blend, 2)
    expected: dict[tuple, Fraction] = {}
    for fam, w in zip(families, mixturew):
        for key, v in joint_window_law(noise, fam, 2).items():
            expected[key] = expected.get(key, Fraction(0)) + w * v
    assert joint == expected
    with pytest.raises(ValueError, match="at least 1"):
        joint_window_law(noise, blend, 0)
