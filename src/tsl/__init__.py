"""Exact analysis of backward recursions driven by random finite maps.

The layers, bottom up: `algebra` (finite transformation semigroups, cores,
subgroups, cosets), `linear` (sparse exact solves checked by substitution),
`measures` (exact rational probability, convolution, the product chain and
its limits), `solver` (solution families and the classification decision
tree), `montecarlo` (reproducible simulation held against closed forms),
`cli` (problem files, reports, CSV/JSON output).
"""

from .algebra import (
    CosetStructure,
    ElementClassification,
    FiniteSemigroup,
    StateSpace,
    SubgroupDescriptor,
    TransformationElement,
    classify_elements,
    compose,
    constant_element,
    core_orbit,
    coset_structure,
    find_subgroups,
    full_transformation_monoid,
    generate_closure,
    identity_element,
    is_left_cancellative,
    is_subgroup,
    power_core,
    power_orbit_intersection,
)
from .context import (
    ActionContext,
    cyclic_group_context,
    group_context,
    semigroup_context,
)
from .errors import (
    AmbiguityError,
    CapacityError,
    CarrierMismatchError,
    DimensionError,
    InternalInconsistencyError,
    MultiplicityError,
    SpecError,
    TslError,
    UnsupportedCaseError,
)
from .measures import (
    Carrier,
    LimitLawReport,
    NoiseSpec,
    ProbMeasure,
    ProductChain,
    RecurrentClass,
    act,
    build_product_chain,
    convolve,
    element_carrier,
    is_right_invariant,
    limit_analysis,
    mix,
    state_carrier,
    tv_distance,
)
from .montecarlo import (
    CouplingSample,
    CouplingStats,
    LawEstimate,
    PathSample,
    SimConfig,
    SplitMix64,
    StoppingTimeStats,
    ci_coupling,
    coupling_samples,
    estimate_law,
    exact_product_law,
    exact_state_law,
    simulate_paths,
    stopping_time_stats,
    trial_stream,
    within_three_sigma,
)
from .solver import (
    ClassificationReport,
    FourierReport,
    Origin,
    SolutionLawFamily,
    WitnessReport,
    cesaro_solutions,
    classify,
    cyclic_coset_families,
    deterministic_translate_families,
    extremal_solutions,
    fourier_trichotomy,
    joint_window_law,
    make_family,
    mixture_family,
    stationary_law,
    strongness_witness,
    translate_family,
    translate_orbit_check,
    uniform_solution,
)
from .cli import (
    CompiledProblem,
    ProblemSpec,
    compile_problem,
    main,
    parse_spec,
    serialize_spec,
)

__version__ = "0.1.0"
