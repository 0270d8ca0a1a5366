"""Common fixed points of finite mapping families, with certificates.

The package provides, in four layers:

* :mod:`commonfix.space`: the ambient space R x l1 with finite-support
  vectors, the product norm, convex combinations, admissible sets;
* :mod:`commonfix.mappings`: model operators whose powers relax
  nonexpansiveness gradually (additively), their closed powers, growth
  profiles, and defect estimation;
* :mod:`commonfix.scheme`: the two-stage weighted iteration with per-step
  n-th powers, weight schedules, traces, and serialization;
* :mod:`commonfix.verifier`: numerical certificates for the growth
  inequality and the exact identities of the shift-and-root operator,
  witness and counterexample builders, and trajectory recursion bounds.

The :mod:`commonfix.cli` module drives experiments from JSON configs.
"""

from .errors import (
    CommonFixError,
    DomainViolation,
    InfeasibleSchedule,
    LengthMismatch,
    MissingConstants,
    NotAFixedPoint,
    ParseError,
    ValidationError,
    WeightSumViolation,
)
from .mappings import (
    FixedSetDescriptor,
    Mapping,
    TotalAsymptoticProfile,
    apply_f_kappa,
    apply_t_alpha,
    estimate_intermediate_defect,
    make_identity,
    make_s,
    make_s_f,
    mapping_from_json,
    nth_power,
    power_t_alpha,
)
from .scheme import (
    IterationConfig,
    Trace,
    TraceRecord,
    WeightSchedule,
    distance_to_fixset,
    i_images,
    make_schedule,
    run,
    step,
    write_trace_csv,
)
from .space import (
    AdmissibleSet,
    L1Vector,
    ProductPoint,
    convex_combine,
    distance,
    in_set,
    l1_distance,
    l1_norm,
    point_from_json,
    point_to_json,
    product_norm,
)
from .verifier import (
    InequalityCheck,
    RecursionBound,
    WitnessResult,
    antipodal_pair_counterexample,
    check_run_bound,
    check_total_inequality,
    compute_recursion_bound,
    witness_non_asymptotic,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibleSet",
    "CommonFixError",
    "DomainViolation",
    "FixedSetDescriptor",
    "InequalityCheck",
    "InfeasibleSchedule",
    "IterationConfig",
    "L1Vector",
    "LengthMismatch",
    "Mapping",
    "MissingConstants",
    "NotAFixedPoint",
    "ParseError",
    "ProductPoint",
    "RecursionBound",
    "TotalAsymptoticProfile",
    "Trace",
    "TraceRecord",
    "ValidationError",
    "WeightSchedule",
    "WeightSumViolation",
    "WitnessResult",
    "antipodal_pair_counterexample",
    "apply_f_kappa",
    "apply_t_alpha",
    "check_run_bound",
    "check_total_inequality",
    "compute_recursion_bound",
    "convex_combine",
    "distance",
    "distance_to_fixset",
    "estimate_intermediate_defect",
    "i_images",
    "in_set",
    "l1_distance",
    "l1_norm",
    "make_identity",
    "make_s",
    "make_s_f",
    "make_schedule",
    "mapping_from_json",
    "nth_power",
    "point_from_json",
    "point_to_json",
    "power_t_alpha",
    "product_norm",
    "run",
    "step",
    "witness_non_asymptotic",
    "write_trace_csv",
]
