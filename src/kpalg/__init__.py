"""Finite higher-rank graphs, their Kumjian-Pask algebras over exact
fields, and decision procedures for pure infiniteness with verified
witness certificates."""

from .aperiodicity import (
    AperiodicityVerdict,
    PeriodicCertificate,
    SeparationEvidence,
    aperiodicity_check,
    certify_never_separated,
    separates,
)
from .classify import (
    ClassificationReport,
    InternalConsistencyError,
    VertexConditions,
    classify_pure_infiniteness,
    report_json,
    strong_aperiodicity_sweep,
    vertex_conditions,
)
from .degrees import Degree, parse_degree
from .expr import ExprError, format_element, parse_expression
from .field import Field, FieldError, PrimeField, QQ, RationalField, parse_field
from .ideals import (
    IdealLattice,
    enumerate_sat_her,
    quotient,
    sat_her_closure,
)
from .kgraph import (
    Edge,
    KGraph,
    KGraphError,
    ParseError,
    Path,
    ValidationReport,
    Violation,
    format_kgraph,
    load_kgraph,
    parse_kgraph,
    path_sort_key,
    validate,
)
from .kpelement import (
    AlgebraError,
    KPElement,
    KPMatrix,
    as_matrix,
    column,
    equals,
    generator,
    is_idempotent,
    kp_mul,
    matrix_equals,
    normal_form,
    oplus,
    row,
    spanning_term,
    star_generator,
    vertex_unit,
    zero,
)
from .library import (
    bouquet,
    chain,
    cycle_graph,
    flip_loop_pair,
    grid,
    loop_with_exit,
    product,
    random_square_graph,
    single_edge,
    torus,
    two_loops_plus_exit,
)
from .paths import (
    GeneralizedCycle,
    NotFoundUpTo,
    ReachingCycle,
    find_cycle_reaching,
    find_reaching_gen_cycle,
    is_generalized_cycle,
    reachable_to,
)
from .witness import (
    DerivationStep,
    VertexInfinitenessReport,
    WitnessCertificate,
    WitnessError,
    certificate_json,
    failing_checks,
    infinite_vertex_from_reaching_cycle,
    lift_infinite,
    orthogonal_witness,
    prove_vertex_properly_infinite,
    transport_infinite,
    vertex_report_json,
    witness_from_gen_cycle,
)

__version__ = "0.1.0"
