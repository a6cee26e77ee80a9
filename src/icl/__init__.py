"""Index coding bounds and coded caching, computed exactly.

The package has three legs:

* inner bounds for general index coding: a composite-coding LP evaluated
  in exact rational arithmetic, and explicit GF(2) linear schemes whose
  achievability is certified by rank computations;
* an acyclic-subset outer bound on the side-information digraph;
* a bit-exact coded caching simulator (centralized and decentralized
  placement) together with the reduction from caching delivery to index
  coding and the scheme synthesis built on top of it.
"""

from .instance import (
    IndexCodingInstance,
    NotMultipleUnicast,
    SideInfoGraph,
    UnknownName,
    UserSpec,
    build_side_info_graph,
    builtin_instance,
    format_instance,
    parse_instance,
    validate_instance,
)
from .lp import Constraint, LinearProgram, LpSolution, solve_lp
from .composite import (
    CompositeResult,
    DecodingChoice,
    HullPoint,
    HullResult,
    InvalidDecodingSet,
    SearchSpaceOverflow,
    build_composite_lp,
    check_certificate,
    check_rate_point,
    enumerate_decoding_choices,
    max_symmetric_rate,
    max_weighted_rate,
    time_shared_symmetric_rate,
)
from .gf2 import Gf2Matrix, nullspace, rank_gf2, rref
from .schemes import (
    EnumerationTooLarge,
    LinearScheme,
    SchemeVerdict,
    builtin_scheme,
    check_scheme,
    conditional_entropy,
    embed_composite_allocation,
    format_scheme,
    kappa,
    parse_scheme,
    zero_error_decode_check,
)
from .outer import AcyclicBoundResult, TooManyVertices, acyclic_symmetric_bound, mais
from .caching import (
    CacheState,
    DecodeFailure,
    DeliveryTranscript,
    DeliveryVerification,
    DomainError,
    EmptyDemand,
    FileLibrary,
    Indivisible,
    MessageLabels,
    Payload,
    SubfileMap,
    canonical_worst_demand,
    cman_place,
    decode_all_users,
    deliver,
    dman_deliver,
    dman_place,
    formula_loads,
    iter_demands,
    leaders,
    load_csv_row,
    r_c_opt,
    r_c_opt_envelope,
    r_cman,
    r_d_opt,
    r_dman,
    random_library,
    reduce_to_index_coding,
    synthesize_delivery_scheme,
    transcript_log,
    verify_delivery_scheme,
)

__all__ = [name for name in dir() if not name.startswith("_")]
