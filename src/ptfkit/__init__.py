"""Exact analysis of Boolean functions as polynomial threshold functions.

Truth tables, an exact rational LP feasibility engine, minimal-order
computation, same-weight threshold families, summability certificates,
multithreshold (XOR-of-thresholds) representations, and the two
constructive operations built on them: order reduction at a flip point
and order extension with a two-threshold witness.
"""

from .asummability import (
    ConsistencyReport,
    SummabilityCertificate,
    check_asummability_theorem,
    find_certificate,
    is_m_asummable,
)
from .core import (
    InputVector,
    TruthTable,
    all_vectors,
    cofactor,
    compose_by_variable,
    const,
    evaluate,
    flip_at,
    format_table,
    from_bits,
    index_of,
    minterms,
    parse_table,
    vector_at,
    xor,
)
from .errors import DimensionMismatch, ParseError, PreconditionError, PtfkitError
from .highorder import (
    HighOrderVectorResult,
    OrderReduction,
    high_order_search,
    high_order_vectors,
    is_high_order_vector,
    order_reduce,
    single_minterm_witness,
)
from .multithreshold import (
    MultithresholdRep,
    OrderExtensionResult,
    SharedWeight,
    XorList,
    eval_shared_weight,
    eval_xor_list,
    extend_order,
    synthesize_shared_weight,
    to_truth_table,
)
from .ptf import (
    PTF,
    Monomial,
    SameWeightFamily,
    eval_G,
    is_threshold,
    minimal_realization,
    order,
    realize_at_degree,
    same_weight_family,
    share_weights,
    truth_table,
)

__version__ = "0.1.0"

__all__ = [
    "ConsistencyReport",
    "DimensionMismatch",
    "HighOrderVectorResult",
    "InputVector",
    "Monomial",
    "MultithresholdRep",
    "OrderExtensionResult",
    "OrderReduction",
    "PTF",
    "ParseError",
    "PreconditionError",
    "PtfkitError",
    "SameWeightFamily",
    "SharedWeight",
    "SummabilityCertificate",
    "TruthTable",
    "XorList",
    "all_vectors",
    "check_asummability_theorem",
    "cofactor",
    "compose_by_variable",
    "const",
    "eval_G",
    "eval_shared_weight",
    "eval_xor_list",
    "evaluate",
    "extend_order",
    "find_certificate",
    "flip_at",
    "format_table",
    "from_bits",
    "high_order_search",
    "high_order_vectors",
    "index_of",
    "is_high_order_vector",
    "is_m_asummable",
    "is_threshold",
    "minimal_realization",
    "minterms",
    "order",
    "order_reduce",
    "parse_table",
    "realize_at_degree",
    "same_weight_family",
    "share_weights",
    "single_minterm_witness",
    "synthesize_shared_weight",
    "to_truth_table",
    "truth_table",
    "vector_at",
    "xor",
]
