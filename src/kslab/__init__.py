"""kslab: numerical certification of Kadison-Schwarz properties of unital
maps on matrix algebras, with constructive KS/co-KS decompositions."""

__version__ = "0.1.0"

from .certify import (
    CertificateVerdict,
    SearchBudget,
    amplified_ks_defect,
    check_phi_k_condition,
    co_ks_defect,
    falsify_co_ks,
    falsify_k_positivity,
    falsify_ks,
    kks_block_defect,
    ks_defect,
    phi_k_defect,
    scan_threshold,
)
from .decompose import (
    DecompositionResult,
    decompose_lambda_plus_T,
    decompose_reduction,
    jordan_defect,
    stormer_defect,
    verify_decomposition,
)
from .maps import BlockOperator, QuantumMap
from .suite import run_suite
from .zoo import (
    bound_lambda_minus,
    bounds_lambda_plus,
    depolarizing,
    lambda_minus,
    lambda_plus,
    reduction,
    sample_utp_cp,
    transpose_map,
    unitary_sandwich,
)
