"""Entanglement of formation toolbox.

Numerical EoF minimization over pure-state decompositions, the special state
families with known additivity behavior, and falsification probes for the
entropy inequalities those results rest on.
"""

from .qmat import (
    HermEig,
    ShapeError,
    SizeError,
    SymmetryError,
    herm_eig,
)
from .qstate import (
    DensityMatrix,
    NormalizationError,
    PureState,
    SchmidtDecomposition,
    load_state,
    partial_trace,
    reduced_state,
    save_state,
    schmidt,
    shannon_entropy,
    spectral_entropy,
    tensor,
    tensor_pure,
    von_neumann_entropy,
)
from .ensembles import (
    Ensemble,
    eigen_ensemble,
    flagged_state,
    hjw_ensemble,
    isometry_for_ensemble,
    load_ensemble,
    mix,
    product_ensemble,
    save_ensemble,
)
from .eof import (
    EofEstimate,
    EofOptions,
    concurrence_2q,
    ensemble_average_entanglement,
    eof_minimize,
    eof_pure,
    eof_wootters_2q,
    minimize_over_decompositions,
    wootters_decomposition,
)
from .statezoo import (
    Case1Spec,
    Case2Block,
    Case2Spec,
    ConstraintError,
    case1_state,
    case2_ensemble,
    case2_factor,
    classical_spec,
    random_density,
    random_isometry,
    random_pure,
    random_unitary,
    two_block_spec,
    werner_state,
    werner_two_pair,
)
from .reports import CheckReport, ProbeResult
from .checks import (
    case1_suite,
    check_case1,
    check_case2,
    check_flagged_identity,
    check_ssa,
    check_strong_concavity,
    check_weak_additivity,
    ssa_gap,
)
from .probes import (
    pair_superadditivity_gap,
    probe_question1,
    probe_question2,
    product_decomposition_members,
    reevaluate_argmin,
    relation_chain_check,
    superadditivity_probe,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
