"""Flag manifolds as fixed-spectrum symmetric matrices.

A flag (a nested chain of subspaces of R^n) is modeled by the symmetric
matrix with eigenvalue a_i on the i-th increment of the chain.  The model
is rotation-equivariant and isometric for the natural invariant metric,
and it lives in the traceless symmetric matrices, of dimension
(n-1)(n+2)/2, which is smaller than the classical general-purpose
embedding bounds; the ``repdim`` module verifies, in exact arithmetic,
the module-dimension classification behind that minimality, and
``bounds`` tabulates the comparisons.
"""

from .bounds import (
    BoundReport,
    StiefelBound,
    all_signatures,
    bound_table,
    flag_dimension,
    gunther_bound,
    gunther_comparison,
    isospectral_bound,
    stiefel_check,
    stiefel_min_dim,
    wang_bound,
    wang_whitney_composed,
    whitney_bound,
    whitney_comparison,
)
from .embed import (
    EmbeddedFlag,
    act,
    block_diagonal_model,
    embed,
    membership,
    recover,
    traceless_split,
)
from .errors import (
    DegenerateBoundaryGap,
    EigenvalueGapTooSmall,
    IsoflagError,
    NumericalError,
    SpectrumMismatch,
    StepNotFinite,
    ValidationError,
)
from .flagcore import (
    EIG_TOL,
    ORTH_TOL,
    SPECTRUM_GAP_TOL,
    SYM_TOL,
    FlagPoint,
    FlagSignature,
    Spectrum,
    SymmetricMatrix,
    TangentBlock,
    complete_traceless_spectrum,
    default_traceless_spectrum,
    flags_equal,
    identity_flag,
    make_signature,
    random_flag_point,
    random_tangent_block,
)
from .geometry import (
    DescentResult,
    EmbeddedTangent,
    default_step,
    gradient_descent,
    isometry_defect,
    metric_inner,
    nearest_point,
    project_to_tangent,
    push_tangent,
    retract,
)
from .repdim import (
    ClassificationReport,
    EnumerationHit,
    EnumerationReport,
    HighestWeight,
    SearchBox,
    enumerate_low_dim,
    fundamental_weight,
    parse_weight,
    shift_decrease_check,
    single_row_dim,
    spin_dimension,
    traceless_sym_dim,
    verify_classification,
    weyl_dim,
)

__version__ = "0.1.0"
