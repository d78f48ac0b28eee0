"""disklab: numerical laboratory on the unit disk.

Truncated Taylor series, graded disk quadrature, a weight catalog with
superharmonicity testing, weighted Dirichlet energies, exact moment
tables of point distributions with their multiplicative structure, and
the reproducing-kernel model (h, a, b) attached to unit-mass weights.
"""

from .dbr import (
    DbrModel,
    berezin_transform,
    berezin_transforms,
    build_model,
    kernel,
    kernel_series,
    laplacian_identity_check,
    moment_table_from_berezin,
    szego_model,
    verify_h_identity,
    verify_isometry,
)
from .dirichlet import DilationReport, dilation_report, energy
from .errors import (
    DegenerateNodeSetError,
    DegenerateWeightError,
    DomainError,
    InconsistentTableError,
    NotDbrWeightError,
    NotWeaklyMultiplicativeError,
    SingularIntegrandError,
    SingularPointError,
    WeightSpecError,
)
from .moments import (
    FactorizationResult,
    GaussianRational,
    MomentTable,
    PointDistribution,
    atoms_table,
    disk_moments,
    factorize,
    l1_norm,
    measure_moments,
    normalize,
    point_moments,
    random_non_rank_one_distribution,
    random_rank_one_distribution,
    tensor_diag_check,
    weak_mult_check,
)
from .quadrature import (
    ALIAS_GUARD,
    DiskGrid,
    integrate,
    make_disk_grid,
)
from .series import (
    TaylorSeries,
    exp_series,
    geometric_series,
)
from .weights import (
    AtomicWeight,
    Custom,
    Weight,
    grid_for_weight,
    harmonic_boundary,
    log_green,
    parse_weight_spec,
    superharmonic_test,
    uniform_weight,
)

__version__ = "0.1.0"
