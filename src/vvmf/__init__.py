"""Vector-valued modular forms from finite generator images.

Given the matrix images of the two standard generators of the modular
group, the package computes dimension tables of holomorphic and cusp
forms for every integer weight, the weight distribution of the free
module generators, and verifies the duality identities relating a
representation to its contragredient.
"""

from .catalog import CatalogError, catalog_names, resolve
from .dimensions import (
    Analysis,
    DimResult,
    certify_irreducible,
    dim_cusp,
    dim_holomorphic,
    dim_table,
)
from .invariants import (
    ExponentData,
    PartInvariants,
    Signature,
    floor_trace,
    floor_trace_complement,
    part_invariants,
    signature,
    t_eigenphases,
)
from .linalg import (
    DEFAULT_SETTINGS,
    Settings,
    SnapFailure,
    is_identity,
    mat_pow,
    nullspace,
    snap_integer,
)
from .modrep import (
    ModularRepresentation,
    ParityDecomposition,
    ParityError,
    ProjectorDefect,
    RelationViolation,
    TOrderNotFound,
    ValidationReport,
    build_kappa_power,
    build_p1_permutation,
    build_rho0,
    commutant_dimension,
    contragredient,
    direct_sum,
    parity,
    parity_split,
    tensor_kappa,
    validate,
)
from .repfile import ParseError, parse_rep
from .series import (
    DualityReport,
    GeneratorProfile,
    Weight1Indeterminate,
    duality_report,
    generator_profile,
)

__version__ = "0.1.0"
