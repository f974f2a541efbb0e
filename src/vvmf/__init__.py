"""Vector-valued modular forms from finite generator images.

Given the matrix images of the two standard generators of the modular
group, the package computes dimension tables of holomorphic and cusp
forms for every integer weight, the weight distribution of the free
module generators with the associated Hilbert series, and verifies the
duality identities relating a representation to its contragredient.
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
    EvenInvariants,
    ExponentData,
    OddInvariants,
    Signature,
    even_invariants,
    floor_trace,
    floor_trace_complement,
    gamma_sequence_check,
    odd_invariants,
    signature,
    signature_of_twist,
    t_eigenphases,
)
from .linalg import (
    DEFAULT_SETTINGS,
    Settings,
    SnapFailure,
    is_identity,
    mat_pow,
    rank,
    snap_integer,
)
from .modrep import (
    ClosureCapExceeded,
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
    contragredient,
    direct_sum,
    enumerate_closure,
    parity,
    parity_split,
    tensor_kappa,
    validate,
)
from .repfile import ParseError, RepFile, load_repfile, parse_rep
from .series import (
    DualityReport,
    GeneratorProfile,
    HilbertSeries,
    Weight1Indeterminate,
    duality_report,
    generator_profile,
    hilbert_series,
)

__version__ = "0.1.0"
