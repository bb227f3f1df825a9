"""Sparse combinations of ramp and squared-ramp ridge functions.

Targets with a known discrete cosine spectrum (and the exact sine ridge) are
approximated by m-term combinations built three ways: plain spectral sampling,
stratified sampling over a mesh of atom cells, and two-stage sampling that
also sparsifies each atom's direction.  Error metrics, rate fits, and packing
experiments round out the toolkit; the `ridgecomb` script drives it in batch.
"""

__version__ = "0.1.0"

from .construct import (
    SparsifierConfig,
    StratifiedPlan,
    allocate,
    build_from_config,
    build_iid,
    build_simplified,
    build_sparse,
    build_stratified,
    default_epsilon,
    estimate_masses,
    exact_sine_masses,
    partition_parameters,
    sparsify,
)
from .core import (
    CubeDomain,
    RidgeAtom,
    RidgeCombination,
    atom_sup_distance,
    make_affine,
)
from .errors import BuilderError, UsageError
from .metrics import (
    ErrorReport,
    RateFit,
    fit_rate,
    l2_error,
    linf_error,
    lower_bound_floor,
    measure_report,
    measure_reports,
)
from .packing import (
    PackingSet,
    SineFamily,
    binary_entropy,
    family_gram,
    family_scale_epsilon,
    packing_lower_curve,
    pairwise_distance,
    select_packing,
    sine_family,
)
from .spectral import (
    IntegralRepresentation,
    SpectralMeasure,
    TargetFunction,
    exact_sine_representation,
    representation_mean,
    sample_atom,
    sample_atom_arrays,
    sample_atom_simplified,
    sample_simplified_arrays,
    spectral_representation,
    target_of,
    v_fs,
    verify_ramp_identity,
    verify_square_identity,
)
from .targets import catalog_entries, resolve_target

__all__ = [
    "BuilderError",
    "CubeDomain",
    "ErrorReport",
    "IntegralRepresentation",
    "PackingSet",
    "RateFit",
    "RidgeAtom",
    "RidgeCombination",
    "SineFamily",
    "SparsifierConfig",
    "SpectralMeasure",
    "StratifiedPlan",
    "TargetFunction",
    "UsageError",
    "__version__",
    "allocate",
    "atom_sup_distance",
    "binary_entropy",
    "build_from_config",
    "build_iid",
    "build_simplified",
    "build_sparse",
    "build_stratified",
    "catalog_entries",
    "default_epsilon",
    "estimate_masses",
    "exact_sine_masses",
    "exact_sine_representation",
    "family_gram",
    "family_scale_epsilon",
    "fit_rate",
    "l2_error",
    "linf_error",
    "lower_bound_floor",
    "make_affine",
    "measure_report",
    "measure_reports",
    "packing_lower_curve",
    "pairwise_distance",
    "partition_parameters",
    "representation_mean",
    "resolve_target",
    "sample_atom",
    "sample_atom_arrays",
    "sample_atom_simplified",
    "sample_simplified_arrays",
    "select_packing",
    "sine_family",
    "sparsify",
    "spectral_representation",
    "target_of",
    "v_fs",
    "verify_ramp_identity",
    "verify_square_identity",
]
