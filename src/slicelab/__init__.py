"""slicelab: exact-arithmetic verification of slice geometry at desk scale.

The package constructs and machine-checks, over the rationals, the explicit
formulas that govern Slodowy slices, moment maps on cotangent bundles of
PGL_n, the wonderful compactification inside a Grassmannian, and the
fibrewise compactification of the universal centralizer.  Everything is
immutable after construction and safe to share between workers.
"""

from .exactnum import LaurentPoly, Mat, Rational, sample_rational
from .liecore import (
    Ad,
    Element,
    GroupElement,
    InvariantVector,
    LieAlgebra,
    algebra_by_tag,
    bracket,
    centralizer,
    chi,
    exp_nilpotent,
    is_regular,
    kappa,
    killing,
    lie_algebra,
)
from .poissongeom import (
    CotangentPoint,
    MomentValue,
    PointedBivector,
    TransversalDecomposition,
    bivector_rank,
    check_moment_condition,
    cotangent_bivector,
    cotangent_bivector_identity,
    cotangent_form,
    lie_poisson_apply,
    lie_poisson_bivector,
    moment_eval,
    slice_codimension,
    transversal_check,
)
from .slices import (
    HamiltonianSpacePoint,
    ProjectiveFibre,
    ReductionClass,
    compactified_fibre_pgl2,
    k_tau,
    normalize_class,
    pi_maps_commute,
    psi_tau,
    slice_membership,
    stabilizer_infinitesimal,
    universal_centralizer_contains,
)
from .slodowy import (
    Grading,
    Sl2Triple,
    SliceConjugation,
    SlodowySlice,
    chi_section,
    conjugate_to_slice,
    grading,
    principal_slice,
    slodowy_slice,
    standard_triple,
    verify_triple,
    zero_triple,
)
from .suites import Config, SuiteReport, run_suite, suite_names
from .wonderful import (
    CurveSubspace,
    LogCotangentPoint,
    Subspace,
    chi_compatible,
    graph_subspace,
    in_gbar_stau,
    limit,
    pgl2_model,
)

__version__ = "0.1.0"
