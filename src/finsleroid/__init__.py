"""Numerical kernels for the Finsleroid-deformed euclidean space.

A single parameter g in (-2, 2) deforms euclidean geometry: the norm
becomes direction dependent, the unit sphere becomes the finsleroid (a
constant-curvature indicatrix), and the angle between vectors becomes
1/h times the euclidean angle of the quasi-euclidean images.  The
package provides the metric function and its tensor stack, the
quasi-euclidean map with its flat-side geometry, closed-form geodesics,
the two-vector scalar product / angle machinery, the first-order
parallelogram law, and a verification harness that certifies every
identity numerically.
"""

from .core import (
    GParameter,
    MetricContext,
    ScalarBundle,
    generating_j,
    generating_v,
    kfun,
    make_parameter,
    phi_function,
    q_norm,
    scalar_bundle,
)
from .errors import (
    CollinearError,
    DegenerateChordError,
    FinsleroidError,
    MaxIterationsError,
    NoRootError,
    NumericalDomainError,
    ObtuseInputError,
    OnAxisError,
    OutOfRangeError,
    ZeroVectorError,
)
from .finslerops import (
    FinslerPairProduct,
    axis_angles,
    finsler_angle,
    finsler_chord,
    finsler_geodesic,
    finsler_product,
    finsler_two_vector_tensor,
    m_vector,
    product_gradients,
    s_vector,
)
from .geodesics import (
    GeodesicChord,
    PairInvariants,
    angle,
    distance_squared,
    geodesic_point,
    geodesic_velocity,
    in_segment,
    length_gradients,
    pair_invariants,
    scalar_product,
    solve_chord,
)
from .quasimap import (
    QuasiGeometry,
    conformal_flatten,
    conformal_jacobian,
    mu_jacobian,
    mu_map,
    phi_angle,
    quasi_metric,
    quasi_metric_derivative,
    sigma_jacobian,
    sigma_map,
)
from .tensors import (
    CartanTensor,
    TensorStack,
    angular_tensor,
    cartan_tensor,
    curvature_tensor,
    gradient_covector,
    inverse_metric,
    metric_tensor,
    tensor_stack,
)
from .twovector import (
    CovectorPair,
    TwoVectorTensor,
    covector_pair,
    frame,
    frame_reconstruct,
    invert_covectors,
    ominus_first_order,
    oplus_first_order,
    parallelogram_refine,
    parallelogram_residuals,
    solve_co_angle,
    two_vector_metric,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
