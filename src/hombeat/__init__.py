"""Two-photon frequency-entanglement toolkit.

Simulates the optical pipeline that turns a polarization-entangled photon
pair into an OAM-frequency entangled one via a rotating q-plate, computes
joint spectra and Hong-Ou-Mandel coincidence traces, solves the type-II
emission geometry of the source crystal, and inverts measured traces to
estimate the rotational beat frequency.
"""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .hybrid_state import (
    EmptyStateError,
    InvalidStateError,
    PhotonLabel,
    Pol,
    ProductTerm,
    SpatialMode,
    TwoPhotonState,
    apply_delay_and_beamsplitter,
    apply_polarizer_projection,
    apply_qwp,
    apply_rotating_qplate,
    new_spdc_state,
    run_pipeline,
    state_overlap,
)
from .phase_match import (
    BBO_EIMERL_1987,
    CrystalConfig,
    EmissionCurve,
    EmissionPoint,
    IntersectionResult,
    NoSolutionError,
    SellmeierSet,
    bandwidth_error,
    emission_curves,
    find_intersection,
    frequency_grid,
    momentum_residuals,
    n_extraordinary,
    n_ordinary,
    n_principal_extraordinary,
    solve_emission_point,
    wavelength_um,
)
from .joint_spectrum import (
    JsaGrid,
    PhaseMatchGaussian,
    PumpSpectrum,
    RdeShift,
    effective_coherence_time,
    jsa_grid,
    jsa_value,
    peak_locations,
    phase_match_for_coherence_time,
)
from .hom_interference import (
    GaussianSpectralAmplitude,
    HomConfig,
    HomTrace,
    QuadratureError,
    RestrictedDensityMatrix,
    coincidence_numeric,
    coincidence_plain,
    coincidence_rde,
    fwhm_bandwidth,
    make_shifted_spectra,
    observability,
    restricted_density_matrix,
    trace,
    visibility,
)
from .rotation_estimator import (
    EnvelopeFit,
    EstimateResult,
    NoisyTrace,
    estimate,
    extract_beat,
    fit_envelope,
    synthesize_trace,
)

# the public names re-exported above, without the submodules the imports bind
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
