"""Two-photon frequency-entanglement toolkit.

Simulates the optical pipeline that turns a polarization-entangled photon
pair into an OAM-frequency entangled one via a rotating q-plate, computes
joint spectra and Hong-Ou-Mandel coincidence traces, solves the type-II
emission geometry of the source crystal, and inverts measured traces to
estimate the rotational beat frequency.

The public names below are imported from their submodules on first access
(PEP 562), so importing the package loads neither numpy nor any submodule.
"""

import importlib as _importlib

__version__ = "0.1.0"

_EXPORTS = {
    "hybrid_state": (
        "EmptyStateError", "InvalidStateError", "PhotonLabel", "Pol", "ProductTerm",
        "TwoPhotonState", "apply_polarizer_projection", "apply_qwp", "apply_rotating_qplate",
        "new_spdc_state", "run_pipeline", "state_overlap",
    ),
    "phase_match": (
        "BBO_EIMERL_1987", "CrystalConfig", "EmissionCurve", "IntersectionResult",
        "NoSolutionError", "SellmeierSet", "bandwidth_error", "emission_curves",
        "find_intersection", "frequency_grid", "wavelength_um",
    ),
    "joint_spectrum": (
        "JsaGrid", "PhaseMatchGaussian", "PumpSpectrum", "RdeShift", "effective_coherence_time",
        "jsa_grid", "jsa_value", "peak_locations",
    ),
    "hom_interference": (
        "HomConfig", "HomTrace", "QuadratureError", "RestrictedDensityMatrix",
        "coincidence_numeric", "coincidence_plain", "coincidence_rde", "dip_model",
        "fwhm_bandwidth", "observability", "restricted_density_matrix", "trace", "visibility",
    ),
    "rotation_estimator": (
        "EstimateResult", "NoisyTrace", "estimate", "extract_beat", "synthesize_trace",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
