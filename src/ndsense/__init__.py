"""Simulator and analysis toolkit for dual-mode nanodiamond sensing:
photon-level orbital tracking, ODMR thermometry, passive nanorheology,
and directed-motion segmentation."""

from . import chip, media, odmr, rheology, segmentation, tracker
from .media import (
    GLYCEROL_MODEL,
    DirectedSegmentSpec,
    ViscoelasticModel,
    ViscousMediumModel,
    inject_directed,
    simulate_brownian,
    simulate_viscoelastic,
    stokes_einstein_D,
    viscosity_at,
)
from .rheology import (
    ComplexModulus,
    ForceSpectrum,
    MsdCurve,
    PsdCurve,
    anomalous_exponent,
    complex_modulus,
    external_force_spectrum,
    fit_diffusion,
    fit_hydrodynamic_radius,
    msd,
    psd,
)
from .seeding import substream
from .segmentation import class_exponents, directionality_ratio, gamma_null, segment
from .tracker import TrackerConfig, static_benchmark, track
from .trajectory import Trajectory

__version__ = "0.1.0"

__all__ = [
    "chip",
    "media",
    "odmr",
    "rheology",
    "segmentation",
    "tracker",
    "GLYCEROL_MODEL",
    "DirectedSegmentSpec",
    "ViscoelasticModel",
    "ViscousMediumModel",
    "inject_directed",
    "simulate_brownian",
    "simulate_viscoelastic",
    "stokes_einstein_D",
    "viscosity_at",
    "ComplexModulus",
    "ForceSpectrum",
    "MsdCurve",
    "PsdCurve",
    "anomalous_exponent",
    "complex_modulus",
    "external_force_spectrum",
    "fit_diffusion",
    "fit_hydrodynamic_radius",
    "msd",
    "psd",
    "substream",
    "class_exponents",
    "directionality_ratio",
    "gamma_null",
    "segment",
    "TrackerConfig",
    "static_benchmark",
    "track",
    "Trajectory",
    "__version__",
]
