"""syzkit: exact exterior calculus for semi-flat torus-fibration dualities."""

from .coeffring import GaussianRational, I, ONE, Poly, ZERO
from .exterior import (
    Form,
    FrameMismatch,
    FrameSpec,
    GenClass,
    Generator,
    frame_collect,
    frame_expand,
    koszul_sign,
    reversal_sign,
    substitute_generators,
)
from .calculus import (
    BasisChangeError,
    MissingPairing,
    SymplecticData,
    d_lambda,
    dolbeault,
    dual_lefschetz,
    exterior_d,
    holo_coframe,
    polarization_switch,
    polarization_unswitch,
)
from .fourier import SemiflatPair
from .sustruct import (
    Polarization,
    SUStructure,
    check_iia,
    check_iib,
    check_su,
    conformal_factor,
    flux_iia,
    flux_iib,
    mirror_transform,
    proportional_to,
)
from . import cohomology, linalg, nilmanifold

__all__ = [
    "GaussianRational", "I", "ONE", "ZERO", "Poly",
    "Form", "FrameSpec", "GenClass", "Generator",
    "FrameMismatch",
    "frame_collect", "frame_expand", "koszul_sign", "reversal_sign",
    "substitute_generators",
    "BasisChangeError", "MissingPairing", "SymplecticData",
    "d_lambda", "dolbeault", "dual_lefschetz", "exterior_d", "holo_coframe",
    "polarization_switch", "polarization_unswitch",
    "SemiflatPair",
    "Polarization", "SUStructure",
    "check_iia", "check_iib", "check_su", "conformal_factor", "flux_iia", "flux_iib",
    "mirror_transform", "proportional_to",
    "cohomology", "linalg", "nilmanifold",
]
