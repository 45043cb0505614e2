"""Deformed integers (q-brackets) for real and phase deformations.

The single primitive here is the q-bracket

    [x] = (q^x - q^-x) / (q - q^-1)

evaluated either with q = e^tau (real deformation) or q = e^(i*tau)
(phase deformation).  Both cases reduce to ratios of real functions:
sinh(tau*x)/sinh(tau) and sin(tau*x)/sin(tau) respectively.  The closed
forms are used directly instead of exponential differences, which would
cancel catastrophically for small tau.
"""

import math
from collections import namedtuple
from enum import Enum

__all__ = [
    "DeformationKind",
    "DeformationParameter",
    "SingularDeformationError",
    "q_bracket",
]

# Below this, sin(tau) is treated as exactly zero (tau at a multiple of pi).
_SIN_EPS = 1e-12


class SingularDeformationError(ValueError):
    """Phase deformation with sin(tau) = 0: the bracket denominator vanishes."""


class DeformationKind(Enum):
    """How tau maps to q: REAL means q = e^tau, PHASE means q = e^(i*tau)."""

    REAL = "real"
    PHASE = "phase"


class DeformationParameter(namedtuple("DeformationParameter", "tau kind")):
    """A deformation tau together with its interpretation.

    tau = 0 is always legal and means the undeformed (classical) limit,
    for either kind.  tau is stored as a float.
    """

    __slots__ = ()

    def __new__(cls, tau: float, kind: DeformationKind = DeformationKind.REAL):
        if not isinstance(kind, DeformationKind):
            raise TypeError(f"kind must be a DeformationKind, got {kind!r}")
        value = float(tau)
        if not math.isfinite(value):
            raise ValueError(f"tau must be finite, got {tau!r}")
        if kind is DeformationKind.PHASE and value != 0.0:
            # tau at an integer multiple of pi makes sin(tau) vanish and the
            # bracket singular; tau = 0 is excluded because it is handled as
            # the analytic limit, never as a division.
            if abs(math.sin(value)) < _SIN_EPS:
                raise SingularDeformationError(
                    f"phase deformation tau={value!r} is a multiple of pi; "
                    "the bracket denominator sin(tau) vanishes"
                )
        return tuple.__new__(cls, (value, kind))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def q(self) -> float:
        """The deformation base e^tau (real kind only)."""
        if self.kind is not DeformationKind.REAL:
            raise ValueError("q is real-valued only for the REAL kind")
        return math.exp(self.tau)


def q_bracket(x: float, d: DeformationParameter) -> float:
    """Evaluate the deformed number [x] under deformation d.

    Returns x exactly when tau = 0 (the analytic q -> 1 limit).  Accepts
    any finite real x; integrality is not required or assumed.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    tau = d.tau
    if tau == 0.0:
        return x
    if d.kind is DeformationKind.REAL:
        return math.sinh(tau * x) / math.sinh(tau)
    return math.sin(tau * x) / math.sin(tau)
