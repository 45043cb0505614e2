"""Deformed integers (q-brackets) for the real deformation q = e^tau.

The single primitive here is the q-bracket

    [x] = (q^x - q^-x) / (q - q^-1)

which with q = e^tau is the ratio sinh(tau*x)/sinh(tau).  The closed
form is used directly instead of exponential differences, which would
cancel catastrophically for small tau.

_Record is the base of the package's validating named tuples: each checks
its fields in __new__, and _make, and so _replace, build through it.
"""

import math
from collections import namedtuple

__all__ = [
    "DeformationParameter",
    "q_bracket",
]


class _Record:
    """Mixed in before a namedtuple: _make, and so _replace, go through __new__."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class DeformationParameter(_Record, namedtuple("DeformationParameter", "tau")):
    """A deformation tau, with q = e^tau.

    tau = 0 is always legal and means the undeformed (classical) limit.
    tau is stored as a float.
    """

    __slots__ = ()

    def __new__(cls, tau: float):
        value = float(tau)
        if not math.isfinite(value):
            raise ValueError(f"tau must be finite, got {tau!r}")
        return tuple.__new__(cls, (value,))


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
    return math.sinh(tau * x) / math.sinh(tau)
