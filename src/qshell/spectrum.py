"""Single-particle spectrum of the 3-dimensional deformed oscillator.

Every energy is hbar_omega0 times

    E(n, l) = [n] q^(n+1) - q tanh(tau) [l][l+1],        q = e^tau

where [x] is the q-bracket and [l][l+1] is the angular-momentum
Casimir eigenvalue.  The coefficient of the Casimir term is written
q (q - q^-1) / [2] in operator form; since q - q^-1 = 2 sinh(tau) and
[2] = 2 cosh(tau), it collapses to q tanh(tau).

A shell n splits into levels l = n, n-2, ..., 1 or 0, each holding
2(2l+1) particles.  The small-tau expansion (energy_taylor) is provided
alongside the exact formula.

_level_energy is the one per-level copy of the formula's float operations.
energy() evaluates one level through it after its checks, and so do the
fit's sweep and the next shell's lowest energy, which decides whether a
truncated scheme is complete.  _energies_up_to() evaluates the energy
column of a whole scheme as a per-tau table: the brackets [k] =
sinh(tau k)/sinh(tau), q and q tanh(tau) once per tau, [n] q^(n+1) once
per shell and q tanh(tau) [l][l+1] once per l, so each level costs one
difference and one product, in _level_energy's order of operations: the
column and energy() agree bit for bit (the CSV and JSON output print
repr(energy)).  Both refuse a tau where the two terms overflow or cancel
to more than a relative 1e-6 of rounding (above tau of about 8).
The tau-independent (n, l, 2(2l+1)) columns of the table come from
allowed_l, cached per n_max, so enumerate_levels() checks no Level.
The last column is kept, a tuple enumerate_levels reads after build_scheme
cuts it; a test that patches this module's internals calls cache_clear().
"""

import math
import sys
from collections import namedtuple
from functools import lru_cache
from itertools import repeat

from .qmath import DeformationParameter, _Record, q_bracket

__all__ = [
    "Level",
    "ModelParameters",
    "InvalidLevelError",
    "allowed_l",
    "casimir_eigenvalue",
    "energy",
    "energy_taylor",
    "enumerate_levels",
]

DEFAULT_HBAR_OMEGA0 = 1.0
DEFAULT_N_MAX = 24


class InvalidLevelError(ValueError):
    """(n, l) outside the branching rule l = n, n-2, ..., 1 or 0."""


def _check_branching(n: int, l: int) -> None:
    if n < 0 or l < 0 or l > n or (n - l) % 2 != 0:
        raise InvalidLevelError(
            f"(n={n}, l={l}) violates the branching rule l = n, n-2, ..., 1 or 0"
        )


class Level(_Record, namedtuple("Level", "n l energy degeneracy")):
    """One (n, l) eigenstate: a finite energy E(n, l), capacity 2(2l+1)."""

    __slots__ = ()

    def __new__(cls, n: int, l: int, energy: float, degeneracy: int):
        _check_branching(n, l)
        if degeneracy != 2 * (2 * l + 1):
            raise ValueError(f"degeneracy {degeneracy} != 2(2l+1) = {2 * (2 * l + 1)}")
        if not abs(energy) <= sys.float_info.max:  # nan, +-inf and ints past the float range
            raise ValueError(f"energy must be finite, got {energy!r}")
        return tuple.__new__(cls, (n, l, energy, degeneracy))


class ModelParameters(_Record, namedtuple("ModelParameters", "deformation hbar_omega0 n_max")):
    """A deformation, its energy scale (stored as a float) and shell enumeration bound."""

    __slots__ = ()

    def __new__(cls, deformation: DeformationParameter,
                hbar_omega0: float = DEFAULT_HBAR_OMEGA0, n_max: int = DEFAULT_N_MAX):
        # A subnormal scale rounds energies of different shells to ties,
        # which no table order ranks exactly.
        if not sys.float_info.min <= hbar_omega0 <= sys.float_info.max:
            raise ValueError(f"hbar_omega0 must be a normal positive float, got {hbar_omega0!r}")
        if not hasattr(n_max, "__index__") or (n_max := n_max.__index__()) < 1:
            raise ValueError(f"n_max must be an integer >= 1, got {n_max!r}")
        if not isinstance(deformation, DeformationParameter):
            raise TypeError(f"deformation must be a DeformationParameter, got {deformation!r}")
        # The lowest level of shell n is (n, n) only for tau >= 0, and the
        # completeness check of a truncated scheme relies on it.
        if deformation.tau < 0:
            raise ValueError(f"tau must be >= 0, got {deformation.tau!r}")
        return tuple.__new__(cls, (deformation, float(hbar_omega0), n_max))


def allowed_l(n: int) -> list[int]:
    """Angular momenta of shell n, descending: n, n-2, ..., 1 or 0."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n!r}")
    return list(range(n, -1, -2))


def casimir_eigenvalue(l: int, d: DeformationParameter) -> float:
    """Angular-momentum Casimir eigenvalue [l][l+1]."""
    if l < 0:
        raise ValueError(f"l must be >= 0, got {l!r}")
    return q_bracket(l, d) * q_bracket(l + 1, d)


def energy(n: int, l: int, p: ModelParameters) -> float:
    """Exact eigenvalue E(n, l), hbar_omega0 times the bracket formula.

    At tau = 0 this returns hbar_omega0 * n exactly, with no division, and
    E(0, 0), whose two terms are 0, is 0 at every tau.  Raises ValueError
    where the terms cancel, as _energies_up_to does for the column whose
    next-shell floor is shell n, and where the value would not be finite.
    """
    _check_branching(n, l)
    tau = p.deformation.tau
    try:
        if tau != 0.0 and n != 0:
            _check_rounding(tau, math.exp(tau), n - 1, (n, l))
        value = _level_energy(tau, p.hbar_omega0)(n, l) if n else 0.0
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise _overflow(p, n)
    return value


def energy_taylor(n: int, l: int, p: ModelParameters, order: int) -> float:
    """Small-tau polynomial approximation of energy(), order 1 or 2.

    order 1:  n - tau (l(l+1) - n(n+1))
    order 2:  additionally  - tau^2 (l(l+1) - n(n+1)(2n+1)/3)

    all times hbar_omega0.  The remainder is O(tau^3) in general, but the
    tau^3 coefficient is (n^2(n+1)^2 - l^2(l+1)^2)/3, which vanishes on
    the stretched levels l = n, leaving an O(tau^4) remainder there.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order!r}")
    _check_branching(n, l)
    tau = p.deformation.tau
    value = n - tau * (l * (l + 1) - n * (n + 1))
    if order == 2:
        # n(n+1)(2n+1) is six times a square pyramidal number, so the
        # division by 3 is exact in integers.
        value -= tau * tau * (l * (l + 1) - n * (n + 1) * (2 * n + 1) // 3)
    return p.hbar_omega0 * value


@lru_cache(maxsize=32)
def _shape(n_hi: int) -> tuple[tuple[int, ...], ...]:
    """The tau-independent columns of the levels with 0 <= n <= n_hi.

    Returns (ns, ls, degeneracies): the n, l and 2(2l+1) of each level in
    (n, descending l) enumeration order.  allowed_l gives each shell's l's,
    so every (n, l, 2(2l+1)) is one Level accepts.
    """
    ns, ls = zip(*[(n, l) for n in range(n_hi + 1) for l in allowed_l(n)])
    return ns, ls, tuple(2 * (2 * l + 1) for l in ls)


def _overflow(p: ModelParameters, n_hi: int) -> ValueError:
    return ValueError(
        f"energies of shells 0..{n_hi} overflow a float at tau={p.deformation.tau!r}, "
        f"hbar_omega0={p.hbar_omega0!r}"
    )


# Unit roundoff of a double, and the largest relative rounding error that
# _energies_up_to accepts in an energy.  E(1, 1) is hbar_omega0 exactly, so
# there the tolerance is 1e-6 hbar_omega0, below every printed decimal.
_U = 2.0 ** -53
_TOLERANCE = 1e-6


def _term_error(tau: float, n_hi: int) -> float:
    """Relative rounding bound of shell[n] and casimir[l], n, l <= n_hi + 1.

    In _energies_up_to's operations, with exp, sinh, tanh and pow within
    2 ulps: sinh(tau k) adds (1 + tau k) u for the rounding of tau k, so
    [k] is within (10 + tau k) u; q ** (n + 1) carries q's error n + 1
    times, (4n + 8) u; shell[n] is within (19 + 4n + tau n) u and casimir[l]
    within (31 + 2 tau l + tau) u.  The difference and the scaling by
    hbar_omega0 add 2u of shell[n] + casimir[l].  So every energy of the
    column, and the next-shell floor, is within
    _term_error * hbar_omega0 * (shell[n] + casimir[l]) of its exact value;
    4 (n_hi + 10)(1 + tau) u covers this with room for second-order terms.
    """
    return 4 * (n_hi + 10) * (1 + tau) * _U


def _check_rounding(tau: float, q: float, n_hi: int, level=None) -> None:
    """Raise ValueError if the energies of shells 0..n_hi + 1 may cancel.

    Every energy is within _term_error * (shell[n] + casimir[l]) of its
    exact value, and shell[n] + casimir[l] <= 2 (e^(2 tau) + 1) E(n, l).
    The message names level, the (n, l) of one energy(), if given, else the
    column of shells 0..n_hi.
    """
    relative_error = 2 * _term_error(tau, n_hi) * (q * q + 1)
    if relative_error > _TOLERANCE:
        what = (f"energies of shells 0..{n_hi}" if level is None
                else "the two terms of E({}, {})".format(*level))
        raise ValueError(
            f"{what} cancel at tau={tau!r}: their relative rounding "
            f"error may reach {relative_error:.3g}, above the tolerance {_TOLERANCE:g}"
        )


@lru_cache(maxsize=1)  # enumerate_levels reads the column build_scheme just cut
def _energies_up_to(p: ModelParameters, n_hi: int) -> tuple[float, ...]:
    """energy(n, l, p) of each level of _shape(n_hi), then the floor E(n_hi+1, n_hi+1).

    All in _level_energy's operations, so bit for bit energy()'s and a longer
    column's where accepted; past the float range the floor may read +inf.
    Raises ValueError when a level of shells 0..n_hi or the floor's powers
    overflow a float, and when cancellation could put an energy further than
    _TOLERANCE of its value from the exact one: the two terms of E(n, l)
    grow as e^(2 tau n) while E(n, n) = sinh(2 n tau) / sinh(2 tau), so
    above tau of about 8 (E(1, 1) = 1 evaluates to 0.0 at tau = 20).  The
    last column is kept, so it is a tuple; call cache_clear() after patching.
    """
    tau = p.deformation.tau
    hbar_omega0 = p.hbar_omega0
    try:  # _level_energy's operations, the per-level copy, shared per shell and per l
        sinh_tau = math.sinh(tau)
        # At tau = 0, [k] = k, q = 1 and q tanh(tau) = 0: the same tables give n hbar_omega0.
        bracket = [math.sinh(tau * k) / sinh_tau for k in range(n_hi + 2)] if tau else range(n_hi + 2)
        q = math.exp(tau)
        casimir_coeff = q * math.tanh(tau)
        shell = [bracket[n] * q ** (n + 1) for n in range(n_hi + 1)]
    except OverflowError:
        raise _overflow(p, n_hi) from None
    casimir = [casimir_coeff * (bracket[l] * bracket[l + 1]) for l in range(n_hi + 1)]
    # shell and casimir are non-negative and increase with the index, so
    # no energy exceeds this one in magnitude.
    if not math.isfinite(hbar_omega0 * (shell[n_hi] + casimir[n_hi])):
        raise _overflow(p, n_hi)
    try:
        floor = _level_energy(tau, hbar_omega0)(n_hi + 1, n_hi + 1)
    except OverflowError:
        raise _overflow(p, n_hi + 1) from None
    _check_rounding(tau, q, n_hi)
    # Shell n's levels in _shape's order, l = n, n - 2, ..., 1 or 0.
    return (*[hbar_omega0 * (s - c) for n, s in enumerate(shell) for c in casimir[n::-2]], floor)


def _level_energy(tau: float, hbar_omega0: float):
    """(n, l) -> E(n, l), unchecked, n hbar_omega0 at tau = 0; each level of
    _energies_up_to's column bit for bit."""
    if tau == 0.0:
        return lambda n, l: hbar_omega0 * n
    sinh, sinh_tau, q = math.sinh, math.sinh(tau), math.exp(tau)
    casimir_coeff = q * math.tanh(tau)
    return lambda n, l: hbar_omega0 * (sinh(tau * n) / sinh_tau * q ** (n + 1) - casimir_coeff * (
        sinh(tau * l) / sinh_tau * (sinh(tau * (l + 1)) / sinh_tau)))


def enumerate_levels(p: ModelParameters) -> list[Level]:
    """All levels with 0 <= n <= n_max, in (n, descending l) enumeration order.

    Shell n contributes floor(n/2) + 1 levels totalling (n+1)(n+2) particles.
    """
    ns, ls, degeneracies = _shape(p.n_max)
    energies = _energies_up_to(p, p.n_max)  # zip ends at the shape, before the floor
    # _shape takes each (n, l) from allowed_l, so Level's check would pass.
    return list(map(tuple.__new__, repeat(Level), zip(ns, ls, energies, degeneracies)))
