"""Single-particle spectrum of the 3-dimensional deformed oscillator.

Energies in units of hbar*omega0:

    E(n, l) = [n] q^(n+1) - q tanh(tau) [l][l+1],        q = e^tau

where [x] is the q-bracket and [l][l+1] is the angular-momentum
Casimir eigenvalue.  The coefficient of the Casimir term is written
q (q - q^-1) / [2] in operator form; since q - q^-1 = 2 sinh(tau) and
[2] = 2 cosh(tau), it collapses to q tanh(tau).

A shell n splits into levels l = n, n-2, ..., 1 or 0, each holding
2(2l+1) particles.  The small-tau expansion (energy_taylor) is provided
alongside the exact formula.

energy() evaluates one level.  _energies_up_to() evaluates the energy
column of a whole scheme as a per-tau table: the brackets [k] =
sinh(tau k)/sinh(tau), q and q tanh(tau) once per tau, [n] q^(n+1) once
per shell and q tanh(tau) [l][l+1] once per l, so each level costs one
difference and one product.  It uses the same float operations in the
same order as energy(), so both give bit-identical energies (the CSV and
JSON output print repr(energy)), and it also returns the next shell's
lowest energy, which decides whether a truncated scheme is complete.
The levels follow the tau-independent (n, l, 2(2l+1)) shape of the
table, cached and checked against Level's rules once per n_max, so
enumerate_levels() makes its Level records without checking them again.
"""

import math
import sys
from collections import namedtuple
from functools import lru_cache
from itertools import repeat

from .qmath import DeformationParameter, q_bracket

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


# Bound once: Level construction is the hot path of enumerate_levels.
_tuple_new = tuple.__new__


class InvalidLevelError(ValueError):
    """(n, l) outside the branching rule l = n, n-2, ..., 1 or 0."""


def _check_branching(n: int, l: int) -> None:
    if n < 0 or l < 0 or l > n or (n - l) % 2 != 0:
        raise InvalidLevelError(
            f"(n={n}, l={l}) violates the branching rule l = n, n-2, ..., 1 or 0"
        )


class Level(namedtuple("Level", "n l energy degeneracy")):
    """One (n, l) eigenstate: energy in hbar*omega0 units, capacity 2(2l+1)."""

    __slots__ = ()

    def __new__(cls, n: int, l: int, energy: float, degeneracy: int):
        # Checked inline for speed; on a failure _check_branching raises if
        # the branching rule is broken, else the capacity is wrong.
        if not (0 <= l <= n and (n - l) % 2 == 0 and degeneracy == 4 * l + 2):
            _check_branching(n, l)
            raise ValueError(f"degeneracy {degeneracy} != 2(2l+1) = {2 * (2 * l + 1)}")
        return _tuple_new(cls, (n, l, energy, degeneracy))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class ModelParameters(namedtuple("ModelParameters", "deformation hbar_omega0 n_max")):
    """A deformation with its energy scale and shell enumeration bound."""

    __slots__ = ()

    def __new__(cls, deformation: DeformationParameter, hbar_omega0: float = 1.0,
                n_max: int = 24):
        # A subnormal scale rounds distinct energies to ties, and the sort
        # would fall back to (n, l) order.
        if not sys.float_info.min <= hbar_omega0 <= sys.float_info.max:
            raise ValueError(f"hbar_omega0 must be a normal positive float, got {hbar_omega0!r}")
        if n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {n_max!r}")
        # The lowest level of shell n is (n, n) only for tau >= 0, and the
        # completeness check of a truncated scheme relies on it.
        if deformation.tau < 0:
            raise ValueError(f"tau must be >= 0, got {deformation.tau!r}")
        return _tuple_new(cls, (deformation, hbar_omega0, n_max))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


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
    """Exact eigenvalue E(n, l), in hbar*omega0 units.

    At tau = 0 this returns hbar_omega0 * n exactly, with no division.
    """
    _check_branching(n, l)
    d = p.deformation
    tau = d.tau
    if tau == 0.0:
        return p.hbar_omega0 * n
    q = math.exp(tau)
    return p.hbar_omega0 * (
        q_bracket(n, d) * q ** (n + 1)
        - q * math.tanh(tau) * casimir_eigenvalue(l, d)
    )


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

    Returns (ns, ls, degeneracies, by_n_l): the n, l and 2(2l+1) of each
    level in (n, descending l) enumeration order, and the indices that
    visit the levels in (n, ascending l) order.  Every (n, l, 2(2l+1))
    passes Level's check here, once per n_hi, so the per-tau table can
    build its levels without repeating it.
    """
    levels = [Level(n, l, 0.0, 2 * (2 * l + 1)) for n in range(n_hi + 1) for l in allowed_l(n)]
    ns, ls, _, degeneracies = zip(*levels)
    by_n_l = sorted(range(len(ns)), key=lambda i: (ns[i], ls[i]))
    return ns, ls, degeneracies, tuple(by_n_l)


def _overflow(p: ModelParameters, n_hi: int) -> ValueError:
    return ValueError(
        f"energies of shells 0..{n_hi} overflow a float at tau={p.deformation.tau!r}, "
        f"hbar_omega0={p.hbar_omega0!r}"
    )


def _energies_up_to(p: ModelParameters, n_hi: int) -> tuple[list[float], float]:
    """energy(n, l, p) of each level of _shape(n_hi), and energy(n_hi+1, n_hi+1, p).

    Both bit for bit; the second, the next-shell floor, is inf where energy()
    raises OverflowError.  Raises ValueError when a level overflows a float.
    """
    tau = p.deformation.tau
    hbar_omega0 = p.hbar_omega0
    ns, ls, _, _ = _shape(n_hi)
    if tau == 0.0:
        if not math.isfinite(hbar_omega0 * n_hi):
            raise _overflow(p, n_hi)
        return [hbar_omega0 * n for n in ns], hbar_omega0 * (n_hi + 1)
    # The same operations as q_bracket, q_bracket * q ** (n + 1) and
    # q * tanh(tau) * casimir_eigenvalue in energy().
    try:
        sinh_tau = math.sinh(tau)
        bracket = [math.sinh(tau * k) / sinh_tau for k in range(n_hi + 2)]
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
    m = n_hi + 1
    try:
        bracket_above = math.sinh(tau * (m + 1)) / sinh_tau
        floor = hbar_omega0 * (bracket[m] * q ** (m + 1)
                               - casimir_coeff * (bracket[m] * bracket_above))
    except OverflowError:
        floor = math.inf
    return [hbar_omega0 * (shell[n] - casimir[l]) for n, l in zip(ns, ls)], floor


def _levels_up_to(p: ModelParameters, n_hi: int) -> list[Level]:
    """_energies_up_to(p, n_hi)'s levels as Level records; n_hi may exceed p.n_max."""
    ns, ls, degeneracies, _ = _shape(n_hi)
    energies, _ = _energies_up_to(p, n_hi)
    # _shape checked every (n, l, degeneracy), and Level checks nothing else.
    return list(map(_tuple_new, repeat(Level), zip(ns, ls, energies, degeneracies)))


def enumerate_levels(p: ModelParameters) -> list[Level]:
    """All levels with 0 <= n <= n_max, in (n, descending l) enumeration order.

    Shell n contributes floor(n/2) + 1 levels totalling (n+1)(n+2) particles.
    """
    return _levels_up_to(p, p.n_max)
