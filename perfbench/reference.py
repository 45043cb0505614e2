"""Independent reference for the scheme-sweep workload.

Recomputes what `build_scheme` + `detect_shells` must return from the
closed form of E(n, l; tau), without calling qshell: evaluate the levels
of shells 0..N, sort by (energy, n, l), truncate at the count limit and
grade the gaps.  For tau > 0 the lowest level of a shell rises with n
(checked for tau in [0.001, 0.12] up to n = 90), so no omitted level lies
below the last kept one exactly when the lowest level of shell N+1 lies
above it.

Two readings of "complete" differ in one case, and both are accepted:

- the docstring of `build_scheme`: the scheme is truncated at count_limit,
  and it raises only when a shell above n_max reaches below the truncation
  energy;
- a brute-force oracle: the scheme must also equal the one from any larger
  N, so it must be filled up to count_limit.

They differ on *under-filled* schemes: count_limit exceeds the capacity
(N+1)(N+2)(N+3)/3 of shells 0..N, so every level is kept, and shell N+1
starts above the last one.  The docstring accepts such a scheme; the
oracle asks for a larger N.  The benchmark reports the share of inputs
where the two differ.  If the lowest level of shell N+1 lies above the last
kept one and the cap was reached, that level cannot fit either: its
degeneracy 2(2N+3) exceeds that of any level of shells 0..N.  So for a
filled scheme the two readings agree.

The energy expression uses the same float operations in the same order
as the model, so a correct result matches this reference bit for bit
(the CLI's csv/json output prints repr(energy), so the golden stdout of
the other workloads demands the same exactness).
"""

import math


def level_energies(tau, hbar_omega0, n_hi, n_lo=0):
    """(energy, n, l) of every level with n_lo <= n <= n_hi, for tau > 0."""
    sinh_tau = math.sinh(tau)
    q = math.exp(tau)
    casimir_coeff = q * math.tanh(tau)

    def bracket(x):
        return math.sinh(tau * x) / sinh_tau

    return [
        (hbar_omega0 * (bracket(n) * q ** (n + 1)
                        - casimir_coeff * (bracket(l) * bracket(l + 1))), n, l)
        for n in range(n_lo, n_hi + 1)
        for l in range(n, -1, -2)
    ]


def _truncate(sorted_levels, n_max, count_limit):
    kept = []
    running = 0
    for e, n, l in sorted_levels:
        if n > n_max:
            continue
        deg = 2 * (2 * l + 1)
        if running + deg > count_limit:
            break
        running += deg
        kept.append((e, n, l, running))
    return kept


def _graded(kept, primary_gap, secondary_gap):
    records = []
    for (e0, _, _, cum), (e1, _, _, _) in zip(kept, kept[1:]):
        gap = e1 - e0
        if gap > primary_gap:
            records.append((cum, "primary", gap))
        elif gap > secondary_gap:
            records.append((cum, "secondary", gap))
    return ("ok", tuple((n, l, e, cum) for e, n, l, cum in kept), tuple(records))


def outcomes(tau, n_max, count_limit, primary_gap, secondary_gap, hbar_omega0=1.0):
    """(acceptable results, under-filled) for build_scheme + detect_shells.

    A result is ("ok", levels, records) with levels (n, l, energy,
    cumulative) and records (count, grade, gap), grade "primary" or
    "secondary"; or ("raised", required_n_max).
    """
    levels = []  # (energy, n, l) of shells 0..len(lowest)-1
    lowest = []  # lowest energy of each shell

    def scheme(n):
        while len(lowest) < n + 2:
            new = level_energies(tau, hbar_omega0, len(lowest) + 15, n_lo=len(lowest))
            levels.extend(new)
            for m in range(len(lowest), len(lowest) + 16):
                lowest.append(min(e for e, k, _ in new if k == m))
        kept = _truncate(sorted(levels), n, count_limit)
        capacity = (n + 1) * (n + 2) * (n + 3) // 3
        complete = lowest[n + 1] > kept[-1][0]
        filled = kept[-1][3] < capacity or kept[-1][3] == count_limit
        return kept, complete, filled

    def answer(needs_fill):
        n = n_max
        while True:
            kept, complete, filled = scheme(n)
            if complete and (filled or not needs_fill):
                return _graded(kept, primary_gap, secondary_gap) if n == n_max else ("raised", n)
            n += 1

    documented, oracle = answer(needs_fill=False), answer(needs_fill=True)
    return [documented, oracle], documented != oracle
