"""Dimension oracles and output checks computed apart from vvmf.

Nothing here imports vvmf.  The oracles are the classical formulas:

* dim M_k and dim S_k of Gamma0(N) from the index mu, the elliptic point
  counts eps2 and eps3, the cusp count eps_inf and the genus
  (Diamond-Shurman, A First Course in Modular Forms, 3.1 and 3.5-3.6).
  The permutation representation p1(N) of SL2(Z) on the projective line
  mod N is induced from the trivial character of Gamma0(N), so its
  forms of weight k are exactly the forms of weight k on Gamma0(N).
* kappa^j, the character of eta^2, through the eta quotient
  M_k(kappa^j) = eta^(2j) M_(k-j)(SL2(Z)) for 0 <= j <= 11.  For j > 0
  every such form vanishes at the cusp, so S_k(kappa^j) = M_k(kappa^j).

A table is a dict weight -> (dim M, dim S).  The checks return a list of
human-readable mismatches; an empty list means the output passed.
"""

from __future__ import annotations

import math

HOLOMORPHIC = "holomorphic"
CUSP = "cusp"


def prime_factors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def euler_phi(n: int) -> int:
    result = n
    for p in prime_factors(n):
        result = result // p * (p - 1)
    return result


def gamma0_invariants(n: int) -> dict:
    """Index, elliptic points, cusps and genus of Gamma0(n)."""
    primes = prime_factors(n)
    mu = n
    for p in primes:
        mu = mu * (p + 1) // p
    if n % 4 == 0:
        eps2 = 0
    else:
        eps2 = math.prod(1 if p == 2 else 1 + (-1) ** ((p - 1) // 2) for p in primes)
    if n % 9 == 0:
        eps3 = 0
    else:
        eps3 = math.prod(1 if p == 3 else (0 if p == 2 else 1 + (1 if p % 3 == 1 else -1))
                         for p in primes)
    eps_inf = sum(euler_phi(math.gcd(d, n // d)) for d in range(1, n + 1) if n % d == 0)
    twelve_g = 12 + mu - 3 * eps2 - 4 * eps3 - 6 * eps_inf
    assert twelve_g % 12 == 0, (n, twelve_g)
    return {"mu": mu, "eps2": eps2, "eps3": eps3, "eps_inf": eps_inf, "genus": twelve_g // 12}


def gamma0_dims(n: int, k: int) -> tuple[int, int]:
    """(dim M_k, dim S_k) of Gamma0(n); odd weights vanish because -1 lies in it."""
    if k < 0 or k % 2:
        return 0, 0
    if k == 0:
        return 1, 0
    inv = gamma0_invariants(n)
    g, e2, e3, einf = inv["genus"], inv["eps2"], inv["eps3"], inv["eps_inf"]
    base = (k - 1) * (g - 1) + (k // 4) * e2 + (k // 3) * e3
    holo = base + (k // 2) * einf
    cusp = g if k == 2 else base + (k // 2 - 1) * einf
    return holo, cusp


def level_one_dim(k: int) -> int:
    """dim M_k(SL2(Z)) by the classical floor(k/12) rule."""
    if k < 0 or k % 2:
        return 0
    return k // 12 + (0 if k % 12 == 2 else 1)


def kappa_dims(j: int, k: int) -> tuple[int, int]:
    """(dim M_k, dim S_k) for the j-th power of the eta^2 character."""
    j %= 12
    holo = level_one_dim(k - j)
    if j:
        return holo, holo
    return holo, max(0, holo - 1) if k != 0 else 0


def p1_table(n: int, weights) -> dict:
    return {w: gamma0_dims(n, w) for w in weights}


def kappa_table(j: int, weights) -> dict:
    return {w: kappa_dims(j, w) for w in weights}


def add_tables(*tables) -> dict:
    """Pointwise sum over a direct sum's summands."""
    out = {}
    for w in tables[0]:
        out[w] = (sum(t[w][0] for t in tables), sum(t[w][1] for t in tables))
    return out


def sub_tables(a: dict, b: dict) -> dict:
    return {w: (a[w][0] - b[w][0], a[w][1] - b[w][1]) for w in a if w in b}


def p1_t_order(n: int) -> int:
    """The t image sends (c:d) to (c:c+d); the orbit of (1:0) has length n."""
    return n


def twist_t_order(base_order: int, j: int) -> int:
    """Order of a scalar twelfth root of unity e(j/12) times an order-n matrix.

    The product is the identity only when the matrix power is a scalar,
    which for a permutation matrix with a fixed point means the identity.
    """
    return math.lcm(base_order, 12 // math.gcd(j % 12, 12))


def series_expand(counts: dict, max_weight: int) -> list[int]:
    """Coefficients of sum_w c_w z^w / ((1-z^4)(1-z^6)) up to max_weight.

    Divides by one factor at a time with the recurrence f_n = g_n + f_(n-m),
    which is a different route from the double sum in HilbertSeries.expand.
    """
    coeffs = [0] * (max_weight + 1)
    for w, c in counts.items():
        if 0 <= w <= max_weight:
            coeffs[w] += c
    for m in (4, 6):
        for n in range(m, max_weight + 1):
            coeffs[n] += coeffs[n - m]
    return coeffs


# --- checks --------------------------------------------------------------


def check_table(table: dict, oracle: dict, statuses: dict | None = None) -> list[str]:
    """Compare a computed table against an oracle table.

    statuses maps weight -> (holomorphic is exact, cusp is exact).  A
    value marked as a lower bound passes when it does not exceed the
    oracle; every exact value must equal it.
    """
    bad = []
    for w, want in oracle.items():
        if w not in table:
            bad.append(f"weight {w}: missing")
            continue
        got = table[w]
        exact = statuses.get(w, (True, True)) if statuses else (True, True)
        for i, label in enumerate(("M", "S")):
            if exact[i]:
                if got[i] != want[i]:
                    bad.append(f"dim {label}_{w} = {got[i]}, oracle {want[i]}")
            elif got[i] > want[i]:
                bad.append(f"dim {label}_{w} >= {got[i]} exceeds oracle {want[i]}")
    return bad


def check_lower_bounds(table: dict, statuses: dict) -> list[str]:
    """Only weight one may be a lower bound, and only for odd weight."""
    bad = []
    for w, exact in statuses.items():
        if not all(exact) and w != 1:
            bad.append(f"weight {w} is reported as a lower bound")
        if min(table[w]) < 0:
            bad.append(f"weight {w} has a negative dimension")
    return bad


def check_duality(table: dict, dual_table: dict, d_even: int, d_odd: int,
                  n_max: int = 3) -> list[str]:
    """dim M_w(rho) + dim S_(12n+2-w)(rho*) = n * d_parity for 1 <= w/2 < 6n."""
    bad = []
    for n in range(1, n_max + 1):
        for k in range(1, 6 * n):
            for w, dual_w, d in ((2 * k, 12 * n + 2 - 2 * k, d_even),
                                 (2 * k + 1, 12 * n + 1 - 2 * k, d_odd)):
                total = table[w][0] + dual_table[dual_w][1]
                if total != n * d:
                    bad.append(f"n={n} w={w}: {table[w][0]} + {dual_table[dual_w][1]} != {n * d}")
    return bad


def check_profile(counts: dict, kind: str, degree: int, table: dict,
                  exact_weights) -> list[str]:
    """Generator counts total the degree and their series reproduces the table."""
    bad = []
    if sum(counts.values()) != degree:
        bad.append(f"{kind} generator counts total {sum(counts.values())}, degree {degree}")
    if any(not 0 <= w <= 12 or c < 0 for w, c in counts.items()):
        bad.append(f"{kind} generator counts out of range: {counts}")
    top = max(exact_weights)
    series = series_expand(counts, top)
    col = 0 if kind == HOLOMORPHIC else 1
    for w in exact_weights:
        if w >= 0 and series[w] != table[w][col]:
            bad.append(f"{kind} series gives {series[w]} at weight {w}, table {table[w][col]}")
    return bad
