"""Two-bridge arithmetic written from the definitions, independent of lexiknot.

The benchmark uses it to generate query inputs and to check outputs, so a
defect in the package's own continued-fraction or equivalence code cannot
hide itself in the checks.
"""

from __future__ import annotations


def cf_value(entries) -> tuple[int, int]:
    """Numerator and denominator of [m_1, ..., m_k] by the matrix recurrence."""
    p, p_prev, q, q_prev = 1, 0, 0, 1
    for m in entries:
        p, p_prev = m * p + p_prev, p
        q, q_prev = m * q + q_prev, q
    return p, q


def normal_form(p: int, q: int) -> tuple[int, int]:
    """(alpha, beta) with alpha = |p| and beta = sign(p) q reduced mod alpha."""
    if p == 0 and q == 0:
        raise ValueError("0/0 is not a fraction")
    alpha = abs(p)
    if alpha <= 1:
        return alpha, 0
    return alpha, (q if p > 0 else -q) % alpha


def class_key(alpha: int, beta: int) -> int:
    """Least residue among beta^(+-1) and -beta^(+-1) mod alpha."""
    inv = pow(beta, -1, alpha)
    return min(beta % alpha, inv, -beta % alpha, -inv % alpha)


def same_class(f: tuple[int, int], g: tuple[int, int]) -> bool:
    """Two-bridge equivalence of the fractions f and g, mirror images included."""
    a1, b1 = normal_form(*f)
    a2, b2 = normal_form(*g)
    if a1 != a2:
        return False
    if a1 <= 1:
        return True
    return class_key(a1, b1) == class_key(a2, b2)


def two_bridge_classes(n: int) -> list[tuple[int, int]]:
    """Representatives alpha/beta of the two-bridge knots with crossing number n.

    Every class has exactly one all-positive continued fraction with sum n
    (last entry >= 2) up to reversal, and the crossing number of that
    alternating diagram is n.  Mirror images are one class.
    """
    seen: set[tuple[int, int]] = set()
    for parts in _compositions(n):
        if len(parts) > 1 and parts[-1] < 2:
            continue
        alpha, beta = normal_form(*cf_value(parts))
        if alpha % 2 == 1 and alpha > 1:
            seen.add((alpha, class_key(alpha, beta)))
    return sorted(seen)


def _compositions(n: int):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def chebyshev_coeffs(n: int) -> list[int]:
    """Ascending integer coefficients of T_n, by T_{k+1} = 2t T_k - T_{k-1}."""
    prev, cur = [1], [0, 1]
    if n == 0:
        return prev
    for _ in range(n - 1):
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return cur
