"""Exact univariate polynomials over the rationals with certified real roots.

Coefficients are `fractions.Fraction`; roots are isolated with Sturm
sequences, and a sign at an isolated root is certified by an interval
enclosure with rational endpoints, never through floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterable, Sequence, Union

Rat = Union[int, Fraction]


def _frac(x: Rat) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class Polynomial:
    """Polynomial with exact rational coefficients, ascending degree."""

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Rat]):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- construction -------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls([])

    @classmethod
    def const(cls, c: Rat) -> "Polynomial":
        return cls([c])

    @classmethod
    def from_roots(cls, roots: Sequence[Rat], lead: Rat = 1) -> "Polynomial":
        p = cls.const(lead)
        for r in roots:
            p = p * cls([-_frac(r), 1])
        return p

    @classmethod
    def parse(cls, text: str) -> "Polynomial":
        """Comma-separated rationals, ascending: '0,-3,0,1' is t^3 - 3t."""
        try:
            return cls([Fraction(tok) for tok in text.replace(" ", "").split(",") if tok])
        except ZeroDivisionError as exc:
            raise ValueError(f"zero denominator in {text!r}") from exc

    # -- basics --------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    @property
    def lead(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x: Rat) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*t" if c != 1 else "t")
            else:
                parts.append(f"{c}*t^{k}" if c != 1 else f"t^{k}")
        return " + ".join(parts).replace("+ -", "- ")

    # -- algebra -------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero() or other.is_zero():
            return Polynomial.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    def scale(self, c: Rat) -> "Polynomial":
        return Polynomial([_frac(c) * a for a in self.coeffs])

    def derivative(self) -> "Polynomial":
        return Polynomial([k * c for k, c in enumerate(self.coeffs)][1:])

    def shift(self, eps: Rat) -> "Polynomial":
        """p(t + eps), exactly."""
        return self.compose(Polynomial([eps, 1]))

    def compose(self, inner: "Polynomial") -> "Polynomial":
        out = Polynomial.zero()
        for c in reversed(self.coeffs):
            out = out * inner + Polynomial.const(c)
        return out

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(0, self.degree - other.degree + 1)
        r = list(self.coeffs)
        d, lc = other.degree, other.lead
        while len(r) - 1 >= d and any(c != 0 for c in r):
            while r and r[-1] == 0:
                r.pop()
            if len(r) - 1 < d:
                break
            k = len(r) - 1 - d
            f = r[-1] / lc
            q[k] = f
            for i, c in enumerate(other.coeffs):
                r[k + i] -= f * c
            r.pop()
        return Polynomial(q), Polynomial(r)

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return self.divmod(other)[1]

    def gcd(self, other: "Polynomial") -> "Polynomial":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        if a.is_zero():
            return a
        return a.scale(1 / a.lead)


def chebyshev(n: int) -> Polynomial:
    """T_n with integer coefficients via T_{n+1} = 2 t T_n - T_{n-1}."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    t0, t1 = Polynomial.const(1), Polynomial([0, 1])
    if n == 0:
        return t0
    for _ in range(n - 1):
        t0, t1 = t1, Polynomial([0, 2]) * t1 - t0
    return t1


# ---------------------------------------------------------------------------
# Sturm machinery


def sturm_sequence(p: Polynomial) -> list[Polynomial]:
    """Negated remainder chain of (p, p'); its last element is gcd(p, p')
    up to a constant.

    Every element is a multiple of that last one, and dividing it out
    leaves a Sturm chain of the squarefree part, so away from the roots
    of p the sign variations count distinct roots even when p has
    repeated ones.
    """
    seq = [p, p.derivative()]
    while not seq[-1].is_zero() and seq[-1].degree > 0:
        seq.append(-(seq[-2] % seq[-1]))
    if seq[-1].is_zero():
        seq.pop()
    return seq


def _variations(signs: Sequence[int]) -> int:
    nz = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nz, nz[1:]) if a * b < 0)


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def count_roots(p: Polynomial, lo: Fraction, hi: Fraction, seq=None) -> int:
    """Distinct real roots in (lo, hi]; neither end may be a multiple root of p."""
    if seq is None:
        seq = sturm_sequence(p)
    v_lo = _variations([_sign(q(lo)) for q in seq])
    v_hi = _variations([_sign(q(hi)) for q in seq])
    return v_lo - v_hi


def root_bound(p: Polynomial) -> Fraction:
    """Cauchy bound: all real roots lie in (-B, B)."""
    if p.degree < 1:
        return Fraction(1)
    lc = abs(p.lead)
    return Fraction(1) + max(abs(c) / lc for c in p.coeffs[:-1])


@dataclass(frozen=True)
class RootInterval:
    """Open isolating interval (lo, hi) of a simple real root of poly."""

    poly: Polynomial
    lo: Fraction
    hi: Fraction

    def refine(self) -> "RootInterval":
        """Halve the interval, keeping the root strictly inside."""
        lo, hi = self.lo, self.hi
        mid = (lo + hi) / 2
        s_mid = _sign(self.poly(mid))
        if s_mid == 0:
            # land exactly on the root: shrink symmetrically around it
            w = (hi - lo) / 8
            return RootInterval(self.poly, mid - w, mid + w)
        if _sign(self.poly(lo)) * s_mid < 0:
            return RootInterval(self.poly, lo, mid)
        return RootInterval(self.poly, mid, hi)

    def refine_below(self, width: Fraction) -> "RootInterval":
        r = self
        while r.hi - r.lo >= width:
            r = r.refine()
        return r

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2


def isolate_real_roots(p: Polynomial) -> list[RootInterval]:
    """Disjoint isolating intervals for all distinct real roots,
    endpoints rational non-roots, sorted increasingly."""
    return _squarefree_isolation(p)[1]


def _squarefree_isolation(p: Polynomial) -> tuple[Polynomial, list[RootInterval]]:
    """p's squarefree part, of p's degree iff p has no multiple root, and its real roots."""
    if p.degree < 1:
        return p, []
    seq = sturm_sequence(p)
    g = seq[-1]
    sf = p.divmod(g.scale(1 / g.lead))[0]  # squarefree part, lead of p
    bound = root_bound(sf)
    out: list[tuple[Fraction, Fraction]] = []

    def rec(a: Fraction, b: Fraction, n: int) -> None:
        if n == 0:
            return
        if n == 1:
            out.append((a, b))
            return
        mid = (a + b) / 2
        while sf(mid) == 0:
            mid = (a + mid) / 2
        rec(a, mid, count_roots(p, a, mid, seq))
        rec(mid, b, count_roots(p, mid, b, seq))

    # Cauchy's bound is strict, so neither end is a root
    rec(-bound, bound, count_roots(p, -bound, bound, seq))
    out.sort()
    return sf, [RootInterval(sf, a, b) for a, b in out]


def _interval_eval(p: Polynomial, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Crude interval extension of p over [lo, hi] by Horner with interval ops."""
    alo = ahi = Fraction(0)
    for c in reversed(p.coeffs):
        cands = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo, ahi = min(cands) + c, max(cands) + c
    return alo, ahi


_MAX_REFINE = 256  # bisections of an isolating interval before a sign gives up


def sign_at_root(h: Polynomial, root: RootInterval) -> int:
    """Exact sign of h at the root isolated by ``root`` (0 if h vanishes there).

    g = gcd(h, W), W = root.poly, divides the squarefree W, so it vanishes at
    the root iff it changes sign across the isolating interval.  Otherwise
    the interval is halved until the enclosure of h excludes 0.
    """
    if h.is_zero():
        return 0
    g = h.gcd(root.poly)
    if g.degree >= 1 and _sign(g(root.lo)) != _sign(g(root.hi)):
        return 0
    for _ in range(_MAX_REFINE):
        lo, hi = _interval_eval(h, root.lo, root.hi)
        if lo > 0 or hi < 0:
            return _sign(lo)
        root = root.refine()
    raise RuntimeError("sign refinement did not converge")


def sqrt_bounds(x: Fraction) -> tuple[Fraction, Fraction]:
    """Rational lo <= sqrt(x) <= hi with hi - lo about 2^-32."""
    if x < 0:
        raise ValueError("negative radicand")
    n, d = x.numerator, x.denominator
    r = isqrt(n * d << 64)
    return Fraction(r, d << 32), Fraction(r + 1, d << 32)
