"""Exact univariate polynomials over the rationals with certified real roots.

A `Polynomial` is an immutable `Frozen` record held as integers: cs and
den with coeffs = cs/den, in a normal form (den > 0, gcd(den, *cs) = 1,
no trailing zero), so equal polynomials have equal fields.  Arithmetic,
composition and the gcd build their results from integers; `coeffs`, the
rational view, and `primitive`, cs over its positive content so every
sign is kept, are computed once on demand.  The value at a/d, d > 0, is
read by homogeneous Horner as sum c_i a^i d^(n-i), which has the sign of
p(a/d).  Roots are counted by a primitive pseudo-remainder Sturm
chain, by default below a Cauchy bound rounded up to a power of two; a
caller that needs only the roots in an integer box (lo, hi) can start
there instead.  An interval of c >= 2 roots is isolated by c sign
changes on a dyadic grid of 2^j >= 2c cells when 2^j <= deg + 1, and
otherwise bisected, one chain evaluation per midpoint.  The roots come as
`RootInterval`s, NamedTuples of integers (a, b, d), d a power of two,
and the sign at a/d, so a halving takes one integer evaluation.  A
sign at an isolated root is certified by a coprimality test modulo the
prime 2^61 - 1, run once per pair of h and the roots' polynomial, with a
rational gcd only when it fails, and then by halving the interval with
`RootInterval.refine`, the one bisection step of the module, until a
mean value test on integers decides it: h's value at the midpoint
outweighs an interval enclosure of h' times the half-width.  The sign
comes back with the interval it was decided on, so the next sign at the
same root starts there.  At the roots of a quadratic no interval is
needed: `signs_at_quadratic_roots` reduces h modulo the quadratic by
Horner and reads both signs in Q(sqrt(Delta)).  Floating point decides
nothing.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from ..frozen import Frozen

Rat = Union[int, Fraction]


def _frac(x: Rat) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class Polynomial(Frozen):
    """Polynomial with exact rational coefficients, ascending degree.

    Held as integers: coeffs = cs / den with den > 0, gcd(den, *cs) = 1
    and no trailing zero, so equal polynomials have equal fields and
    equal hashes.  All arithmetic builds its result from integers.
    Immutable; `coeffs` and `primitive` are cached in the instance dict.
    """

    def __init__(self, coeffs: Iterable[Rat]):
        fs = [_frac(c) for c in coeffs]
        den = lcm(*[c.denominator for c in fs])
        self._normalize([c.numerator * (den // c.denominator) for c in fs], den)

    def _normalize(self, cs: list[int], den: int) -> None:
        """Set cs / den in the normal form; den != 0, and cs is consumed."""
        while cs and cs[-1] == 0:
            cs.pop()
        g = gcd(den, *cs)
        if den < 0:
            g = -g
        if g != 1:
            cs = [c // g for c in cs]
            den //= g
        object.__setattr__(self, "cs", tuple(cs))
        object.__setattr__(self, "den", den)

    def _key(self) -> tuple:
        return self.cs, self.den

    def __reduce__(self):
        return Polynomial.from_integers, self._key()

    def __repr__(self) -> str:
        return f"Polynomial.from_integers({self.cs}, {self.den})"

    # -- construction -------------------------------------------------

    @classmethod
    def from_integers(cls, cs: Sequence[int], den: int = 1) -> "Polynomial":
        """The polynomial with coefficients cs / den, for integers cs and den != 0."""
        p = object.__new__(cls)
        p._normalize(list(cs), den)
        return p

    @classmethod
    def const(cls, c: Rat) -> "Polynomial":
        return cls([c])

    @classmethod
    def from_roots(cls, roots: Sequence[Rat]) -> "Polynomial":
        p = cls.const(1)
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

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coefficients, ascending; a read-only view of cs / den."""
        return tuple([Fraction(c, self.den) for c in self.cs])

    @cached_property
    def primitive(self) -> tuple[int, ...]:
        """cs over its positive content; () for zero."""
        return _primitive(self.cs)

    @property
    def degree(self) -> int:
        return len(self.cs) - 1

    @property
    def lead(self) -> Fraction:
        if not self.cs:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.cs[-1], self.den)

    def is_zero(self) -> bool:
        return not self.cs

    def __call__(self, x: Rat) -> Fraction:
        if not self.cs:
            return Fraction(0)
        x = _frac(x)
        d = x.denominator
        return Fraction(_value(self.cs, x.numerator, d), self.den * d**self.degree)

    # -- algebra -------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        (a, da), (b, db) = (self.cs, self.den), (other.cs, other.den)
        g = gcd(da, db)
        fa, fb = db // g, da // g  # a / da = a fa / L and b / db = b fb / L, L = lcm
        if len(a) < len(b):
            a, b, fa, fb = b, a, fb, fa
        out = [c * fa for c in a]
        for i, c in enumerate(b):
            out[i] += c * fb
        return Polynomial.from_integers(out, da * (db // g))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial.from_integers([-c for c in self.cs], self.den)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial.from_integers(_product(self.cs, other.cs), self.den * other.den)

    def scale(self, c: Rat) -> "Polynomial":
        c = _frac(c)
        return Polynomial.from_integers([c.numerator * a for a in self.cs], self.den * c.denominator)

    def derivative(self) -> "Polynomial":
        return Polynomial.from_integers([k * c for k, c in enumerate(self.cs)][1:], self.den)

    def shift(self, eps: Rat) -> "Polynomial":
        """p(t + eps), exactly."""
        return self.compose(Polynomial([eps, 1]))

    def compose(self, inner: "Polynomial") -> "Polynomial":
        """p(inner), by homogeneous Horner on integers: with p = cs/den of
        degree n and inner = g/e, den e^n p(inner) = sum c_i g^i e^(n-i)."""
        if self.is_zero():
            return self
        cs, g, e = self.cs, inner.cs, inner.den
        acc, ep = [cs[-1]], 1
        for c in reversed(cs[:-1]):
            ep *= e
            acc = _product(acc, g) or [0]
            acc[0] += c * ep
        return Polynomial.from_integers(acc, self.den * ep)

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Monic gcd, the last element of the primitive remainder sequence."""
        a, b = self.primitive, other.primitive
        while b:
            a, b = b, _primitive(_pseudo_divide(a, b)[2])
        return Polynomial.from_integers(a, a[-1])


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
# Integer coefficients and homogeneous Horner


def _primitive(cs: Sequence[int]) -> tuple[int, ...]:
    """cs over its positive content, so every sign is kept; () for zero."""
    g = gcd(*cs)
    # from a list, not a generator: tuple() resizes a generator's result,
    # and resized tuples pile up on the tuple free lists when freed
    return tuple([c // g for c in cs]) if g else ()


def _product(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Coefficients of the product of two integer polynomials; [] for zero."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _value(cs: Sequence[int], a: int, d: int) -> int:
    """d^n cs(a/d) = sum c_i a^i d^(n-i) by homogeneous Horner; d > 0."""
    n = len(cs) - 1
    acc, dp = cs[n], 1
    for i in range(n - 1, -1, -1):
        dp *= d
        acc = acc * a + cs[i] * dp
    return acc


def _enclose(cs: Sequence[int], a: int, b: int, d: int) -> tuple[int, int]:
    """Enclosure of d^n cs over [a/d, b/d], a <= b, by Horner with interval products."""
    n = len(cs) - 1
    lo = hi = cs[n]
    dp = 1
    for i in range(n - 1, -1, -1):
        dp *= d
        if a >= 0:
            lo, hi = lo * (a if lo >= 0 else b), hi * (b if hi >= 0 else a)
        elif b <= 0:
            lo, hi = hi * (a if hi >= 0 else b), lo * (a if lo <= 0 else b)
        else:
            lo, hi = min(lo * b, hi * a), max(lo * a, hi * b)
        c = cs[i] * dp
        lo, hi = lo + c, hi + c
    return lo, hi


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _pseudo_divide(a: Sequence[int], b: Sequence[int]) -> tuple[int, list[int], list[int]]:
    """(m, q, r) with m a = q b + r, deg r < deg b and an integer m > 0."""
    q, r = [0] * max(len(a) - len(b) + 1, 0), list(a)
    m, n, lb = 1, len(b) - 1, b[-1]
    for s in range(len(q) - 1, -1, -1):
        if r[s + n]:
            # scale by k = |lb| / g > 0, then cancel the lead with f t^s b
            g = gcd(lb, r[s + n])
            k, f = abs(lb) // g, (r[s + n] if lb > 0 else -r[s + n]) // g
            if k != 1:
                m, q, r = m * k, [k * c for c in q], [k * c for c in r]
            q[s] = f
            for i, c in enumerate(b):
                r[s + i] -= f * c
    del r[n:]
    while r and r[-1] == 0:
        r.pop()
    return m, q, r


# ---------------------------------------------------------------------------
# Sturm machinery


def sturm_sequence(p: Polynomial) -> list[tuple[int, ...]]:
    """Negated remainder chain of (p, p') as a primitive pseudo-remainder
    sequence (Collins 1967): primitive integer coefficients, each element
    a positive multiple of the rational chain's, so every sign is the
    same.  Its last element is gcd(p, p') up to a constant.

    Every element is a multiple of that last one, and dividing it out
    leaves a Sturm chain of the squarefree part, so away from the roots
    of p the sign variations count distinct roots even when p has
    repeated ones.
    """
    seq = [p.primitive]
    if p.degree >= 1:
        seq.append(_primitive([k * seq[0][k] for k in range(1, len(seq[0]))]))
    while len(seq[-1]) > 1:
        r = _primitive([-c for c in _pseudo_divide(seq[-2], seq[-1])[2]])
        if not r:
            break
        seq.append(r)
    return seq


def _variations(seq: Sequence[Sequence[int]], a: int, d: int) -> int:
    """Sign variations of the chain at a/d, d > 0."""
    v = last = 0
    for cs in seq:
        s = _sign(_value(cs, a, d))
        if s:
            v += last == -s
            last = s
    return v


class RootInterval(NamedTuple):
    """Open isolating interval (a/d, b/d) of a simple real root of the
    squarefree poly: a < b, d a power of two, and sa the sign of poly at
    a/d, which is no root of it."""

    poly: Polynomial
    a: int
    b: int
    d: int
    sa: int

    @property
    def lo(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.b, self.d)

    @property
    def mid(self) -> Fraction:
        return Fraction(self.a + self.b, 2 * self.d)

    def refine(self) -> "RootInterval":
        """Halve the interval, keeping the root strictly inside; poly keeps
        the sign sa left of its only root, so sa stays."""
        a, b, m, d = 2 * self.a, 2 * self.b, self.a + self.b, 2 * self.d
        sm = _sign(_value(self.poly.primitive, m, d))
        if sm == 0:
            # land exactly on the root: shrink symmetrically around it to a
            # quarter of the width
            a, b, d = 4 * m - (b - a) // 2, 4 * m + (b - a) // 2, 4 * d
        elif self.sa * sm < 0:
            b = m
        else:
            a = m
        return RootInterval(self.poly, a, b, d, self.sa)


def isolate_real_roots(p: Polynomial) -> list[RootInterval]:
    """Disjoint isolating intervals for all distinct real roots,
    endpoints dyadic non-roots, sorted increasingly."""
    return _squarefree_isolation(p)[1]


def _squarefree_isolation(
    p: Polynomial, box: Optional[tuple[int, int]] = None
) -> tuple[Polynomial, list[RootInterval]]:
    """p's squarefree part, of p's degree iff p has no multiple root, and
    its real roots: all of them, or those inside an integer box.

    The search starts by default from Cauchy's bound 1 + max |c_i / c_n|
    rounded up to a power of two 2^e, on (-2^e, 2^e).  Given a box
    (lo, hi) of integers lo < hi, it starts from there instead, after
    moving each end outwards by 1 for as long as p vanishes at it, so a
    root at lo or hi is isolated too.  Either way it runs on a work list
    of intervals (a/d, b/d), d a power of two, each with the chain's sign
    variations at both ends, whose difference c counts its roots.

    An interval with c >= 2 is first sampled by the squarefree part sf
    at the 2^j + 1 points of a dyadic grid, 2^j >= 2c the least power of
    two.  If exactly c cells change sign strictly, each holds an odd
    number of the c roots, so one: they are the isolating intervals.  A
    root on the grid leaves fewer than c such cells.  The grid is tried
    only when 2^j <= deg sf + 1, so a failed try costs about two chain
    evaluations; otherwise, or when it fails, the interval is split at
    its midpoint with one.  The chain is that of the whole of p, so the
    degree of the squarefree part reports a multiple root outside the
    box too.
    """
    if p.degree < 1:
        return p, []
    seq = sturm_sequence(p)
    sf = seq[0] if len(seq[-1]) == 1 else _primitive(_pseudo_divide(seq[0], seq[-1])[1])
    if box is None:
        lc = abs(sf[-1])
        bound = -(-(lc + max(abs(sf[i]) for i in range(len(sf) - 1))) // lc)  # Cauchy's, rounded up
        hi = 1 << (bound - 1).bit_length()  # the least power of two >= bound
        lo = -hi  # Cauchy's bound is strict, so neither end is a root
    else:
        lo, hi = box
        while _value(sf, lo, 1) == 0:
            lo -= 1
        while _value(sf, hi, 1) == 0:
            hi += 1
    work = [(lo, _variations(seq, lo, 1), hi, _variations(seq, hi, 1), 1)]
    poly, out = Polynomial.from_integers(sf), []
    while work:
        a, va, b, vb, d = work.pop()
        c = va - vb
        if c == 1:
            out.append(RootInterval(poly, a, b, d, _sign(_value(sf, a, d))))
        elif c > 1:
            j = (2 * c - 1).bit_length()  # 2^j: the least power of two >= 2c
            if 1 << j <= len(sf):
                a0, w, dj = a << j, b - a, d << j
                signs = [_sign(_value(sf, a0 + k * w, dj)) for k in range((1 << j) + 1)]
                cells = [k for k in range(1 << j) if signs[k] * signs[k + 1] < 0]
                if len(cells) == c:
                    out.extend(RootInterval(poly, a0 + k * w, a0 + (k + 1) * w, dj, signs[k]) for k in cells)
                    continue
            a, b, m, d = 2 * a, 2 * b, a + b, 2 * d
            while _value(sf, m, d) == 0:
                a, b, m, d = 2 * a, 2 * b, a + m, 2 * d
            vm = _variations(seq, m, d)
            work.append((m, vm, b, vb, d))
            work.append((a, va, m, vm, d))  # the left half is popped first
    return poly, out


_MAX_REFINE = 256  # bisections of an isolating interval before a sign gives up
_PRIME = (1 << 61) - 1  # the Mersenne prime of the coprimality certificate


def _coprime_mod_prime(f: Sequence[int], g: Sequence[int]) -> bool:
    """True certifies gcd(f, g) = 1 over Q; False decides nothing.

    If the prime divides neither leading coefficient, both degrees
    survive reduction, and the image of the primitive rational gcd
    divides both images: the gcd's degree can only rise modulo the
    prime.  A constant Euclidean gcd there is a constant gcd over Q.
    """
    if f[-1] % _PRIME == 0 or g[-1] % _PRIME == 0:
        return False
    a, b = [c % _PRIME for c in f], [c % _PRIME for c in g]
    while len(b) > 1:
        inv = pow(b[-1], -1, _PRIME)
        while len(a) >= len(b):
            q = a.pop() * inv % _PRIME
            s = len(a) + 1 - len(b)
            for i in range(len(b) - 1):
                a[s + i] = (a[s + i] - q * b[i]) % _PRIME
        while a and a[-1] == 0:
            a.pop()
        if not a:
            return False
        a, b = b, a
    return True


def common_factor(h: Polynomial, W: Polynomial) -> tuple[int, ...]:
    """The primitive gcd(h, W), or () when a certificate proves it constant.

    If h and W stay coprime modulo the prime 2^61 - 1, h vanishes at no
    root of W, and () says so.  Only when that certificate fails is the
    gcd computed over Q.
    """
    if _coprime_mod_prime(h.primitive, W.primitive):
        return ()
    return h.gcd(W).primitive


def sign_at_root(
    h: Polynomial, root: RootInterval, common: Optional[tuple[int, ...]] = None
) -> tuple[int, RootInterval]:
    """Exact sign of h at the root isolated by ``root`` (0 if h vanishes
    there), and the isolating interval the sign was decided on.

    h is read as its primitive integer coefficients.  ``common`` is
    common_factor(h, root.poly), computed here unless given.  It divides
    the squarefree W = root.poly, so it vanishes at the root iff it
    changes sign across the isolating interval.  Otherwise h is nonzero
    at the root, and ``root.refine`` halves the interval until the mean
    value test decides: over (a/d, b/d) with midpoint m, h keeps the sign
    of h(m) when |h(m)| > max |h'| (b - a) / 2d, read on integers as
    |v| > max(-lo, hi) (b - a) with v = (2d)^n h(m) and [lo, hi] the
    enclosure of (2d)^(n-1) h'.  The returned interval is ``root`` itself
    or a refinement of it, so a caller can ask its next sign there.
    """
    if h.is_zero():
        return 0, root
    g = common_factor(h, root.poly) if common is None else common
    if len(g) > 1 and _sign(_value(g, root.a, root.d)) != _sign(_value(g, root.b, root.d)):
        return 0, root
    cs = h.primitive
    if len(cs) == 1:
        return _sign(cs[0]), root
    slope = [k * cs[k] for k in range(1, len(cs))]
    for _ in range(_MAX_REFINE):
        a, b, d = 2 * root.a, 2 * root.b, 2 * root.d
        v = _value(cs, root.a + root.b, d)
        lo, hi = _enclose(slope, a, b, d)
        if abs(v) > max(-lo, hi) * (root.b - root.a):
            return _sign(v), root
        root = root.refine()
    raise RuntimeError("sign refinement did not converge")


def signs_at_quadratic_roots(h: Polynomial, q: Polynomial) -> tuple[int, int]:
    """Exact signs of h at the smaller and at the larger root of a
    quadratic q with a positive discriminant, decided in Q(sqrt(Delta))
    without isolating or refining anything.

    With q = A t^2 + B t + C primitive and Delta = B^2 - 4 A C, Horner
    modulo q gives r1 t + r0, a positive multiple of h modulo q, so at a
    root c = (-B +- sqrt(Delta)) / 2A, h(c) has the sign of r1 c + r0 =
    (X +- r1 sqrt(Delta)) / 2A with X = 2A r0 - B r1.  The sign of
    X + Y sqrt(Delta) is that of X or of Y when they agree or one is 0,
    and otherwise that of X exactly when X^2 > Y^2 Delta.  The smaller
    root takes -sqrt(Delta) when A > 0 and +sqrt(Delta) when A < 0.
    """
    if q.degree != 2:
        raise ValueError(f"degree {q.degree}, need a quadratic")
    C, B, A = q.primitive
    disc = B * B - 4 * A * C
    if disc <= 0:
        raise ValueError("the quadratic needs two distinct real roots")
    r0, r1 = _remainder_mod_quadratic(h.primitive, (0, 1, 1), q.primitive)
    X, sa = 2 * A * r0 - B * r1, _sign(A)

    def sign_with(Y: int) -> int:  # the sign of (X + Y sqrt(Delta)) / 2A
        sx, sy = _sign(X), _sign(Y)
        if sx == sy or sy == 0:
            return sa * sx
        if sx == 0:
            return sa * sy
        return sa * sx * _sign(X * X - Y * Y * disc)

    return sign_with(-sa * r1), sign_with(sa * r1)


def _remainder_mod_quadratic(cs: Sequence[int], z: tuple[int, int, int], q: Sequence[int]) -> tuple[int, int]:
    """(r0, r1) with M cs(z) = r0 + r1 t modulo q for an integer M > 0.

    q = (C, B, A) are a quadratic's integer coefficients, and z = (z0,
    z1, e) stands for (z0 + z1 t) / e with e > 0.  Horner in Z[t]/(q),
    with q's lead A made positive: for R = r0 + r1 t and Z = z0 + z1 t,
    A R Z = (A r0 z0 - C r1 z1) + (A (r0 z1 + r1 z0) - B r1 z1) t modulo
    q, so a step R -> A R Z + c M over M -> A e M takes a handful of
    products, and M = (A e)^(deg + 1) for every z of one e.
    """
    C, B, A = q if q[2] > 0 else [-c for c in q]
    z0, z1, e = z
    r0 = r1 = 0
    m = 1
    for c in reversed(cs):
        m *= A * e
        p = r1 * z1
        r0, r1 = A * r0 * z0 - C * p + c * m, A * (r0 * z1 + r1 * z0) - B * p
    return r0, r1


def signs_at_roots(h: Polynomial, roots: Sequence[RootInterval]) -> list[tuple[int, RootInterval]]:
    """sign_at_root(h, r) for each r, with one common_factor per distinct W = r.poly."""
    if h.is_zero():
        return [(0, r) for r in roots]
    common: dict[int, tuple[int, ...]] = {}  # id(W) -> common_factor(h, W)
    for r in roots:
        if id(r.poly) not in common:
            common[id(r.poly)] = common_factor(h, r.poly)
    return [sign_at_root(h, r, common[id(r.poly)]) for r in roots]
