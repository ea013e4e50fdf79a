"""Dedekind eta quotients and the catalog of named forms.

An eta quotient prod_delta eta(delta z)^(r_delta) expands as
q^s * prod_delta E(q^delta)^(r_delta), where E(q) = prod_n (1 - q^n) and
s = sum(delta * r_delta) / 24 must be an integer.  Expansion multiplies
and divides five building blocks, each with constant term 1, all but
the last lacunary:

- E(q) = sum_{k in Z} (-1)^k q^(k(3k-1)/2), Euler's pentagonal number
  theorem; eta(z) = q^(1/24) E(q).
- E(q)^3 = sum_{k >= 0} (-1)^k (2k+1) q^(k(k+1)/2), Jacobi's identity;
  eta(z)^3 = q^(1/8) E(q)^3.
- E(-q) = E(q^2)^3 / (E(q) E(q^4)), the pentagonal series with the sign
  of q^g flipped for odd g; eta(2z)^3 / (eta(z) eta(4z)) = q^(1/24) E(-q).
  Proof: the even n of prod (1 - (-q)^n) give E(q^2) and the odd n give
  prod_{n odd} (1 + q^n) = prod (1 + q^n) / prod (1 + q^(2n)), where
  prod (1 + q^n) = E(q^2) / E(q); so the odd part is
  E(q^2)^2 / (E(q) E(q^4)).
- phi(-q) = sum_{n in Z} (-1)^n q^(n^2) = 1 + 2 sum_{n >= 1} (-1)^n q^(n^2)
  = E(q)^2 / E(q^2), Gauss's identity; eta(z)^2 / eta(2z) = phi(-q).
  Proof: the Jacobi triple product sum_n x^n q^(n^2) =
  prod_m (1 - q^(2m)) (1 + x q^(2m-1)) (1 + q^(2m-1) / x) at x = -1 is
  E(q^2) prod_m (1 - q^(2m-1))^2, and prod_m (1 - q^(2m-1)) = E(q) / E(q^2).
- c(q) / (3 q^(1/3)) = E(q^3)^3 / E(q) = (1/3) sum_{m,n in Z}
  q^(m^2+mn+n^2+m+n), from the cubic theta function c(q) =
  3 eta(3z)^3 / eta(z) (see _cubic_theta).  q^e occurs in it exactly
  when 3e + 1 is a norm from Z[(1 + sqrt(-3)) / 2], a set whose density
  falls only like 1 / sqrt(log N): 37% of the e below 10^5.

_plan rewrites the exponent vector with the last three wherever that saves
an Euler-factor division.  eta_quotient_expand then multiplies all the
numerator atoms into one packed integer and divides it there by the
first divisor atom (qseries._product_quotient), so no dense-by-dense
product ever forms; div takes any further divisor atom, which no catalog
form has.  The packed rows of that division take their width from
_rate_bits, a bound proved from the eta quotient itself: it rewrites the
quotient with bounded atoms, c(q) and the cubic theta function b(q) =
E(q)^3 / E(q^3) among them, and bounds what is left by the growth of its
Euler-factor divisors alone.  The catalog divides as follows:

- g27, g32 and g36 have no negative exponent and divide by nothing.
- g64 = eta(8z)^8 / (eta(4z)^2 eta(16z)^2) = q E(q^8)^2 E(-q^4)^2 and
  g144 = eta(12z)^12 / (eta(6z)^4 eta(24z)^4) = q E(-q^6)^4: E(-q^d)
  absorbs E(q^d) and E(q^(4d)) from the denominator, so neither divides
  (each had four single Euler-factor divisions).
- G32 = eta(4z)^2 eta(16z)^6 / eta(32z)^4 = q^-1 E(q^4)^2 phi(-q^16)^3
  / E(q^32) divides once, by E(q^32), in place of E(q^32)^3 and E(q^32).
- G27 = eta(3z) eta(9z)^6 / eta(27z)^3, L2 = eta(3z)^3 / eta(27z)^3 and
  G36 = eta(6z)^3 eta(12z) eta(18z)^3 / eta(36z)^3 divide once, by a cube;
  a theta atom could only split that cube.
- L1 = eta(9z)^4 / (eta(3z) eta(27z)^3) = q^-2 E(q^9) c(q^3) / E(q^27)^3,
  L36 = q^-1 E(q^6) c(q^3) / E(q^18)^3, X36 = q^-2 E(q^12) c(q^6) /
  E(q^36)^3 and Y36 = q^-3 E(q^12) c(q^3) / E(q^36)^3 divide once, by a
  cube: c absorbs their one single Euler-factor divisor.

The catalog holds the five weight-2 CM newforms that are eta quotients
(levels 27, 32, 36, 64, 144), their weight-2 companions G, and the weight-0
forms L1, L2, L36, X36 = L36(2z) and Y36 = L36(z)L36(2z); all but L36 have
poles only at infinity and give the span levels' Weierstrass coordinates.
Each G has a simple pole at infinity, its only pole at levels 27, 32 and
36; G64 has another at the cusp 1/32, and G144 at 1/9, 1/18 and 1/72.
catalog_form expands the eta quotients; the store, verify.FormCache,
applies a twist, as of G32 into G64 and G36 into G144, to its held base.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import count
from math import gcd, isqrt

from .qseries import (PrecisionError, QSeries, _lattice, _product_quotient,
                      one)

__all__ = [
    "EtaQuotient",
    "Twist",
    "CurveSpec",
    "FORMS",
    "CURVES",
    "ShiftError",
    "LevelMismatchError",
    "curve",
    "eta_quotient_expand",
    "catalog_form",
    "cusp_orders",
    "catalog_manifest",
]


class ShiftError(ValueError):
    """24 does not divide sum(delta * r_delta)."""


class LevelMismatchError(ValueError):
    """A factor's delta does not divide the requested level."""


@dataclass(frozen=True)
class EtaQuotient:
    """Formal product prod eta(delta z)^r over distinct positive deltas."""

    factors: tuple[tuple[int, int], ...]
    level: int

    def __post_init__(self):
        deltas = [d for d, _ in self.factors]
        if any(d < 1 for d in deltas):
            raise ValueError("eta arguments must be positive multiples of z")
        if len(set(deltas)) != len(deltas):
            raise ValueError("repeated delta in eta quotient")
        if self.level < 1:
            raise ValueError("level must be positive")

    @property
    def weight(self) -> Fraction:
        return Fraction(sum(r for _, r in self.factors), 2)

    @property
    def shift(self) -> Fraction:
        return Fraction(sum(d * r for d, r in self.factors), 24)


@dataclass(frozen=True)
class Twist:
    """Recipe: the catalog form named base, twisted by (disc|.), at level."""

    base: str
    disc: int
    level: int


@dataclass(frozen=True)
class CurveSpec:
    """The CM elliptic curve attached to a catalog level: the discriminant
    of its CM field and its Weierstrass model (a1, a2, a3, a4, a6)."""

    cm_disc: int
    weierstrass: tuple[int, int, int, int, int]


# Every named form: g<N> is the newform of the level N curve, G<N> its
# companion (poles as in the module docstring), L1, L2, X36 and Y36 the
# Weierstrass coordinates of the span levels, up to a constant, and L36.
FORMS: dict[str, EtaQuotient | Twist] = {
    "g27": EtaQuotient(((3, 2), (9, 2)), 27),
    "G27": EtaQuotient(((3, 1), (9, 6), (27, -3)), 27),
    "L1": EtaQuotient(((9, 4), (3, -1), (27, -3)), 27),
    "L2": EtaQuotient(((3, 3), (27, -3)), 27),
    "g32": EtaQuotient(((4, 2), (8, 2)), 32),
    "G32": EtaQuotient(((4, 2), (16, 6), (32, -4)), 32),
    "g36": EtaQuotient(((6, 4),), 36),
    "G36": EtaQuotient(((6, 3), (12, 1), (18, 3), (36, -3)), 36),
    "L36": EtaQuotient(((6, 1), (9, 3), (3, -1), (18, -3)), 36),
    "X36": EtaQuotient(((12, 1), (18, 3), (6, -1), (36, -3)), 36),
    "Y36": EtaQuotient(((9, 3), (12, 1), (3, -1), (36, -3)), 36),
    "g64": EtaQuotient(((8, 8), (4, -2), (16, -2)), 64),
    "G64": Twist("G32", 8, 64),
    "g144": EtaQuotient(((12, 12), (6, -4), (24, -4)), 144),
    "G144": Twist("G36", 12, 144),
}

CURVES: dict[int, CurveSpec] = {
    27: CurveSpec(-3, (0, 0, 1, 0, -7)),
    32: CurveSpec(-4, (0, 0, 0, 4, 0)),
    36: CurveSpec(-3, (0, 0, 0, 0, 1)),
    64: CurveSpec(-4, (0, 0, 0, -4, 0)),
    144: CurveSpec(-3, (0, 0, 0, 0, -1)),
}


def curve(level: int) -> CurveSpec:
    """The curve at a catalog level; ValueError names the catalog levels."""
    try:
        return CURVES[level]
    except KeyError:
        raise ValueError(f"unknown level {level}; catalog levels are "
                         f"{sorted(CURVES)}") from None


# ---------------------------------------------------------------------------
# expansion

def _euler_factor(delta: int, prec: int) -> QSeries:
    """prod_n (1 - q^(delta n)) via generalized pentagonal numbers."""
    d = {0: 1}
    for k in count(1):
        s = -1 if k % 2 else 1
        e1 = delta * (k * (3 * k - 1) // 2)
        if e1 >= prec:
            break
        d[e1] = s
        e2 = delta * (k * (3 * k + 1) // 2)
        if e2 < prec:
            d[e2] = s
    return QSeries._trusted(d, prec)


def _euler_factor_cubed(delta: int, prec: int) -> QSeries:
    """prod_n (1 - q^(delta n))^3 = sum_k (-1)^k (2k+1) q^(delta k(k+1)/2)."""
    d = {}
    for k in count(0):
        e = delta * (k * (k + 1) // 2)
        if e >= prec:
            break
        d[e] = (2 * k + 1) * (-1 if k % 2 else 1)
    return QSeries._trusted(d, prec)


def _euler_factor_at_minus_q(delta: int, prec: int) -> QSeries:
    """E(-q^delta) = prod_n (1 - (-q^delta)^n): the pentagonal series with
    the sign of q^(delta g) flipped for odd g."""
    return QSeries._trusted(
        {e: -c if e // delta % 2 else c
         for e, c in _euler_factor(delta, prec)._c.items()}, prec)


def _theta_at_minus_q(delta: int, prec: int) -> QSeries:
    """phi(-q^delta) = sum_{n in Z} (-1)^n q^(delta n^2)
    = 1 + 2 sum_{n >= 1} (-1)^n q^(delta n^2)."""
    d = {0: 1}
    for n in count(1):
        e = delta * n * n
        if e >= prec:
            break
        d[e] = -2 if n % 2 else 2
    return QSeries._trusted(d, prec)


def _cubic_theta(delta: int, prec: int) -> QSeries:
    """E(q^(3 delta))^3 / E(q^delta)
    = (1/3) sum_{m,n in Z} q^(delta (m^2+mn+n^2+m+n))
    = sum_{k,n >= 0} q^(delta (k^2-kn+n^2+k)).

    The first sum is c(q^delta) / (3 q^(delta/3)) for the cubic theta
    function c(q) = sum_{m,n in Z} q^((m+1/3)^2 + (m+1/3)(n+1/3) + (n+1/3)^2)
    = 3 eta(3z)^3 / eta(z) (Borwein, Borwein and Garvan, Trans. AMS 343,
    1994), whose exponent is (m+1/3)^2 + (m+1/3)(n+1/3) + (n+1/3)^2
    = m^2+mn+n^2+m+n + 1/3.

    The map s(m, n) = (n, -m-n-1) keeps Q = m^2+mn+n^2+m+n, has order 3
    and no fixed point (one would have n = m and 3m = -1), so every orbit
    has three points and every count of representations is divisible by 3.
    Each orbit meets D = {n >= 0, m + n >= 0} exactly once: s(m, n) lies
    in D when m <= -1 and m + n <= -1, s(s(m, n)) = (-m-n-1, m) when
    m >= 0 and n <= -1, and these two sets and D split Z^2.  On D, with
    k = m + n, Q = k^2-kn+n^2+k over k, n >= 0.

    For fixed k, Q < M exactly when (2n - k)^2 < 4M - 3k^2 - 4k =: disc,
    that is |2n - k| <= isqrt(disc - 1), and disc falls as k grows.
    """
    M = -(-prec // delta)  # delta Q < prec
    counts = [0] * M
    for k in count(0):
        disc = 4 * M - 3 * k * k - 4 * k
        if disc < 1:
            break
        s, a = isqrt(disc - 1), k * k + k
        for n in range(max(0, (k - s + 1) // 2), (k + s) // 2 + 1):
            counts[a + n * (n - k)] += 1
    return QSeries._trusted(
        {delta * e: c for e, c in enumerate(counts) if c}, prec)


# Every atom kind, one row each: (expansion, exponent vector, majorant).
# The expansion is the series at (delta, prec); b(q) = E(q)^3 /
# E(q^3) (see _rate_bits) has None, as it only bounds.  The vector {k: r}
# writes the atom as prod E(q^(k delta))^r.  The majorant (g_num, g_den,
# j): at x = e^(-u) the sum of |coefficient| x^n is at most
# (1 + sqrt(c / u))^j with c <= pi * g_num / g_den.
_ATOMS = {
    "E": (_euler_factor, {1: 1}, (1, 1, 1)),
    "E^3": (_euler_factor_cubed, {1: 3}, (6367, 10000, 2)),
    "E(-q)": (_euler_factor_at_minus_q, {1: -1, 2: 3, 4: -1}, (1, 1, 1)),
    "phi(-q)": (_theta_at_minus_q, {1: 2, 2: -1}, (1, 1, 1)),
    "c": (_cubic_theta, {1: -1, 3: 3}, (1, 2, 2)),
    "b": (None, {1: 3, 3: -1}, (2, 1, 2)),
}


def _divisions(r: dict) -> tuple[int, int]:
    """(Euler-factor divisions, a cube counting as one; divided exponent)
    of an exponent vector {delta: r}."""
    neg = [-e for e in r.values() if e < 0]
    return sum(e // 3 + e % 3 for e in neg), sum(neg)


def _rates(r: dict) -> tuple[Fraction, Fraction]:
    """(rho, sigma) of an exponent vector {delta: r}: the inverse rate
    rho = sum |r_delta| / delta over r_delta < 0, then sigma, the same sum
    over r_delta > 0."""
    return (sum(Fraction(-e, d) for d, e in r.items() if e < 0),
            sum(Fraction(e, d) for d, e in r.items() if e > 0))


def _rewrite(r: dict, kinds: tuple, key) -> tuple[dict, list]:
    """(rest, taken): the exponent vector r with atoms of the given kinds
    taken out while that lowers key(rest), and the (kind, delta) of every
    atom taken.

    Each round tries every atom paid for from a positive exponent (vector
    vec at scale d, paid from r_(k d) >= vec[k] at the atom's one positive
    entry k), t = 1, 2, ... times in a row while it is paid for, and
    applies the best (atom, t) if it beats the current vector.  An atom's
    negative entries only add to r, so every move lowers
    sum_(r_delta > 0) r_delta, a nonnegative integer, and the rounds end.
    """
    taken = []
    while True:
        best = key(r), None
        for kind in kinds:
            vec = _ATOMS[kind][1]
            k_paid = max(vec, key=vec.get)
            for delta in sorted(r):
                if delta % k_paid:
                    continue
                d = delta // k_paid
                trial = dict(r)
                for t in count(1):
                    if trial.get(delta, 0) < vec[k_paid]:
                        break
                    for k, e in vec.items():
                        trial[k * d] = trial.get(k * d, 0) - e
                    if key(trial) < best[0]:
                        best = key(trial), (kind, d, t, dict(trial))
        if best[1] is None:
            return r, taken
        kind, d, t, r = best[1]
        taken += [(kind, d)] * t


def _euler_split(r: dict) -> tuple[list, list]:
    """(numerator, divisor) atoms of the Euler factors of r: a cube per
    three of |r_delta|, then single factors, in increasing delta."""
    num, den = [], []
    for delta, e in sorted(r.items()):
        side = num if e > 0 else den
        cubes, rest = divmod(abs(e), 3)
        side += [("E^3", delta)] * cubes + [("E", delta)] * rest
    return num, den


@cache
def _plan(factors) -> tuple[tuple, tuple]:
    """(numerator atoms, divisor atoms) whose quotient is
    prod_delta E(q^delta)^(r_delta), each atom a (kind, delta) of _ATOMS.

    The theta atoms are taken out of the exponent vector by _rewrite while
    that lowers _divisions, which only a move that feeds a negative
    exponent can do.  What is left splits into cubes and single Euler
    factors, the divisors in increasing delta.

    c, which is not lacunary, is taken only because it removes a division;
    no catalog plan has two, and _product_quotient lays the one out as its
    dense factor rather than shift-adding it term by term.
    """
    r, theta = _rewrite(dict(factors), ("E(-q)", "phi(-q)", "c"),
                        _divisions)
    num, den = _euler_split(r)
    return tuple(num + theta), tuple(den)


# Fractional bits of the fixed-point majorants in _rate_bits.
_FRAC = 16


@cache
def _bound_plan(factors) -> tuple[Fraction, tuple]:
    """(rho, atoms): prod_delta E(q^delta)^(r_delta), factors the pairs
    (delta, r), is the product of the atoms times prod over r'_delta < 0
    of E(q^delta)^(r'_delta), with inverse rate rho = sum |r'_delta| /
    delta.

    _rewrite takes out the theta atoms, b(q) and c(q) while that lowers
    _rates: first rho, then, at equal rho, sigma.  No move raises rho.
    A move that keeps rho can still lower sigma, and that lets one atom
    free exponents for the next: G36 takes phi(-q^18), then b(q^6), which
    frees E(q^18)^2 for a second phi(-q^18).  What is left positive
    splits into cubes and single Euler factors, also bounded atoms.
    G27 = q^-1 E(q^3) b(q^9)^2 / E(q^27), rho = 1/27 (from 1/9);
    G36 = q^-1 b(q^6) E(q^12) phi(-q^18)^2 / E(q^36), rho = 1/36 (from
    1/12); L1 = q^-2 E(q^9) c(q^3) / E(q^27)^3, rho = 1/9 (from 4/9);
    L36 = q^-1 E(q^6) c(q^3) / E(q^18)^3, rho = 1/6 (from 1/2).
    """
    r, taken = _rewrite(dict(factors), ("E(-q)", "phi(-q)", "b", "c"),
                        _rates)
    num, _ = _euler_split(r)
    return _rates(r)[0], tuple(num + taken)


@cache
def _rate_terms(num: tuple, den: tuple) -> tuple:
    """The K-free integers of _rate_bits for the quotient of the atoms num
    by the atoms den, each a (kind, delta): (a, b, ((y4_num, y4_den, j),
    ...)) with rho = a / b from _bound_plan of the quotient's exponent
    vector, or 1 / delta of the first divisor when that leaves no negative
    exponent, and (y 2^_FRAC)^4 = y4_num * K / y4_den per bound atom,
    equal atoms merged into one power j."""
    r = {}
    for sign, (kind, delta) in [(1, a) for a in num] + [(-1, a) for a in den]:
        for k, e in _ATOMS[kind][1].items():
            r[k * delta] = r.get(k * delta, 0) + sign * e
    rho, atoms = _bound_plan(tuple(sorted((d, e) for d, e in r.items() if e)))
    rho = rho or Fraction(1, den[0][1])
    a, b = rho.numerator, rho.denominator
    terms = {}
    for kind, delta in atoms:
        gn, gd, j = _ATOMS[kind][2]
        y4 = (6 * b * gn * gn << 4 * _FRAC, a * gd * gd * delta * delta)
        terms[y4] = terms.get(y4, 0) + j
    return a, b, tuple((*y4, j) for y4, j in terms.items())


def _rate_bits(num: tuple, den: tuple, K: int) -> int:
    """An integer b such that every coefficient at degrees 0..K of
    Q = prod(num) / prod(den), the quotient of the atoms (den not empty),
    is below 2^b; with num empty, Q = 1 / prod(den).

    Write Q as _bound_plan does, the atoms A times prod E(q^delta)^(-s_d)
    with s_d > 0 and rho = sum s_d / delta.  The coefficients of
    1 / E(q^delta) are nonnegative, so with M_A(x) = sum |a_n| x^n every
    coefficient satisfies |c_k| <= [x^k] prod M_A(x^delta_A)
    prod E(x^delta)^(-s_d), and for 0 < x = e^(-t) < 1 that is at most
    x^(-k) times the whole product.  The log of 1 / E(e^(-s)) is
    sum_j 1 / (j (e^(js) - 1)) <= sum_j 1 / (j^2 s) = pi^2 / (6s), as
    e^(js) - 1 >= js; so at s = delta t, for every k <= K

        log |c_k| <= K t + rho pi^2 / (6t) + sum_A log M_A(e^(-delta_A t)).

    This holds for every t > 0, so it also holds with rho replaced by any
    rho' >= rho with rho' > 0.  When no negative exponent is left (rho = 0,
    as for b(q) = E(q)^3 / E(q^3) itself), _rate_terms takes rho = 1 / delta
    of the first divisor.

    The majorants, at x = e^(-u), with sum_(n>=1) e^(-u n^2) <=
    integral_0^inf e^(-u y^2) dy = sqrt(pi / u) / 2:

    - E, E(-q) and phi(-q) have coefficients +-1 at q^0 and at two
      exponents >= n^2 per n >= 1 (pentagonal k(3k -+ 1)/2 >= k^2), or
      +-2 at q^(n^2): M <= 1 + sqrt(pi / u).
    - E^3 = sum (-1)^k (2k+1) q^(k(k+1)/2) and k(k+1)/2 >= k^2 / 2.  For
      a unimodal h >= 0, sum_k h(k) <= integral h + max h; on
      h = 2y e^(-u y^2 / 2) that gives sum 2k x^(k^2/2) <= 2/u +
      2/sqrt(e u), so M <= 1 + sqrt(pi / (2u)) + 2/sqrt(e u) + 2/u <=
      (1 + sqrt(2/u))^2, and 2 <= 0.6367 pi.
    - b(q) = E(q)^3 / E(q^3) = sum_(m,n in Z) w^(m-n) q^(m^2+mn+n^2),
      w = e^(2 pi i / 3) (Borwein, Borwein and Garvan, Trans. AMS 343,
      1994), so |b_n| is at most the number of representations of n by
      m^2+mn+n^2, which is 6 sum_(d|n) (d|3) <= 6 d(n); and
      m^2+mn+n^2 >= (m^2+n^2)/2 gives M <= (1 + sqrt(2 pi / u))^2.
    - c(q) = E(q^3)^3 / E(q) = sum_(k,n >= 0) q^(k^2-kn+n^2+k) (see
      _cubic_theta) and k^2-kn+n^2+k >= (k^2+n^2)/2, so
      M <= (sum_(k>=0) x^(k^2/2))^2 <= (1 + sqrt(pi / (2u)))^2.

    Each is (1 + sqrt(c / u))^j with c <= pi g, (g, j) from _ATOMS.
    t = pi sqrt(rho / (6K)) makes the first two terms pi sqrt(2 rho K / 3)
    (K = 0 leaves the single coefficient 1), and at u = delta t,
    sqrt(c / u) <= y with y^4 = g^2 6K / (rho delta^2).  In bits the
    bound is at most (pi / log 2) sqrt(2 rho K / 3) + log2 prod (1 + y)^j,
    evaluated in integers: pi / log 2 < 4.533, square and fourth roots
    rounded up with isqrt on 2^_FRAC-scaled values, and log2 of the scaled
    product M as (M - 1).bit_length(), 0 at M = 1.  The bound stays strict:
    the first term over-estimates, as 4.533 > pi / log 2 and isqrt + 1 > sqrt.
    """
    a, b, terms = _rate_terms(num, den)
    F = _FRAC
    bits = -(-4533 * (isqrt((2 * a * K << 2 * F) // (3 * b)) + 1)
             // (1000 << F))
    M, J = 1, 0
    for y4_num, y4_den, j in terms:
        M *= ((1 << F) + isqrt(isqrt(y4_num * K // y4_den) + 1) + 1) ** j
        J += j
    return bits + (M - 1).bit_length() - F * J


def div(f: QSeries, g: QSeries) -> QSeries:
    """f / g for f nonzero and g a divisor atom certified as far, by the
    scalar recurrence on exact integers (perfbench's qseries.div layer)."""
    return _product_quotient([f], g, None, f.order, f.prec - f.order,
                             _lattice(f, g))


def eta_quotient_expand(eq: EtaQuotient, prec: int) -> QSeries:
    """q-expansion of the eta quotient with certified precision prec.

    Raises ShiftError when the q-shift sum(delta*r)/24 is not an integer and
    PrecisionError when prec does not reach past the shift.  The numerator
    atoms of _plan and its first divisor atom go through one packed
    product and division, with the quotient bound of _rate_bits; div
    takes any further divisor atom.
    """
    s_frac = eq.shift
    if s_frac.denominator != 1:
        raise ShiftError(
            f"sum(delta*r) = {24 * s_frac} is not divisible by 24"
        )
    s = int(s_frac)
    if prec <= s:
        raise PrecisionError(
            f"precision {prec} does not reach past the q-shift {s}"
        )
    pw = prec - s
    num, den = _plan(tuple(eq.factors))
    factors = [_ATOMS[k][0](d, pw) for k, d in num] or [one(pw)]
    divisors = [_ATOMS[k][0](d, pw) for k, d in den]
    f = _product_quotient(factors, divisors[0] if den else None,
                          _rate_bits(num, den[:1], pw - 1) if den else None,
                          s, pw, _lattice(*factors, *divisors[:1]))
    for g in divisors[1:]:
        f = div(f, g)
    if f.prec != prec:
        raise RuntimeError(
            f"eta product came back at precision {f.prec}, not {prec}"
        )
    return f


def catalog_form(name: str, prec: int) -> QSeries:
    """Expand a catalog eta quotient to the given precision; every one has
    leading coefficient 1.  A Twist name raises ValueError: the store,
    verify.FormCache, twists its held base."""
    recipe = FORMS.get(name)
    if isinstance(recipe, Twist):
        raise ValueError(f"catalog form {name} is the twist of {recipe.base}"
                         f" by the character ({recipe.disc}|.), which "
                         f"verify.FormCache applies")
    if recipe is None:
        raise ValueError(f"unknown catalog form {name!r}")
    f = eta_quotient_expand(recipe, prec)
    lead = f.coefficient(f.order)
    if lead != 1:
        raise RuntimeError(
            f"catalog form {name} has leading coefficient {lead}, not 1"
        )
    return f


# ---------------------------------------------------------------------------
# cusp orders

def cusp_orders(eq: EtaQuotient, level: int) -> list[tuple[int, Fraction]]:
    """Vanishing order at each cusp of Gamma_0(level), one cusp per divisor
    d of the level (the cusp with denominator d).  Exact rationals.

    The entry at d = level is the order at infinity, i.e. the leading
    exponent of the q-expansion.  Orders at other cusps are in terms of the
    local uniformizer and may be non-integral.
    """
    for delta, _ in eq.factors:
        if level % delta != 0:
            raise LevelMismatchError(
                f"delta {delta} does not divide level {level}"
            )
    out = []
    for d in sorted(k for k in range(1, level + 1) if level % k == 0):
        total = Fraction(0)
        for delta, r in eq.factors:
            g = gcd(d, delta)
            total += Fraction(g * g * r, gcd(d, level // d) * d * delta)
        out.append((d, Fraction(level, 24) * total))
    return out


# ---------------------------------------------------------------------------
# manifest

def catalog_manifest() -> str:
    """Human-readable catalog dump, one record per line:

        name level [(delta,r),...] cm_disc (a1,a2,a3,a4,a6)

    Eta quotients come first, then twists, each sorted by name.  Forms
    without an attached curve carry '-' in the curve fields.  Twist
    recipes show twist(base,disc) in the factor slot.
    """
    lines = []
    for name in sorted(FORMS, key=lambda n: (isinstance(FORMS[n], Twist), n)):
        recipe = FORMS[name]
        if isinstance(recipe, EtaQuotient):
            factors = ("[" + ",".join(f"({d},{r})" for d, r in recipe.factors)
                       + "]")
        else:
            factors = f"twist({recipe.base},{recipe.disc})"
        if name in (f"g{recipe.level}", f"G{recipe.level}"):
            spec = CURVES[recipe.level]
            cm = str(spec.cm_disc)
            wc = "(" + ",".join(str(a) for a in spec.weierstrass) + ")"
        else:
            cm = "-"
            wc = "-"
        lines.append(f"{name} {recipe.level} {factors} {cm} {wc}")
    return "\n".join(lines) + "\n"
