"""Dedekind eta quotients and the catalog of named forms.

An eta quotient prod_delta eta(delta z)^(r_delta) expands as
q^s * prod_delta prod_n (1 - q^(delta n))^(r_delta) with s = sum(delta *
r_delta) / 24, which must be an integer.  Expansion works with two lacunary
building blocks: the pentagonal-number expansion of prod(1 - q^n) and the
triangular-number expansion of its cube.  Positive powers are folded in as
products; negative powers are divided out term by term, so no dense-by-dense
product ever forms.

The catalog holds the five weight-2 CM newforms that are eta quotients
(levels 27, 32, 36, 64, 144), the weight-2 companion forms with a simple
pole at infinity, and the weight-0 pole generators used by the span
constructions.  The level 64 and 144 companions are quadratic twists of the
level 32 and 36 ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import gcd, isqrt

from .qseries import PrecisionError, QSeries, div, mul, one, shift
from .operators import twist as _twist_op

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
# companion with a simple pole at infinity, L* the weight-0 pole generators.
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
    if prec <= 0:
        return QSeries._trusted({}, prec)
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
    if prec <= 0:
        return QSeries._trusted({}, prec)
    d = {}
    for k in count(0):
        e = delta * (k * (k + 1) // 2)
        if e >= prec:
            break
        d[e] = (2 * k + 1) * (-1 if k % 2 else 1)
    return QSeries._trusted(d, prec)


def _euler_inverse_bits(r: int, m: int) -> int:
    """An integer b such that every coefficient of prod_n (1 - x^n)^(-r) at
    degrees 0..m is below 2^b.

    The coefficients p_r(k) are nonnegative, so p_r(k) x^k is at most the
    whole product for 0 < x < 1.  With x = e^(-t), the log of
    prod_n (1 - e^(-nt))^(-1) is sum_j 1 / (j (e^(jt) - 1)) <= pi^2 / (6t),
    hence p_r(k) <= exp(kt + r pi^2 / (6t)), and t = pi sqrt(r / (6k))
    gives p_r(k) <= exp(pi sqrt(2rk/3)), increasing in k.  In bits that is
    (pi / log 2) sqrt(2rk/3), bounded in integers without rounding error:
    pi / log 2 < 4.533 and sqrt(2rm/3) < isqrt(ceil(2rm/3)) + 1.
    """
    return -(-4533 * (isqrt(-(-2 * r * m // 3)) + 1) // 1000)


def eta_quotient_expand(eq: EtaQuotient, prec: int) -> QSeries:
    """q-expansion of the eta quotient with certified precision prec.

    Raises ShiftError when the q-shift sum(delta*r)/24 is not an integer and
    PrecisionError when prec does not reach past the shift.
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
    mul_atoms: list[QSeries] = []
    div_atoms: list[tuple[QSeries, int]] = []
    for delta, r in eq.factors:
        cubes, rest = divmod(abs(r), 3)
        atoms = [(_euler_factor_cubed(delta, pw), 3) for _ in range(cubes)]
        atoms += [(_euler_factor(delta, pw), 1) for _ in range(rest)]
        if r > 0:
            mul_atoms += [a for a, _ in atoms]
        else:
            # the quotient reaches 1/atom below q^pw: x = q^delta degree at
            # most (pw - 1) // delta
            div_atoms += [(a, _euler_inverse_bits(k, (pw - 1) // delta))
                          for a, k in atoms]
    # fold the widest factors into the scatter product first; later factors
    # each cost (their term count) * (dense length)
    mul_atoms.sort(key=lambda a: -len(a._c))
    acc = one(pw)
    for atom in mul_atoms:
        acc = mul(acc, atom)
    for atom, bits in div_atoms:
        acc = div(acc, atom, inverse_bits=bits)
    if acc.prec != pw:
        raise RuntimeError(
            f"eta product came back at precision {acc.prec}, not {pw}"
        )
    return shift(acc, s)


def catalog_form(name: str, prec: int) -> QSeries:
    """Expand a catalog form to the given precision.

    Eta-quotient entries expand directly; twist entries expand their base
    form at the same precision and twist it coefficientwise.  Every catalog
    expansion has leading coefficient 1.
    """
    recipe = FORMS.get(name)
    if isinstance(recipe, EtaQuotient):
        f = eta_quotient_expand(recipe, prec)
    elif isinstance(recipe, Twist):
        f = _twist_op(catalog_form(recipe.base, prec), recipe.disc)
    else:
        raise ValueError(f"unknown catalog form {name!r}")
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
