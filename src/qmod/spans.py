"""Echelonized spans of weakly holomorphic forms.

Level 27 uses the weight-2 newform g27 together with the weight-0 pole
generators L1 = q^-2 + ... and L2 = q^-3 + ... (poles only at infinity,
holomorphic at the other cusps).  The family g27*L1^d, g27*L1^d*L2 realizes
every leading exponent <= 1 except 0; integer echelonization then yields the
forms H_m = q^-m + O(q^2).  Level 36 plays the same game with g36 and the
single generator L(2z), hitting every odd leading exponent <= 1 and giving
H_m = q^-m + O(q^3) for odd m.

The weight-0 functions psi_p are echelonized from monomials in the pole
generators, constrained to the support class of q^-p: at level 27 the
monomials L1^a L2^b with 2a+3b <= p and a in the class of -p mod 3, at
level 36 the monomials psi2^a psi3^b with 2a+3b <= p, a = 1 mod 3 and b
odd, where psi2 = L(2z) and psi3 = L(z)L(2z) - 1.  The leading pole of a
monomial is exactly 2a+3b.
"""

from __future__ import annotations

from dataclasses import dataclass

from .qseries import (
    QSeries,
    _is_prime,
    add,
    coefficient,
    mul,
    one,
    scale,
    sub,
    truncate,
)
from .eta import FORMS, eta_quotient_expand
from .operators import apply_V

__all__ = [
    "EchelonBasis",
    "EliminationError",
    "UnconstructibleError",
    "spanning_family",
    "echelonize",
    "build_H",
    "build_psi",
    "psi36_generators",
]


class EliminationError(ValueError):
    """A pivot that is not a unit turned up during elimination."""

    def __init__(self, exponent: int, coeff: int):
        self.exponent = exponent
        self.coeff = coeff
        super().__init__(
            f"pivot {coeff} at exponent {exponent} is not a unit"
        )


class UnconstructibleError(ValueError):
    """The requested form does not exist in the span."""


@dataclass(frozen=True)
class EchelonBasis:
    """Rows with strictly increasing leading exponents, each with leading
    coefficient +1 and zeros at every other row's leading exponent."""

    rows: tuple[QSeries, ...]

    def pivots(self) -> tuple[int, ...]:
        return tuple(r.order for r in self.rows)

    def row_with_pivot(self, e: int) -> QSeries:
        for r in self.rows:
            if r.order == e:
                return r
        raise UnconstructibleError(f"no row with leading exponent {e}")


def echelonize(family) -> EchelonBasis:
    """Integer Gaussian elimination over a family of series.

    All rows are first truncated to the common minimum precision.  Leading
    coefficients must reduce to units; a non-unit residual pivot raises
    EliminationError with the offending exponent.  The result is fully
    back-reduced, so it depends only on the span of the family, not on the
    order in which members are listed.
    """
    rows = list(family)
    if not rows:
        return EchelonBasis(())
    P = min(f.prec for f in rows)
    rows = [truncate(f, P) for f in rows]

    by_pivot: dict[int, QSeries] = {}
    for f in rows:
        while not f.is_zero and f.order in by_pivot:
            f = sub(f, scale(by_pivot[f.order], coefficient(f, f.order)))
        if f.is_zero:
            continue
        lead = coefficient(f, f.order)
        if lead not in (1, -1):
            raise EliminationError(f.order, lead)
        if lead == -1:
            f = scale(f, -1)
        by_pivot[f.order] = f

    # back-reduce: clear every other pivot column from every row; highest
    # pivot first, so each row only ever subtracts already clean rows
    reduced: dict[int, QSeries] = {}
    for e in sorted(by_pivot, reverse=True):
        f = by_pivot[e]
        for e2 in sorted(k for k in reduced if k > e):
            c = coefficient(f, e2)
            if c:
                f = sub(f, scale(reduced[e2], c))
        reduced[e] = f
    return EchelonBasis(tuple(reduced[e] for e in sorted(reduced)))


# ---------------------------------------------------------------------------
# spanning families

def _pole_generators_27(prec: int):
    g = eta_quotient_expand(FORMS["g27"], prec)
    l1 = eta_quotient_expand(FORMS["L1"], prec)
    l2 = eta_quotient_expand(FORMS["L2"], prec)
    return g, l1, l2


def psi36_generators(prec: int):
    """The weight-0 generators at level 36: psi2 = L(2z) = q^-2 + O(q^4)
    supported on exponents 4 mod 6, and psi3 = L(z)L(2z) - 1 = q^-3 + O(q^3)
    supported on 3 mod 6.  Both returned with precision >= prec."""
    inner = max(prec + 2, 4)
    l = eta_quotient_expand(FORMS["L36"], inner)
    psi2 = apply_V(l, 2)
    prod = mul(l, psi2)
    psi3 = sub(prod, one(prod.prec))
    return psi2, psi3


def spanning_family(level: int, max_pole: int, prec: int) -> list[QSeries]:
    """Weight-2 family members with leading exponent >= -max_pole.

    Level 27: g27*L1^d and g27*L1^d*L2.  Level 36: g36*L(2z)^d.  Leading
    exponents are read off the computed expansions, never assumed.  All
    members come back with certified precision >= prec.
    """
    if max_pole < 1:
        raise ValueError("max_pole must be at least 1")
    if level == 27:
        if prec < 2:
            raise ValueError("level 27 spans need precision >= 2")
        inner = prec + max_pole + 4
        g, l1, l2 = _pole_generators_27(inner)
        members = []
        chain = g
        while True:
            took = False
            if chain.order >= -max_pole:
                members.append(chain)
                took = True
            with_l2 = mul(chain, l2)
            if with_l2.order >= -max_pole:
                members.append(with_l2)
                took = True
            if not took:
                break
            chain = mul(chain, l1)
    elif level == 36:
        if prec < 3:
            raise ValueError("level 36 spans need precision >= 3")
        inner = prec + max_pole + 4
        g = eta_quotient_expand(FORMS["g36"], inner)
        lv = apply_V(eta_quotient_expand(FORMS["L36"], inner), 2)
        members = []
        chain = g
        while chain.order >= -max_pole:
            members.append(chain)
            chain = mul(chain, lv)
    else:
        raise ValueError(f"no spanning family at level {level}")
    for f in members:
        if f.prec < prec:
            raise RuntimeError(
                f"spanning family member certified only to precision "
                f"{f.prec}, below the requested {prec}"
            )
    return members


# ---------------------------------------------------------------------------
# the H_m and psi_p constructions

def build_H(level: int, m: int, prec: int) -> QSeries:
    """The unique weight-2 form q^-m + (zeros through q^1 at level 27,
    through q^2 at level 36) in the echelonized span.

    Level 27 admits every m >= -1 except m = 0; level 36 admits odd
    m >= -1.  Raises UnconstructibleError otherwise.
    """
    if level == 27:
        if m < -1 or m == 0:
            raise UnconstructibleError(
                f"level 27 span has no normal form with pole {m}"
            )
    elif level == 36:
        if m < -1 or m % 2 == 0:
            raise UnconstructibleError(
                f"level 36 span has no normal form with pole {m}"
            )
    else:
        raise ValueError(f"no span construction at level {level}")
    basis = echelonize(spanning_family(level, max(m, 1), prec))
    return truncate(basis.row_with_pivot(-m), prec)


def build_psi(level: int, p: int, prec: int) -> QSeries:
    """The weight-0 function q^-p + C_p q + O(q^4) (level 27, p = 2 mod 3)
    or q^-p + C q + O(q^7) (level 36, p = 5 mod 6), built by echelonizing
    pole-generator monomials within the support class of q^-p."""
    if not _is_prime(p):
        raise UnconstructibleError(f"{p} is not prime")
    if level == 27:
        if p % 3 != 2:
            raise UnconstructibleError(
                f"level 27 psi needs p = 2 mod 3, got {p}"
            )
        inner = prec + p
        _, l1, l2 = _pole_generators_27(inner)
        a_cls = (-p) % 3
        monomials = _monomial_family(l1, l2, p, lambda a, b: a % 3 == a_cls)
    elif level == 36:
        if p % 6 != 5:
            raise UnconstructibleError(
                f"level 36 psi needs p = 5 mod 6, got {p}"
            )
        inner = prec + p + 2
        psi2, psi3 = psi36_generators(inner)
        monomials = _monomial_family(
            psi2, psi3, p, lambda a, b: a % 3 == 1 and b % 2 == 1
        )
    else:
        raise ValueError(f"no psi construction at level {level}")
    basis = echelonize(monomials)
    return truncate(basis.row_with_pivot(-p), prec)


def _monomial_family(gen2, gen3, max_pole, in_class):
    """Products gen2^a * gen3^b with 2a+3b <= max_pole, a+b >= 1, filtered
    by the support-class predicate.  gen2 has a double and gen3 a triple
    pole, so the leading pole of the (a, b) monomial is exactly 2a+3b."""
    members = []
    pow2: dict[int, QSeries] = {}
    pow3: dict[int, QSeries] = {}

    def _power(cache, base, k):
        if k == 0:
            return None
        f = cache.get(k)
        if f is None:
            prev = _power(cache, base, k - 1)
            f = base if prev is None else mul(prev, base)
            cache[k] = f
        return f

    for b in range(0, max_pole // 3 + 1):
        for a in range(0, (max_pole - 3 * b) // 2 + 1):
            if a + b == 0 or not in_class(a, b):
                continue
            fa = _power(pow2, gen2, a)
            fb = _power(pow3, gen3, b)
            if fa is None:
                f = fb
            elif fb is None:
                f = fa
            else:
                f = mul(fa, fb)
            if f.order != -(2 * a + 3 * b):
                raise RuntimeError(
                    f"monomial (a, b) = ({a}, {b}) has leading exponent "
                    f"{f.order}, not -(2a+3b) = {-(2 * a + 3 * b)}"
                )
            members.append(f)
    return members
