"""Normal forms in spans of weakly holomorphic forms.

Level 27 uses the weight-2 newform g27 together with the weight-0 pole
generators L1 = q^-2 + ... and L2 = q^-3 + ... (poles only at infinity,
holomorphic at the other cusps).  The family g27*L1^d, g27*L1^d*L2 realizes
every leading exponent <= 1 except 0, which yields the forms
H_m = q^-m + O(q^2).  Level 36 plays the same game with g36 and the single
generator L(2z), hitting every odd leading exponent <= 1 and giving
H_m = q^-m + O(q^3) for odd m.  Every member is supported on one residue
class (mod 3 at level 27, mod 6 at level 36), and so is H_m, on the class
of -m.  A member of another class has no term at any exponent of that
class, so it never enters the reduction below.

The weight-0 functions psi_p = q^-p + O(q) come from monomials in the pole
generators, constrained to the support class of q^-p: at level 27 the
monomials L1^a L2^b with a in the class of -p mod 3, at level 36 the
monomials psi2^a psi3^b with a = 1 mod 3 and b odd, where psi2 = L(2z) and
psi3 = L(z)L(2z) - 1.  The leading pole of a monomial is exactly 2a+3b, so
the poles in the class are k = p mod 3 (level 27) and k = 5 mod 6 (level
36).  One monomial per pole order k <= p suffices: L1*L2^b at level 27 and
psi2*psi3^b, b odd, at level 36, both with k = 2+3b.  The difference of two
in-class monomials with the same pole k is a class-restricted polynomial in
the generators with a pole below k.  Subtracting the kept monomials at its
remaining pole orders leaves a function with no pole at infinity and none
elsewhere, so a constant; the class excludes the exponent 0, so that
constant is 0, and every in-class monomial lies in the integer span of the
kept ones.

So every H_m and psi_p is the normal form of one chain first*step^j whose
poles step by 3 at level 27 and by 6 at level 36; one builder,
_normal_form, picks the chain's first member and step for the kind and
level.  _chain checks that each member leads with coefficient 1 at the
pole of first plus j poles of step, so the chain is triangular: its
leading exponents are distinct and its leading coefficients 1.  So the
normal form with pivot e, the row with that pivot of the chain's echelon
basis, is the member f_e minus c*f_e' for each other leading exponent e'
in increasing order, c its current coefficient at e' (_reduce); each step
changes only exponents >= e', so those already cleared stay clear.  The
tests check it against echelonize of full families.

One memo here and the process's one expansion store keep what the builds
share.  _memo holds the one memo rule of the package, which
verify.FormCache follows too: keep an entry at the highest precision
requested so far, answer a request at or below it from the entry, and on a
request above it build the entry again and replace it.  _NORMAL_FORMS holds
each H_m and psi_p built, keyed by (kind, level, pole), and the generators
g27, L1, L2, g36 and L36 are read by name from the store,
verify.DEFAULT_CACHE; both hand out the entry truncated to the request.  A
truncated entry is what a fresh build returns, digit for digit and with the
same precision: the expansions are exact, so truncation commutes with every
product and sum built from them; each pivot lies below the least admitted
precision, so the same members enter at every admitted prec; and the
reduction reads its multipliers at the pivots.

No chain is kept.  One chain per class would serve every shorter H_m or
psi_p from the longest built so far, but then what a call costs depends
on the calls before it: the same pool of requests in another order does
different work in different calls.  Here a request whose normal form is
not held forms the same products whatever came before it; the memo and the
store save only the normal forms it repeats and the expansions it does not
extend.  Requests are validated before either is read, a build that raises
stores nothing, and one lock serializes both.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .qseries import QSeries, _is_prime, mul, one, scale, sub, truncate
from .operators import apply_V

__all__ = ["UnconstructibleError", "build_H", "build_psi"]


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
            f = sub(f, scale(by_pivot[f.order], f.coefficient(f.order)))
        if f.is_zero:
            continue
        lead = f.coefficient(f.order)
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
            c = f.coefficient(e2)
            if c:
                f = sub(f, scale(reduced[e2], c))
        reduced[e] = f
    return EchelonBasis(tuple(reduced[e] for e in sorted(reduced)))


# ---------------------------------------------------------------------------
# spanning families

# Each span level's weight-2 newform, then its weight-0 pole generators.
_GENERATORS = {27: ("g27", "L1", "L2"), 36: ("g36", "L36")}


def _generators(names, prec: int) -> list[QSeries]:
    """The named span generators to precision >= prec, L36 as L(2z).

    L36 is expanded to (prec+2)//2, which V_2 certifies to at least prec."""
    return [apply_V(_expansion(n, (prec + 2) // 2), 2) if n == "L36"
            else _expansion(n, prec) for n in names]


def psi36_generators(prec: int):
    """The weight-0 generators at level 36: psi2 = L(2z) = q^-2 + O(q^4)
    supported on exponents 4 mod 6, and psi3 = L(z)L(2z) - 1 = q^-3 + O(q^3)
    supported on 3 mod 6.  Both returned with precision >= prec."""
    inner = max(prec + 2, 4)
    l = _expansion("L36", inner)
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
    if level not in _GENERATORS:
        raise ValueError(f"no spanning family at level {level}")
    _require_span_prec(level, prec)
    chain, *gens = _generators(_GENERATORS[level], prec + max_pole + 4)
    members = []
    if level == 27:
        l1, l2 = gens
        while True:
            row = [f for f in (chain, mul(chain, l2))
                   if f.order >= -max_pole]
            if not row:
                break
            members += row
            chain = mul(chain, l1)
    else:
        while chain.order >= -max_pole:
            members.append(chain)
            chain = mul(chain, gens[0])
    return _certified(members, prec)


def _require_span_prec(level: int, prec: int):
    low = 2 if level == 27 else 3
    if prec < low:
        raise ValueError(
            f"prec must be at least {low} at level {level}, got {prec}")


def _certified(members: list[QSeries], prec: int) -> list[QSeries]:
    for f in members:
        if f.prec < prec:
            raise RuntimeError(
                f"spanning family member certified only to precision "
                f"{f.prec}, below the requested {prec}")
    return members


# ---------------------------------------------------------------------------
# normal forms in a triangular family

def _reduce(f: QSeries, rows: dict[int, QSeries]) -> QSeries:
    """f minus the multiples of rows that clear its coefficient at every
    leading exponent of rows, walked upwards (see the module docstring).
    f and the rows share one precision, and each row leads with
    coefficient 1, as _normal_form leaves them; the result is accumulated
    in one dict."""
    d = dict(f._c)
    for e in sorted(rows):
        c = d.get(e)
        if c:
            for k, v in rows[e]._c.items():
                s = d.get(k, 0) - c * v
                if s:
                    d[k] = s
                else:
                    del d[k]
    return QSeries._trusted(d, f.prec)


# ---------------------------------------------------------------------------
# the H_m and psi_p constructions

def build_H(level: int, m: int, prec: int) -> QSeries:
    """The unique weight-2 form q^-m + (zeros through q^1 at level 27,
    through q^2 at level 36) in the span.

    Level 27 admits every m >= -1 except m = 0; level 36 admits odd
    m >= -1.  Raises UnconstructibleError otherwise.
    """
    if level == 27:
        ok = m == -1 or m >= 1
    elif level == 36:
        ok = m >= -1 and m % 2 == 1
    else:
        raise ValueError(f"no span construction at level {level}")
    if not ok:
        raise UnconstructibleError(
            f"level {level} span has no normal form with pole {m}")
    _require_span_prec(level, prec)
    return truncate(_memo(_NORMAL_FORMS, ("H", level, m), prec,
                          _normal_form, "H", level, m, prec), prec)


def build_psi(level: int, p: int, prec: int) -> QSeries:
    """The weight-0 function q^-p + C_p q + O(q^4) (level 27, p = 2 mod 3)
    or q^-p + C q + O(q^7) (level 36, p = 5 mod 6), to precision prec >= 1.
    """
    if not _is_prime(p):
        raise UnconstructibleError(f"{p} is not prime")
    if level == 27:
        in_class, rule = p % 3 == 2, "p = 2 mod 3"
    elif level == 36:
        in_class, rule = p % 6 == 5, "p = 5 mod 6"
    else:
        raise ValueError(f"no psi construction at level {level}")
    if not in_class:
        raise UnconstructibleError(f"level {level} psi needs {rule}, got {p}")
    if prec < 1:
        raise ValueError(f"prec must be at least 1, got {prec}")
    return truncate(_memo(_NORMAL_FORMS, ("psi", level, p), prec,
                          _normal_form, "psi", level, p, prec), prec)


def _normal_form(kind: str, level: int, pole: int, prec: int) -> QSeries:
    """H_pole or psi_pole, as kind says, to at least prec: the normal form
    with pivot -pole of one chain first*step^j; build_H and build_psi
    validate the request first.

    psi_p takes the chain L1*L2^b or psi2*psi3^b, b odd, which the module
    docstring shows to span every in-class monomial with pole at most p.
    H_m takes one member per pole of the class of -m (mod 3 at level 27,
    mod 6 at level 36).  g27*L1^d lies in the class 1+d mod 3 and
    g36*L(2z)^d in 1+4d mod 6, both with pole 2d-1, so the class of -m has
    d = d0 = 2m+2 mod 3 at level 27 and d0 = (m+1)/2 mod 3 at level 36.
    The chain g36*L(2z)^(d0+3j) is the part of spanning_family in the
    class.  At level 27 that part is g27*L1^(d0+3k) and g27*L1^(d0+3k)*L2,
    and the chain g27*L1^d0*L2^j has the same normal form:
    - Both are triangular, with unit leads and the same pivots: every
      pole = 2*d0-1 mod 3 from 2*d0-1 up to m.
    - Each member of one is a Z-combination of members of the other with
      at most its pole.  The module docstring's weight-0 argument on
      L1^3 - L2^2 (class 0 mod 3, pole below 6) leaves a constant, as this
      class contains the exponent 0: L1^3 = L2^2 + 9*L2 + 27.  Times g27
      (d0 = 0), that constant is a multiple of the chain's first member.
      Times g27*L1^d0, the identity rewrites g27*L1^(d0+3k)*L2^e in the
      chain and, by induction on j, g27*L1^d0*L2^j in the other family.
    - A nonzero Z-combination of a triangular family leads at a pivot, so
      the normal form with pivot e is the only series in the span with
      lead q^e and zeros at the other pivots.
    """
    if kind == "psi" and level == 27:
        first, step = _generators(("L1", "L2"), prec + pole)
    elif kind == "psi":
        psi2, psi3 = psi36_generators(prec + pole + 2)
        first, step = mul(psi2, psi3), mul(psi3, psi3)
    else:
        first, gen, *l2 = _generators(_GENERATORS[level],
                                      prec + max(pole, 1) + 4)
        if level == 27:
            d0, step = (2 * pole + 2) % 3, l2[0]
        else:
            d0, step = (pole + 1) // 2 % 3, mul(mul(gen, gen), gen)
        for _ in range(d0):
            first = mul(first, gen)
    rows = {f.order: truncate(f, prec)
            for f in _certified(_chain(first, step, pole), prec)}
    return _reduce(rows.pop(-pole), rows)


# The normal-form memo of the module docstring: (kind, level, pole) -> that
# normal form at the highest precision requested so far.  _MEMO_LOCK is the
# one lock of every memo, verify.FormCache's store included.
_NORMAL_FORMS: dict[tuple, QSeries] = {}
_MEMO_LOCK = threading.RLock()


def _memo(store: dict, key, prec: int, build, *args) -> QSeries:
    """The entry key of store, certified to at least prec: the held entry
    itself when it reaches prec, and otherwise build(*args), which replaces
    it.  A caller that wants exactly prec truncates the answer."""
    with _MEMO_LOCK:
        f = store.get(key)
        if f is None or f.prec < prec:
            f = store[key] = build(*args)
        return f


def _expansion(name: str, prec: int) -> QSeries:
    # verify imports spans, so spans imports verify's store at call time
    from .verify import DEFAULT_CACHE
    return DEFAULT_CACHE.series(name, prec)


def _chain(first, step, max_pole):
    """first * step^j for j = 0, 1, ... while the leading pole stays at most
    max_pole; no product beyond max_pole is formed.  The one check that a
    chain is triangular: each member must lead with coefficient 1 at
    first's order plus j times step's, else RuntimeError."""
    members, lead, f = [], first.order, first
    while True:
        c = f._c.get(f.order)
        if f.order != lead or c != 1:
            raise RuntimeError(f"chain member expected to lead with q^{lead}"
                               f" leads with {c}*q^{f.order}")
        members.append(f)
        lead += step.order
        if -lead > max_pole:
            return members
        f = mul(f, step)
