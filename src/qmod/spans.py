"""Normal forms in spans of weakly holomorphic forms.

_LEVELS has one row per span level N, all data: the catalog name of the
weight-2 newform g = q + ..., and the Weierstrass coordinates x = q^-2 +
..., y = q^-3 + ... of CURVES[N], weight-0 functions with poles only at
infinity (Alfes, Griffin, Ono and Rolen, "Weierstrass mock modular forms
and elliptic curves", 2015), each a catalog form plus a constant: x = L1,
y = L2 + 4 on y^2 + y = x^3 - 7 at level 27, and x = X36 = L36(2z),
y = Y36 - 1 = L36(z)L36(2z) - 1 on y^2 = x^3 + 1 at level 36.  The tests
check each curve equation, G = x*g and theta(x) = -(2y + a1*x + a3)*g.
g*x^a*y^b leads with q^-(2a+3b-1) and x^a*y^b with q^-(2a+3b), both with
coefficient 1, and each lies on one residue class (g, x, y on 1, 1, 0 mod
3 at level 27 and 1, 4, 3 mod 6 at level 36); a member of another class
has no term at any exponent of the class at hand, so it never enters the
reductions below.

H_m = q^-m + O(q^2) (level 27) or O(q^3) (level 36) is a normal form in
the span of the g*x^a*y^b whose pole build_H admits, and psi_p = q^-p +
O(q) in the span of the x^a*y^b of the class of q^-p.  The curve
equation, x^3 = y^2 + y + 7 at level 27 and x^3 = y^2 - 1 at level 36,
writes a monomial with a >= 3 as an integer combination of monomials of
its class with a - 3 and no larger pole, so the in-class monomials with
a < 3 span every in-class monomial of at most their pole.  They are one
per pole: g*x^d0*y^j at level 27 and g*x^d0*y^(2j) at level 36 (whose
admitted poles are odd), 2*d0 - 1 the least pole of the class, and x*y^j
(p = 2 mod 3) or x*y^(2j+1) (p = 5 mod 6).  _normal_form's chains
first*step^j, g*x^d0*y^j or g*x^d0*(x^3)^j and x*y^j or x*y*(y^2)^j, are
unit-triangular combinations of those, so they span the same space.  The
normal form with pivot e is the only series in that span with lead q^e
and zeros at the other pivots, so no constant shift of y changes it.

_chain checks that each member leads with coefficient 1 at the pole of
first plus j poles of step, so the chain is triangular: its leading
exponents are distinct and its leading coefficients 1.  So the normal form
with pivot e, the row with that pivot of the chain's echelon basis, is the
member f_e minus c*f_e' for each other leading exponent e' in increasing
order, c its current coefficient at e' (_reduce); each step changes only
exponents >= e', so those already cleared stay clear.  The tests check it
against echelonize of full families.

The direct chain has one member per pole up to its own; Zagier duality
(Zagier, "Traces of singular moduli", 2002) gives one whose length is set
by prec.  Let t = 3 (level 27) or 6 (level 36), every chain's step
pole.  For k = 1 and n = -1 mod t, H_k*psi_n is a weight-2 form whose only
pole is at infinity (g is a cusp form; x and y have poles only there), so
its constant term is 0; the gaps of H_k and psi_n leave psi_n[k] +
H_k[n] = 0.  So H_m of G's class, m = 1 mod t, is q^-m minus psi_n[m]*q^n
over the psi chain below prec, and psi_p is q^-p minus H_k[p]*q^k over the
H chain through G below prec, each dual row certified to the pole + 1.  The
dual echelon is _reduce applied member by member, in increasing pole,
against the normal forms already reduced.  _normal_form takes whichever
chain has fewer members, the direct one on a tie and for an H class with
no dual; both give the same series, digit for digit.  So past prec,
hecke-decomposition's H_(p^n), n even, reads a psi chain, and residue and
theta-psi read psi_p off the H chain through G.

One memo here and the process's one expansion store keep what the builds
share.  _memo holds the one memo rule of the package, which
verify.FormCache follows too: keep an entry at the highest precision
requested so far, answer a request at or below it from the entry, and on a
request above it build the entry again and replace it.  _NORMAL_FORMS holds
each H_m and psi_p built, keyed by (kind, level, pole), and every catalog
form a row names is read by name from the store, verify.DEFAULT_CACHE;
both hand out the entry truncated to the request.  A
truncated entry is what a fresh build returns, digit for digit and with the
same precision: the normal form is unique, so a build from either chain,
at any prec, is the one series truncated to its precision.

No chain is kept.  One chain per class would serve every shorter H_m or
psi_p from the longest built so far, but then what a call costs depends
on the calls before it: the same pool of requests in another order does
different work in different calls.  Here a request whose normal form is
not held forms the same products whatever came before it; the memo and the
store save only the normal forms it repeats and the expansions it does not
extend.  So only the requested normal form enters _NORMAL_FORMS, never the
other rows of a dual echelon.  Requests are validated before either is
read, a build that raises stores nothing, and one lock serializes both.
"""

from __future__ import annotations

import threading
from collections import namedtuple
from dataclasses import dataclass

from .qseries import QSeries, _is_prime, add, mul, one, scale, sub, truncate

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
# the span levels

# The one table of span levels, derived in the module docstring.  A row: g,
# the newform's catalog name; x and y, each a (catalog name, constant)
# pair; H_step, the H chain's step, and psi, the psi chain's first member
# and step, as exponents (a, b) of x^a*y^b; low, the least prec of build_H.
_Level = namedtuple("_Level", "g x y H_step psi low")
_LEVELS = {
    27: _Level("g27", ("L1", 0), ("L2", 4), (0, 1), ((1, 0), (0, 1)), 2),
    36: _Level("g36", ("X36", 0), ("Y36", -1), (3, 0), ((1, 1), (0, 2)), 3),
}


def _level(level: int, what: str) -> _Level:
    if level not in _LEVELS:
        raise ValueError(f"{what} runs at levels "
                         f"{' and '.join(map(str, _LEVELS))}, not {level}")
    return _LEVELS[level]


def _coordinates(row: _Level, prec: int, with_y: bool):
    """The pair (x, y) of row to prec, each its catalog form read from the
    store plus its constant; y is None unless with_y."""
    def coordinate(name, c):
        f = _expansion(name, prec)
        return add(f, scale(one(prec), c)) if c else f
    return coordinate(*row.x), coordinate(*row.y) if with_y else None


def _pole(ab) -> int:
    """The pole of x^a*y^b."""
    return 2 * ab[0] + 3 * ab[1]


def _first_power(row: _Level, m: int):
    """The d0 < 3 of H_m's first member g*x^d0, whose pole 2*d0 - 1 is at
    most m and agrees with m modulo the pole of the H step; None when no d
    does, and then the span has no H_m."""
    t = _pole(row.H_step)
    return next((d for d in range(3)
                 if 2 * d - 1 <= m and (m - 2 * d + 1) % t == 0), None)


def _monomial(f, x, y, ab):
    """f*x^a*y^b, or x^a*y^b when f is None, multiplied left to right."""
    for h in [x] * ab[0] + [y] * ab[1]:
        f = h if f is None else mul(f, h)
    return f


def spanning_family(level: int, max_pole: int, prec: int) -> list[QSeries]:
    """Weight-2 family members with leading exponent >= -max_pole: every
    g*x^a*y^b with b < 2 (the curve equation reduces y^2) whose pole
    build_H admits, so b = 0 alone at level 36.  Leading exponents are read
    off the computed expansions, never assumed.  All members come back
    with certified precision >= prec.
    """
    if max_pole < 1:
        raise ValueError("max_pole must be at least 1")
    row = _level(level, "spanning family")
    _require_span_prec(level, prec)
    P = prec + max_pole + 4
    g = _expansion(row.g, P)
    x, y = _coordinates(row, P, True)
    members = []
    for f in (g, mul(g, y)):
        while f.order >= -max_pole:
            if _first_power(row, -f.order) is not None:
                members.append(f)
            f = mul(f, x)
    return _certified(members, prec)


def _require_span_prec(level: int, prec: int):
    low = _LEVELS[level].low
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
    m >= -1.  Raises UnconstructibleError otherwise.  An H_m of G's class
    past prec is read off the psi chain by duality (module docstring).
    """
    row = _level(level, "span construction")
    if _first_power(row, m) is None:
        raise UnconstructibleError(
            f"level {level} span has no normal form with pole {m}")
    _require_span_prec(level, prec)
    return truncate(_memo(_NORMAL_FORMS, ("H", level, m), prec,
                          _normal_form, "H", level, m, prec), prec)


def build_psi(level: int, p: int, prec: int) -> QSeries:
    """The weight-0 function q^-p + C_p q + O(q^4) (level 27, p = 2 mod 3)
    or q^-p + C q + O(q^7) (level 36, p = 5 mod 6), to precision prec >= 1.
    Past prec it is read off the H chain through G (module docstring).
    """
    if not _is_prime(p):
        raise UnconstructibleError(f"{p} is not prime")
    first, step = map(_pole, _level(level, "psi construction").psi)
    if p % step != first % step:
        raise UnconstructibleError(
            f"level {level} psi needs p = {first} mod {step}, got {p}")
    if prec < 1:
        raise ValueError(f"prec must be at least 1, got {prec}")
    return truncate(_memo(_NORMAL_FORMS, ("psi", level, p), prec,
                          _normal_form, "psi", level, p, prec), prec)


def _normal_form(kind: str, level: int, pole: int, prec: int) -> QSeries:
    """H_pole or psi_pole, as kind says, to prec, off whichever chain has
    fewer members (module docstring): the direct one, first to pole, or
    the other kind's from low to top, its largest pole below prec, when
    low + pole = 0 mod t pairs the two.  build_H and build_psi validate."""
    row = _LEVELS[level]
    t, psi_low = _pole(row.H_step), _pole(row.psi[0])
    if kind == "H":
        dual, first, low = "psi", 2 * _first_power(row, pole) - 1, psi_low
    else:
        dual, first, low = "H", psi_low, 1
    top = prec - 1 - (prec - 1 - low) % t
    if (low + pole) % t or top - low >= pole - first:
        rows = _chain_rows(kind, row, pole, prec)
        return _reduce(rows.pop(-pole), rows)
    forms: dict[int, QSeries] = {}
    rows = _chain_rows(dual, row, top, pole + 1) if top >= low else {}
    for e in sorted(rows, reverse=True):
        forms[e] = _reduce(rows[e], forms)
    c = {-pole: 1}
    c.update((-e, -f._c[pole]) for e, f in forms.items() if pole in f._c)
    return QSeries._trusted(c, prec)


def _chain_rows(kind: str, row: _Level, top: int, prec: int) -> dict:
    """kind's chain through the class of top, up to top, keyed by leading
    exponent, each member truncated to prec.  A member's precision is its
    generators' plus its factors' orders less the largest (g's 1 in H, x's
    -2 in psi), so reading them to prec + top + 1 or prec + top - 2
    certifies the top member to exactly prec."""
    if kind == "H":
        P = prec + top + 1
        g = _expansion(row.g, P)
        x, y = _coordinates(row, P, row.H_step[1] > 0)
        first = _monomial(g, x, y, (_first_power(row, top), 0))
        step = _monomial(None, x, y, row.H_step)
    else:
        x, y = _coordinates(row, prec + top - 2, True)
        first, step = (_monomial(None, x, y, ab) for ab in row.psi)
    return {f.order: truncate(f, prec)
            for f in _certified(_chain(first, step, top), prec)}


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
