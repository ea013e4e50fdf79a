"""Operators acting on q-expansions: U and V maps, the theta derivation,
Hecke operators, Kronecker characters and coefficient twists."""

from __future__ import annotations

from functools import reduce

from .qseries import (
    PrecisionError,
    QSeries,
    _ceil_div,
    _is_prime,
    add,
    scale,
    truncate,
)

__all__ = [
    "apply_U",
    "apply_V",
    "theta",
    "hecke",
    "kronecker",
    "twist",
    "is_inert",
]


def apply_U(f: QSeries, m: int, prec: int | None = None) -> QSeries:
    """U_m: the coefficient at q^n of the result is a(m*n).

    Exponents not divisible by m are discarded; negative exponents take part
    on the same footing.  The result has precision prec, by default
    ceil(f.prec / m), every exponent f certifies; a larger prec raises
    PrecisionError.  When the result has fewer exponents than f has stored
    terms, they are looked up, as in truncate, so a large m or a short
    window costs the result, not the series.
    """
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"U index must be a positive integer, got {m}")
    top = _ceil_div(f.prec, m)
    if prec is None:
        prec = top
    elif prec > top:
        raise PrecisionError(
            f"U_{m} certifies exponents below {top}, not below {prec}"
        )
    if m == 1:
        return truncate(f, prec)
    c = f._c
    low = _ceil_div(f.order, m)
    if prec - low < len(c):
        d = {n: c[n * m] for n in range(low, prec) if n * m in c}
    else:
        d = {e // m: v for e, v in c.items() if e % m == 0 and e < prec * m}
    return QSeries._trusted(d, prec)


def apply_V(f: QSeries, m: int) -> QSeries:
    """V_m: substitute q -> q^m, sending q^e to q^(m*e).

    Interleaved coefficients are known to be zero, so the certified precision
    is m*(f.prec - 1) + 1.
    """
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"V index must be a positive integer, got {m}")
    if m == 1:
        return f
    d = {m * e: c for e, c in f._c.items()}
    return QSeries._trusted(d, m * (f.prec - 1) + 1)


def theta(f: QSeries) -> QSeries:
    """q d/dq: multiplies the coefficient at q^e by e.  Precision unchanged."""
    return QSeries._trusted(
        {e: e * c for e, c in f._c.items() if e != 0}, f.prec
    )


def hecke(f: QSeries, p: int, n: int) -> QSeries:
    """Weight-2 Hecke operator at the prime power p^n:

        f | T_2(p^n) = sum_{j=0..n} p^j (f | U(p^(n-j)) | V(p^j)).

    Precision is the minimum over the terms, which is the U(p^n) term's
    P = ceil(f.prec / p^n) whenever P >= 1.  So each U(p^(n-j)) image is
    asked only for the exponents e with p^j e < P, the window whose V(p^j)
    image is certified to P, unless its own precision is smaller.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"prime-power exponent must be >= 1, got {n}")
    P = _ceil_div(f.prec, p ** n)
    terms = []
    for j in range(n + 1):
        m = p ** (n - j)
        window = min(_ceil_div(P - 1, p ** j) + 1, _ceil_div(f.prec, m))
        t = apply_V(apply_U(f, m, window), p ** j)
        terms.append(scale(t, p ** j))
    return reduce(add, terms)


def kronecker(d: int, n: int) -> int:
    """Kronecker symbol (d|n), completely multiplicative in n.

    Implemented for arbitrary integer d via the Jacobi reciprocity loop with
    the standard conventions at 2, 0 and negative arguments.  The characters
    used by the catalog are d = 8 (nonzero on odd n, +1 iff n = +-1 mod 8)
    and d = 12 (+1 iff n = +-1 mod 12, 0 when gcd(n, 12) > 1).
    """
    if d == 0:
        return 1 if n in (1, -1) else 0
    if n == 0:
        return 1 if d in (1, -1) else 0
    if d % 2 == 0 and n % 2 == 0:
        return 0
    result = 1
    if n < 0:
        n = -n
        if d < 0:
            result = -result
    while n % 2 == 0:
        n //= 2
        if d % 8 in (3, 5):
            result = -result
    # n odd positive: Jacobi symbol (d|n)
    a = d % n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def twist(f: QSeries, disc: int) -> QSeries:
    """Coefficientwise twist a(e) -> (disc|e) * a(e) at every exponent,
    negative ones included.  Precision unchanged.

    For a discriminant (nonzero disc = 0 or 1 mod 4) the symbol (disc|n) has
    period |disc| on n > 0, so positive exponents read one table of |disc|
    values; exponents <= 0 and every other disc call kronecker per term.
    """
    period = abs(disc) if disc and disc % 4 in (0, 1) else 0
    table = [kronecker(disc, n) for n in range(period)]
    d = {}
    for e, c in f._c.items():
        chi = table[e % period] if period and e > 0 else kronecker(disc, e)
        if chi:
            d[e] = chi * c if chi != 1 else c
    return QSeries._trusted(d, f.prec)


def is_inert(p: int, cm_disc: int) -> bool:
    """Whether the prime p is inert in the imaginary quadratic field of the
    given discriminant.  Supports disc -4 (Gaussian field: inert iff
    p = 3 mod 4) and disc -3 (Eisenstein field: inert iff p = 2 mod 3).
    Ramified primes report False."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if cm_disc == -4:
        return p % 4 == 3
    if cm_disc == -3:
        return p % 3 == 2
    raise ValueError(f"unsupported CM discriminant {cm_disc}")
