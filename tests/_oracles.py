"""Independent reference implementations the tests compare against.

Everything here is deliberately naive: dictionary convolutions, sequential
Euler products, factorization-based character evaluation, the Hecke
characters of the CM newforms.  Nothing imports the code under test beyond
the QSeries container itself."""

from fractions import Fraction
from itertools import count
from math import isqrt

from qmod import QSeries


def ref_mul(f: QSeries, g: QSeries) -> QSeries:
    """Brute-force convolution with the product precision rule."""
    P = min(f.prec + g.order, g.prec + f.order)
    d = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            if e1 + e2 < P:
                d[e1 + e2] = d.get(e1 + e2, 0) + c1 * c2
    return QSeries(d, P)


def ref_invert(f: QSeries) -> QSeries:
    """1/f for f with leading coefficient +-1, at the precision
    f.prec - 2*order(f), by the schoolbook recurrence on exact integers."""
    w = f.order
    a = dict(f.items())
    u = a[w]
    assert u in (1, -1)
    b = [u]
    for k in range(1, f.prec - w):
        s = sum(c * b[k - (e - w)] for e, c in a.items() if 0 < e - w <= k)
        b.append(-u * s)
    return QSeries({k - w: c for k, c in enumerate(b)}, f.prec - 2 * w)


def _poly_mul(a: dict, b: dict, pw: int) -> dict:
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            if e < pw:
                out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _poly_inv(b: dict, pw: int) -> dict:
    # b must have constant term 1
    assert b.get(0) == 1
    B = [b.get(i, 0) for i in range(pw)]
    H = [0] * pw
    H[0] = 1
    for j in range(1, pw):
        s = 0
        for i in range(1, j + 1):
            if B[i]:
                s += B[i] * H[j - i]
        H[j] = -s
    return {j: c for j, c in enumerate(H) if c}


def naive_euler_product(delta: int, pw: int) -> dict:
    """prod_{n>=1} (1 - q^(delta n)) mod q^pw by sequential multiplication."""
    f = {0: 1}
    n = 1
    while delta * n < pw:
        f = _poly_mul(f, {0: 1, delta * n: -1}, pw)
        n += 1
    return f


def naive_eta_quotient(factors, prec: int) -> QSeries:
    """Expand prod eta(delta z)^r with plain dict arithmetic."""
    s = sum(Fraction(d * r, 24) for d, r in factors)
    assert s.denominator == 1, "non-integral shift"
    s = int(s)
    pw = prec - s
    assert pw > 0
    f = {0: 1}
    for d, r in factors:
        base = naive_euler_product(d, pw)
        if r < 0:
            base = _poly_inv(base, pw)
        for _ in range(abs(r)):
            f = _poly_mul(f, base, pw)
    return QSeries({e + s: c for e, c in f.items()}, prec)


def factorize(n: int):
    assert n >= 1
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def legendre(a: int, p: int) -> int:
    # odd prime p, via the Euler criterion
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def ref_kronecker(d: int, n: int) -> int:
    if n == 0:
        return 1 if d in (1, -1) else 0
    s = 1
    if n < 0:
        n = -n
        if d < 0:
            s = -s
    for p, e in factorize(n):
        if p == 2:
            if d % 2 == 0:
                kp = 0
            elif d % 8 in (1, 7):
                kp = 1
            else:
                kp = -1
        else:
            kp = legendre(d, p)
        if kp == 0:
            return 0
        if kp == -1 and e % 2 == 1:
            s = -s
    return s


def _cornacchia(d: int, m: int, a: int, r: int):
    """(x, y) with x^2 + d y^2 = m, or None, from a root r of r^2 = -d
    mod a: Euclid's algorithm on (a, r) stops at the first remainder x
    with x^2 <= m (Cohen, A Course in Computational Algebraic Number
    Theory, 1.5.2 with a = m = p, and 1.5.3 with m = 4p, a = 2p and r
    odd)."""
    while r * r > m:
        a, r = r, a % r
    y2, rem = divmod(m - r * r, d)
    y = isqrt(y2)
    return (r, y) if rem == 0 and y * y == y2 else None


def _unit_root(p: int, k: int) -> int:
    """A root of unity of order k = 3 or 4 mod the prime p = 1 mod k: the
    first c^((p-1)/k) whose k/l-th power, l the prime dividing k, is not
    1."""
    for c in count(2):
        w = pow(c, (p - 1) // k, p)
        if pow(w, k // (2 if k == 4 else 3), p) != 1:
            return w


def _cm_trace(level: int, p: int) -> int:
    """a(p) of the weight-2 CM newform g<level>, level 27, 32 or 64.

    Zero at p | level and at p inert in Q(sqrt(-3)) (level 27) or Q(i).
    At a split p it is the trace of the generator of a prime above p that
    the Hecke character picks:
    - level 32: p = a^2 + b^2 with a odd and a + b = 1 mod 4, a(p) = 2a;
    - level 64, the twist of level 32 by (8|.): a = 1 mod 4, a(p) = 2a;
    - level 27: 4p = L^2 + 27 M^2 with L = 2 mod 3, a(p) = L.
    """
    if level % p == 0:
        return 0
    if level == 27:
        if p % 3 != 1:
            return 0
        # 2w + 1 is a square root of -3 for a cube root of unity w
        r = 3 * (2 * _unit_root(p, 3) + 1) % p
        x, _ = _cornacchia(27, 4 * p, 2 * p, r if r % 2 else p - r)
        return x if x % 3 == 2 else -x
    if p % 4 != 1:
        return 0
    x, y = _cornacchia(1, p, p, _unit_root(p, 4))
    a, b = (x, y) if x % 2 else (y, x)
    if level == 32:
        return 2 * (a if (a + b) % 4 == 1 else -a)
    return 2 * (a if a % 4 == 1 else -a)


def cm_newform_coefficients(level: int, n: int) -> list[int]:
    """a(0), ..., a(n - 1) of the newform g<level>, level 27, 32 or 64,
    from its Hecke character alone: a(1) = 1, a is multiplicative, a(p)
    is _cm_trace, a(p^k) = 0 at p | level, and at the other p
    a(p^k) = a(p) a(p^(k-1)) - p a(p^(k-2)).  A smallest-prime-factor
    sieve finds each index's prime and its power; n >= 2."""
    spf = list(range(n))
    for p in range(2, isqrt(n - 1) + 1):
        if spf[p] == p:
            for j in range(p * p, n, p):
                if spf[j] == j:
                    spf[j] = p
    a = [0, 1] + [0] * (n - 2)
    for m in range(2, n):
        p = spf[m]
        pk = p
        while m % (pk * p) == 0:
            pk *= p
        if pk < m:
            a[m] = a[pk] * a[m // pk]
        elif m == p:
            a[m] = _cm_trace(level, p)
        elif level % p:
            a[m] = a[p] * a[m // p] - p * a[m // p // p]
    return a
