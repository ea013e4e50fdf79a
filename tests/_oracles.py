"""Independent reference implementations the tests compare against.

Everything here is deliberately naive: dictionary convolutions, sequential
Euler products, factorization-based character evaluation.  Nothing imports
the code under test beyond the QSeries container itself."""

from fractions import Fraction

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
