"""Exact truncated Laurent series in q over the integers.

A QSeries is a finite set of integer coefficients together with an absolute
precision P.  It represents

    f = sum_{e < P} a(e) q^e  +  O(q^P),

with every stored exponent strictly below P.  Coefficients are exact Python
integers; there are no floats and no rationals anywhere in this module.
Every operation tracks the precision it can certify and refuses to report a
coefficient beyond it.  For the zero series (no stored entries) the leading
exponent is reported as P itself, which acts as an order sentinel in the
precision rules below.

One kernel, _product_quotient, runs mul's packed branch and the
eta-quotient expansion, division included.  It packs many coefficients
into one Python integer (Kronecker substitution): a list v_0, ..., v_{n-1}
becomes sum_k v_k 2^(kW) with W = 8B bits per slot.  A slot value v with
|v| < 2^(W-1) is stored as v + 2^(W-1), a B-byte unsigned field, so the
conversion runs through int.to_bytes/int.from_bytes; subtracting the same
offset in every slot gives back a signed-digit integer on which big-int
addition, shifts and small multiples act slotwise.  Widening the slots
is a strided copy of those bytes.  The digits of such an integer are
recovered exactly when every slot of the result again lies in
(-2^(W-1), 2^(W-1)), so every slot width comes from a proven bound on
the coefficients it will hold and never from a guess that is checked
later: the kernel proves the product's, and eta proves the quotient's.
Two helpers carry its arithmetic: _shift_add multiplies a packed integer
by a lacunary series, and _solve_rows runs the division recurrence on
whole packed rows.
"""

from __future__ import annotations

import math

__all__ = [
    "QSeries",
    "PrecisionError",
    "one",
    "add",
    "sub",
    "scale",
    "mul",
    "truncate",
    "first_difference",
    "padic_valuation",
    "padic_valuation_range",
]


class PrecisionError(ValueError):
    """A coefficient or range beyond the certified precision was requested."""


def _ceil_div(a: int, b: int) -> int:
    # b > 0; works for negative a
    return -(-a // b)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class QSeries:
    """Truncated integer Laurent series.  Immutable after construction.

    Built from a dict or (exponent, coefficient) pairs with precision prec.
    Repeated exponents are summed.  Every exponent must lie strictly below
    prec, otherwise a ValueError is raised.
    """

    __slots__ = ("_c", "prec", "_order")

    def __init__(self, entries, prec: int):
        if not isinstance(prec, int):
            raise ValueError("precision must be an integer")
        d: dict[int, int] = {}
        items = entries.items() if isinstance(entries, dict) else entries
        for e, c in items:
            if not isinstance(e, int) or not isinstance(c, int):
                raise ValueError("exponents and coefficients must be integers")
            if e >= prec:
                raise ValueError(
                    f"exponent {e} is not below the precision {prec}"
                )
            d[e] = d.get(e, 0) + c
        for e in [e for e, c in d.items() if c == 0]:
            del d[e]
        self._c = d
        self.prec = prec
        self._order = min(d) if d else prec

    @classmethod
    def _trusted(cls, d: dict, prec: int) -> "QSeries":
        # d must already be normalized: nonzero values, all exponents < prec
        self = object.__new__(cls)
        self._c = d
        self.prec = prec
        self._order = min(d) if d else prec
        return self

    @property
    def order(self) -> int:
        """Leading exponent; equals prec for the zero series (sentinel)."""
        return self._order

    @property
    def is_zero(self) -> bool:
        return not self._c

    def coefficient(self, e: int) -> int:
        if e >= self.prec:
            raise PrecisionError(
                f"coefficient at q^{e} is not certified (precision {self.prec})"
            )
        return self._c.get(e, 0)

    def items(self):
        """Stored (exponent, coefficient) pairs, sorted by exponent."""
        return sorted(self._c.items())

    def support(self):
        return sorted(self._c)

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.prec == other.prec and self._c == other._c

    __hash__ = None

    def __str__(self):
        if not self._c:
            return f"O(q^{self.prec})"
        parts = []
        for e, c in self.items():
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                head = "q" if e == 1 else f"q^{e}"
                body = head if mag == 1 else f"{mag}*{head}"
            parts.append(("- " if c < 0 else "+ ") + body)
        lead = parts[0][2:] if parts[0][0] == "+" else "-" + parts[0][2:]
        rest = " ".join(parts[1:])
        tail = f" + O(q^{self.prec})"
        return lead + (" " + rest if rest else "") + tail

    def __repr__(self):
        return f"QSeries({self.items()}, prec={self.prec})"


def one(prec: int) -> QSeries:
    return QSeries._trusted({0: 1} if prec > 0 else {}, prec)


def add(f: QSeries, g: QSeries) -> QSeries:
    """Sum at precision min(f.prec, g.prec)."""
    P = min(f.prec, g.prec)
    d = {}
    for e, c in f._c.items():
        if e < P:
            d[e] = c
    for e, c in g._c.items():
        if e < P:
            s = d.get(e, 0) + c
            if s:
                d[e] = s
            elif e in d:
                del d[e]
    return QSeries._trusted(d, P)


def sub(f: QSeries, g: QSeries) -> QSeries:
    return add(f, scale(g, -1))


def scale(f: QSeries, c: int) -> QSeries:
    """Multiply every coefficient by the integer c.  Precision is unchanged."""
    if not isinstance(c, int):
        raise ValueError("scalar must be an integer")
    if c == 0:
        return QSeries._trusted({}, f.prec)
    return QSeries._trusted({e: c * v for e, v in f._c.items()}, f.prec)


def truncate(f: QSeries, prec: int) -> QSeries:
    """Forget coefficients at exponents >= prec.  prec may not exceed f.prec."""
    if prec > f.prec:
        raise PrecisionError(
            f"cannot extend precision from {f.prec} to {prec}"
        )
    if prec == f.prec:
        return f
    c = f._c
    if prec - f._order < len(c):
        # a window shorter than the stored terms: look its exponents up
        d = {e: c[e] for e in range(f._order, prec) if e in c}
    else:
        d = {e: v for e, v in c.items() if e < prec}
    return QSeries._trusted(d, prec)


# ---------------------------------------------------------------------------
# multiplication

# Products with at most this many pairwise terms use dictionary scatter.
# Measured with CPython 3.11 on a 2-core x86-64 host, on dense factors of
# 8 to 64 terms with 8- to 64-bit coefficients (the span products): the
# packed path wins from about 2^8 to 2^9 pairs on.
_SCATTER_CAP = 1 << 9

# The packed path also allocates one slot per exponent of the output
# lattice, at roughly four times the cost of one pairwise term, so it runs
# only when the pairs outnumber those slots by this factor.  A lacunary
# factor with a wide exponent span stays on the scatter path.
_PAIRS_PER_SLOT = 4


def _lattice(*series: QSeries) -> int:
    """gcd of the exponent offsets of the series from their own leading
    exponents: each support lies in order + L*Z for the returned L (L = 1
    when no common stride exists)."""
    L = 0
    for f in series:
        w = f._order
        for e in f._c:
            L = math.gcd(L, e - w)
            if L == 1:
                return 1
    return L or 1


def _slot_bytes(bits: int) -> int:
    """Bytes per slot for values of absolute value below 2^bits: the slot
    width W = 8B satisfies bits <= W - 1, which leaves the sign bit."""
    return bits // 8 + 1


def _slot_offset(n: int, B: int) -> int:
    """2^(W-1) in each of n slots of B bytes."""
    return int.from_bytes((1 << (8 * B - 1)).to_bytes(B, "little") * n,
                          "little")


def _pack(values, B: int) -> int:
    """sum_k values[k] 2^(8Bk) as a signed-digit integer; each |v| <
    2^(8B-1) goes to bytes as the offset slot v + 2^(8B-1)."""
    half = 1 << (8 * B - 1)
    buf = b"".join([(v + half).to_bytes(B, "little") for v in values])
    return int.from_bytes(buf, "little") - _slot_offset(len(values), B)


def _shift_add(packed: int, terms, W: int) -> int:
    """sum c * packed << i*W over the terms (i, c): the packed product by
    sum c q^i.  A term with c = +-1 adds or subtracts without a multiply."""
    acc = 0
    for i, c in terms:
        if c == 1:
            acc += packed << i * W
        elif c == -1:
            acc -= packed << i * W
        else:
            acc += c * packed << i * W
    return acc


# Bytes of widened or unpacked slots that _respace and _unpack hold at once.
_CHUNK = 1 << 20


def _respace(packed: int, n: int, B: int, D: int, Bw: int) -> list[int]:
    """The n slots of B bytes of a packed signed integer as rows of D slots
    of Bw >= B bytes, the last row padded with zero slots.

    The offset slots (v + 2^(8B-1)) go to bytes once.  A chunk of rows at a
    time, byte j of every narrow slot is copied to byte j of its wide slot
    by one strided slice assignment, so the copying is one step per slot
    byte and no big-int work runs per slot; each wide row then sheds the
    narrow offset of its D slots.
    """
    N = _ceil_div(n, D)
    narrow = memoryview((packed + _slot_offset(N * D, B)).to_bytes(
        N * D * B, "little"))
    row_off = int.from_bytes(
        ((1 << (8 * B - 1)).to_bytes(B, "little") + bytes(Bw - B)) * D,
        "little")
    R = D * Bw
    step = max(1, _CHUNK // R)
    rows = []
    for a in range(0, N, step):
        m = min(step, N - a) * D
        src = narrow[a * D * B:a * D * B + m * B]
        wide = bytearray(m * Bw)
        for j in range(B):
            wide[j::Bw] = src[j::B]
        view = memoryview(wide)
        rows += [int.from_bytes(view[i:i + R], "little") - row_off
                 for i in range(0, m * Bw, R)]
    return rows


def _solve_rows(rows: list, steps, u: int) -> None:
    """Forward substitution in place: for t = 0, 1, ... in turn, rows[t]
    becomes u * (rows[t] - sum c * rows[t - k]) over the steps (k, c) with
    k <= t.  The steps have k >= 1 in increasing order.

    The rows between two consecutive step offsets all use the same steps,
    so each such run loops over a fixed list with no bound check.  A step
    with c = +-1 adds or subtracts without a multiply."""
    N = len(rows)
    ones, minus_ones, others = [], [], []
    t = 0
    for m in range(len(steps) + 1):
        if m:
            k, c = steps[m - 1]
            if c == 1:
                ones.append(k)
            elif c == -1:
                minus_ones.append(k)
            else:
                others.append((k, c))
        end = min(steps[m][0], N) if m < len(steps) else N
        for t in range(t, end):
            s = rows[t]
            for k in ones:
                s -= rows[t - k]
            for k in minus_ones:
                s += rows[t - k]
            for k, c in others:
                s -= c * rows[t - k]
            rows[t] = s if u == 1 else -s
        t = end
        if t == N:
            break


def _unpack(rows: list, D: int, B: int, n: int) -> list[int]:
    """The signed values at indices 0 .. n - 1 of packed rows.

    rows[t] holds the values at indices tD .. tD + D - 1, D slots of B
    bytes each.  Indices at or above n (padding) and slots at or above D
    (discarded terms of a product) are dropped.  The rows are released a
    chunk at a time as they are read.
    """
    off, half = _slot_offset(D, B), 1 << (8 * B - 1)
    mask, fb = (1 << 8 * B * D) - 1, int.from_bytes
    step = max(1, _CHUNK // (D * B))
    out = []
    for a in range(0, len(rows), step):
        b = min(a + step, len(rows))
        buf = b"".join([((rows[t] + off) & mask).to_bytes(D * B, "little")
                        for t in range(a, b)])
        rows[a:b] = [None] * (b - a)
        out += [fb(buf[i:i + B], "little") - half
                for i in range(0, (min(b * D, n) - a * D) * B, B)]
    return out


def _product_quotient(factors: list[QSeries], divisor: QSeries | None,
                      quotient_bits: int | None, w: int, P: int, L: int
                      ) -> QSeries:
    """q^w * prod(factors) / divisor at precision w + P, each series read
    relative to its own order (f / q^order(f)); divisor None means the
    product alone.

    Requires P >= 1, at least one factor, every series certified at least
    P exponents past its order, and every exponent offset a multiple of L
    (see _lattice).  The divisor's leading coefficient u is +-1.
    quotient_bits is None or an integer b such that every coefficient of
    the quotient at the first P offsets is below 2^b; eta proves it.  The
    numerator needs no such bound: the rows never get narrower than its
    packing width (below).

    The result lives on n = ceil(P / L) slots of the compressed lattice.
    The factor with the most stored terms is laid out as a list a of exact
    integers, the others as terms (i, c) with compressed offset i < n.
    Those with the most terms are multiplied into a first, by pairwise
    scatter, while that takes fewer than _PAIRS_PER_SLOT pairs per slot
    (the rule of mul).  If factors remain or rows are solved (below), a is
    packed into one integer, and each remaining factor adds a _shift_add
    and a truncation to n slots.

    Product width.  Every coefficient of f*g is a sum of products of one
    coefficient of f and one of g, so max|fg| <= max|f| * ||g||_1, and
    truncation raises neither max|fg| nor ||fg||_1 <= ||f||_1 * ||g||_1.
    With R the product of the 1-norms of the shift-added factors, every
    slot of every partial product, the numerator N included, is at most
    max|a| * R, so the slots take B bytes, bits(max|a| * R) plus a sign
    bit.

    Rows.  Let D be the gcd of the divisor's compressed offsets.  The D
    interleaved residue classes of the quotient solve the same recurrence,
    so when quotient_bits is given and D > 1, _respace widens the packed N
    into rows of D slots, _solve_rows runs the recurrence on whole rows,
    and _unpack reads every coefficient once.  Row t is the integer
    sum_i x_(tD+i) 2^(iW), W = 8 Bw, and the recurrence is linear, so
    after row t is solved it equals that sum over the quotient
    coefficients x exactly, whatever the slot values met on the way.
    Its digits are the coefficients wherever they lie in
    (-2^(W-1), 2^(W-1)), so the row slots take b plus a sign bit, and
    never fewer than the B bytes of N that _respace copies in.  The last
    row's padding slots, past the n real ones, hold quotient coefficients
    beyond the first P offsets, which b does not bound.  They cannot
    corrupt the unpacking: they sit above every real slot of that row, the
    digits below a slot do not depend on what lies above it (carries only
    move upward), and no row reads the last row after it is solved.
    Otherwise nothing is packed for the division: the recurrence runs on
    the coefficients as exact integers, each only as long as it needs to
    be, and multiplies by u even with no steps.
    """
    n = _ceil_div(P, L)
    factors = sorted(factors, key=lambda g: len(g._c))
    f = factors.pop()
    wf, bound = f._order, f._order + P
    dense = [0] * n
    for e, c in f._c.items():
        if e < bound:
            dense[(e - wf) // L] = c
    terms = [sorted(((e - g._order) // L, c) for e, c in g._c.items()
                    if e - g._order < P) for g in factors]
    # the widest factors first, by pairwise scatter while that is cheaper
    # than a pass over the packed integer per term (the rule of mul)
    while terms and (n - dense.count(0)) * len(terms[-1]) < (
            _PAIRS_PER_SLOT * n):
        out = [0] * n
        t = terms.pop()
        for i, a in enumerate(dense):
            if a:
                for j, c in t:
                    if i + j >= n:
                        break
                    out[i + j] += a * c
        dense = out
    steps, D = [], 0
    if divisor is not None:
        wd = divisor._order
        u = divisor._c[wd]
        steps = sorted(((e - wd) // L, c) for e, c in divisor._c.items()
                       if 0 < e - wd < P)
        for k, _ in steps:
            D = math.gcd(D, k)
    if quotient_bits is None:
        D = 1
    if terms or D > 1:
        rest = 1
        for t in terms:
            rest *= sum(abs(c) for _, c in t)
        B = _slot_bytes((max(map(abs, dense)) * rest).bit_length())
        packed, dense = _pack(dense, B), None
    if terms:
        off, mask = _slot_offset(n, B), (1 << 8 * B * n) - 1
        for t in terms:
            packed = ((_shift_add(packed, t, 8 * B) + off) & mask) - off
    if D > 1:
        Bw = max(B, _slot_bytes(quotient_bits))
        rows, packed = _respace(packed, n, B, D, Bw), None
        _solve_rows(rows, [(k // D, c) for k, c in steps], u)
        dense = _unpack(rows, D, Bw, n)
    else:
        if dense is None:
            rows, packed = [packed], None
            dense = _unpack(rows, n, B, n)
        if divisor is not None:
            _solve_rows(dense, steps, u)
    return QSeries._trusted({w + L * k: v for k, v in enumerate(dense) if v},
                            w + P)


def mul(f: QSeries, g: QSeries) -> QSeries:
    """Product at precision min(f.prec + order(g), g.prec + order(f)).

    The zero-series order sentinel (order = prec) makes the rule correct when
    either factor has no certified nonzero term.  Small products use
    pairwise scatter.  A product with more than _SCATTER_CAP pairwise terms
    and at least _PAIRS_PER_SLOT of them per slot of the output lattice
    runs in _product_quotient, which packs one factor into an integer and
    adds one shifted multiple of it per term of the other (its docstring
    proves the slot width).  The choice depends only on the sizes of the
    inputs.
    """
    P = min(f.prec + g._order, g.prec + f._order)
    if not f._c or not g._c:
        return QSeries._trusted({}, P)
    pairs = len(f._c) * len(g._c)
    if pairs > _SCATTER_CAP:
        L = _lattice(f, g)
        w = f._order + g._order
        if _PAIRS_PER_SLOT * _ceil_div(P - w, L) <= pairs:
            return _product_quotient([f, g], None, None, w, P - w, L)
    d: dict[int, int] = {}
    gi = g._c.items()
    for e1, c1 in f._c.items():
        bound = P - e1
        for e2, c2 in gi:
            if e2 < bound:
                e = e1 + e2
                d[e] = d.get(e, 0) + c1 * c2
    for e in [e for e, c in d.items() if c == 0]:
        del d[e]
    return QSeries._trusted(d, P)


# ---------------------------------------------------------------------------
# comparisons and p-adic valuations

def first_difference(f: QSeries, g: QSeries):
    """Smallest exponent below min(f.prec, g.prec) where the coefficients
    differ, or None if the two series agree on that whole range."""
    P = min(f.prec, g.prec)
    bad = None
    for e in set(f._c) | set(g._c):
        if e < P and f._c.get(e, 0) != g._c.get(e, 0):
            if bad is None or e < bad:
                bad = e
    return bad


def padic_valuation(n: int, p: int):
    """v_p(n) for an integer n; math.inf for n == 0."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n == 0:
        return math.inf
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def padic_valuation_range(f: QSeries, p: int, e_lo: int, e_hi: int):
    """Minimum of v_p(a(e)) over e_lo <= e < e_hi; math.inf if all zero.

    Raises PrecisionError when the range reaches beyond the certified
    precision, rather than treating unknown coefficients as zero.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if e_lo > e_hi:
        raise ValueError(f"empty range bounds {e_lo} > {e_hi}")
    if e_hi > f.prec:
        raise PrecisionError(
            f"range end {e_hi} exceeds certified precision {f.prec}"
        )
    v = math.inf
    for e, c in f._c.items():
        if e_lo <= e < e_hi:
            w = 0
            while c % p == 0:
                c //= p
                w += 1
            if w < v:
                v = w
                if v == 0:
                    break
    return v
