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

The hot kernels, the dense product, division and the eta-quotient
product-quotient, pack many coefficients into one Python integer
(Kronecker substitution): a list v_0, ..., v_{n-1} becomes
sum_k v_k 2^(kW) with W = 8B bits per slot.  A slot value v with
|v| < 2^(W-1) is stored as v + 2^(W-1), a B-byte unsigned field, so the
conversion runs through int.to_bytes/int.from_bytes; subtracting the same
offset in every slot gives back a signed-digit integer on which big-int
addition, shifts and small multiples act slotwise.  Widening the slots
is a strided copy of those bytes.  The digits of such an integer are
recovered exactly when every slot of the result again lies in
(-2^(W-1), 2^(W-1)), so each caller derives W from a proven bound on the
coefficients it will unpack and never from a guess that is checked later.
Two helpers carry the arithmetic of every kernel: _shift_add multiplies a
packed integer by a lacunary series, and _solve_rows runs the division
recurrence on whole packed rows.
"""

from __future__ import annotations

import math

__all__ = [
    "QSeries",
    "PrecisionError",
    "NotInvertibleError",
    "zero",
    "one",
    "add",
    "sub",
    "neg",
    "scale",
    "mul",
    "div",
    "invert",
    "power",
    "coefficient",
    "truncate",
    "shift",
    "first_difference",
    "padic_valuation",
    "padic_valuation_range",
]


class PrecisionError(ValueError):
    """A coefficient or range beyond the certified precision was requested."""


class NotInvertibleError(ValueError):
    """Inversion or division needs a nonzero series with unit leading term."""


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


def zero(prec: int) -> QSeries:
    return QSeries._trusted({}, prec)


def one(prec: int) -> QSeries:
    return QSeries._trusted({0: 1} if prec > 0 else {}, prec)


def coefficient(f: QSeries, e: int) -> int:
    """Certified coefficient of q^e.  Raises PrecisionError for e >= prec."""
    return f.coefficient(e)


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


def neg(f: QSeries) -> QSeries:
    return QSeries._trusted({e: -c for e, c in f._c.items()}, f.prec)


def sub(f: QSeries, g: QSeries) -> QSeries:
    return add(f, neg(g))


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


def shift(f: QSeries, k: int) -> QSeries:
    """Multiply by q^k exactly: exponents and precision both move by k."""
    return QSeries._trusted({e + k: c for e, c in f._c.items()}, f.prec + k)


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


def _lattice(f: QSeries, g: QSeries | None = None) -> int:
    """gcd of exponent offsets from the leading exponent, over one or two
    series.  The supports lie in order + L*Z for the returned L (L=1 when no
    common stride exists)."""
    L = 0
    w = f._order
    for e in f._c:
        L = math.gcd(L, e - w)
        if L == 1:
            return 1
    if g is not None:
        w = g._order
        for e in g._c:
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


def _to_slots(values, B: int) -> bytes:
    """The offset slots of values, lowest first; each |v| < 2^(8B-1)."""
    half = 1 << (8 * B - 1)
    return b"".join([(v + half).to_bytes(B, "little") for v in values])


def _from_slots(buf: bytes, B: int, n: int) -> list[int]:
    """The first n signed values stored by _to_slots in buf."""
    half = 1 << (8 * B - 1)
    fb = int.from_bytes
    return [fb(buf[i:i + B], "little") - half for i in range(0, n * B, B)]


def _pack(values, B: int) -> int:
    """sum_k values[k] 2^(8Bk) as a signed-digit integer."""
    return (int.from_bytes(_to_slots(values, B), "little")
            - _slot_offset(len(values), B))


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
    off = _slot_offset(D, B)
    mask = (1 << 8 * B * D) - 1
    step = max(1, _CHUNK // (D * B))
    out = []
    for a in range(0, len(rows), step):
        b = min(a + step, len(rows))
        buf = b"".join([((rows[t] + off) & mask).to_bytes(D * B, "little")
                        for t in range(a, b)])
        rows[a:b] = [None] * (b - a)
        out += _from_slots(buf, B, min(b * D, n) - a * D)
    return out


def _mul_dense(f: QSeries, g: QSeries, P: int, L: int | None = None
               ) -> QSeries:
    """The packed product at precision P; L is the common exponent lattice
    of f and g when the caller has computed it already."""
    wf, wg = f._order, g._order
    w = wf + wg
    if P <= w:
        return QSeries._trusted({}, P)
    if L is None:
        L = _lattice(f, g)
    n_out = _ceil_div(P - w, L)
    bound_f = min(f.prec, P - wg)
    bound_g = min(g.prec, P - wf)
    # every compressed index below is < n_out, because e < P - (other order)
    items_f = [((e - wf) // L, c) for e, c in f._c.items() if e < bound_f]
    items_g = [((e - wg) // L, c) for e, c in g._c.items() if e < bound_g]
    if not items_f or not items_g:
        return QSeries._trusted({}, P)
    if len(items_f) <= len(items_g):
        driver, follower = items_f, items_g
    else:
        driver, follower = items_g, items_f
    n_fol = max(i for i, _ in follower) + 1
    dense = [0] * n_fol
    for i, c in follower:
        dense[i] = c
    # Each output slot is a sum of c * dense[k] over driver terms c*q^i, so
    # |out_k| <= sum|c| * max|dense| < 2^(bits(sum|c|) + bits(max|dense|)).
    B = _slot_bytes(max(map(abs, dense)).bit_length()
                    + sum(abs(c) for _, c in driver).bit_length())
    packed = _pack(dense, B)
    del dense
    acc = _shift_add(packed, driver, 8 * B)
    del packed
    # slots at or above n_out hold discarded terms; _unpack drops them
    out = _unpack([acc], n_out, B, n_out)
    del acc
    d = {w + L * k: v for k, v in enumerate(out) if v}
    return QSeries._trusted(d, P)


def _product_quotient(factors: list[QSeries], divisor: QSeries | None,
                      inverse_bits: int, P: int, s: int) -> QSeries:
    """q^s * prod(factors) / divisor, certified to precision P + s;
    divisor None means the product alone.

    Every factor and the divisor has constant term 1, no negative
    exponents and precision at least P.  inverse_bits is an integer b such
    that the coefficients of 1/divisor below q^P have absolute value
    below 2^b.

    All series are compressed onto the lattice L of their exponents, and
    the product lives on n = ceil(P / L) slots.  The factors with the most
    terms are multiplied first, by pairwise scatter into a list a of exact
    integers, while that takes at most _PAIRS_PER_SLOT pairs per slot (the
    rule of mul).  If factors remain, a is packed into one integer, and
    each remaining factor adds a _shift_add and a truncation to n slots.

    The slot width is proven.  For series f and g, every coefficient of
    f*g is a sum of products of one coefficient of each, so
    max|fg| <= max|f| * ||g||_1 and ||fg||_1 <= ||f||_1 * ||g||_1, and
    truncation raises neither norm.  With R the product of the 1-norms of
    the packed factors (each truncated below q^P), every slot of every
    partial product is at most max|a| * R, below 2^bits(max|a| * R), and
    the width adds a sign bit; the numerator f has ||f||_1 <= ||a||_1 * R.
    Both bounds are at most prod ||factor||_1.

    The divisor's offsets are multiples of L*D for the stride D of its
    compressed offsets, so the D interleaved residue classes of the
    quotient solve the same recurrence, as in div.  The product goes into
    rows of D slots (by _respace from the packed integer, or packed row by
    row from a), _solve_rows runs the recurrence on whole rows, and
    _unpack reads every coefficient once.  The row slots get div's proven
    width, bits(||a||_1 * R) + b plus a sign bit: each quotient
    coefficient is a sum of (coefficient of f) * (coefficient of
    1/divisor), so its absolute value is below ||f||_1 * 2^b, and the
    padding slots of the last row read offsets of 1/divisor no larger
    than those of that row's first slot.  When D = 1 there is nothing to
    pack, and the recurrence runs on the coefficients as exact integers,
    each only as long as it needs to be.
    """
    L = 0
    for g in factors + ([divisor] if divisor is not None else []):
        for e in g._c:
            L = math.gcd(L, e)
    L = L or 1
    n = _ceil_div(P, L)
    terms = sorted((sorted((e // L, c) for e, c in g._c.items() if e < P)
                    for g in factors), key=len)
    # the widest factors first, by pairwise scatter while that is cheaper
    # than a pass over the packed integer per term (the rule of mul)
    dense = [1] + [0] * (n - 1)
    while terms and (n - dense.count(0)) * len(terms[-1]) <= (
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
    rest = 1
    for t in terms:
        rest *= sum(abs(c) for _, c in t)
    norm = sum(map(abs, dense)) * rest
    B = _slot_bytes((max(map(abs, dense)) * rest).bit_length())
    packed = None
    if terms:
        packed = _pack(dense, B)
        dense = None
        off, mask = _slot_offset(n, B), (1 << 8 * B * n) - 1
        for t in terms:
            packed = ((_shift_add(packed, t, 8 * B) + off) & mask) - off
    steps = sorted((e // L, c) for e, c in divisor._c.items()
                   if 0 < e < P) if divisor is not None else []
    D = 0
    for k, _ in steps:
        D = math.gcd(D, k)
    if D > 1:
        Bw = _slot_bytes(norm.bit_length() + inverse_bits)
        if dense is None:
            rows = _respace(packed, n, B, D, Bw)
        else:
            rows = [_pack(dense[i:i + D], Bw) for i in range(0, n, D)]
        dense = packed = None
        _solve_rows(rows, [(k // D, c) for k, c in steps], 1)
        dense = _unpack(rows, D, Bw, n)
    else:
        if dense is None:
            dense = _unpack([packed], n, B, n)
            packed = None
        if D:
            _solve_rows(dense, steps, 1)
    return QSeries._trusted({s + L * k: v for k, v in enumerate(dense) if v},
                            P + s)


def mul(f: QSeries, g: QSeries) -> QSeries:
    """Product at precision min(f.prec + order(g), g.prec + order(f)).

    The zero-series order sentinel (order = prec) makes the rule correct when
    either factor has no certified nonzero term.  Internally small products
    use pairwise scatter.  Large ones compress both factors onto their common
    exponent lattice, pack the factor with more terms (the dense one) into
    one integer, and add one shifted multiple c * packed << i*W per term
    c*q^i of the other factor, a single big-int operation each.  A product
    takes the packed path when it has more than _SCATTER_CAP pairwise terms
    and at least _PAIRS_PER_SLOT of them per slot of the packed output, so
    the choice depends only on the sizes of the inputs.  The slot
    width W is proven wide enough: every output coefficient is a sum of
    c * (dense coefficient) over those terms, so its absolute value is below
    2^(bits(sum |c|) + bits(max |dense|)), and W adds a sign bit to that.
    """
    P = min(f.prec + g._order, g.prec + f._order)
    if not f._c or not g._c:
        return QSeries._trusted({}, P)
    pairs = len(f._c) * len(g._c)
    if pairs > _SCATTER_CAP:
        L = _lattice(f, g)
        slots = _ceil_div(P - f._order - g._order, L)
        if _PAIRS_PER_SLOT * slots <= pairs:
            return _mul_dense(f, g, P, L)
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
# division and inversion

def div(f: QSeries, g: QSeries, inverse_bits: int | None = None) -> QSeries:
    """Solve g*h = f for h by forward substitution.

    Requires g nonzero with leading coefficient +-1.  The result is certified
    to precision min(f.prec - order(g), g.prec - 2*order(g) + order(f)),
    matching mul(f, invert(g)).  Cost is (number of stored terms of g) times
    the output length, so division by a lacunary series is cheap.

    On the lattice both series share, let D be the stride common to the
    offsets of g from its leading term.  The D interleaved residue classes
    of h then satisfy the same recurrence, and when the caller supplies
    inverse_bits they are solved together: one packed row of D slots per
    step, so the Python-level work drops by a factor of D.  inverse_bits
    must be an integer b such that the coefficients of 1/g at its leading
    exponent and the next (result precision - order(h) - 1) exponents all
    have absolute value below 2^b.  Each coefficient of h is a sum of
    (coefficient of f) * (coefficient of 1/g) over that window, so its
    absolute value is below ||f||_1 * 2^b, and the slot width adds a sign
    bit to bits(||f||_1) + b.  The zero-padded slots past the end of the
    last row obey the same bound: their offsets into 1/g are multiples of D
    no larger than those of that row's first slot.  Without inverse_bits,
    or when D = 1, each row is a single coefficient and nothing is packed.
    """
    if not g._c:
        raise NotInvertibleError("division by a zero series")
    wg = g._order
    u = g._c[wg]
    if u not in (1, -1):
        raise NotInvertibleError(
            f"leading coefficient {u} of the divisor is not a unit"
        )
    Pout = min(f.prec - wg, g.prec - 2 * wg + f._order)
    if not f._c:
        return QSeries._trusted({}, Pout)
    wf = f._order
    w0 = wf - wg
    if Pout <= w0:
        return QSeries._trusted({}, Pout)
    L = _lattice(f, g)
    n = _ceil_div(Pout - w0, L)
    F = [0] * n
    for e, c in f._c.items():
        i = (e - wf) // L
        if i < n:
            F[i] = c
    g_items = sorted(
        ((e - wg) // L, c) for e, c in g._c.items() if e != wg
    )
    g_items = [(k, c) for k, c in g_items if k < n]
    D = 0
    for k, _ in g_items:
        D = math.gcd(D, k)
    if inverse_bits is None or D < 2:
        D = 1
    steps = [(k // D, c) for k, c in g_items]
    if D > 1:
        B = _slot_bytes(sum(map(abs, F)).bit_length() + inverse_bits)
        rows = [_pack(F[i:i + D], B) for i in range(0, n, D)]
        del F
        _solve_rows(rows, steps, u)
        H = _unpack(rows, D, B, n)
    else:
        _solve_rows(F, steps, u)
        H = F
    d = {w0 + L * j: v for j, v in enumerate(H) if v}
    return QSeries._trusted(d, Pout)


def invert(f: QSeries) -> QSeries:
    """Multiplicative inverse; certified to precision f.prec - 2*order(f).

    Requires a nonzero series whose leading coefficient is +-1.
    """
    if not f._c:
        raise NotInvertibleError("cannot invert a zero series")
    return div(one(f.prec - f._order), f)


def power(f: QSeries, k: int) -> QSeries:
    """f**k by repeated squaring, with the mul/invert precision rules.

    Convention for k == 0: the result is the constant series 1 at precision
    f.prec - 2*order(f), the precision an invert-based chain f^k * f^(-k)
    supports.  (For a zero input that precision is negative and the returned
    object certifies nothing.)
    """
    if not isinstance(k, int):
        raise ValueError("exponent must be an integer")
    if k == 0:
        return one(f.prec - 2 * f._order)
    if k < 0:
        return _power_positive(invert(f), -k)
    return _power_positive(f, k)


def _power_positive(f: QSeries, k: int) -> QSeries:
    result = None
    sq = f
    while k:
        if k & 1:
            result = sq if result is None else mul(result, sq)
        k >>= 1
        if k:
            sq = mul(sq, sq)
    return result


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
