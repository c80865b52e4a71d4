"""Exact truncated series in curve classes and a Laurent variable z.

Two series types, both with exact coefficients; a float is refused:

* MultiSeries: finite sum  sum c * y^beta * z^k  with beta a CurveClass
  kept to weight(beta) <= y_max and k inside a working window
  [z_lo, z_hi].  Weight truncation is exact (weights only add); the
  z-window is a working window whose leakage the callers control by
  padding.
* QZSeries: series in q whose coefficients are Laurent polynomials in
  z, exact on a q-range [q_min, q_max].  q_min may be negative.

MultiSeries keeps its terms in a sparse map; a LaurentPoly, and so each
QZSeries row, is a dense row with nonzero ends.  Every product convolves
dense rows with one kernel, _row_sum, by Kronecker substitution: rows
become big integers with fixed-width slots, so each row product is one
big-integer product.  MultiSeries products, exp and log convert once into
integer blocks (per weight, the class coordinate a maps to a dense z-row
of numerators over one common denominator) and back at the end.  exp and
log share one grading recurrence, which keeps each weight as integer
numerators over a denominator reduced by their common gcd.  LaurentPoly
and QZSeries products, and QZSeries inverses, run on the stored rows
directly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import attrgetter
from typing import Iterator, Mapping

from .lattice import ZERO_CLASS, CurveClass

Coeff = int | Fraction
_NUM = attrgetter("numerator")
_DEN = attrgetter("denominator")


class ConsistencyError(Exception):
    """An internal cross-check failed; offenders lists the bad entries."""

    def __init__(self, message: str, offenders=()):
        super().__init__(message)
        self.offenders = list(offenders)


def _frac(x: Coeff) -> Fraction:
    """A coefficient as a Fraction.  Only ints and Fractions are taken; a
    float, say, would enter inexactly."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"coefficient {x!r} is not an int or a Fraction")
    return x if isinstance(x, Fraction) else Fraction(x)


def _dense(c: Mapping[int, Coeff]) -> tuple[int, list]:
    """A nonempty row {exponent: value} as (lowest exponent, values upward)."""
    lo = min(c)
    row: list = [0] * (max(c) - lo + 1)
    for e, v in c.items():
        row[e - lo] = v
    return lo, row


def _trim(lo: int, row: list) -> tuple[int, list]:
    """A dense row cut to its nonzero ends, with integral Fractions made
    int; (0, []) if it vanishes."""
    nonzero = [i for i, v in enumerate(row) if v]
    if not nonzero:
        return 0, []
    return lo + nonzero[0], [v if type(v) is int or v.denominator != 1 else v.numerator
                             for v in row[nonzero[0]:nonzero[-1] + 1]]


class LaurentPoly:
    """Finite Laurent polynomial in z with rational coefficients, stored as
    the dense row sum row[i] z^(lo + i) with nonzero ends; integral values
    are kept as int, so integer rows convolve in integer arithmetic."""

    __slots__ = ("_lo", "_row")

    def __init__(self, coeffs: Mapping[int, Coeff] | None = None):
        c = {e: _frac(v) for e, v in coeffs.items()} if coeffs else {}
        self._lo, self._row = _trim(*_dense(c)) if c else (0, [])

    @classmethod
    def _of(cls, lo: int, row: list) -> LaurentPoly:
        """The polynomial sum row[i] z^(lo + i), from any dense row."""
        out = cls.__new__(cls)
        out._lo, out._row = _trim(lo, row)
        return out

    @classmethod
    def zero(cls) -> LaurentPoly:
        return cls()

    @classmethod
    def const(cls, v: Coeff) -> LaurentPoly:
        return cls({0: v})

    @classmethod
    def monomial(cls, v: Coeff, e: int) -> LaurentPoly:
        return cls({e: v})

    def coeff(self, e: int) -> Fraction:
        i = e - self._lo
        return _frac(self._row[i]) if 0 <= i < len(self._row) else Fraction(0)

    def items(self) -> list[tuple[int, Fraction]]:
        return [(e, _frac(v)) for e, v in enumerate(self._row, self._lo) if v]

    def is_zero(self) -> bool:
        return not self._row

    def width(self) -> int:
        """Spread max_exp - min_exp; zero for the zero polynomial."""
        return max(len(self._row) - 1, 0)

    def is_palindromic(self) -> bool:
        row = self._row
        return not row or (2 * self._lo + len(row) == 1 and row == row[::-1])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._lo == other._lo and self._row == other._row

    def __hash__(self) -> int:
        return hash((self._lo, tuple(self._row)))

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        lo = min(self._lo, other._lo)
        row: list = [0] * (max(self._lo + len(self._row), other._lo + len(other._row)) - lo)
        for plo, prow in ((self._lo, self._row), (other._lo, other._row)):
            i = plo - lo
            row[i:i + len(prow)] = [u + v for u, v in zip(row[i:i + len(prow)], prow)]
        return LaurentPoly._of(lo, row)

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly._of(self._lo, [-v for v in self._row])

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        return self + (-other)

    def __mul__(self, other: LaurentPoly | Coeff) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return self.scale(other)
        return LaurentPoly._of(*_row_sum([((self._lo, self._row), (other._lo, other._row))]))

    __rmul__ = __mul__

    def scale(self, k: Coeff) -> LaurentPoly:
        k = _frac(k)
        return LaurentPoly._of(self._lo, [v * k for v in self._row]) if k else LaurentPoly()

    def __str__(self) -> str:
        if not self._row:
            return "0"
        return " + ".join(f"{v}*z^{e}" for e, v in self.items())


# the KY kernel z - 2 + 1/z = (sqrt z - 1/sqrt z)^2
KY_KERNEL = LaurentPoly({1: 1, 0: -2, -1: 1})


class MultiSeries:
    """Sparse series sum c * y^beta * z^k, truncated in weight and z.
    Class weights must be >= 0; the grading makes exp and log finite."""

    __slots__ = ("y_max", "z_lo", "z_hi", "_c")

    def __init__(self, y_max: int, z_window: tuple[int, int],
                 coeffs: Mapping[tuple[CurveClass, int], Coeff] | None = None):
        z_lo, z_hi = z_window
        if y_max < 0 or z_lo > z_hi:
            raise ValueError("need y_max >= 0 and z_lo <= z_hi")
        self.y_max = y_max
        self.z_lo = z_lo
        self.z_hi = z_hi
        c: dict[tuple[CurveClass, int], Fraction] = {}
        if coeffs:
            for (cls, k), v in coeffs.items():
                if cls.weight < 0:
                    raise ValueError(f"class {cls} has negative weight")
                if cls.weight > y_max or not (z_lo <= k <= z_hi):
                    continue
                v = _frac(v)
                if v:
                    c[(cls, k)] = v
        self._c = c

    @classmethod
    def zero(cls, y_max: int, z_window: tuple[int, int]) -> MultiSeries:
        return cls(y_max, z_window)

    @classmethod
    def one(cls, y_max: int, z_window: tuple[int, int]) -> MultiSeries:
        return cls(y_max, z_window, {(ZERO_CLASS, 0): 1})

    @property
    def z_window(self) -> tuple[int, int]:
        return (self.z_lo, self.z_hi)

    def coeff(self, klass: CurveClass, z_exp: int) -> Fraction:
        return self._c.get((klass, z_exp), Fraction(0))

    def terms(self) -> Iterator[tuple[CurveClass, int, Fraction]]:
        """Terms sorted by (weight, a, z) for deterministic output."""
        def key(item: tuple[tuple[CurveClass, int], Fraction]):
            (cls, k), _ = item
            return (cls.weight, cls.a, k)
        for (cls, k), v in sorted(self._c.items(), key=key):
            yield cls, k, v

    def support_z_min(self) -> int | None:
        return min((k for (_, k) in self._c), default=None)

    def is_zero(self) -> bool:
        return not self._c

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiSeries):
            return NotImplemented
        return (self.y_max, self.z_lo, self.z_hi, self._c) == (
            other.y_max, other.z_lo, other.z_hi, other._c)

    __hash__ = None  # type: ignore[assignment]

    def _meet(self, other: MultiSeries) -> tuple[int, int, int]:
        if self.y_max != other.y_max:
            raise ValueError("series have different weight truncations")
        lo = max(self.z_lo, other.z_lo)
        hi = min(self.z_hi, other.z_hi)
        if lo > hi:
            raise ValueError("z-windows do not overlap")
        return self.y_max, lo, hi

    def __add__(self, other: MultiSeries) -> MultiSeries:
        y, lo, hi = self._meet(other)
        c = {k: v for k, v in self._c.items() if lo <= k[1] <= hi}
        for key, v in other._c.items():
            if lo <= key[1] <= hi:
                w = c.get(key, Fraction(0)) + v
                if w:
                    c[key] = w
                else:
                    c.pop(key, None)
        out = MultiSeries(y, (lo, hi))
        out._c = c
        return out

    def __neg__(self) -> MultiSeries:
        out = MultiSeries(self.y_max, (self.z_lo, self.z_hi))
        out._c = {k: -v for k, v in self._c.items()}
        return out

    def __sub__(self, other: MultiSeries) -> MultiSeries:
        return self + (-other)

    def scale(self, k: Coeff) -> MultiSeries:
        k = _frac(k)
        out = MultiSeries(self.y_max, (self.z_lo, self.z_hi))
        if k:
            out._c = {key: v * k for key, v in self._c.items()}
        return out

    def __mul__(self, other: MultiSeries | Coeff) -> MultiSeries:
        if isinstance(other, MultiSeries):
            return self.mul(other)
        return self.scale(other)

    def __rmul__(self, other: Coeff) -> MultiSeries:
        return self.scale(other)

    def mul(self, other: MultiSeries) -> MultiSeries:
        """Product, truncated to the shared weight bound and the window
        intersection.  Runs on integer blocks: weight w of the product
        collects the block products of weights w1 + w2 = w."""
        y, lo, hi = self._meet(other)
        da, a = _blocks(self)
        db, b = _blocks(other)
        prod = [_block_product([(a[i], b[w - i]) for i in range(w + 1)], lo, hi)
                for w in range(y + 1)]
        return _from_blocks(y, (lo, hi), prod, [da * db] * (y + 1))

    def restrict(self, z_lo: int, z_hi: int) -> MultiSeries:
        """Narrow the z-window, discarding terms outside it."""
        if z_lo < self.z_lo or z_hi > self.z_hi:
            raise ValueError("restrict cannot widen the z-window")
        out = MultiSeries(self.y_max, (z_lo, z_hi))
        out._c = {k: v for k, v in self._c.items() if z_lo <= k[1] <= z_hi}
        return out

    def __str__(self) -> str:
        if not self._c:
            return "0"
        return " + ".join(f"{v}*y^({cls})*z^{k}" for cls, k, v in self.terms())


def exp(a: MultiSeries) -> MultiSeries:
    """exp of a series all of whose terms carry a nonzero curve class.

    With A_k the weight-k part of a and E_w that of exp(a), the grading
    derivation gives w E_w = sum_{k=1..w} k A_k E_{w-k} (Brent-Kung), a
    finite recurrence because weights only add: _graded with
    gamma(w, k) = k / w, from E_0 = 1.
    """
    for (cls, _k) in a._c:
        if cls.weight == 0:
            raise ValueError("exp needs every term to carry a nonzero curve class")
    return _graded(a, lambda w, k: Fraction(k, w))


def log(a: MultiSeries) -> MultiSeries:
    """log of a series with constant term 1 and no other weight-0 part.

    exp's relation w F_w = sum_{k=1..w} k L_k F_{w-k}, with F = a and
    L = log(a), solved for L_w: F_0 = 1, so
    L_w = F_w - sum_{k<w} ((w - k) / w) F_k L_{w-k}.  That is _graded
    with gamma(w, w) = 1 and gamma(w, k) = -(w - k) / w below it, run
    from L_0 = 1, which is not part of the logarithm.
    """
    if a.coeff(ZERO_CLASS, 0) != 1:
        raise ValueError("log needs constant term 1")
    for (cls, k) in a._c:
        if cls.weight == 0 and (cls, k) != (ZERO_CLASS, 0):
            raise ValueError("log needs every non-constant term to carry a nonzero curve class")
    out = _graded(a, lambda w, k: Fraction(k - w, w) if k < w else Fraction(1))
    del out._c[(ZERO_CLASS, 0)]
    return out


def _graded(a: MultiSeries, gamma) -> MultiSeries:
    """The series S = sum_w S_w with S_0 = 1 (if z^0 is in the window)
    and S_w = sum_{k=1..w} gamma(w, k) A_k S_{w-k}, A_k the weight-k
    part of a; each S_w is cut to the window.

    In integer blocks A_k = N_k / D, and S_j = P_j / d_j is kept
    reduced.  Step w puts its terms over D L, with L the lcm of
    den(gamma(w, k)) d_{w-k} over the k whose term is nonzero, and then
    divides P_w and d_w = D L by the gcd of d_w and every entry of P_w.
    """
    den, n = _blocks(a)
    p = [{0: (0, [1])} if a.z_lo <= 0 <= a.z_hi else {}]
    d = [1]
    for w in range(1, a.y_max + 1):
        terms = [(k, gamma(w, k)) for k in range(1, w + 1) if n[k] and p[w - k]]
        lcm = math.lcm(*(g.denominator * d[w - k] for k, g in terms))
        pairs = []
        for k, g in terms:
            c = g.numerator * (lcm // (g.denominator * d[w - k]))
            pairs.append(({x: (xlo, [c * v for v in row]) for x, (xlo, row) in n[k].items()},
                          p[w - k]))
        block = _block_product(pairs, a.z_lo, a.z_hi)
        dw = den * lcm
        g = math.gcd(dw, *(math.gcd(*row) for _, row in block.values()))
        if g > 1:
            block = {x: (xlo, [v // g for v in row]) for x, (xlo, row) in block.items()}
        p.append(block)
        d.append(dw // g)
    return _from_blocks(a.y_max, a.z_window, p, d)


def pow_binomial(base_class: CurveClass, z_exp: int, sign: int, exponent: int,
                 y_max: int, z_window: tuple[int, int]) -> MultiSeries:
    """(1 + sign * y^base_class * z^z_exp)^exponent, truncated.

    base_class must be effective (so powers climb the weight grading);
    sign is +1 or -1; exponent may be any integer.
    """
    if not base_class.is_effective():
        raise ValueError("base class must be effective and nonzero")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    coeffs: dict[tuple[CurveClass, int], Coeff] = {}
    z_lo, z_hi = z_window
    for k in range(y_max // base_class.weight + 1):
        z = k * z_exp
        if not (z_lo <= z <= z_hi):
            continue
        # C(e, k) = (-1)^k C(k - e - 1, k) extends the binomial to e < 0
        c = sign ** k * (math.comb(exponent, k) if exponent >= 0
                         else (-1) ** k * math.comb(k - exponent - 1, k))
        if c:
            coeffs[(k * base_class, z)] = c
    return MultiSeries(y_max, z_window, coeffs)


class QZSeries:
    """Series in q with LaurentPoly coefficients, exact on [q_min, q_max]."""

    __slots__ = ("q_min", "q_max", "_rows")

    def __init__(self, q_min: int, q_max: int,
                 rows: Mapping[int, LaurentPoly] | None = None):
        if q_min > q_max:
            raise ValueError("q_min must not exceed q_max")
        self.q_min = q_min
        self.q_max = q_max
        r: dict[int, LaurentPoly] = {}
        if rows:
            for m, p in rows.items():
                if m < q_min or m > q_max:
                    raise ValueError(f"q-exponent {m} outside [{q_min}, {q_max}]")
                if not p.is_zero():
                    r[m] = p
        self._rows = r

    @classmethod
    def from_q_poly(cls, coeffs: Mapping[int, Coeff], q_max: int) -> QZSeries:
        """A z-free q-polynomial, exact to any order up to q_max."""
        rows = {m: LaurentPoly.const(v) for m, v in coeffs.items()}
        lo = min(coeffs) if coeffs else 0
        return cls(min(lo, 0), q_max, rows)

    def row(self, m: int) -> LaurentPoly:
        return self._rows.get(m, LaurentPoly.zero())

    def rows(self) -> list[tuple[int, LaurentPoly]]:
        return sorted(self._rows.items())

    def coeff(self, m: int, z_exp: int) -> Fraction:
        return self.row(m).coeff(z_exp)

    def is_zero(self) -> bool:
        return not self._rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QZSeries):
            return NotImplemented
        return (self.q_min, self.q_max, self._rows) == (
            other.q_min, other.q_max, other._rows)

    __hash__ = None  # type: ignore[assignment]

    def assert_z_width_bound(self) -> None:
        """Width of the q^m row is at most 2 (m - q_min).

        Holds for anything built from factors (1 - c z^j q^n)^e with
        |j| <= 1, n >= 1, and their inverses; a failed check means the
        series left that family.
        """
        for m, p in self._rows.items():
            if p.width() > 2 * (m - self.q_min):
                raise ConsistencyError(
                    f"q^{m} row has z-width {p.width()} > {2 * (m - self.q_min)}")


def _row_sum(pairs: list) -> tuple[int, list]:
    """Sum of the products of ((lo, row), (lo, row)) pairs of dense rows,
    as a trimmed row, by Kronecker substitution.

    Each distinct row is scaled to integers v_i by the lcm d of its
    denominators and packed once into X = sum_i v_i 2^(s i).  A pair's
    product X_a X_b packs the product of its rows; shifted by the pair's
    offset and multiplied by m = D / (d_a d_b), with D the lcm of the
    d_a d_b, the pairs sum to T = sum_k C_k 2^(s k), where C_k is D times
    the coefficient sought.

    Slot width: C_k sums, over the pairs, m times at most
    min(len a, len b) products, each at most max|a| max|b| in size, so
    |C_k| <= B = sum_pairs m min(len a, len b) max|a| max|b|.  s is the
    least multiple of 8 with 2^(s-1) > B.  Every digit C_k + 2^(s-1) then
    lies in [1, 2^s - 1], so T plus 2^(s-1) in every slot is the base-2^s
    number with those digits: no carry crosses a slot, and each slot
    reads back as a byte slice minus the bias.  Rows with a nonzero
    entry have max|v| <= B, so they pack by the same bias, as joined
    byte slots: Horner's x << s would copy the whole integer per slot.
    """
    live = [(la + lb, a, b) for (la, a), (lb, b) in pairs if any(a) and any(b)]
    if not live:
        return 0, []
    rows = {id(row): row for _, a, b in live for row in (a, b)}
    dens = {i: math.lcm(*map(_DEN, row)) for i, row in rows.items()}
    ints = {i: list(map(_NUM, row)) if dens[i] == 1
            else [v.numerator * (dens[i] // v.denominator) for v in row]
            for i, row in rows.items()}
    size = {i: max(map(abs, row)) for i, row in ints.items()}
    den = math.lcm(*(dens[id(a)] * dens[id(b)] for _, a, b in live))
    bound = sum(den // (dens[id(a)] * dens[id(b)]) * min(len(a), len(b))
                * size[id(a)] * size[id(b)] for _, a, b in live)
    nb = bound.bit_length() // 8 + 1
    half = 1 << (8 * nb - 1)
    packed = {i: int.from_bytes(b"".join([(v + half).to_bytes(nb, "little") for v in row]),
                                "little") - _bias(nb, len(row))
              for i, row in ints.items()}
    lo = min(off for off, _, _ in live)
    width = max(off + len(a) + len(b) - 1 for off, a, b in live) - lo
    total = 0
    for off, a, b in live:
        m = den // (dens[id(a)] * dens[id(b)])
        total += (packed[id(a)] * packed[id(b)] * m) << (8 * nb * (off - lo))
    buf = (total + _bias(nb, width)).to_bytes(nb * width, "little")
    row = [int.from_bytes(buf[i:i + nb], "little") - half for i in range(0, nb * width, nb)]
    return _trim(lo, row if den == 1 else [Fraction(v, den) for v in row])


def _bias(nb: int, n: int) -> int:
    """2^(8 nb - 1) in each of n slots of nb bytes."""
    return int.from_bytes((bytes(nb - 1) + b"\x80") * n, "little")


def _blocks(series: MultiSeries) -> tuple[int, list[dict[int, tuple[int, list]]]]:
    """(D, blocks) of a series: blocks[w][a] is the dense z-row of the
    class a*s + (w - a)*f, in integer numerators over D, the lcm of the
    denominators."""
    den = math.lcm(*(v.denominator for v in series._c.values()))
    rows: list[dict[int, dict[int, int]]] = [{} for _ in range(series.y_max + 1)]
    for (cls, k), v in series._c.items():
        rows[cls.weight].setdefault(cls.a, {})[k] = v.numerator * (den // v.denominator)
    return den, [{a: _dense(r) for a, r in block.items()} for block in rows]


def _block_product(pairs: list, lo: int, hi: int) -> dict[int, tuple[int, list]]:
    """Sum of the products of (block, block) pairs, class by class, cut
    to the z-window [lo, hi]."""
    by_class: dict[int, list] = {}
    for x, y in pairs:
        for ax, rx in x.items():
            for ay, ry in y.items():
                by_class.setdefault(ax + ay, []).append((rx, ry))
    out = {}
    for a, rows in by_class.items():
        rlo, row = _row_sum(rows)
        row = row[max(lo - rlo, 0):max(hi - rlo + 1, 0)]
        if any(row):
            out[a] = (max(lo, rlo), row)
    return out


def _from_blocks(y_max: int, z_window: tuple[int, int], blocks: list[dict],
                 dens: list[int]) -> MultiSeries:
    """The series whose weight-w block has numerators over dens[w]."""
    out = MultiSeries(y_max, z_window)
    for w, block in enumerate(blocks):
        for a, (lo, row) in block.items():
            cls = CurveClass(a, w - a)
            for k, v in enumerate(row, lo):
                if v:
                    out._c[(cls, k)] = Fraction(v, dens[w])
    return out


def qz_mul(a: QZSeries, b: QZSeries) -> QZSeries:
    """Product, exact on the q-range the factors jointly determine."""
    q_min = a.q_min + b.q_min
    q_max = min(a.q_max + b.q_min, b.q_max + a.q_min)
    if q_min > q_max:
        raise ValueError("product q-range is empty")
    arows = {m: (p._lo, p._row) for m, p in a._rows.items()}
    brows = {m: (p._lo, p._row) for m, p in b._rows.items()}
    return QZSeries(q_min, q_max, {
        m: LaurentPoly._of(*_row_sum([(ra, brows[m - ma]) for ma, ra in arows.items()
                                      if m - ma in brows]))
        for m in range(q_min, q_max + 1)})


def qz_invert(a: QZSeries) -> QZSeries:
    """Inverse of a series whose lowest q-row is a single z-monomial.

    Writing a = c z^j q^v (1 + u) with u supported in q^{>= 1}, the
    inverse is computed by the convolution recurrence and is exact on
    [-v, a.q_max - 2 v].  For c = +-1 the recurrence has no division,
    so an integer series has an integer inverse computed in integers.
    """
    v = a.q_min
    if len(a.row(v)._row) != 1:
        raise ValueError("leading q-coefficient must be a single z-monomial")
    arows = {m: (p._lo, p._row) for m, p in a._rows.items()}
    j, (c,) = arows[v]
    neg_inv = -c if c in (1, -1) else Fraction(-1) / c
    q_min, q_max = -v, a.q_max - 2 * v
    rows = {q_min: (-j, [-neg_inv])}
    for m in range(q_min + 1, q_max + 1):
        # coefficient of q^{m+v} in a * result must vanish
        lo, row = _row_sum([(arows[v + k], rows[m - k]) for k in range(1, m - q_min + 1)
                            if v + k in arows and m - k in rows])
        if row:
            rows[m] = (lo - j, [x * neg_inv for x in row])
    return QZSeries(q_min, q_max, {m: LaurentPoly._of(*row) for m, row in rows.items()})
