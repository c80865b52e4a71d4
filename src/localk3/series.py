"""Exact truncated series in curve classes and a Laurent variable z.

Two series types, both with exact coefficients; a float is refused:

* MultiSeries: finite sum  sum c * y^beta * z^k  with beta a CurveClass
  kept to weight(beta) <= y_max and k inside a working window
  [z_lo, z_hi].  Weight truncation is exact (weights only add); the
  z-window is a working window whose leakage the callers control by
  padding.
* QZSeries: series in q whose coefficients are Laurent polynomials in
  z, exact on a q-range [q_min, q_max].  q_min may be negative.

MultiSeries stores integer blocks: per weight, the class coordinate a
maps to a dense z-row of numerators over one common denominator, kept
reduced so that equal series are stored alike.  A LaurentPoly, and so
each QZSeries row, is a dense row with nonzero ends.  Every product
convolves dense rows in _row_sum, the one Kronecker-substitution
driver: _pack makes an integer row a big integer with fixed-width
slots, so each row product is one big-integer product, and _unpack_sum
reads a sum of such products back.  Its docstring holds the one slot
proof.  qz_mul and qz_invert call it once per q-row over one pack cache
per call, so each row is scaled once and packed once per slot width;
LaurentPoly and MultiSeries products pass no cache.  exp and log share
one grading recurrence, which keeps each weight as integer numerators
over a denominator reduced by their common gcd.  Products, sums, exp,
log and QZSeries inverses all run on the stored rows directly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import attrgetter
from typing import Iterator, Mapping

from .lattice import CurveClass

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
    i, j = 0, len(row)
    while i < j and not row[i]:
        i += 1
    while j > i and not row[j - 1]:
        j -= 1
    row = row[i:j]
    if Fraction in map(type, row):
        row = [v if type(v) is int or v.denominator != 1 else v.numerator for v in row]
    return (lo + i, row) if row else (0, [])


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
    """Series sum c * y^beta * z^k, truncated in weight and z, stored as
    graded integer blocks in the canonical form of _of.  Class weights
    must be >= 0; the grading makes exp and log finite."""

    __slots__ = ("y_max", "z_lo", "z_hi", "_den", "_blocks")

    def __init__(self, y_max: int, z_window: tuple[int, int],
                 coeffs: Mapping[tuple[CurveClass, int], Coeff] | None = None):
        z_lo, z_hi = z_window
        if y_max < 0 or z_lo > z_hi:
            raise ValueError("need y_max >= 0 and z_lo <= z_hi")
        c = {key: _frac(v) for key, v in (coeffs or {}).items()}
        den = math.lcm(*map(_DEN, c.values()))
        rows: list[dict[int, dict[int, int]]] = [{} for _ in range(y_max + 1)]
        for (cls, k), v in c.items():
            if cls.weight < 0:
                raise ValueError(f"class {cls} has negative weight")
            if cls.weight <= y_max and z_lo <= k <= z_hi:
                rows[cls.weight].setdefault(cls.a, {})[k] = v.numerator * (den // v.denominator)
        out = MultiSeries._of(y_max, z_window, den,
                              [{a: _dense(r) for a, r in block.items()} for block in rows])
        self.y_max, self.z_lo, self.z_hi = y_max, z_lo, z_hi
        self._den, self._blocks = out._den, out._blocks

    @classmethod
    def _of(cls, y_max: int, z_window: tuple[int, int], den: int,
            blocks: list[dict[int, tuple[int, list[int]]]]) -> MultiSeries:
        """The series whose weight-w block, w = 0..y_max, is blocks[w]:
        {a: (lo, row)}, the z-row of the class a*s + (w - a)*f, in integer
        numerators over den > 0.  It is stored canonically as _den and
        _blocks: rows cut to the window with nonzero ends, empty classes
        dropped, and den and every numerator divided by their gcd."""
        out = cls.__new__(cls)
        out.y_max = y_max
        out.z_lo, out.z_hi = lo, hi = z_window
        kept = []
        for block in blocks:
            cut = {}
            for a, (rlo, row) in block.items():
                rlo, row = _trim(max(lo, rlo), row[max(lo - rlo, 0):max(hi - rlo + 1, 0)])
                if row:
                    cut[a] = (rlo, row)
            kept.append(cut)
        if den != 1:
            g = math.gcd(den, *(math.gcd(*row) for block in kept for _, row in block.values()))
            if g > 1:
                den //= g
                kept = [{a: (rlo, [v // g for v in row]) for a, (rlo, row) in block.items()}
                        for block in kept]
        out._den, out._blocks = den, kept
        return out

    @property
    def z_window(self) -> tuple[int, int]:
        return (self.z_lo, self.z_hi)

    def coeff(self, klass: CurveClass, z_exp: int) -> Fraction:
        w = klass.weight
        lo, row = self._blocks[w].get(klass.a, (0, [])) if 0 <= w <= self.y_max else (0, [])
        i = z_exp - lo
        return Fraction(row[i], self._den) if 0 <= i < len(row) else Fraction(0)

    def terms(self) -> Iterator[tuple[CurveClass, int, Fraction]]:
        """Terms sorted by (weight, a, z) for deterministic output."""
        den = self._den
        for w, block in enumerate(self._blocks):
            for a in sorted(block):
                lo, row = block[a]
                cls = CurveClass(a, w - a)
                for k, v in enumerate(row, lo):
                    if v:
                        yield cls, k, Fraction(v, den)

    def support_z_min(self) -> int | None:
        return min((lo for block in self._blocks for lo, _ in block.values()), default=None)

    def is_zero(self) -> bool:
        return not any(self._blocks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiSeries):
            return NotImplemented
        return (self.y_max, self.z_lo, self.z_hi, self._den, self._blocks) == (
            other.y_max, other.z_lo, other.z_hi, other._den, other._blocks)

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
        """Sum on the window intersection, over the lcm of the denominators."""
        y, lo, hi = self._meet(other)
        den = math.lcm(self._den, other._den)
        su, ou = ({0: (0, [den // s._den])} for s in (self, other))
        return MultiSeries._of(y, (lo, hi), den, [
            _block_product([(sb, su), (ob, ou)], lo, hi)
            for sb, ob in zip(self._blocks, other._blocks)])

    def __neg__(self) -> MultiSeries:
        return self.scale(-1)

    def __sub__(self, other: MultiSeries) -> MultiSeries:
        return self + (-other)

    def scale(self, k: Coeff) -> MultiSeries:
        k = _frac(k)
        return MultiSeries._of(self.y_max, self.z_window, self._den * k.denominator, [
            {a: (lo, [v * k.numerator for v in row]) for a, (lo, row) in block.items()}
            for block in self._blocks])

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
        a, b = self._blocks, other._blocks
        return MultiSeries._of(y, (lo, hi), self._den * other._den, [
            _block_product([(a[i], b[w - i]) for i in range(w + 1)], lo, hi)
            for w in range(y + 1)])

    def restrict(self, z_lo: int, z_hi: int) -> MultiSeries:
        """Narrow the z-window, discarding terms outside it."""
        if z_lo < self.z_lo or z_hi > self.z_hi:
            raise ValueError("restrict cannot widen the z-window")
        return MultiSeries._of(self.y_max, (z_lo, z_hi), self._den, self._blocks)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        return " + ".join(f"{v}*y^({cls})*z^{k}" for cls, k, v in self.terms())


def exp(a: MultiSeries) -> MultiSeries:
    """exp of a series all of whose terms carry a nonzero curve class.

    With A_k the weight-k part of a and E_w that of exp(a), the grading
    derivation gives w E_w = sum_{k=1..w} k A_k E_{w-k} (Brent-Kung), a
    finite recurrence because weights only add: _graded with
    gamma(w, k) = k / w, from E_0 = 1.
    """
    if a._blocks[0]:
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
    if a._blocks[0] != {0: (0, [a._den])}:
        raise ValueError("log needs constant term 1 and every other term"
                         " to carry a nonzero curve class")
    return _graded(a, lambda w, k: Fraction(k - w, w) if k < w else Fraction(1),
                   constant=False)


def _graded(a: MultiSeries, gamma, constant: bool = True) -> MultiSeries:
    """The series S = sum_w S_w with S_0 = 1 (if z^0 is in the window)
    and S_w = sum_{k=1..w} gamma(w, k) A_k S_{w-k}, A_k the weight-k
    part of a; each S_w is cut to the window.  S_0 is left out of the
    result unless constant.

    In integer blocks A_k = N_k / D, and S_j = P_j / d_j is kept
    reduced.  Step w puts its terms over D L, with L the lcm of
    den(gamma(w, k)) d_{w-k} over the k whose term is nonzero, and then
    divides P_w and d_w = D L by the gcd of d_w and every entry of P_w.
    """
    den, n = a._den, a._blocks
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
    if not constant:
        p[0] = {}
    top = math.lcm(*d)
    return MultiSeries._of(a.y_max, a.z_window, top, [
        {x: (xlo, [v * (top // dw) for v in row]) for x, (xlo, row) in block.items()}
        for block, dw in zip(p, d)])


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
    blocks: list[dict[int, tuple[int, list[int]]]] = [{} for _ in range(y_max + 1)]
    for k in range(y_max // base_class.weight + 1):
        # C(e, k) = (-1)^k C(k - e - 1, k) extends the binomial to e < 0
        c = sign ** k * (math.comb(exponent, k) if exponent >= 0
                         else (-1) ** k * math.comb(k - exponent - 1, k))
        blocks[k * base_class.weight][k * base_class.a] = (k * z_exp, [c])
    return MultiSeries._of(y_max, z_window, 1, blocks)


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
        rows = {m: LaurentPoly({0: v}) for m, v in coeffs.items()}
        lo = min(coeffs) if coeffs else 0
        return cls(min(lo, 0), q_max, rows)

    def row(self, m: int) -> LaurentPoly:
        return self._rows.get(m, LaurentPoly())

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


class _Packs(dict):
    """Rows that _row_sum calls share, by id: an entry is [row, d,
    numerators, length, max|numerator|, width, packing at that width],
    with d the lcm of the row's denominators; the row itself is kept so
    that its id is not reused.  nb is the slot width, which only widens;
    integral says that every entry has d = 1."""

    nb, integral = 1, True


def _row_sum(pairs: list, cache: _Packs | None = None) -> tuple[int, list]:
    """Sum of the products of ((lo, row), (lo, row)) pairs of dense rows,
    as a trimmed row, by Kronecker substitution.  Every product of rows
    runs through here, and nothing else calls _pack or _unpack_sum.

    Each distinct row is scaled to integers v_i by the lcm d of its
    denominators and packed into X = sum_i v_i 2^(s i).  A pair's
    product X_a X_b packs the product of its rows; shifted by the pair's
    offset and multiplied by m = D / (d_a d_b), with D the lcm of the
    d_a d_b, the pairs sum to T = sum_k C_k 2^(s k), where C_k is D times
    the coefficient sought.

    Slot width: C_k sums, over the pairs, m times at most
    min(len a, len b) products, each at most max|a| max|b| in size, so
    |C_k| <= B = sum_pairs m min(len a, len b) max|a| max|b|.  The slot
    is nb >= _slot_bytes(B) bytes, so 2^(s - 1) > B.  Rows with a
    nonzero entry have max|v| <= B, so they fit the slots of _pack, and
    _unpack_sum reads T back.

    A cache passed across calls keeps each row's scaling and packing.
    Its width only widens, to nb = max(cache.nb, _slot_bytes(B)), and a
    row is packed again only when its packing is narrower, so a row is
    scaled once and packed once per width.  Without a cache,
    nb = _slot_bytes(B).  Rows must not change while a cache holds them.
    """
    if cache is None:
        cache = _Packs()

    def entry(row):
        d = math.lcm(*map(_DEN, row))
        ints = list(map(_NUM, row)) if d == 1 else [v.numerator * (d // v.denominator) for v in row]
        cache.integral &= d == 1
        e = cache[id(row)] = [row, d, ints, len(ints), max(map(abs, ints), default=0), 0, 0]
        return e

    live = [(la + lb, x, y) for (la, a), (lb, b) in pairs
            if (x := cache.get(id(a)) or entry(a))[4] and (y := cache.get(id(b)) or entry(b))[4]]
    if not live:
        return 0, []
    den = 1 if cache.integral else math.lcm(*{x[1] * y[1] for _, x, y in live})
    nb = cache.nb = max(cache.nb, _slot_bytes(sum(
        min(x[3], y[3]) * x[4] * y[4] * (1 if den == 1 else den // (x[1] * y[1]))
        for _, x, y in live)))
    for _, x, y in live:
        for e in (x, y):
            if e[5] != nb:
                e[5:] = nb, _pack(e[2], nb)
    lo, row = _unpack_sum([(off, x[6] * y[6] if den == 1 else x[6] * y[6] * (den // (x[1] * y[1])),
                            x[3] + y[3] - 1) for off, x, y in live], nb)
    return _trim(lo, row if den == 1 else [Fraction(v, den) for v in row])


def _slot_bytes(bound: int) -> int:
    """The least number nb of bytes with 2^(8 nb - 1) > bound >= 0."""
    return bound.bit_length() // 8 + 1


def _pack(row: list[int], nb: int) -> int:
    """X = sum_i row[i] 2^(8 nb i), for integers |row[i]| < 2^(8 nb - 1).

    Each row[i] + 2^(8 nb - 1) lies in [1, 2^(8 nb) - 1], so it is one
    nb-byte slot: the row packs by joining the slots' bytes and taking
    the bias off again, where Horner's x << s would copy the whole
    integer per slot."""
    half = 1 << (8 * nb - 1)
    return int.from_bytes(b"".join([(v + half).to_bytes(nb, "little") for v in row]),
                          "little") - _bias(nb, len(row))


def _unpack_sum(parts: list, nb: int) -> tuple[int, list[int]]:
    """The row sum x z^off over the (off, x, n) in parts, each x a row of
    n slots packed as by _pack, as (lowest exponent, integer row).

    The shifted x sum to T = sum_k C_k 2^(8 nb k), C_k the coefficients
    sought.  The read-back is exact if every |C_k| < 2^(8 nb - 1): each
    digit C_k + 2^(8 nb - 1) then lies in [1, 2^(8 nb) - 1], so T plus
    2^(8 nb - 1) in every slot is the base-2^(8 nb) number with those
    digits, no carry crosses a slot, and each slot reads back as a byte
    slice minus the bias."""
    lo = min(off for off, _, _ in parts)
    width = max(off + n for off, _, n in parts) - lo
    s = 8 * nb
    total = sum(x << (s * (off - lo)) for off, x, _ in parts)
    buf = (total + _bias(nb, width)).to_bytes(nb * width, "little")
    half = 1 << (s - 1)
    return lo, [int.from_bytes(buf[i:i + nb], "little") - half for i in range(0, nb * width, nb)]


def _bias(nb: int, n: int) -> int:
    """2^(8 nb - 1) in each of n slots of nb bytes."""
    return int.from_bytes((bytes(nb - 1) + b"\x80") * n, "little")


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


def qz_mul(a: QZSeries, b: QZSeries) -> QZSeries:
    """Product, exact on the q-range the factors jointly determine.

    The q^m row is one _row_sum over the row pairs (q^ma, q^(m - ma)),
    and all rows share one pack cache.  m runs from q_max down, so the
    widest bound comes first for series whose rows grow with m, such as
    Delta's factors, and each factor row is then packed at one width."""
    q_min = a.q_min + b.q_min
    q_max = min(a.q_max + b.q_min, b.q_max + a.q_min)
    if q_min > q_max:
        raise ValueError("product q-range is empty")
    ra, rb = ({m: (p._lo, p._row) for m, p in s._rows.items()} for s in (a, b))
    cache = _Packs()
    rows = {m: _row_sum([(x, rb[m - ma]) for ma, x in ra.items() if m - ma in rb], cache)
            for m in range(q_max, q_min - 1, -1)}
    return QZSeries(q_min, q_max, {m: LaurentPoly._of(*rows[m]) for m in sorted(rows)})


def qz_invert(a: QZSeries) -> QZSeries:
    """Inverse of a series whose lowest q-row is a single z-monomial.

    With A_k the row of q^(v + k) and lead A_0 = c z^j, the inverse is
    exact on [-v, a.q_max - 2 v].  Its q^(i - v) row G_i solves a G = 1:

        G_0 = z^(-j) / c,    G_i = sum_{k=1..i} W_k G_(i-k),
        W_k = -A_k z^(-j) / c.

    Each step is one _row_sum, and all steps share one pack cache, so
    each W_k and G_i is scaled once and packed once per slot width.  The
    rows are integers for a unit lead, as Delta's is, and Fractions
    otherwise.
    """
    v = a.q_min
    lead = a.row(v)
    if len(lead._row) != 1:
        raise ValueError("leading q-coefficient must be a single z-monomial")
    j, u = lead._lo, Fraction(1) / lead._row[0]
    u = u.numerator if u.denominator == 1 else u
    w = {m - v: (p._lo - j, [-x * u for x in p._row]) for m, p in a._rows.items() if m > v}
    g = [(-j, [u])]
    cache = _Packs()
    for i in range(1, a.q_max - v + 1):
        g.append(_row_sum([(w[k], g[i - k]) for k in range(1, i + 1) if k in w], cache))
    return QZSeries(-v, a.q_max - 2 * v, {i - v: LaurentPoly._of(*r) for i, r in enumerate(g)})
