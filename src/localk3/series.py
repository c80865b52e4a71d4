"""Exact truncated series in curve classes and a Laurent variable z.

Two series types, both with exact coefficients; a float is refused:

* MultiSeries: finite sum  sum c * y^beta * z^k  with beta a CurveClass
  kept to weight(beta) <= y_max and k inside a working window
  [z_lo, z_hi].  Weight truncation is exact (weights only add); the
  z-window is a working window whose leakage the callers control by
  padding.
* QZSeries: series in q whose coefficients are Laurent polynomials in
  z, exact on a q-range [q_min, q_max].  q_min may be negative.

Both store integer numerators over an explicit denominator, reduced so
that equal values are stored alike; a Fraction appears only where a
coefficient goes in or comes out, and a series over denominator 1 hands
its coefficients out as plain ints.  A LaurentPoly, and so each QZSeries
row, is a dense row with nonzero ends over its own denominator.  A
MultiSeries stores integer blocks: per weight, the class coordinate a
maps to such a z-row, all over one denominator.  Every product
convolves integer rows in _row_sum, the one Kronecker-substitution
driver: _pack makes a row a big integer with fixed-width slots, so each
row product is one big-integer product, and _unpack_sum reads a sum of
such products, or _genus_row's change of basis, back.  qz_mul,
qz_invert, MultiSeries sums and products, and the grading recurrence
each share one pack cache over all their calls, so each row is packed
once per slot width; a LaurentPoly product passes no cache.  exp and log
share that one recurrence.  Products, sums, exp, log and QZSeries
inverses all run on the stored rows directly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Mapping

from .lattice import CurveClass

Coeff = int | Fraction


class ConsistencyError(Exception):
    """An internal cross-check failed; offenders lists the bad entries."""

    def __init__(self, message: str, offenders=()):
        super().__init__(message)
        self.offenders = list(offenders)


def _exact(x: Coeff) -> Coeff:
    """x, checked to be an int or a Fraction: a float would enter inexactly."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"coefficient {x!r} is not an int or a Fraction")
    return x


def _numerators(coeffs: Mapping) -> tuple[int, dict]:
    """(D, {key: D * value}) for a dict of exact values, D the lcm of
    their denominators, so every value becomes an integer numerator over
    D.  Values in lowest terms leave D and the nonzero numerators coprime.
    An all-int dict is its own numerators over 1; callers do not mutate it."""
    if all(type(v) is int for v in coeffs.values()):
        return 1, coeffs
    den = math.lcm(*(_exact(v).denominator for v in coeffs.values()))
    return den, {key: v.numerator * (den // v.denominator) for key, v in coeffs.items()}


def _dense(c: Mapping[int, int]) -> tuple[int, list]:
    """A nonempty row {exponent: value} as (lowest exponent, values upward)."""
    lo = min(c)
    row: list = [0] * (max(c) - lo + 1)
    for e, v in c.items():
        row[e - lo] = v
    return lo, row


def _trim(lo: int, row: list) -> tuple[int, list]:
    """A dense row cut to its nonzero ends; (0, []) if it vanishes."""
    i, j = 0, len(row)
    while i < j and not row[i]:
        i += 1
    while j > i and not row[j - 1]:
        j -= 1
    return (lo + i, row[i:j]) if i < j else (0, [])


class LaurentPoly:
    """Finite Laurent polynomial in z with rational coefficients, stored as
    the dense row sum row[i] z^(lo + i) / den of integer numerators, in
    the canonical form of _of."""

    __slots__ = ("_den", "_lo", "_row")

    def __init__(self, coeffs: Mapping[int, Coeff] | None = None):
        self._den, c = _numerators(coeffs or {})
        self._lo, self._row = _trim(*_dense(c)) if c else (0, [])

    @classmethod
    def _of(cls, den: int, lo: int, row: list[int]) -> LaurentPoly:
        """sum row[i] z^(lo + i) / den, from den != 0 and an integer row as
        _trim leaves it, stored with den and the row divided by their gcd,
        signed to make den > 0, so that equal polynomials are stored alike."""
        out = cls.__new__(cls)
        g = math.gcd(den, *row) if den > 0 else -math.gcd(den, *row)
        out._den, out._lo, out._row = den // g, lo, row if g == 1 else [v // g for v in row]
        return out

    def coeff(self, e: int) -> Coeff:
        i = e - self._lo
        v = self._row[i] if 0 <= i < len(self._row) else 0
        return v if self._den == 1 else Fraction(v, self._den)

    def items(self) -> list[tuple[int, Coeff]]:
        return [(e, v if self._den == 1 else Fraction(v, self._den))
                for e, v in enumerate(self._row, self._lo) if v]

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
        return (self._den, self._lo, self._row) == (other._den, other._lo, other._row)

    def __hash__(self) -> int:
        return hash((self._den, self._lo, tuple(self._row)))

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        den, lo = math.lcm(self._den, other._den), min(self._lo, other._lo)
        row: list = [0] * (max(self._lo + len(self._row), other._lo + len(other._row)) - lo)
        for p in (self, other):
            i, m, n = p._lo - lo, den // p._den, len(p._row)
            row[i:i + n] = [u + m * v for u, v in zip(row[i:i + n], p._row)]
        return LaurentPoly._of(den, *_trim(lo, row))

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly._of(self._den, self._lo, [-v for v in self._row])

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        return self + (-other)

    def __mul__(self, other: LaurentPoly | Coeff) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return self.scale(other)
        return LaurentPoly._of(self._den * other._den, *_row_sum(
            [(1, (self._lo, self._row), (other._lo, other._row))]))

    __rmul__ = __mul__

    def scale(self, k: Coeff) -> LaurentPoly:
        k = _exact(k)
        return LaurentPoly._of(self._den * k.denominator,
                               *_trim(self._lo, [v * k.numerator for v in self._row]))

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
        den, c = _numerators(coeffs or {})
        rows: list[dict[int, dict[int, int]]] = [{} for _ in range(y_max + 1)]
        for (cls, k), v in c.items():
            if cls.weight < 0:
                raise ValueError(f"class {cls} has negative weight")
            if cls.weight <= y_max and z_lo <= k <= z_hi:
                rows[cls.weight].setdefault(cls.a, {})[k] = v
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
        dropped, and den and every numerator divided by their gcd.  A row
        object that several classes share is cut and divided once, and
        stays shared."""
        out = cls.__new__(cls)
        out.y_max = y_max
        out.z_lo, out.z_hi = lo, hi = z_window
        kept, cuts = [], {}
        for block in blocks:
            cut = {}
            for a, (rlo, row) in block.items():
                key = (rlo, id(row))
                if key not in cuts:
                    cuts[key] = _trim(max(lo, rlo), row[max(lo - rlo, 0):max(hi - rlo + 1, 0)])
                if cuts[key][1]:
                    cut[a] = cuts[key]
            kept.append(cut)
        if den != 1:
            rows = {id(row): row for block in kept for _, row in block.values()}
            g = math.gcd(den, *(math.gcd(*row) for row in rows.values()))
            if g > 1:
                den //= g
                rows = {i: [v // g for v in row] for i, row in rows.items()}
                kept = [{a: (rlo, rows[id(row)]) for a, (rlo, row) in block.items()}
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

    def terms(self) -> Iterator[tuple[CurveClass, int, Coeff]]:
        """Terms sorted by (weight, a, z) for deterministic output.  Over
        denominator 1 each coefficient is an int, else a Fraction, so a
        caller divides one through Fraction, not with /."""
        den = self._den
        for w, block in enumerate(self._blocks):
            for a in sorted(block):
                lo, row = block[a]
                cls = CurveClass(a, w - a)
                for k, v in enumerate(row, lo):
                    if v:
                        yield cls, k, v if den == 1 else Fraction(v, den)

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
        den, unit, cache = math.lcm(self._den, other._den), {0: (0, [1])}, _Packs()
        return MultiSeries._of(y, (lo, hi), den, [
            _block_product([(den // self._den, sb, unit), (den // other._den, ob, unit)],
                           lo, hi, cache)
            for sb, ob in zip(self._blocks, other._blocks)])

    def __neg__(self) -> MultiSeries:
        return self.scale(-1)

    def __sub__(self, other: MultiSeries) -> MultiSeries:
        return self + (-other)

    def scale(self, k: Coeff) -> MultiSeries:
        """k times the series; a row object that several classes share is
        scaled once, and stays shared."""
        k = _exact(k)
        rows = {id(row): [v * k.numerator for v in row]
                for block in self._blocks for _, row in block.values()}
        return MultiSeries._of(self.y_max, self.z_window, self._den * k.denominator, [
            {a: (lo, rows[id(row)]) for a, (lo, row) in block.items()}
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
        collects the block products of weights w1 + w2 = w, over one pack
        cache for the whole product."""
        y, lo, hi = self._meet(other)
        a, b, cache = self._blocks, other._blocks, _Packs()
        return MultiSeries._of(y, (lo, hi), self._den * other._den, [
            _block_product([(1, a[i], b[w - i]) for i in range(w + 1)], lo, hi, cache)
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


def exp(a: MultiSeries, tops: list[int] | None = None) -> MultiSeries:
    """exp of a series all of whose terms carry a nonzero curve class.

    With A_k the weight-k part of a and E_w that of exp(a), the grading
    derivation gives w E_w = sum_{k=1..w} k A_k E_{w-k} (Brent-Kung), a
    finite recurrence because weights only add: _graded with
    gamma(w, k) = k / w, from E_0 = 1.

    tops, one z-exponent per weight, cuts A_w and E_w at z^tops[w] as
    well as at z_hi; the caller picks tops that no cut term can reach
    (ptseries' per-class tops).  None keeps the one window.
    """
    if a._blocks[0]:
        raise ValueError("exp needs every term to carry a nonzero curve class")
    return _graded(a, lambda w, k: Fraction(k, w), tops=tops)


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


def _graded(a: MultiSeries, gamma, constant: bool = True,
            tops: list[int] | None = None) -> MultiSeries:
    """The series S = sum_w S_w with S_0 = 1 (if z^0 is in the window)
    and S_w = sum_{k=1..w} gamma(w, k) A_k S_{w-k}, A_k the weight-k
    part of a; each S_w is cut to the window, and with tops, A_w and S_w
    are cut at z^tops[w] as well.  S_0 is left out of the result unless
    constant.

    In integer blocks A_k = N_k / D, and S_j = P_j / d_j is kept
    reduced.  Step w puts its terms over D L, with L the lcm of
    den(gamma(w, k)) d_{w-k} over the k whose term is nonzero, so the
    term of k is the block pair (N_k, P_{w-k}) with the integer scalar
    num(gamma(w, k)) L / (den(gamma(w, k)) d_{w-k}); it then divides
    P_w and d_w = D L by the gcd of d_w and every entry of P_w.  The
    scalars ride on the pairs, so the stored N_k and P_j rows are never
    copied, and one pack cache serves every step: each row is packed
    once per slot width over the whole recurrence.
    """
    den, cache = a._den, _Packs()
    tops = [min(a.z_hi, top) for top in tops or [a.z_hi] * (a.y_max + 1)]
    n = [_cut(block, top) for block, top in zip(a._blocks, tops)]
    p = [{0: (0, [1])} if a.z_lo <= 0 <= a.z_hi else {}]
    d = [1]
    for w in range(1, a.y_max + 1):
        terms = [(k, gamma(w, k)) for k in range(1, w + 1) if n[k] and p[w - k]]
        lcm = math.lcm(*(g.denominator * d[w - k] for k, g in terms))
        block = _block_product([(g.numerator * (lcm // (g.denominator * d[w - k])), n[k], p[w - k])
                                for k, g in terms], a.z_lo, tops[w], cache)
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
        block if dw == top else
        {x: (xlo, [v * (top // dw) for v in row]) for x, (xlo, row) in block.items()}
        for block, dw in zip(p, d)])


def _cut(block: dict, hi: int) -> dict:
    """block with each row cut at z^hi; a row that ends below is kept as
    it is, and a row object that several classes share is cut once."""
    cuts = {(xlo, id(row)): row[:max(hi - xlo + 1, 0)] for xlo, row in block.values()
            if xlo + len(row) > hi + 1}
    return {x: (xlo, cuts.get((xlo, id(row)), row)) for x, (xlo, row) in block.items()}


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

    def row(self, m: int) -> LaurentPoly:
        return self._rows.get(m, LaurentPoly())

    def rows(self) -> list[tuple[int, LaurentPoly]]:
        return sorted(self._rows.items())

    def _int_rows(self) -> tuple[int, dict[int, tuple[int, list[int]]]]:
        """(D, {m: (lo, row)}): the rows as integer numerators over D, the
        lcm of their denominators; a row already over D is not copied."""
        den = math.lcm(*(p._den for p in self._rows.values()))
        return den, {m: (p._lo, p._row if p._den == den else [v * (den // p._den) for v in p._row])
                     for m, p in self._rows.items()}

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
    """Rows that _row_sum calls share, by id: an entry is [row, length,
    max|v|, width, packing at that width]; the row itself is kept so that
    its id is not reused.  nb is the slot width, which only widens."""

    nb = 1


def _row_sum(pairs: list, cache: _Packs | None = None,
             window: tuple[int, int] | None = None) -> tuple[int, list[int]]:
    """Sum of the products c * a * b over (c, (lo, a), (lo, b)) triples,
    c a nonzero integer and a, b dense integer rows, as a trimmed row, by
    Kronecker substitution; with a window (lo, hi), only the slots of
    z^lo..z^hi are read back.  Every product of rows runs through here,
    and only _genus_row besides calls _pack or _unpack_sum.

    Each distinct row v is packed into X = sum_i v_i 2^(s i).  A pair's
    product X_a X_b packs the product of its rows; shifted by the pair's
    offset and multiplied by c, the pairs sum to T = sum_k C_k 2^(s k),
    where C_k is the coefficient sought.

    Slot width: C_k sums, over the pairs, |c| times at most
    min(len a, len b) products, each at most max|a| max|b| in size, so
    |C_k| <= B = sum_pairs |c| min(len a, len b) max|a| max|b|.  The
    slot is nb >= _slot_bytes(B) bytes, so 2^(s - 1) > B.  Rows with a
    nonzero entry have max|v| <= B, as |c| >= 1, so they fit the slots
    of _pack, and _unpack_sum reads T back.

    A cache passed across calls keeps each row's packing.  Its width
    only widens, to nb = max(cache.nb, _slot_bytes(B)), and a row is
    packed again only when its packing is narrower, so a row is packed
    once per width.  Without a cache, nb = _slot_bytes(B).  Rows must
    not change while a cache holds them.
    """
    if cache is None:
        cache = _Packs()

    def entry(row):
        e = cache[id(row)] = [row, len(row), max(map(abs, row), default=0), 0, 0]
        return e

    live = [(c, la + lb, x, y) for c, (la, a), (lb, b) in pairs
            if (x := cache.get(id(a)) or entry(a))[2] and (y := cache.get(id(b)) or entry(b))[2]]
    if not live:
        return 0, []
    nb = cache.nb = max(cache.nb, _slot_bytes(sum(
        abs(c) * min(x[1], y[1]) * x[2] * y[2] for c, _, x, y in live)))
    for _, _, x, y in live:
        for e in (x, y):
            if e[3] != nb:
                e[3:] = nb, _pack(e[0], nb)
    return _trim(*_unpack_sum([(off, x[4] * y[4] * c, x[1] + y[1] - 1)
                               for c, off, x, y in live], nb, window))


def _genus_row(half: list[int]) -> list[int]:
    """d_0..d_J with p = sum_g d_g u^g, u = z - 2 + 1/z, for the integer row
    p = c_0 + sum_{j=1..J} c_j C_j, C_j = z^j + z^-j, given as [c_0, ..., c_J].

    C_(j+1) = t C_j - C_(j-1), t = z + 1/z = u + 2, C_0 = 2, so by Clenshaw's
    rule p = b_0 - b_2, b_j = c_j + t b_(j+1) - b_(j+2).  The u-polynomials b_j
    are packed at X = 2^s, a ring map, so t b is (b << s) + 2 b, and only p is
    read back.  Slots: [u^g] C_j = 2j/(j + g) C(j + g, 2g) >= 0 sums to C_j(3) =
    L_2j, the Lucas numbers 2, 3, 7, 18, ..., so |d_g| <= sum_j |c_j| L_2j < 2^(s - 1)."""
    bound, lucas, prev = 0, 2, 3  # L_0 and L_-2
    for c in half:
        bound += abs(c) * lucas
        lucas, prev = 3 * lucas - prev, lucas
    s = 8 * (nb := _slot_bytes(bound))
    b0 = b1 = b2 = 0
    for c in reversed(half):
        b0, b1, b2 = c + (b0 << s) + 2 * b0 - b1, b0, b1
    return _unpack_sum([(0, b0 - b2, len(half))], nb)[1]


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


def _unpack_sum(parts: list, nb: int,
                window: tuple[int, int] | None = None) -> tuple[int, list[int]]:
    """The row sum x z^off over the (off, x, n) in parts, each x a row of
    n slots packed as by _pack, as (lowest exponent, integer row); with
    a window (lo, hi), only the slots of z^lo..z^hi are read back.

    The shifted x sum to T = sum_k C_k 2^(8 nb k), C_k the coefficients
    sought.  The read-back is exact if every |C_k| < 2^(8 nb - 1): each
    digit C_k + 2^(8 nb - 1) then lies in [1, 2^(8 nb) - 1], so T plus
    2^(8 nb - 1) in every slot is the base-2^(8 nb) number with those
    digits, no carry crosses a slot, and each slot reads back as a byte
    slice minus the bias."""
    lo = min(off for off, _, _ in parts)
    width = max(off + n for off, _, n in parts) - lo
    first, end = (0, width) if window is None else (
        max(window[0] - lo, 0), min(window[1] - lo + 1, width))
    s = 8 * nb
    total = sum(x << (s * (off - lo)) for off, x, _ in parts)
    buf = (total + _bias(nb, width)).to_bytes(nb * width, "little")
    half = 1 << (s - 1)
    return lo + first, [int.from_bytes(buf[i:i + nb], "little") - half
                        for i in range(nb * first, nb * end, nb)]


def _bias(nb: int, n: int) -> int:
    """2^(8 nb - 1) in each of n slots of nb bytes."""
    return int.from_bytes((bytes(nb - 1) + b"\x80") * n, "little")


def _block_product(pairs: list, lo: int, hi: int,
                   cache: _Packs) -> dict[int, tuple[int, list]]:
    """Sum of the products c * x * y over (c, block x, block y) triples,
    c a nonzero integer, class by class, read back on the z-window
    [lo, hi].  Every _row_sum call shares the caller's cache, so a row
    that meets several target classes, or recurs across calls, is packed
    once per slot width."""
    by_class: dict[int, list] = {}
    for c, x, y in pairs:
        for ax, rx in x.items():
            for ay, ry in y.items():
                by_class.setdefault(ax + ay, []).append((c, rx, ry))
    out = {}
    for a, rows in by_class.items():
        rlo, row = _row_sum(rows, cache, (lo, hi))
        if row:
            out[a] = (rlo, row)
    return out


def qz_mul(a: QZSeries, b: QZSeries) -> QZSeries:
    """Product, exact on the q-range the factors jointly determine.

    Each factor is put over one denominator, da and db, so every row of
    the product is over da db.  The q^m row is one _row_sum over the row
    pairs (q^ma, q^(m - ma)), and all rows share one pack cache.  m runs
    from q_max down, so the widest bound comes first for series whose
    rows grow with m, such as Delta's factors, and each factor row is
    then packed at one width."""
    q_min = a.q_min + b.q_min
    q_max = min(a.q_max + b.q_min, b.q_max + a.q_min)
    if q_min > q_max:
        raise ValueError("product q-range is empty")
    (da, ra), (db, rb) = a._int_rows(), b._int_rows()
    cache = _Packs()
    rows = {m: _row_sum([(1, x, rb[m - ma]) for ma, x in ra.items() if m - ma in rb], cache)
            for m in range(q_max, q_min - 1, -1)}
    return QZSeries(q_min, q_max, {m: LaurentPoly._of(da * db, *rows[m]) for m in sorted(rows)})


def qz_invert(a: QZSeries) -> QZSeries:
    """Inverse of a series whose lowest q-row is a single z-monomial.

    Over one denominator D, the row of q^(v + k) is A_k = N_k / D, with
    lead N_0 = c z^j.  The inverse is exact on [-v, a.q_max - 2 v], and
    its q^(i - v) row, which solves a G = 1, is G_i = D P_i / c^(i + 1)
    (_of moves the sign into the numerator) in the integer rows

        P_0 = z^(-j),    P_i = -sum_{k=1..i} c^(k-1) N_k z^(-j) P_(i-k).

    For Delta, D = c = 1 and P_i = G_i.  Each step is one _row_sum with
    c^(k-1) as the scalar of its pairs, and all steps share one pack
    cache, so each -N_k z^(-j) and P_i is packed once per slot width.
    """
    v = a.q_min
    den, n = a._int_rows()
    if len(n.get(v, (0, []))[1]) != 1:
        raise ValueError("leading q-coefficient must be a single z-monomial")
    j, (c,) = n[v]
    w = {m - v: (lo - j, [-x for x in row]) for m, (lo, row) in n.items() if m > v}
    p = [(-j, [1])]
    cache = _Packs()
    for i in range(1, a.q_max - v + 1):
        p.append(_row_sum([(c ** (k - 1), x, p[i - k]) for k, x in w.items() if k <= i], cache))
    return QZSeries(-v, a.q_max - 2 * v, {
        i - v: LaurentPoly._of(c ** (i + 1), lo, row if den == 1 else [den * x for x in row])
        for i, (lo, row) in enumerate(p)})
