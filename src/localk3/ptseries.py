"""Stable-pair generating series of a local K3 and their BPS content.

_exponent builds the exact exponent S of the pair series (Toda's main
formula), one dense z-row per effective class beta, with beta^2, div beta
and the bound on r(r + n) formed once per class:

      S_beta(+-n) = sum_r (n + 2r) J(r, beta, r + n)

over n >= 0, r >= 0 on the z^n side and n > 0, r > 0 on the z^{-n} side;
the signed variant weights the z^{+-n} term by (-1)^(n-1).  With the
conjectural J, S_beta(z) = sum_{k | (beta, z)} ky_pairs_euler(h(beta/k), z/k) / k
with h(gamma) = gamma^2/2 + 1.  Three builds of the pair series check one another:

* pt_main: exponential form PT(y, z) = exp(S).

* pt_borcherds: infinite-product form with integer exponents

      prod (1 - y^beta z^{+-n})^{-(n+2r) chi(Hilb^{beta^2/2 - r(n+r) + 1})}

  over the same index range.  Summed over r, the exponent of (beta, z) is
  the Kawai-Yoshioka count ky_pairs_euler(h, z), h = beta^2/2 + 1, so each
  class applies one factor F_h(y^beta, z), built once per h.  The signed
  variant is prod (1 + (-1)^(n-1) y^beta z^{+-n})^{+(n+2r) chi(...)}.

* pt_xbar: the series of the base change, whose exponent reads S's index
  set as (r', z) = (r, n) and (-r, -n) with orientation eps(r' + z) and
  N = 2J.  On that set eps(r' + z)(z + 2r') = n + 2r, as r + n > 0, so
  the exponent is exactly 2S, and the series is exp(2S) = PT^2.

One genus reader, _genus_table, decomposes one palindromic integer row per
genus h in the basis (z - 2 + 1/z)^g, by _genus_row.  bps_extract hands it
the rows of 1/Delta; gv_extract strips the multiple covers from log(PT) by
Moebius inversion on integer rows and hands it one checked kernel row per beta^2.

Every z-window reads _depth(w) = max(0, beta^2/2) over weights <= w: no
class-beta term of S, exp(S) or log(exp(S)) lies below z^-_depth(weight beta),
so a term cut at a window top reaches beta only beside parts no lower than
z^-_depth(weight beta - 1).  This sets gv_extract's tops and _gv_need.  The
three builds give weight w its own top T(w) = z_max + _depth(y_max - w)
(_tops): a weight-w term at z <= T(w) has each part, of weight v, at
z <= T(w) + _depth(w - v) <= T(v), as _depth is superadditive, so every
coefficient a build keeps is exact, an integer, and the series it returns
has denominator 1.  No class lies below the one bottom -z_max - z_pad but
those of weight y_max, and those are below -z_max.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .invariants import conjectural_J, hilb_euler
from .lattice import FIBER, CurveClass, MukaiVector, enumerate_effective
from .modular import DeltaSeries, delta
from .series import (KY_KERNEL, ConsistencyError, LaurentPoly, MultiSeries, QZSeries, _genus_row,
                     _Packs, _row_sum, _trim, exp, log, pow_binomial, qz_invert)


class PTParams(NamedTuple("PTParams", [("y_max", int), ("z_max", int), ("signed", bool)])):
    """Truncation parameters for the stable-pair series.

    work_window pads [-z_max, z_max] by z_pad = _depth(y_max - 1) on both
    sides: its bottom is the builds' one bottom, and its top is T(1), the
    highest of their per-class tops (_tops).  z_pad itself stays only for
    xbar-verify and the bench, which build pt_main on z_max + z_pad.
    """

    __slots__ = ()

    def __new__(cls, y_max: int, z_max: int, signed: bool = False) -> PTParams:
        if y_max < 0 or z_max < 0:
            raise ValueError("truncation parameters must be >= 0")
        return tuple.__new__(cls, (y_max, z_max, signed))

    @property
    def z_pad(self) -> int:
        return _depth(self.y_max - 1)

    @property
    def work_window(self) -> tuple[int, int]:
        pad = self.z_pad
        return (-self.z_max - pad, self.z_max + pad)


def _depth(w: int) -> int:
    """max(0, beta^2/2) over weights <= w: (a, w - a) has beta^2/2 = a(w - 2a)."""
    return max((a * (w - 2 * a) for a in range(w + 1)), default=0)


def _tops(params: PTParams) -> list[int]:
    """T(w) = z_max + _depth(y_max - w), w = 0..y_max: the top of weight w's
    work window in every build (see the module docstring)."""
    return [params.z_max + _depth(params.y_max - w) for w in range(params.y_max + 1)]


def _gv_need(y_max: int) -> int:
    """The least z_max at which gv_extract decides every class: the largest
    h = _depth(y_max) + 1 needs its top z_max - _depth(y_max - 1) - 1 >= h."""
    return _depth(y_max) + _depth(y_max - 1) + 2 if y_max else 0


def _signed_weight(n: int) -> int:
    # (-1)^(n-1) for the z^{+-n} factor, n = |z-exponent|
    return -1 if n % 2 == 0 else 1


def _reported(series: MultiSeries, params: PTParams, label: str) -> MultiSeries:
    """Cut to the reported window, where the result is exact, and check
    that every coefficient there is an integer.  _of keeps the
    denominator reduced, so some coefficient is not exactly when the
    denominator is not 1."""
    out = series.restrict(-params.z_max, params.z_max)
    if out._den != 1:
        raise ConsistencyError(f"{label} produced non-integer coefficients",
                               [(cls, k, v) for cls, k, v in out.terms() if v.denominator != 1])
    return out


def _exponent(params: PTParams) -> MultiSeries:
    """The exponent sum w(r, z) J(r, beta, r + |z|) y^beta z^z over the index
    set of S (see the module docstring), on the padded window.  The weight
    is w = (n + 2r), n = |z|, times (-1)^(n-1) if params.signed.  The base
    change's weight eps(r' + z)(z + 2r'), read on r' = r for z >= 0 and
    r' = -r for z < 0, is n + 2r on this index set, so its exponent is 2S.

    J(r, beta, r + n) sums chi(Hilb^{(beta^2/2 - r(r+n))/k^2 + 1}) / k^2
    over k | gcd(div beta, r, n), so it vanishes unless r(r+n) <= bound =
    beta^2/2 + (div beta)^2.  It is looked up once per key (beta^2 - 2r(r+n),
    gcd(div beta, r, n)).  Its denominator divides (div beta)^2, so the rows
    are summed in integer numerators over lcm(1..y_max)^2, which _of reduces.
    S_beta depends on beta only through (beta^2, div beta), so each such
    pair builds one row, and its classes share that row object."""
    lo, hi = window = params.work_window
    den = math.lcm(*range(1, params.y_max + 1)) ** 2
    sign = [_signed_weight(n) if params.signed else 1 for n in range(hi + 1)]
    js: dict[tuple[int, int], int] = {}
    rows: dict[tuple[int, int], list[int]] = {}
    blocks: list[dict[int, tuple[int, list[int]]]] = [{} for _ in range(params.y_max + 1)]
    for beta in enumerate_effective(params.y_max):
        square, g = beta.self_intersection(), beta.divisibility()
        bound = square // 2 + g * g
        if bound < 0:
            continue
        if (square, g) not in rows:
            row = rows[square, g] = [0] * (hi - lo + 1)
            for r in range(math.isqrt(bound) + 1):
                reach = bound // r - r if r else hi  # largest n with r(r+n) <= bound
                for n in range(0 if r else 1, min(reach, hi) + 1):
                    key = (square - 2 * r * (r + n), math.gcd(g, r, n))
                    if key not in js:
                        j = conjectural_J(MukaiVector(r, beta, r + n))
                        js[key] = j.numerator * (den // j.denominator)
                    term = sign[n] * (n + 2 * r) * js[key]
                    row[n - lo] += term
                    if r and n:  # the window is symmetric
                        row[-n - lo] += term
        blocks[beta.weight][beta.a] = (lo, rows[square, g])
    return MultiSeries._of(params.y_max, window, den, blocks)


def pt_main(params: PTParams) -> MultiSeries:
    """Exponential form of the stable-pair series: the exponent of
    y^beta z^{+-n} sums (n + 2r) J(r, beta, r + n) over r, times
    (-1)^(n-1) in the signed variant.  exp cuts each weight at its top
    T(w) of _tops, where every coefficient it keeps is exact."""
    return _reported(exp(_exponent(params), _tops(params)), params, "pt_main")


def _factor_rows(h: int, signed: bool, lo: int,
                 tops: list[int]) -> list[tuple[int, list[int]]]:
    """The rows f_0..f_K, K = len(tops) - 1 >= 1, of the factor
    F_h(t, z) = sum_k f_k(z) t^k of a class beta with beta^2/2 + 1 = h,
    t = y^beta, each f_k on [lo, tops[k]], tops not increasing in k:

        F_h = prod_z (1 - t z^z)^(-e(h, z)),  signed: prod_z (1 + (-1)^(n-1) t z^z)^e(h, z)

    with e = ky_pairs_euler and n = |z|: each z's binomial is
    (1 + sign t z^z)^power, its pair chosen once per z.  For K = 1, f_1 is
    the linear terms sign * power.  Otherwise each z's binomial, read from
    pow_binomial with the fiber class standing for t, is applied in place
    from f_K down, so a shift-and-add only reads rows that this binomial
    has not touched.  A shift by z >= 0 reads f_j below the top of f_k,
    j < k; one by z < 0 comes before every z >= 0, when each row vanishes
    above z^0; so the cuts change no coefficient below the tops.  The
    factors run to z = tops[1], and f_k(z) sums parts down to z^(1 - h),
    so it is exact where z + (k - 1)(h - 1) <= tops[1]."""
    k_max, hi = len(tops) - 1, tops[1]
    rows = [[0] * (top - lo + 1) for top in tops]
    rows[0][-lo] = 1
    for z in range(max(lo, 1 - h), hi + 1):
        e = ky_pairs_euler(h, z)
        if not e:
            continue
        sign, power = (_signed_weight(abs(z)), e) if signed else (-1, -e)
        if k_max == 1:
            rows[1][z - lo] = sign * power
            continue
        factor = pow_binomial(FIBER, z, sign, power, k_max, (lo, hi))
        steps = [(k, s, c) for k, block in enumerate(factor._blocks) if k
                 for s, (c,) in block.values()]
        for top in range(k_max, 0, -1):
            acc = rows[top]
            for k, s, c in steps:
                if k > top:
                    break
                row = rows[top - k]
                if s >= 0:  # row is no shorter than acc
                    acc[s:] = [u + c * v for u, v in zip(acc[s:], row)]
                else:
                    acc[:min(len(acc), len(row) + s)] = [u + c * v for u, v in zip(acc, row[-s:])]
    return [_trim(lo, row) for row in rows]


def pt_borcherds(params: PTParams) -> MultiSeries:
    """Product form of the stable-pair series, one factor per class: beta
    with h = beta^2/2 + 1 >= 0 applies F_h(y^beta, z) of _factor_rows,
    whose exponents (n + 2r) chi(Hilb^{h - r(n+r)}), n = |z|, summed over
    r, are ky_pairs_euler(h, z).  It uses no J, exp or log.

    F_h is built once per h, for the lightest weight w of its classes:
    K = y_max // w rows, f_k up to T(k w) of _tops, which covers every
    class of that h, and a class with a smaller K reads a prefix of them.
    f_k is exact there, as (k - 1)(h - 1) <= _depth((k - 1) w) and so
    T(k w) + (k - 1)(h - 1) <= T(w).
    A class heavier than y_max/2 (K = 1) enters as its linear term
    f_1 y^beta, cut at its own top, since any product of two such terms
    is heavier than y_max.  The others are applied from the heaviest
    down, each from the top weight down, so that
    P_w(a) += sum_k f_k P_{w - k wb}(a - k ab) only reads blocks that this
    factor has not touched.  Each target row is one _row_sum over those
    pairs and the old row, read back up to T(w), where every partial
    product is exact; each class has its own pack cache, so replaced rows
    are not kept."""
    y, tops = params.y_max, _tops(params)
    lo = params.work_window[0]
    # heaviest first, so every K = 1 seed is in place before the first product
    classes = [(beta, h) for beta in reversed(enumerate_effective(y))
               if (h := beta.self_intersection() // 2 + 1) >= 0]
    light: dict[int, int] = {}
    for beta, h in classes:
        light[h] = min(light.get(h, y), beta.weight)
    factors = {h: _factor_rows(h, params.signed, lo, tops[::w]) for h, w in light.items()}
    unit = (0, [1])
    blocks: list[dict[int, tuple[int, list[int]]]] = [{} for _ in range(y + 1)]
    blocks[0][0] = unit
    for beta, h in classes:
        wb, ab, f = beta.weight, beta.a, factors[h]
        if y // wb == 1:
            flo, frow = f[1]
            blocks[wb][ab] = (flo, frow[:tops[wb] - flo + 1])
            continue
        cache = _Packs()
        for w in range(y, wb - 1, -1):
            pairs: dict[int, list] = {}
            for k, fk in enumerate(f[1:w // wb + 1], 1):
                for a, row in blocks[w - k * wb].items():
                    pairs.setdefault(a + k * ab, []).append((1, fk, row))
            block = blocks[w]
            for a, terms in pairs.items():
                if a in block:
                    terms.append((1, block[a], unit))
                block[a] = _row_sum(terms, cache, (lo, tops[w]))
    return _reported(MultiSeries._of(y, params.work_window, 1, blocks), params,
                     "pt_borcherds")


def pt_xbar(params: PTParams) -> MultiSeries:
    """Series of the base change, which squares the one-copy series:

        prod_{beta, (r, n) in I} exp((n + 2r) N(r, beta, n) y^beta z^n)^{eps(r+n)}

    with I = {rn > 0} u {r = 0, n > 0} u {r > 0, n = 0}, which is the
    index set of the exponent read as (r', z) = (r, n) for z >= 0 and
    (-r, -n) for z < 0.  There eps(r' + z)(z + 2r') = n + 2r and N = 2J,
    so the exponent is 2S and the series is exp(2S)."""
    if params.signed:
        raise ValueError("the base-change series has no signed variant")
    return _reported(exp(_exponent(params).scale(2), _tops(params)), params, "pt_xbar")


def ky_pairs_euler(h: int, n: int) -> int:
    """chi of the space of stable pairs with n points on curves of
    arithmetic genus h, as a finite sum of Hilbert scheme terms:

        n >= 0:  sum_{r >= 0} (n + 2r) chi(Hilb^{h - r(r+n)})
        n < 0:   sum_{r >= 1} (|n| + 2r) chi(Hilb^{h - r(r+|n|)})

    Vanishes automatically for n < 1 - h."""
    if h < 0:
        raise ValueError("h must be >= 0")
    m = abs(n)
    r0 = 0 if n >= 0 else 1
    total = 0
    for r in range(r0, math.isqrt(h) + 1):
        chi = hilb_euler(h - r * (r + m))
        if chi:
            total += (m + 2 * r) * chi
    return total


def _ky_row(h: int, w: int) -> list[int]:
    """ky_pairs_euler(h, n), n = -w..w, in one pass: each r(r + m) <= h adds
    (m + 2r) chi(Hilb^{h - r(r+m)}) to z^m, and to z^-m when r, m >= 1."""
    row = [0] * (2 * w + 1)
    for r in range(math.isqrt(h) + 1):
        for m in range(min(w, h // r - r if r else w) + 1):
            row[w + m] += (term := (m + 2 * r) * hilb_euler(h - r * (r + m)))
            if r and m:
                row[w - m] += term
    return row


def ky_identity_check(q_max: int, z_window: int,
                      pairs: Callable[[int, int], list] = _ky_row) -> list:
    """Compare sum_{h, n} chi(P_n, h) z^n q^{h-1}, whose genus-h row on
    |n| <= z_window is pairs(h, z_window), against 1/Delta: qz_invert of the
    triple-product Delta, not inv_delta's recurrence, so the identity is
    checked against Delta itself.  The stable-pairs side is multiplied by
    the kernel z - 2 + 1/z, so both sides are Laurent polynomials rowwise,
    compared on |z-exponent| <= z_window - 1, the part the window determines.
    Returns the list of mismatches (q_exp, z_exp, left, right)."""
    if q_max < -1:
        raise ValueError("q_max must be >= -1")
    if z_window < 1:
        raise ValueError("z_window too small to determine any coefficient")
    inv = qz_invert(delta(q_max + 2))
    rhs = DeltaSeries(inv.q_min, inv.q_max, inv._rows)
    mismatches = []
    for m in range(-1, q_max + 1):
        left = LaurentPoly(dict(enumerate(pairs(m + 1, z_window), -z_window))) * KY_KERNEL
        right = rhs.row(m)
        diff = left - right  # exact whatever the two denominators are
        mismatches += [(m, j, left.coeff(j), right.coeff(j))
                       for j, v in enumerate(diff._row, diff._lo) if v and abs(j) < z_window]
    return mismatches


class BPSTable(NamedTuple):
    """Genus-h table of BPS counts; absent entries are zero."""

    entries: dict
    computed_h: frozenset

    def get(self, g: int, h: int) -> int:
        return self.entries.get((g, h), 0)

    def mismatches_on_overlap(self, other: BPSTable) -> list:
        """Entry-by-entry differences (g, h, a, b) over the h both tables computed."""
        both = self.computed_h & other.computed_h
        keys = sorted({(h, g) for g, h in (*self.entries, *other.entries) if h in both})
        return [(g, h, self.get(g, h), other.get(g, h)) for h, g in keys
                if self.get(g, h) != other.get(g, h)]


def _genus_table(rows: dict[int, LaurentPoly]) -> BPSTable:
    """The BPS table, in ints, whose genus-h row rows[h] is sum_g (-1)^g r_{g,h}
    (z - 2 + 1/z)^g; the basis change is unitriangular, so a row is integral
    exactly when its r_{g,h} are, and one that is not is a ConsistencyError."""
    entries = {}
    for h, p in rows.items():
        if not p.is_palindromic():
            raise ValueError(f"genus-{h} row is not palindromic in z")
        if p._den != 1:
            raise ConsistencyError(f"genus-{h} row is not integral",
                                   [(h, j, c) for j, c in p.items()])
        entries.update(((g, h), -d if g % 2 else d)
                       for g, d in enumerate(_genus_row(p._row[-p._lo:])) if d)
    return BPSTable(entries, frozenset(rows))


def bps_extract(source: QZSeries, q_max: int) -> BPSTable:
    """BPS table of a series in the 1/Delta family, whose q^{h-1} row is
    the genus-h row of _genus_table."""
    if source.q_min < -1:
        raise ValueError("source must start at q^{-1} or later")
    if q_max > source.q_max:
        raise ValueError("q_max exceeds the exact range of the source")
    return _genus_table({m + 1: source.row(m) for m in range(source.q_min, q_max + 1)})


def _mobius_strip(lseries: MultiSeries, signed: bool) -> dict[CurveClass, LaurentPoly]:
    """The primitive parts f_beta of a logarithm L, one per effective class:
    the multiple-cover rule L_beta(z) = sum_{m | div beta} (1/m) f_{beta/m}(z^m)
    inverts by Moebius to f_beta(z) = sum_{m | div beta} (mu(m)/m) L_{beta/m}(z^m),
    summed in integer rows over den(L) lcm(1..y_max) and cut to the window
    of L, which holds z^0, so a term cut there stays cut under z -> z^m.
    signed reads L negated with its odd z-rows flipped back, at L's own z^j."""
    y, (lo, hi), blocks = lseries.y_max, lseries.z_window, lseries._blocks
    lc, flip = math.lcm(*range(1, y + 1)), -1 if signed else 1
    mu = [0, 1] + [0] * y  # sum_{d | m} mu(d) is 1 at m = 1 and 0 above
    for d in range(1, y + 1):
        for k in range(2 * d, y + 1, d):
            mu[k] -= mu[d]
    out = {}
    for beta in enumerate_effective(y):
        g, row = beta.divisibility(), [0] * (hi - lo + 1)
        for m in range(1, g + 1):
            if g % m or not mu[m]:
                continue
            c = mu[m] * (lc // m)
            slo, srow = blocks[beta.weight // m].get(beta.a // m, (0, []))
            for i, v in enumerate(srow, slo):
                if v and lo <= m * i <= hi:
                    row[m * i - lo] += c * (v if i % 2 else flip * v)
        out[beta] = LaurentPoly._of(lseries._den * lc, *_trim(lo, row))
    return out


def gv_extract(pt: MultiSeries, signed: bool = False) -> BPSTable:
    """Recover the genus table from a stable-pair series.

    _mobius_strip takes the multiple covers out of log(pt); the signed
    series, the z -> -z inverse of the unsigned one with the same table,
    goes through its signed flip.  Each primitive part times z - 2 + 1/z must
    be a palindromic row in |z-exponent| <= h = beta^2/2 + 1 that depends
    on beta only through beta^2, else ConsistencyError; one row per h
    goes to _genus_table.  Class beta of the logarithm is exact up to
    z_hi - _depth(weight beta - 1), so its kernel row is trusted in |z| <= w =
    min(z_hi - _depth(weight beta - 1), -z_lo) - 1; h > w is a ValueError."""
    rows: dict[int, tuple[CurveClass, LaurentPoly]] = {}
    for beta, f in _mobius_strip(log(pt), signed).items():
        p = f * KY_KERNEL
        h = beta.self_intersection() // 2 + 1
        w = min(pt.z_hi - _depth(beta.weight - 1), -pt.z_lo) - 1
        if h > w:
            raise ValueError(f"z-window too small for class {beta} (needs {h}, has {w})")
        lim = max(h, -1)
        offenders = [(beta, j, c) for j, c in p.items() if lim < abs(j) <= w]
        if offenders:
            raise ConsistencyError(
                f"class {beta} has support beyond |z^{lim}|", offenders)
        if h < 0:
            continue
        start = max(p._lo, -h)
        p = LaurentPoly._of(p._den, *_trim(start, p._row[start - p._lo:max(h + 1 - p._lo, 0)]))
        if not p.is_palindromic():
            raise ConsistencyError(f"class {beta}: polynomial is not palindromic in z",
                                   [(beta, j, c) for j, c in p.items()])
        first, prev = rows.setdefault(h, (beta, p))
        if prev != p:
            raise ConsistencyError(
                f"classes {first} and {beta} share beta^2 = {2 * h - 2} "
                "but extract different tables",
                [(beta, j, p.coeff(j), prev.coeff(j))
                 for j in range(-h, h + 1) if p.coeff(j) != prev.coeff(j)])
    return _genus_table({h: p for h, (_, p) in rows.items()})
