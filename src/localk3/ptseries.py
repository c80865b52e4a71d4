"""Stable-pair generating series of a local K3 and their BPS content.

Three builds of the same object, used as one another's oracles:

* pt_main: exponential form

      PT(y, z) = prod exp((n + 2r) J(r, beta, r + n) y^beta z^n)

  over effective beta, with n >= 0, r >= 0 on the z^n side and
  n > 0, r > 0 on the z^{-n} side.  The signed variant weights the
  exponent of the y^beta z^{+-n} factor by (-1)^(n-1).

* pt_borcherds: infinite-product form with integer exponents

      prod (1 - y^beta z^{+-n})^{-(n+2r) chi(Hilb^{beta^2/2 - r(n+r) + 1})}

  over the same index range; the signed variant is
  prod (1 + (-1)^(n-1) y^beta z^{+-n})^{+(n+2r) chi(...)}.

* pt_xbar: the series of the base change, indexed by
  S = {r n > 0} u {r = 0, n > 0} u {r > 0, n = 0} with orientation
  eps(r + n); it equals PT(y, z)^2.

bps_extract reads the genus decomposition of 1/Delta against the
kernel basis (z - 2 + 1/z)^g; gv_extract recovers the same table from
a PT series by stripping multiple covers classwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .invariants import conjectural_J, hilb_euler
from .lattice import CurveClass, MukaiVector, enumerate_effective
from .modular import inv_delta
from .series import (KY_KERNEL, ConsistencyError, LaurentPoly, MultiSeries, QZSeries, exp,
                     log, pow_binomial)


@dataclass(frozen=True)
class PTParams:
    """Truncation parameters for the stable-pair series.

    Internally the z-window is padded by the largest accumulated
    negative shift max(beta^2 / 2) over retained classes, so that the
    reported window [-z_max, z_max] is exact.
    """

    y_max: int
    z_max: int
    signed: bool = False

    def __post_init__(self) -> None:
        if self.y_max < 0 or self.z_max < 0:
            raise ValueError("truncation parameters must be >= 0")

    @property
    def z_pad(self) -> int:
        squares = [b.self_intersection() // 2 for b in enumerate_effective(self.y_max)]
        return max([0] + squares)

    @property
    def work_window(self) -> tuple[int, int]:
        pad = self.z_pad
        return (-self.z_max - pad, self.z_max + pad)


def _eps(m: int) -> int:
    if m == 0:
        raise ConsistencyError("orientation weight hit r + n = 0")
    return 1 if m > 0 else -1


def _signed_weight(n: int) -> int:
    # (-1)^(n-1) for the z^{+-n} factor, n = |z-exponent|
    return -1 if n % 2 == 0 else 1


def _index_terms(params: PTParams, covers: bool) -> Iterator[tuple[CurveClass, int, int, int]]:
    """The (beta, r, n, z) factors shared by the three builds, z in the
    padded window: z = n for r, n >= 0 not both zero, z = -n for r, n >= 1.

    A factor carries chi(Hilb^{(beta^2/2 - r(r+n))/k^2 + 1}) for divisors
    k of (r, beta, r + n), which vanishes unless r(r+n) <= beta^2/2 + k^2.
    So only r(r+n) <= bound = beta^2/2 + k_max^2 is yielded, with
    k_max = div beta for the multiple-cover forms (covers) and k_max = 1
    for the product form; a class with bound < 0 has no factors.
    """
    lo, hi = params.work_window
    for beta in enumerate_effective(params.y_max):
        k_max = beta.divisibility() if covers else 1
        bound = beta.self_intersection() // 2 + k_max * k_max
        if bound < 0:
            continue
        for n in range(1, hi + 1):
            yield beta, 0, n, n
        for r in range(1, math.isqrt(bound) + 1):
            reach = bound // r - r  # largest n with r(r+n) <= bound
            for n in range(min(reach, hi) + 1):
                yield beta, r, n, n
            for n in range(1, min(reach, -lo) + 1):
                yield beta, r, n, -n


def _reported(series: MultiSeries, params: PTParams, label: str) -> MultiSeries:
    """Cut to the reported window, where the result is exact, and check
    that every coefficient there is an integer."""
    out = series.restrict(-params.z_max, params.z_max)
    bad = [(cls, k, v) for cls, k, v in out.terms() if v.denominator != 1]
    if bad:
        raise ConsistencyError(f"{label} produced non-integer coefficients", bad)
    return out


def _exp_sum(params: PTParams, label: str,
             terms: Iterable[tuple[CurveClass, int, int, int, int]]) -> MultiSeries:
    """exp of sum m J(r, beta, r + n) y^beta z^k, over (beta, k, m, r, n)
    in terms and the padded window, then _reported: the padding strip
    absorbs the tails of the factors cut at the window.

    J depends on its vector only through the Mukai square
    beta^2 - 2r(r + n) and the divisibility gcd(a, b, r, n), so it is
    looked up once per such key.  The exponent is summed in integer
    numerators over D, the lcm of the denominators of the J values, and
    made one Fraction per (beta, k)."""
    js: dict[tuple[int, int], Fraction] = {}
    listed = []
    for beta, k, m, r, n in terms:
        key = (beta.self_intersection() - 2 * r * (r + n), math.gcd(beta.a, beta.b, r, n))
        if key not in js:
            js[key] = conjectural_J(MukaiVector(r, beta, r + n))
        listed.append(((beta, k), m, key))
    den = math.lcm(*(j.denominator for j in js.values()))
    num = {key: j.numerator * (den // j.denominator) for key, j in js.items()}
    arg: dict[tuple[CurveClass, int], int] = {}
    for bk, m, key in listed:
        arg[bk] = arg.get(bk, 0) + m * num[key]
    series = MultiSeries(params.y_max, params.work_window,
                         {bk: Fraction(v, den) for bk, v in arg.items()})
    return _reported(exp(series), params, label)


def pt_main(params: PTParams) -> MultiSeries:
    """Exponential form of the stable-pair series: the exponent of
    y^beta z^{+-n} sums (n + 2r) J(r, beta, r + n) over r."""
    return _exp_sum(params, "pt_main", (
        (beta, z, (n + 2 * r) * (_signed_weight(n) if params.signed else 1), r, n)
        for beta, r, n, z in _index_terms(params, covers=True)))


def pt_borcherds(params: PTParams) -> MultiSeries:
    """Product form of the stable-pair series, one binomial factor per
    (beta, r, n) with nonzero exponent (n + 2r) chi(Hilb^{beta^2/2 - r(n+r) + 1}).

    The product is kept as integer blocks of full-window z-rows.  Each
    factor is applied in place from the top weight down, so a
    shift-and-add only reads blocks that the factor has not touched."""
    y = params.y_max
    lo, hi = window = params.work_window
    blocks: list[dict[int, tuple[int, list[int]]]] = [{} for _ in range(y + 1)]
    blocks[0][0] = (lo, [int(k == 0) for k in range(lo, hi + 1)])
    for beta, r, n, z in _index_terms(params, covers=False):
        e = (n + 2 * r) * hilb_euler(beta.self_intersection() // 2 + 1 - r * (n + r))
        if not e:
            continue
        if params.signed:
            factor = pow_binomial(beta, z, _signed_weight(n), e, y, window)
        else:
            factor = pow_binomial(beta, z, -1, -e, y, window)
        steps = [(cls.weight, cls.a, k, v.numerator) for cls, k, v in factor.terms()
                 if not cls.is_zero()]
        for w in range(y, 0, -1):
            for dw, da, s, c in steps:
                if dw > w:
                    break
                for a, (_, row) in blocks[w - dw].items():
                    acc = blocks[w].setdefault(a + da, (lo, [0] * len(row)))[1]
                    if s >= 0:
                        acc[s:] = [u + c * v for u, v in zip(acc[s:], row)]
                    else:
                        acc[:s] = [u + c * v for u, v in zip(acc, row[-s:])]
    return _reported(MultiSeries._of(y, window, 1, blocks), params, "pt_borcherds")


def pt_xbar(params: PTParams) -> MultiSeries:
    """Series of the base change, which squares the one-copy series:

        prod_{beta, (r, n) in S} exp((n + 2r) N(r, beta, n) y^beta z^n)^{eps(r+n)}

    with S = {rn > 0} u {r = 0, n > 0} u {r > 0, n = 0}, which is the
    shared index set read as (r, z) for z >= 0 and (-r, z) for z < 0."""
    if params.signed:
        raise ValueError("the base-change series has no signed variant")

    def term(beta: CurveClass, r: int, n: int) -> tuple[CurveClass, int, int, int, int]:
        # N(r, beta, n) = 2 J(r, beta, r + n)
        return beta, n, 2 * _eps(r + n) * (n + 2 * r), r, n

    return _exp_sum(params, "pt_xbar", (
        term(beta, r if z >= 0 else -r, z)
        for beta, r, _n, z in _index_terms(params, covers=True)))


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


def ky_identity_check(q_max: int, z_window: int,
                      pairs: Callable[[int, int], int] = ky_pairs_euler) -> list:
    """Compare sum_{h, n} chi(P_n, h) z^n q^{h-1} against 1/Delta.

    The stable-pairs side is multiplied by the kernel z - 2 + 1/z, so
    both sides are Laurent polynomials rowwise.  Rows are compared on
    |z-exponent| <= z_window - 1, the part the window determines.
    Returns the list of mismatches (q_exp, z_exp, left, right)."""
    if q_max < -1:
        raise ValueError("q_max must be >= -1")
    if z_window < 1:
        raise ValueError("z_window too small to determine any coefficient")
    rhs = inv_delta(q_max)
    mismatches = []
    for m in range(-1, q_max + 1):
        h = m + 1
        row = LaurentPoly({n: pairs(h, n) for n in range(-z_window, z_window + 1)})
        prod = row * KY_KERNEL
        for j in range(-(z_window - 1), z_window):
            left = prod.coeff(j)
            right = rhs.coeff(m, j)
            if left != right:
                mismatches.append((m, j, left, right))
    return mismatches


@dataclass(frozen=True, eq=True)
class BPSTable:
    """Genus-h table of BPS counts; absent entries are zero."""

    entries: dict
    computed_h: frozenset

    def get(self, g: int, h: int) -> Fraction:
        return self.entries.get((g, h), Fraction(0))

    def mismatches_on_overlap(self, other: BPSTable) -> list:
        """Entry-by-entry differences over the h both tables computed."""
        out = []
        for h in sorted(self.computed_h & other.computed_h):
            gs = {g for (g, hh) in self.entries if hh == h}
            gs |= {g for (g, hh) in other.entries if hh == h}
            for g in sorted(gs):
                a, b = self.get(g, h), other.get(g, h)
                if a != b:
                    out.append((g, h, a, b))
        return out


def _kernel_coeff(g: int, j: int) -> int:
    """Coefficient of z^j in (z - 2 + 1/z)^g = (z^(1/2) - z^(-1/2))^(2g)."""
    return (-1) ** (g - j) * math.comb(2 * g, g - j) if abs(j) <= g else 0


def _kernel_decompose(p: LaurentPoly) -> dict[int, Fraction]:
    """Write a palindromic Laurent polynomial as sum c_g (z - 2 + 1/z)^g.

    The g-th basis element has top term z^g with coefficient 1, so
    elimination from the top degree down is triangular and exact; by
    palindromy it runs on the half-row of exponents j >= 0."""
    if not p.is_palindromic():
        raise ValueError("polynomial is not palindromic in z")
    if p.is_zero():
        return {}
    work = p._row[-p._lo:]
    out: dict[int, Fraction] = {}
    for g in range(len(work) - 1, -1, -1):
        c = work[g]
        if c:
            out[g] = Fraction(c)
            for j in range(g + 1):
                work[j] -= _kernel_coeff(g, j) * c
    return out


def bps_extract(source: QZSeries, q_max: int) -> BPSTable:
    """BPS table of a series in the 1/Delta family: the q^{h-1} row
    equals sum_g (-1)^g r_{g,h} (z - 2 + 1/z)^g, solved triangularly."""
    if source.q_min < -1:
        raise ValueError("source must start at q^{-1} or later")
    if q_max > source.q_max:
        raise ValueError("q_max exceeds the exact range of the source")
    entries: dict = {}
    hs = set()
    for m in range(source.q_min, q_max + 1):
        h = m + 1
        hs.add(h)
        for g, c in _kernel_decompose(source.row(m)).items():
            entries[(g, h)] = c if g % 2 == 0 else -c
    return BPSTable(entries, frozenset(hs))


def _strip_covers(rows: dict, beta: CurveClass, f: dict,
                  z_lo: int, z_hi: int) -> dict[int, Fraction]:
    """f_beta = (log PT row at beta) - sum_{m >= 2, m | beta} (1/m) f_{beta/m}(z^m)."""
    fb = dict(rows.get(beta, {}))
    for mlt in range(2, beta.divisibility() + 1):
        if beta.divisibility() % mlt:
            continue
        sub = CurveClass(beta.a // mlt, beta.b // mlt)
        for j, c in f[sub].items():
            jj = j * mlt
            if z_lo <= jj <= z_hi:
                fb[jj] = fb.get(jj, Fraction(0)) - Fraction(c, 1) / mlt
    return {j: c for j, c in fb.items() if c}


def gv_extract(pt: MultiSeries, signed: bool = False) -> BPSTable:
    """Recover the genus table from a stable-pair series.

    Per class, in increasing weight: strip multiple covers from the
    logarithm, multiply by the kernel z - 2 + 1/z, and decompose the
    result in the basis (z - 2 + 1/z)^g.  The row of a class beta must
    be supported in |z-exponent| <= beta^2/2 + 1 and may depend on beta
    only through beta^2; violations raise ConsistencyError.

    The signed series with the same table is the z -> -z inverse of
    the unsigned one, so the signed case negates the logarithm and
    flips the sign of odd z-rows before running the same machinery.

    Coefficients of the logarithm above
    z_hi - (y_max - 1) * (negative depth of pt) can be polluted by the
    window truncation and are not trusted."""
    lseries = log(pt)
    rows: dict[CurveClass, dict[int, Fraction]] = {}
    for cls, k, v in lseries.terms():
        if signed:
            v = v if k % 2 else -v
        rows.setdefault(cls, {})[k] = v
    floor = pt.support_z_min()
    depth = max(0, -floor) if floor is not None else 0
    trust_hi = pt.z_hi - max(0, pt.y_max - 1) * depth
    w = min(trust_hi, -pt.z_lo) - 1
    if w < 0:
        raise ValueError("z-window too small to determine any genus entry")
    entries: dict = {}
    hs = set()
    reference: dict[int, tuple[CurveClass, dict[int, Fraction]]] = {}
    f: dict[CurveClass, dict[int, Fraction]] = {}
    for beta in enumerate_effective(pt.y_max):
        fb = _strip_covers(rows, beta, f, pt.z_lo, pt.z_hi)
        f[beta] = fb
        row = LaurentPoly(fb) * KY_KERNEL
        h = beta.self_intersection() // 2 + 1
        if h > w:
            raise ValueError(f"z-window too small for class {beta} (needs {h}, has {w})")
        lim = max(h, -1)
        items = row.items()
        offenders = [(beta, j, c) for j, c in items if lim < abs(j) <= w]
        if offenders:
            raise ConsistencyError(
                f"class {beta} has support beyond |z^{lim}|", offenders)
        if h < 0:
            continue
        restricted = LaurentPoly({j: c for j, c in items if abs(j) <= h})
        try:
            decomposition = _kernel_decompose(restricted)
        except ValueError as err:
            raise ConsistencyError(f"class {beta}: {err}",
                                   [(beta, j, c) for j, c in restricted.items()])
        rvec = {g: (c if g % 2 == 0 else -c) for g, c in decomposition.items()}
        if h in reference:
            prev_beta, prev = reference[h]
            if prev != rvec:
                raise ConsistencyError(
                    f"classes {prev_beta} and {beta} share beta^2 = {2 * h - 2} "
                    "but extract different tables",
                    [(beta, g, rvec.get(g), prev.get(g))
                     for g in set(prev) | set(rvec) if prev.get(g) != rvec.get(g)])
        else:
            reference[h] = (beta, rvec)
            hs.add(h)
            for g, val in rvec.items():
                entries[(g, h)] = val
    return BPSTable(entries, frozenset(hs))
