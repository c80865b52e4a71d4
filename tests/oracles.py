"""Closed forms that the tests compare the engine with; the package
itself never calls them."""

import math
from fractions import Fraction

from localk3.invariants import conjectural_J
from localk3.lattice import CurveClass, MukaiVector, enumerate_effective


def N_from_J(r: int, beta: CurveClass, n: int) -> Fraction:
    """Sheaf count N(r, beta, n) = 2 J(r, beta, r + n)."""
    if r == 0 and n == 0 and beta.is_zero():
        raise ValueError("N is undefined on the zero triple")
    return 2 * conjectural_J(MukaiVector(r, beta, r + n))


def J_closed_00n(n: int) -> Fraction:
    """Closed form J(0, 0, n) = 24 sum_{k | n} 1/k^2 for n != 0."""
    if n == 0:
        raise ValueError("need n != 0")
    n = abs(n)
    return 24 * sum(Fraction(1, k * k) for k in range(1, n + 1) if n % k == 0)


def J_closed_r0r(r: int) -> Fraction:
    """Closed form J(r, 0, r) = 1/r^2 for r != 0."""
    if r == 0:
        raise ValueError("need r != 0")
    return Fraction(1, r * r)


def kernel_coeff(g: int, j: int) -> int:
    """Coefficient of z^j in (z - 2 + 1/z)^g = (z^(1/2) - z^(-1/2))^(2g)."""
    return (-1) ** (g - j) * math.comb(2 * g, g - j) if abs(j) <= g else 0


def kernel_rows(g_max: int) -> list[list[int]]:
    """The half-rows of (z - 2 + 1/z)^g, g = 0..g_max: entry j of row g is
    its z^j coefficient, j = 0..g.  Each row is the one before times the
    kernel, read on j >= 0 through the palindromy z^-1 <-> z^1."""
    rows = [[1]]
    for g in range(g_max):
        r = rows[-1] + [0, 0]
        rows.append([r[abs(j - 1)] - 2 * r[j] + r[j + 1] for j in range(g + 2)])
    return rows


def kernel_decompose(p, kernel: list[list[int]]) -> dict[int, Fraction]:
    """Write a palindromic LaurentPoly as sum c_g (z - 2 + 1/z)^g, with
    kernel = kernel_rows(g_max) for some g_max >= the degree of p.

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
            out[g] = Fraction(c, p._den)
            work[:g + 1] = [v - k * c for v, k in zip(work, kernel[g])]
    return out


def strip_covers_by_recursion(lseries, signed: bool) -> dict:
    """{beta: {z-exponent: Fraction}}: the primitive parts of a logarithm,
    f_beta = L_beta - sum_{m >= 2, m | div beta} (1/m) f_{beta/m}(z^m),
    by recursion over classes in increasing weight, on dicts of Fraction,
    cut to the window of L.  signed negates L and flips its odd z-rows
    first, as gv_extract does."""
    rows: dict = {}
    for cls, k, v in lseries.terms():
        rows.setdefault(cls, {})[k] = v if k % 2 or not signed else -v
    f: dict = {}
    for beta in enumerate_effective(lseries.y_max):
        fb = dict(rows.get(beta, {}))
        g = beta.divisibility()
        for m in range(2, g + 1):
            if g % m:
                continue
            for j, c in f[CurveClass(beta.a // m, beta.b // m)].items():
                if lseries.z_lo <= j * m <= lseries.z_hi:
                    fb[j * m] = fb.get(j * m, Fraction(0)) - Fraction(c, m)
        f[beta] = {j: c for j, c in fb.items() if c}
    return f
