"""Operations of the three workloads, their sizes, and their result digests.

pairs and wall are lists of in-process calls, run by worker.py in a fresh
interpreter; cli is a list of command lines, run by run.py as fresh
subprocesses.  Each operation returns a digest of its result, which the
caller compares with golden.json, or raises CheckFailed when an identity
the operation checks does not hold.  Seed-dependent CLI output has no
golden digest; it is checked by cli_check instead.

This module does not import localk3: the engine is passed in, so the
orchestrator never loads it.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

SIZES = {
    "full": {
        "pairs": {"main": (10, 12), "check": (8, 10)},
        "wall": {"q_max": 60, "ky": (40, 30)},
        "cli": {"hilb": 3000, "pt": (9, 11), "xbar": (7, 9), "ky": (40, 30),
                "bps": (50, 6, 30), "samples": 2000},
    },
    # the smoke test and the warm-up run these
    "tiny": {
        "pairs": {"main": (3, 4), "check": (2, 3)},
        "wall": {"q_max": 6, "ky": (4, 4)},
        "cli": {"hilb": 30, "pt": (3, 4), "xbar": (2, 3), "ky": (4, 6),
                "bps": (6, 3, 8), "samples": 20},
    },
}


class CheckFailed(Exception):
    """An identity checked by an operation does not hold."""


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _rat(v) -> str:
    v = Fraction(v)
    return f"{v.numerator}/{v.denominator}"


def series_digest(series) -> str:
    """Digest of the sorted term list of a MultiSeries."""
    terms = sorted((cls.a, cls.b, k, _rat(v)) for cls, k, v in series.terms())
    return digest(f"{a},{b},{k},{v}" for a, b, k, v in terms)


def qz_digest(series) -> str:
    """Digest of the sorted (q, z, coefficient) list of a QZSeries."""
    return digest(f"{m},{e},{_rat(v)}"
                  for m, poly in series.rows() for e, v in poly.items())


def bps_digest(table) -> str:
    lines = [f"{g},{h},{_rat(v)}" for (g, h), v in sorted(table.entries.items())]
    lines.append("h=" + ",".join(map(str, sorted(table.computed_h))))
    return digest(lines)


def pairs_ops(size: str, rng: random.Random) -> list:
    """pt_main at the main size, and the two oracle identities at the check
    size, in an order the seed picks."""
    ym, zm = SIZES[size]["pairs"]["main"]
    yc, zc = SIZES[size]["pairs"]["check"]

    def main(signed):
        return lambda lk: series_digest(lk.pt_main(lk.PTParams(ym, zm, signed)))

    def borcherds(signed):
        def op(lk):
            p = lk.PTParams(yc, zc, signed)
            prod = series_digest(lk.pt_borcherds(p))
            if prod != series_digest(lk.pt_main(p)):
                raise CheckFailed("pt_borcherds differs from pt_main")
            return prod
        return op

    def xbar(lk):
        pad = lk.PTParams(yc, zc).z_pad
        single = lk.pt_main(lk.PTParams(yc, zc + pad))
        squared = series_digest(single.mul(single).restrict(-zc, zc))
        double = series_digest(lk.pt_xbar(lk.PTParams(yc, zc)))
        if double != squared:
            raise CheckFailed("pt_xbar differs from pt_main squared")
        return double

    ops = [
        (f"pt_main(y={ym},z={zm})", main(False)),
        (f"pt_main(y={ym},z={zm},signed)", main(True)),
        (f"pt_borcherds==pt_main(y={yc},z={zc})", borcherds(False)),
        (f"pt_borcherds==pt_main(y={yc},z={zc},signed)", borcherds(True)),
        (f"pt_xbar==pt_main^2(y={yc},z={zc})", xbar),
    ]
    rng.shuffle(ops)
    return ops


def wall_ops(size: str, rng: random.Random) -> list:
    """inv_delta, bps_extract of its result, and the wall identity, with the
    seed picking whether the identity runs first or last."""
    q = SIZES[size]["wall"]["q_max"]
    qk, zw = SIZES[size]["wall"]["ky"]
    built = {}

    def inv(lk):
        built["inv"] = lk.inv_delta(q)
        return qz_digest(built["inv"])

    def bps(lk):
        if "inv" not in built:
            raise CheckFailed("inv_delta failed, nothing to extract from")
        return bps_digest(lk.bps_extract(built["inv"], q))

    def ky(lk):
        bad = lk.ky_identity_check(qk, zw)
        if bad:
            raise CheckFailed(f"{len(bad)} wall-identity mismatches")
        return digest([])

    blocks = [[(f"inv_delta({q})", inv), (f"bps_extract({q})", bps)],
              [(f"ky_identity_check({qk},{zw})", ky)]]
    rng.shuffle(blocks)
    return [op for block in blocks for op in block]


OPS = {"pairs": pairs_ops, "wall": wall_ops}


def random_vector(rng: random.Random) -> tuple[int, int, int, int]:
    while True:
        v = tuple(rng.randint(-9, 9) for _ in range(4))
        if any(v):
            return v


def cli_commands(size: str, rng: random.Random) -> list:
    """(label, argv, vector) per command; vector is None when the output is
    seed-independent and checked against its golden digest."""
    s = SIZES[size]["cli"]
    r, a, b, n = vec = random_vector(rng)
    text = f"{r};{a},{b};{n}"
    y, z = s["pt"]
    yx, zx = s["xbar"]
    qk, zw = s["ky"]
    qb, yb, zb = s["bps"]
    commands = [
        ["hilb", "--max", str(s["hilb"])],
        ["jinv", f"--vector={text}"],
        ["pt", "--y-max", str(y), "--z-max", str(z)],
        ["pt", "--y-max", str(y), "--z-max", str(z), "--signed", "--format", "csv"],
        ["xbar-verify", "--y-max", str(yx), "--z-max", str(zx)],
        ["ky-verify", "--q-max", str(qk), "--z-window", str(zw)],
        ["bps", "--q-max", str(qb), "--y-max", str(yb), "--z-max", str(zb)],
        ["isometry", f"--vector={text}", "--samples", str(s["samples"])],
    ]
    return [(" ".join(argv), argv, vec if argv[0] in ("jinv", "isometry") else None)
            for argv in commands]


def cli_check(argv: list, vector, stdout: bytes, samples: int) -> str:
    """Check the report of a seeded jinv or isometry run; return its J."""
    report = json.loads(stdout)
    if report["mismatches"]:
        raise CheckFailed(f"{len(report['mismatches'])} mismatches reported")
    result = report["result"]
    r, a, b, n = vector
    if argv[0] == "jinv":
        square = 2 * a * b - 2 * a * a - 2 * r * n
        if (result["mukai_square"], result["divisibility"]) != (
                str(square), str(math.gcd(r, a, b, n))):
            raise CheckFailed("wrong Mukai square or divisibility")
    elif result["checked_vectors"] != samples + 1:
        raise CheckFailed("isometry checked the wrong number of vectors")
    return result["J"]


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)
