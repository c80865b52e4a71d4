"""Command line front end.

Every subcommand emits a single report, JSON by default:

    {"schema": 1, "config": {...}, "result": {...}, "mismatches": [...]}

Rational values are serialized as "p/q" strings, integer tables as bare
decimal strings, so reports are byte-identical across runs.  Exit codes:
0 success, 1 a verification or consistency check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction

from .invariants import conjectural_J, hilb_table
from .lattice import (CurveClass, HodgeIsometry, MukaiVector, ZERO_CLASS,
                      POLARIZATION, SECTION, apply_isometry)
from .ptseries import (ConsistencyError, PTParams, bps_extract, gv_extract,
                       ky_identity_check, pt_main, pt_xbar)
from .modular import inv_delta

EXIT_OK = 0
EXIT_VERIFY = 1

SCHEMA = 1


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    y_max: int | None = None
    z_max: int | None = None
    q_max: int | None = None
    max_n: int | None = None
    z_window: int | None = None
    samples: int | None = None
    signed: bool = False
    vector: str | None = None
    fmt: str = "json"
    out: str | None = None


def _rat(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _int(x) -> str:
    return str(int(x))


def _series_rows(series) -> list[dict]:
    return [{"class": str(cls), "z": k, "value": _int(v)}
            for cls, k, v in series.terms()]


def _mismatch_rows(pairs) -> list[dict]:
    return [{"class": str(cls), "z": k, "left": _rat(a), "right": _rat(b)}
            for cls, k, a, b in pairs]


def _compare_series(a, b) -> list:
    return [(cls, k, a.coeff(cls, k), b.coeff(cls, k)) for cls, k, _ in (a - b).terms()]


def _run_hilb(cfg: RunConfig) -> tuple[dict, list]:
    table = hilb_table(cfg.max_n)
    return {"table": [_int(v) for v in table.values]}, []


def _run_jinv(cfg: RunConfig) -> tuple[dict, list]:
    v = MukaiVector.parse(cfg.vector)
    return {
        "J": _rat(conjectural_J(v)),
        "mukai_square": _int(v.mukai_square()),
        "divisibility": _int(v.divisibility()),
    }, []


def _run_pt(cfg: RunConfig) -> tuple[dict, list]:
    series = pt_main(PTParams(cfg.y_max, cfg.z_max, cfg.signed))
    return {"coefficients": _series_rows(series)}, []


def _run_xbar_verify(cfg: RunConfig) -> tuple[dict, list]:
    pad = PTParams(cfg.y_max, cfg.z_max).z_pad
    single = pt_main(PTParams(cfg.y_max, cfg.z_max + pad))
    squared = single.mul(single).restrict(-cfg.z_max, cfg.z_max)
    double = pt_xbar(PTParams(cfg.y_max, cfg.z_max))
    support = {(cls, k) for s in (double, squared) for cls, k, _ in s.terms()}
    bad = _compare_series(double, squared)
    return {"compared": len(support)}, _mismatch_rows(bad)


def _run_ky_verify(cfg: RunConfig) -> tuple[dict, list]:
    bad = ky_identity_check(cfg.q_max, cfg.z_window)
    rows = [{"q": m, "z": j, "left": _rat(a), "right": _rat(b)}
            for m, j, a, b in bad]
    return {"q_range": [-1, cfg.q_max], "z_checked": cfg.z_window - 1}, rows


def _run_bps(cfg: RunConfig) -> tuple[dict, list]:
    table = bps_extract(inv_delta(cfg.q_max), cfg.q_max)
    result = {
        "table": [{"g": g, "h": h, "value": _rat(v)}
                  for (g, h), v in sorted(table.entries.items(),
                                          key=lambda kv: (kv[0][1], kv[0][0]))],
        "notes": ("the signed pair series, its product form and the "
                  "multiple-cover rule are conjectural inputs; agreement "
                  "below is a consistency check, not a proof"),
    }
    mismatches: list[dict] = []
    if cfg.y_max is not None:
        series = pt_main(PTParams(cfg.y_max, cfg.z_max, signed=True))
        recovered = gv_extract(series, signed=True)
        result["overlap_h"] = sorted(table.computed_h & recovered.computed_h)
        mismatches = [{"g": g, "h": h, "left": _rat(a), "right": _rat(b)}
                      for g, h, a, b in recovered.mismatches_on_overlap(table)]
    return result, mismatches


_GENERATORS: list[tuple[str, HodgeIsometry]] = [
    ("swap", HodgeIsometry.swap()),
    ("sign_h2", HodgeIsometry.sign_h2()),
    ("negate_rn", HodgeIsometry.negate_rn()),
    ("reflect_1_0_1", HodgeIsometry.reflect(MukaiVector(1, ZERO_CLASS, 1))),
    ("reflect_1_H_2", HodgeIsometry.reflect(MukaiVector(1, POLARIZATION, 2))),
    ("reflect_0_s_0", HodgeIsometry.reflect(MukaiVector(0, SECTION, 0))),
]


def _run_isometry(cfg: RunConfig) -> tuple[dict, list]:
    vectors = [MukaiVector.parse(cfg.vector)]
    rng = random.Random(0)
    while len(vectors) < 1 + (cfg.samples or 0):
        v = MukaiVector(rng.randint(-9, 9),
                        CurveClass(rng.randint(-9, 9), rng.randint(-9, 9)),
                        rng.randint(-9, 9))
        if not v.is_zero():
            vectors.append(v)
    mismatches = []
    images = []
    for i, v in enumerate(vectors):
        for name, gen in _GENERATORS:
            gv = apply_isometry(gen, v)
            record = {"vector": str(v), "generator": name, "image": str(gv)}
            if i == 0:
                images.append({**record, "J": _rat(conjectural_J(gv))})
            ok = (gv.mukai_square() == v.mukai_square()
                  and gv.divisibility() == v.divisibility()
                  and conjectural_J(gv) == conjectural_J(v))
            if not ok:
                mismatches.append({**record,
                                   "J_left": _rat(conjectural_J(gv)),
                                   "J_right": _rat(conjectural_J(v))})
    return {
        "J": _rat(conjectural_J(vectors[0])),
        "images": images,
        "checked_vectors": len(vectors),
    }, mismatches


def _to_csv(cfg: RunConfig, result: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if cfg.subcommand == "hilb":
        writer.writerow(["n", "chi"])
        for n, v in enumerate(result["table"]):
            writer.writerow([n, v])
    else:  # pt
        writer.writerow(["class", "z", "coeff"])
        for row in result["coefficients"]:
            writer.writerow([row["class"], row["z"], row["value"]])
    return buf.getvalue()


_RUNNERS = {
    "hilb": _run_hilb,
    "jinv": _run_jinv,
    "pt": _run_pt,
    "xbar-verify": _run_xbar_verify,
    "ky-verify": _run_ky_verify,
    "bps": _run_bps,
    "isometry": _run_isometry,
}


def run(config: RunConfig) -> int:
    """Execute one subcommand, write its report, return the exit status."""
    try:
        result, mismatches = _RUNNERS[config.subcommand](config)
    except ConsistencyError as err:
        result = {"error": str(err)}
        mismatches = [{"entry": [str(x) for x in off]} for off in err.offenders]
    except ValueError as err:
        sys.stderr.write(f"localk3: {err}\n")
        return 2
    if config.fmt == "csv":
        text = _to_csv(config, result)
    else:
        config_echo = {k: v for k, v in asdict(config).items()
                       if v is not None and k != "out"}
        report = {"schema": SCHEMA, "config": config_echo,
                  "result": result, "mismatches": mismatches}
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if not mismatches else EXIT_VERIFY


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localk3",
        description="exact stable-pair and sheaf counting series on local K3 surfaces")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None)

    p = sub.add_parser("hilb", help="Euler numbers of Hilbert schemes of points")
    p.add_argument("--max", type=int, required=True, dest="max_n")
    common(p)

    p = sub.add_parser("jinv", help="multiple-cover count J of a Mukai vector")
    p.add_argument("--vector", required=True, help="r;a,b;n")
    common(p)

    p = sub.add_parser("pt", help="stable-pair series coefficients")
    p.add_argument("--y-max", type=int, required=True)
    p.add_argument("--z-max", type=int, required=True)
    p.add_argument("--signed", action="store_true")
    common(p)

    p = sub.add_parser("xbar-verify", help="check the base-change series squares the pair series")
    p.add_argument("--y-max", type=int, required=True)
    p.add_argument("--z-max", type=int, required=True)
    common(p)

    p = sub.add_parser("ky-verify", help="check the pairs/1-Delta wall identity")
    p.add_argument("--q-max", type=int, required=True)
    p.add_argument("--z-window", type=int, required=True)
    common(p)

    p = sub.add_parser("bps", help="BPS table from 1/Delta, optionally compared with gv extraction")
    p.add_argument("--q-max", type=int, required=True)
    p.add_argument("--y-max", type=int, default=None)
    p.add_argument("--z-max", type=int, default=None)
    common(p)

    p = sub.add_parser("isometry", help="lattice-isometry invariance of J")
    p.add_argument("--vector", required=True, help="r;a,b;n")
    p.add_argument("--samples", type=int, default=0)
    common(p)

    return parser


def _validate(parser: argparse.ArgumentParser, cfg: RunConfig) -> None:
    def bad(msg: str) -> None:
        parser.error(msg)

    if cfg.fmt == "csv" and cfg.subcommand not in ("hilb", "pt"):
        bad("csv output is only available for integer tables (hilb, pt)")
    if cfg.max_n is not None and cfg.max_n < 0:
        bad("--max must be >= 0")
    if cfg.y_max is not None and cfg.y_max < 0:
        bad("--y-max must be >= 0")
    if cfg.z_max is not None and cfg.z_max < 0:
        bad("--z-max must be >= 0")
    if cfg.q_max is not None:
        low = 0 if cfg.subcommand == "bps" else -1
        if cfg.q_max < low:
            bad(f"--q-max must be >= {low}")
    if cfg.z_window is not None and cfg.z_window < 1:
        bad("--z-window must be >= 1")
    if cfg.samples is not None and cfg.samples < 0:
        bad("--samples must be >= 0")
    if cfg.subcommand == "bps" and (cfg.y_max is None) != (cfg.z_max is None):
        bad("bps needs --y-max and --z-max together")
    if cfg.vector is not None:
        try:
            v = MukaiVector.parse(cfg.vector)
        except ValueError as err:
            bad(str(err))
        else:
            if v.is_zero():
                bad("vector must be nonzero")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    cfg = RunConfig(
        subcommand=ns.subcommand,
        y_max=getattr(ns, "y_max", None),
        z_max=getattr(ns, "z_max", None),
        q_max=getattr(ns, "q_max", None),
        max_n=getattr(ns, "max_n", None),
        z_window=getattr(ns, "z_window", None),
        samples=getattr(ns, "samples", None),
        signed=getattr(ns, "signed", False),
        vector=getattr(ns, "vector", None),
        fmt=ns.format,
        out=ns.out,
    )
    _validate(parser, cfg)
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
