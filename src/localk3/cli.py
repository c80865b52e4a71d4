"""Command line front end.

Every subcommand emits a single report, JSON by default:

    {"schema": 1, "config": {...}, "result": {...}, "mismatches": [...]}

Rational values are serialized as "p/q" strings, integer tables as bare
decimal strings, so reports are byte-identical across runs.  Exit codes:
0 success; 1 a verification or consistency check failed, or the engine
failed, reported in result.error (JSON under either --format); 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

from .invariants import _j_by_key, conjectural_J, hilb_table
from .lattice import (CurveClass, HodgeIsometry, MukaiVector, ZERO_CLASS,
                      POLARIZATION, SECTION, apply_isometry)
from .ptseries import (ConsistencyError, PTParams, _gv_need, bps_extract, gv_extract,
                       ky_identity_check, pt_main, pt_xbar)
from .modular import inv_delta

EXIT_OK = 0
EXIT_VERIFY = 1

SCHEMA = 1


class RunConfig(NamedTuple):
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


def _mismatch_rows(a, b) -> list[dict]:
    """One row per coefficient in which the series a and b differ."""
    return [{"class": str(cls), "z": k, "left": _rat(a.coeff(cls, k)),
             "right": _rat(b.coeff(cls, k))} for cls, k, _ in (a - b).terms()]


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
    return {"compared": len(support)}, _mismatch_rows(double, squared)


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
    keys = [(v.mukai_square(), v.divisibility()) for v in vectors]
    js = [_j_by_key(*key) for key in keys]
    mismatches, images = [], []
    for i, (v, key, j) in enumerate(zip(vectors, keys, js)):
        for name, gen in _GENERATORS:
            gv = apply_isometry(gen, v)
            gkey = (gv.mukai_square(), gv.divisibility())
            jg = _j_by_key(*gkey)
            if i == 0:
                images.append({"vector": str(v), "generator": name, "image": str(gv),
                               "J": _rat(jg)})
            if (gkey, jg) != (key, j):
                mismatches.append({"vector": str(v), "generator": name, "image": str(gv),
                                   "J_left": _rat(jg), "J_right": _rat(j)})
    return {
        "J": _rat(js[0]),
        "images": images,
        "checked_vectors": len(vectors),
    }, mismatches


# subcommand -> (CSV header, rows of its result); the rest report JSON only
_CSV = {
    "hilb": (["n", "chi"], lambda result: enumerate(result["table"])),
    "pt": (["class", "z", "coeff"],
           lambda result: ([row["class"], row["z"], row["value"]]
                           for row in result["coefficients"])),
}


def _to_csv(cfg: RunConfig, result: dict) -> str:
    header, rows = _CSV[cfg.subcommand]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows(result))
    return buf.getvalue()


class _Subcommand(NamedTuple):
    help: str
    run: Callable[[RunConfig], tuple[dict, list]]
    flags: dict[str, dict]  # flag -> argparse keywords; dest is a RunConfig field
    bounds: dict[str, int]  # integer flag -> lowest value, checked in this order


def _int_flag(dest: str, **keywords) -> dict:
    """argparse keywords of an integer flag, required unless overridden."""
    return {"type": int, "required": True, "dest": dest, **keywords}


_VECTOR = {"required": True, "help": "r;a,b;n", "dest": "vector"}

_SUBCOMMANDS = {
    "hilb": _Subcommand(
        "Euler numbers of Hilbert schemes of points", _run_hilb,
        {"--max": _int_flag("max_n")}, {"--max": 0}),
    "jinv": _Subcommand(
        "multiple-cover count J of a Mukai vector", _run_jinv, {"--vector": _VECTOR}, {}),
    "pt": _Subcommand(
        "stable-pair series coefficients", _run_pt,
        {"--y-max": _int_flag("y_max"), "--z-max": _int_flag("z_max"),
         "--signed": {"action": "store_true", "dest": "signed"}},
        {"--y-max": 0, "--z-max": 0}),
    "xbar-verify": _Subcommand(
        "check the base-change series squares the pair series", _run_xbar_verify,
        {"--y-max": _int_flag("y_max"), "--z-max": _int_flag("z_max")},
        {"--y-max": 0, "--z-max": 0}),
    "ky-verify": _Subcommand(
        "check the pairs/1-Delta wall identity", _run_ky_verify,
        {"--q-max": _int_flag("q_max"), "--z-window": _int_flag("z_window")},
        {"--q-max": -1, "--z-window": 1}),
    "bps": _Subcommand(
        "BPS table from 1/Delta, optionally compared with gv extraction", _run_bps,
        {"--q-max": _int_flag("q_max"), "--y-max": _int_flag("y_max", required=False),
         "--z-max": _int_flag("z_max", required=False)},
        {"--y-max": 0, "--z-max": 0, "--q-max": 0}),
    "isometry": _Subcommand(
        "lattice-isometry invariance of J", _run_isometry,
        {"--vector": _VECTOR, "--samples": _int_flag("samples", required=False, default=0)},
        {"--samples": 0}),
}


def run(config: RunConfig) -> int:
    """Execute one subcommand, write its report, return the exit status."""
    try:
        result, mismatches = _SUBCOMMANDS[config.subcommand].run(config)
    except (ConsistencyError, ValueError) as err:
        result = {"error": str(err)}
        mismatches = [{"entry": [str(x) for x in off]} for off in getattr(err, "offenders", ())]
    if config.fmt == "csv" and "error" not in result:
        text = _to_csv(config, result)
    else:
        config_echo = {k: v for k, v in config._asdict().items()
                       if v is not None and k != "out"}
        report = {"schema": SCHEMA, "config": config_echo,
                  "result": result, "mismatches": mismatches}
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_VERIFY if mismatches or "error" in result else EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localk3",
        description="exact stable-pair and sheaf counting series on local K3 surfaces")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, spec in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=spec.help)
        for flag, keywords in spec.flags.items():
            p.add_argument(flag, **keywords)
        p.add_argument("--format", choices=("json", "csv"), default="json", dest="fmt")
        p.add_argument("--out", default=None)
    return parser


def _validate(parser: argparse.ArgumentParser, cfg: RunConfig) -> None:
    if cfg.fmt == "csv" and cfg.subcommand not in _CSV:
        parser.error(f"csv output is only available for integer tables ({', '.join(_CSV)})")
    spec = _SUBCOMMANDS[cfg.subcommand]
    for flag, low in spec.bounds.items():
        value = getattr(cfg, spec.flags[flag]["dest"])
        if value is not None and value < low:
            parser.error(f"{flag} must be >= {low}")
    if cfg.subcommand == "bps" and (cfg.y_max is None) != (cfg.z_max is None):
        parser.error("bps needs --y-max and --z-max together")
    if cfg.subcommand == "bps" and cfg.y_max is not None and cfg.z_max < _gv_need(cfg.y_max):
        parser.error(f"bps --y-max {cfg.y_max} needs --z-max >= {_gv_need(cfg.y_max)}")
    if cfg.vector is not None:
        try:
            v = MukaiVector.parse(cfg.vector)
        except ValueError as err:
            parser.error(str(err))
        if v.is_zero():
            parser.error("vector must be nonzero")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    cfg = RunConfig(**vars(parser.parse_args(argv)))
    _validate(parser, cfg)
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
