"""Benchmark of localk3: three closed-loop workloads, timed end to end.

    python3 bench/run.py --workload {pairs,wall,cli} --seed N --seconds S --trace {0,1}
        [--size {full,tiny}] [--out FILE]
    python3 bench/run.py --compare BASE.jsonl NEW.jsonl
    python3 bench/run.py --record-golden

A run repeats passes of one workload, one at a time, while the next pass
still fits in S seconds (at least one pass, two with --trace 1).  Every
pass starts a fresh interpreter, so module-level caches never carry over:

* pairs, wall: worker.py imports localk3, warms up on the tiny sizes and
  runs the operations in-process;
* cli: one warm-up command, then each command as its own
  `python3 -m localk3.cli` subprocess, stdout compared byte for byte.

With --trace 0 the last line of stdout holds the end-to-end metrics
(medians over the run's passes); with --trace 1 the run alternates
untraced and traced passes and reports the per-layer metrics of the
traced ones.  A fuller record (quartiles, samples, per-operation times,
Python version, CPU count, revision, load average) goes to stderr and,
with --out, is appended to FILE as one JSON line; --compare reads two
such files.  The exit code is 0 only when every operation passed its
checks.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import workloads
from tracer import PER_LAYER, expectation_errors, layer_metrics, merge_raw
from worker import TRACE_MARK

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("pairs", "wall", "cli")
CLI = [sys.executable, "-m", "localk3.cli"]
END_TO_END = [("run_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("pass_frac", "frac")]
# every child still running this long after a run started is killed,
# so that a run ends within 180 s
RUN_LIMIT_S = 170
# extra set-ups timed before each untraced pass, for a steadier setup_s
SETUP_PROBES = 3


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(cmd: list[str], deadline: float, on_ready=None):
    """Run cmd to completion; return (stdout, stderr, exit code, wall s,
    rusage).  on_ready, if given, is called once the child prints its
    first line.  The child is killed at the perf_counter time deadline."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_env(), cwd=ROOT)
    killer = threading.Timer(max(0.0, deadline - t0), proc.kill)
    killer.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        head = b""
        if on_ready is not None:
            head = proc.stdout.readline()
            on_ready(perf_counter() - t0)
        out = head + proc.stdout.read()
        reader.join()
        _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    return out, err[0], proc.returncode, perf_counter() - t0, usage


def _relay(stderr: bytes) -> None:
    if stderr:
        sys.stderr.write(stderr.decode(errors="replace"))


def worker_pass(workload: str, seed: int, index: int, size: str,
                trace: bool, record: bool, deadline: float) -> dict:
    """One pass of pairs or wall in a fresh worker process."""
    ready = []
    cmd = [sys.executable, str(BENCH / "worker.py"), "pass", workload, str(seed),
           str(index), size, str(int(trace)), str(int(record))]
    out, err, code, wall, _usage = spawn(cmd, deadline, ready.append)
    _relay(err)
    lines = out.decode().splitlines()
    if code != 0 or len(lines) < 2 or lines[0] != "ready":
        n = len(workloads.OPS[workload](size, random.Random(0)))
        return {"setup_s": wall, "run_s": wall, "cpu_s": 0.0, "rss_mb": 0.0,
                "ops": [{"op": f"pass {index}", "s": wall, "digest": None,
                         "error": f"worker exited {code}"}] * n, "trace": None}
    result = json.loads(lines[-1])
    result["setup_s"] = ready[0]
    return result


def set_up(workload: str, deadline: float) -> tuple[float, list]:
    """Time a fresh interpreter from start until the workload is ready:
    the worker's import and warm-up, or for cli one smallest command.
    Returns the seconds and a failed-operation record if it failed."""
    if workload == "cli":
        _out, err, code, wall, _usage = spawn(CLI + ["hilb", "--max", "1"], deadline)
    else:
        ready = []
        _out, err, code, wall, _usage = spawn(
            [sys.executable, str(BENCH / "worker.py"), "setup", workload], deadline,
            ready.append)
        wall = ready[0]
    _relay(err)
    return wall, [] if code == 0 else [{"op": "set-up", "s": wall, "digest": None,
                                        "error": f"exit code {code}"}]


def cli_pass(seed: int, index: int, size: str, trace: bool, record: bool,
             deadline: float) -> dict:
    """One pass of cli: a warm-up command, then each command in a fresh process."""
    setup_s, records = set_up("cli", deadline)
    golden = None if record else workloads.load_golden()[size]["cli"]
    samples = workloads.SIZES[size]["cli"]["samples"]
    commands = workloads.cli_commands(size, random.Random(f"cli-{seed}-{index}"))
    raws, j_values = [], {}
    cli_raw = {"spans": {}, "counts": {}, "max_bits": 0, "unwrapped": []}
    cpu_s = rss_kb = 0.0
    t0 = perf_counter()
    for label, argv, vector in commands:
        cmd = ([sys.executable, str(BENCH / "worker.py"), "cli"] if trace else CLI) + argv
        out, err, code, wall, usage = spawn(cmd, deadline)
        cpu_s += usage.ru_utime + usage.ru_stime
        rss_kb = max(rss_kb, usage.ru_maxrss)
        if trace:
            head, _, tail = err.rpartition(TRACE_MARK.encode())
            err = head
            if tail:
                raws.append(json.loads(tail))
        _relay(err)
        digest = hashlib.sha256(out).hexdigest() if vector is None else None
        error = None
        if code != 0:
            error = f"exit code {code}"
        elif vector is not None:
            try:
                j_values[argv[0]] = workloads.cli_check(argv, vector, out, samples)
            except (workloads.CheckFailed, ValueError, KeyError) as exc:
                error = f"{type(exc).__name__}: {exc}"
        elif golden is not None and digest != golden.get(label):
            error = "stdout differs from the golden copy"
        records.append({"op": label, "s": wall, "digest": digest, "error": error})
        sub = argv[0]
        span = cli_raw["spans"].setdefault(f"cli.{sub}", [0, 0.0, 0.0])
        span[0] += 1
        span[1] += wall
        span[2] += wall
        counts = cli_raw["counts"]
        counts[f"cli.{sub}.bytes_out"] = counts.get(f"cli.{sub}.bytes_out", 0) + len(out)
        counts[f"cli.{sub}.rss_mb"] = max(counts.get(f"cli.{sub}.rss_mb", 0),
                                          usage.ru_maxrss / 1024)
    if len(set(j_values.values())) > 1:
        records.append({"op": "J(jinv) == J(isometry)", "s": 0.0, "digest": None,
                        "error": f"J differs between commands: {j_values}"})
    run_s = perf_counter() - t0
    trace_raw = None
    if trace:
        trace_raw = merge_raw(raws)
        trace_raw["spans"].update(cli_raw["spans"])
        trace_raw["counts"].update(cli_raw["counts"])
        if len(raws) != len(commands):
            trace_raw["unwrapped"].append("a traced CLI process reported no trace")
    return {"setup_s": setup_s, "run_s": run_s, "cpu_s": cpu_s, "rss_mb": rss_kb / 1024,
            "ops": records, "trace": trace_raw}


def run_pass(workload: str, seed: int, index: int, size: str, trace: bool,
             record: bool, deadline: float) -> dict:
    if workload == "cli":
        return cli_pass(seed, index, size, trace, record, deadline)
    return worker_pass(workload, seed, index, size, trace, record, deadline)


def summary(values: list[float]) -> dict:
    values = sorted(values)
    if len(values) > 1:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def environment() -> dict:
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        top, rev = git.stdout.split()
        revision = rev if Path(top).resolve() == ROOT and git.returncode == 0 else None
    except (OSError, ValueError, subprocess.SubprocessError):
        revision = None
    src = hashlib.sha256()
    for path in sorted((SRC / "localk3").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "git_revision": revision, "src_sha256": src.hexdigest(),
            "loadavg": list(os.getloadavg())}


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    env = environment()
    passes = []
    setups = []
    start = perf_counter()
    deadline = start + RUN_LIMIT_S
    while True:
        traced = trace and sum(p["traced"] for p in passes) * 2 < len(passes)
        t0 = perf_counter()
        probes = [] if trace else [set_up(workload, deadline) for _ in range(SETUP_PROBES)]
        p = run_pass(workload, seed, len(passes), size, traced, False, deadline)
        p["traced"] = traced
        p["ops"] += [op for _s, failed in probes for op in failed]
        setups += [s for s, _failed in probes] + [p["setup_s"]]
        passes.append(p)
        elapsed = perf_counter() - start
        if len(passes) >= (2 if trace else 1) and elapsed + (perf_counter() - t0) > seconds:
            break
    env["loadavg_end"] = list(os.getloadavg())

    ops = [op for p in passes for op in p["ops"]]
    failures = [op for op in ops if op["error"]]
    plain = [p for p in passes if not p["traced"]]
    metrics = {
        "run_s": summary([p["run_s"] for p in plain]),
        "cpu_s": summary([p["cpu_s"] for p in plain]),
        "setup_s": summary(setups),
        "peak_rss_mb": summary([p["rss_mb"] for p in plain]),
        "pass_frac": summary([1 - len(failures) / len(ops)]),
    }
    units = dict(END_TO_END)
    check_errors = []
    if trace:
        traced = [p for p in passes if p["traced"]]
        per_pass = []
        for p in traced:
            raw = p["trace"] or {"spans": {}, "counts": {}, "max_bits": 0,
                                 "unwrapped": ["traced pass reported no trace"]}
            check_errors += [f"unwrapped: {w}" for w in raw["unwrapped"]]
            check_errors += expectation_errors(workload, raw)
            per_pass.append(layer_metrics(raw))
        metrics = {name: summary([m[name] for m in per_pass]) for name in per_pass[0]}
        overhead = (statistics.median(p["run_s"] for p in traced)
                    / statistics.median(p["run_s"] for p in plain) - 1)
        metrics["trace.overhead_frac"] = summary([overhead])
        units = dict(PER_LAYER)
    op_times: dict[str, list] = {}
    for p in plain:
        for op in p["ops"]:
            op_times.setdefault(op["op"], []).append(op["s"])
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "size": size, "env": env, "passes": len(passes),
        "correct": not failures and not check_errors,
        "attempted": len(ops), "failed": len(failures),
        "fail_frac": len(failures) / len(ops),
        "failures": [f"{op['op']}: {op['error']}" for op in failures[:10]],
        "check_errors": sorted(set(check_errors)),
        "metrics": {name: {**stat, "unit": units[name]} for name, stat in metrics.items()},
        "op_median_s": {name: statistics.median(v) for name, v in op_times.items()},
    }


def record_golden() -> int:
    """Write golden.json from one pass of every workload at both sizes."""
    golden = {}
    for size in ("full", "tiny"):
        golden[size] = {}
        for workload in WORKLOADS:
            p = run_pass(workload, 0, 0, size, False, True, perf_counter() + RUN_LIMIT_S)
            bad = [op for op in p["ops"] if op["error"]]
            if bad:
                sys.stderr.write(f"{workload}/{size}: {bad}\n")
                return 1
            golden[size][workload] = {op["op"]: op["digest"] for op in p["ops"]
                                      if op["digest"] is not None}
    env = environment()
    golden["source"] = {key: env[key] for key in ("git_revision", "src_sha256", "python")}
    with open(workloads.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def _load_results(path: str) -> dict:
    """(workload, trace) -> list of run records."""
    runs: dict[tuple, list] = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                runs.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return runs


def _spread(stat: dict) -> float:
    return (stat["q3"] - stat["q1"]) / stat["value"] if stat["value"] else 0.0


def compare(base_path: str, new_path: str) -> int:
    """Print, per workload and metric, both sides' median and quartiles and
    the ratio new/base.  An end-to-end metric whose spread on either side
    is wider than its bound is unresolved, unless every new value beats
    every base value; otherwise it is flagged when worse than its bound."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    base, new = _load_results(base_path), _load_results(new_path)

    def stats(runs: list, name: str) -> dict:
        # across runs when there are several, else across one run's passes
        if len(runs) > 1:
            return summary([r["metrics"][name]["value"] for r in runs])
        return summary(runs[0]["metrics"][name]["samples"])

    print(f"{'workload':8} {'metric':36} {'base median [q1, q3] n':>36} "
          f"{'new median [q1, q3] n':>36} {'new/base':>9}  flag")
    for key in sorted(set(base) & set(new), key=lambda k: (WORKLOADS.index(k[0]), k[1])):
        names = [n for n in new[key][0]["metrics"] if n in base[key][0]["metrics"]]
        for name in names:
            b, n = stats(base[key], name), stats(new[key], name)
            ratio = n["value"] / b["value"] if b["value"] else float("nan")
            flag = ""
            if name in spec:
                m = spec[name]
                sign = 1 if m["better"] == "lower" else -1
                if max(_spread(b), _spread(n)) > m["bound"]:
                    beats = sign * max(n["samples"]) < sign * min(b["samples"])
                    flag = "better" if beats else "unresolved"
                elif sign * (ratio - 1) > m["bound"]:
                    flag = "over bound"
            cells = [f"{s['value']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] {s['n']}" for s in (b, n)]
            print(f"{key[0]:8} {name:36} {cells[0]:>36} {cells[1]:>36} {ratio:9.3f}  {flag}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", help="append the full run record to this file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "localk3" / "__init__.py").is_file():
        sys.stderr.write(f"run.py: no localk3 sources under {SRC}\n")
        return 2
    compileall.compile_dir(SRC, quiet=1)
    if args.record_golden:
        return record_golden()
    if args.workload is None:
        parser.error("--workload is required")

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    sys.stderr.write(json.dumps(record) + "\n")
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    names = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name]["value"], "unit": unit}
                    for name, unit in names},
    }))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
