"""Fresh-process side of the benchmark; run.py starts one per pass.

    worker.py pass WORKLOAD SEED INDEX SIZE TRACE RECORD
        One timed pass of pairs or wall: import localk3, optionally trace
        it, warm up on the tiny sizes, print "ready", run the operations,
        print one JSON line with the pass's timings and per-operation
        digests.  With RECORD=1 nothing is compared with golden.json.
    worker.py setup WORKLOAD
        The same set-up, up to "ready", and nothing else.
    worker.py cli ARG...
        Run the localk3 CLI with tracing installed; the CLI's report goes
        to stdout unchanged and the raw trace to stderr, as the last line
        after TRACE_MARK.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads

TRACE_MARK = "BENCHTRACE "
SRC = Path(__file__).resolve().parent.parent / "src"


def _import_engine():
    import localk3
    if not Path(localk3.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"localk3 imported from {localk3.__file__}, not from {SRC}")
    return localk3


def run_ops(ops: list, lk, golden: dict | None) -> list[dict]:
    """Run operations one after another; a raise or a digest that differs
    from its golden copy marks the operation failed."""
    records = []
    for name, op in ops:
        t0 = perf_counter()
        error = None
        try:
            result = op(lk)
        except Exception:  # any engine failure is a failed operation
            result = None
            error = traceback.format_exc(limit=3)
        if error is None and golden is not None and result != golden.get(name):
            error = "result differs from the golden digest"
        records.append({"op": name, "s": perf_counter() - t0,
                        "digest": result, "error": error})
    return records


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def set_up(workload: str, trace: bool):
    """Import localk3, optionally trace it, warm up on the tiny sizes."""
    lk = _import_engine()
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer.install()
    for _name, op in workloads.OPS[workload]("tiny", random.Random(0)):
        op(lk)
    if tracer:
        tracer.reset()
    print("ready", flush=True)
    return lk, tracer


def run_pass(workload: str, seed: int, index: int, size: str,
             trace: bool, record: bool) -> dict:
    lk, tracer = set_up(workload, trace)
    ops = workloads.OPS[workload](size, random.Random(f"{workload}-{seed}-{index}"))
    golden = None if record else workloads.load_golden()[size][workload]
    cpu0 = _cpu_s()
    t0 = perf_counter()
    records = run_ops(ops, lk, golden)
    run_s = perf_counter() - t0
    cpu_s = _cpu_s() - cpu0
    return {"run_s": run_s, "cpu_s": cpu_s,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ops": records, "trace": tracer.raw() if tracer else None}


def run_cli(argv: list[str]) -> int:
    from tracer import Tracer
    _import_engine()
    tracer = Tracer.install()
    try:
        code = sys.modules["localk3.cli"].main(argv)
    except SystemExit as err:  # argparse usage errors
        code = err.code
    sys.stdout.flush()
    sys.stderr.write(TRACE_MARK + json.dumps(tracer.raw()) + "\n")
    return code


def main(argv: list[str]) -> int:
    if argv[0] == "cli":
        return run_cli(argv[1:])
    if argv[0] == "setup":
        set_up(argv[1], trace=False)
        return 0
    workload, seed, index, size, trace, record = argv[1:]
    out = run_pass(workload, int(seed), int(index), size, trace == "1", record == "1")
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
