"""One run of one workload in a fresh interpreter.

The runner (``run.py``) starts this script once per timed run, so
every run pays the cold import and starts with empty process-global
memos, as every ``repro`` invocation does.  Modes:

* ``timed``: answer the workload's queries untraced;
* ``traced``: the same with the layer wrappers installed, writing the
  spans as Chrome trace-event JSON to ``--trace-file``;
* ``oracle``: answer ``fanout``'s queries serially (its oracle);
* ``setup``: only set up, to sample ``setup_s`` more often.

The result goes to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import shutil
import sys
import tempfile
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"


def write_json(path: str, payload: dict) -> None:
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as handle:
        json.dump(payload, handle)
    os.replace(tmp, path)


def execute(workload, ctx: dict, queries, run, tracer=None) -> dict:
    """Answer ``queries`` in order; time, check and digest each one.

    With a ``tracer`` the layer wrappers are installed around the
    queries and removed again before this returns, even on error.
    """
    from tracer import Installation, children_cpu_s, reap_children
    from workloads import ShapeError, digest

    done, digests, failures, query_s = {}, {}, {}, {}
    parallel_cpu_s = 0.0
    installation = None
    if tracer is not None:
        from layers import ENTRIES

        installation = Installation(tracer, ENTRIES)
    try:
        for query in queries:
            items_before = tracer.counts["parallel.items"] if tracer else 0
            cpu_before = time.process_time() + children_cpu_s()
            start = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.span(f"query:{query}"):
                        result = run(ctx, query, done)
                else:
                    result = run(ctx, query, done)
            except Exception as exc:  # one failed operation; keep going
                failures[query] = (
                    f"raised {type(exc).__name__}: {exc}\n"
                    + traceback.format_exc(limit=4)
                )
                result = None
            query_s[query] = time.perf_counter() - start
            if tracer is not None:
                reap_children()
                if tracer.counts["parallel.items"] > items_before:
                    parallel_cpu_s += (
                        time.process_time() + children_cpu_s() - cpu_before
                    )
            if result is None:
                continue
            done[query] = result
            digests[query] = digest(result)
            try:
                workload.check(ctx, query, result, done)
            except ShapeError as exc:
                failures[query] = f"shape: {exc}"
    finally:
        if installation is not None:
            installation.restore()
    outcome = {
        "run_s": sum(query_s.values()),
        "query_s": query_s,
        "digests": digests,
        "failures": failures,
    }
    if tracer is not None:
        from layers import summarize

        outcome["layers"] = summarize(tracer, parallel_cpu_s)
    return outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("timed", "traced", "oracle", "setup"))
    # perf_counter() is CLOCK_MONOTONIC on Linux, shared by processes.
    parser.add_argument("--spawned", type=float, required=True,
                        help="runner's perf_counter() when it started us")
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-file")
    parser.add_argument("--run-id", default="")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SOURCE))
    from tracer import Tracer
    from workloads import WORKLOADS

    import repro

    if pathlib.Path(repro.__file__).resolve().parent != SOURCE / "repro":
        raise SystemExit(f"imported repro from {repro.__file__}, not {SOURCE}")
    workload = WORKLOADS[args.workload]
    SCRATCH.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
    try:
        ctx = workload.setup(workload.inputs(args.seed))
        ctx["scratch"] = scratch
        setup_s = time.perf_counter() - args.spawned

        queries, run = workload.queries, workload.run
        if args.mode == "oracle":
            queries, run = workload.BASE, workload.run_serial
        elif args.mode == "setup":
            queries = ()
        tracer = None
        if args.mode == "traced":
            tracer = Tracer(run_id=args.run_id)
        outcome = execute(workload, ctx, queries, run, tracer)
        if tracer is not None and args.trace_file:
            tracer.write_chrome_trace(args.trace_file, pid=os.getpid())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    outcome.update(
        workload=args.workload,
        seed=args.seed,
        mode=args.mode,
        setup_s=setup_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    )
    write_json(args.out, outcome)
    return 0


if __name__ == "__main__":
    sys.exit(main())
