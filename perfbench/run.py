"""End-to-end, layer-by-layer benchmark of the ``repro`` toolkit.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py            # every workload, untraced then traced

Every run of a workload is a fresh interpreter (``child.py``).  With
``--trace 0`` the runner repeats untraced runs, each followed by a few
set-up-only runs, for about ``--seconds``, and reports the end-to-end
metrics (medians over the runs).  With ``--trace 1`` it makes one untraced and one traced run and reports the
per-layer metrics of the traced one, plus the tracing overhead.  On
``fanout`` an untimed serial oracle run comes first.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_tmp"
TRACES = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))

from layers import METRICS as LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, effective_cpus  # noqa: E402

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
#: Set-up-only runs after each timed run: set-up is short and noisy, so
#: its median takes more samples than the timed runs give.
SETUP_RUNS = 3
#: A benchmark invocation must finish within 180 s; keep a margin.
BUDGET_S = 170.0

_spawned = itertools.count()


class Deadline(Exception):
    """The invocation ran out of its time budget."""


def commit() -> str:
    """The checked-out commit, read from ``.git`` if there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.exists():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> str:
    load = ",".join(f"{value:.2f}" for value in os.getloadavg())
    return (
        f"cpus={effective_cpus()} python={platform.python_version()} "
        f"commit={commit()} loadavg={load}"
    )


def spawn(workload: str, seed: int, mode: str, deadline: float,
          trace_file: str = None) -> dict:
    """Start one child run and wait for its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        raise Deadline(f"no time left for a {mode} run of {workload}")
    out = SCRATCH / f"result-{os.getpid()}-{next(_spawned)}.json"
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--out", str(out), "--run-id", f"{workload}-{seed}-{os.getpid()}",
    ]
    if trace_file:
        command += ["--trace-file", trace_file]
    started = time.perf_counter()
    proc = subprocess.Popen(
        command + ["--spawned", repr(started)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        # The run's own pool and scheduler workers share its session.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise Deadline(f"{mode} run of {workload} overran the budget")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    wall_s = time.perf_counter() - started
    if proc.returncode != 0 or not out.exists():
        return {"error": f"{mode} run exited {proc.returncode}: "
                         + stderr.decode(errors="replace")[-2000:],
                "wall_s": wall_s}
    result = json.loads(out.read_text())
    out.unlink()
    result["wall_s"] = wall_s
    return result


def workload_digest(digests: dict) -> str:
    text = json.dumps(sorted(digests.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def judge(name: str, runs: list, oracle: dict) -> tuple:
    """Count operations and failures over every run of one invocation.

    Serial workloads must repeat the first run's digest for each query
    in every later run.  ``fanout`` queries must match the digest the
    serial oracle gave for the same base query.
    """
    queries = WORKLOADS[name].queries
    reference = {}
    failures = []
    mismatches = []
    for index, run in enumerate(runs):
        run_mismatches = 0
        for query in queries:
            if "error" in run:
                failures.append((index, query, run["error"]))
                continue
            reason = run["failures"].get(query)
            got = run["digests"].get(query)
            if reason is None and got is not None:
                if oracle is not None:
                    base = query.split(":", 1)[1]
                    want = oracle.get("digests", {}).get(base)
                    if want is None:
                        reason = "no oracle result to compare with"
                    elif got != want:
                        reason = f"differs from the serial oracle ({got} != {want})"
                        run_mismatches += 1
                else:
                    want = reference.setdefault(query, got)
                    if got != want:
                        reason = f"digest {got} differs from the first run's {want}"
            if reason is not None:
                failures.append((index, query, reason))
        mismatches.append(run_mismatches)
    attempted = len(runs) * len(queries)
    return attempted, failures, mismatches


def report_run(index: int, run: dict) -> None:
    if "error" in run:
        print(f"run {index}: failed to complete: {run['error'].strip()}")
        return
    print(
        f"run {index} ({run['mode']}): run_s={run['run_s']:.4f} "
        f"setup_s={run['setup_s']:.4f} peak_rss_mb={run['peak_rss_mb']:.1f} "
        f"digest={workload_digest(run['digests'])}"
    )
    for query, seconds in run["query_s"].items():
        print(f"  {query}: {seconds:.4f} s digest={run['digests'].get(query, '-')}")


def percentile_note(count: int) -> str:
    """The highest percentile with at least ten samples beyond it."""
    supported = [
        p for p in (50, 90, 99) if count * (100 - p) / 100.0 >= 10
    ]
    if not supported:
        return f"n={count}; no percentile has ten samples beyond it"
    return f"n={count}; p{supported[-1]} supported"


def run_workload(name: str, seed: int, seconds: int, trace: int,
                 deadline: float) -> dict:
    workload = WORKLOADS[name]
    print(f"# workload={name} seed={seed} trace={trace} seconds={seconds}")
    print(f"# why: {workload.why}")
    print(f"# machine: {machine()}")
    oracle = None
    if name == "fanout":
        oracle = spawn(name, seed, "oracle", deadline)
        if "error" in oracle:
            print(f"oracle: {oracle['error'].strip()}")
        else:
            print(f"oracle (serial, untimed): digest="
                  f"{workload_digest(oracle['digests'])}")
            for query, seconds_ in oracle["query_s"].items():
                print(f"  {query}: {seconds_:.4f} s "
                      f"digest={oracle['digests'][query]}")

    runs = []
    metrics = {}
    if trace == 0:
        # Set-up-only runs go between the timed runs, so both samples
        # spread over the whole window.  Another round starts only if
        # at least half of a typical round still fits in the window.
        setups = []
        rounds = []
        started = time.monotonic()
        while True:
            round_started = time.monotonic()
            runs.append(spawn(name, seed, "timed", deadline))
            setups += [spawn(name, seed, "setup", deadline)
                       for _ in range(SETUP_RUNS)]
            rounds.append(time.monotonic() - round_started)
            elapsed = time.monotonic() - started
            if elapsed + statistics.median(rounds) / 2 >= seconds:
                break
    else:
        setups = []
        TRACES.mkdir(exist_ok=True)
        trace_file = str(TRACES / f"trace-{name}-seed{seed}.json")
        runs.append(spawn(name, seed, "timed", deadline))
        runs.append(spawn(name, seed, "traced", deadline, trace_file))
    for index, run in enumerate(runs):
        report_run(index, run)

    attempted, failures, mismatches = judge(name, runs, oracle)
    good = [run for run in runs if "error" not in run]
    timed = [run for run in good if run["mode"] == "timed"]
    if trace == 0 and timed:
        for metric, unit in END_TO_END:
            values = [run[metric] for run in timed]
            if metric == "setup_s":
                values += [run[metric] for run in setups if "error" not in run]
            metrics[metric] = {"value": statistics.median(values),
                               "unit": unit}
            note = percentile_note(len(values)) if metric == "run_s" else (
                f"n={len(values)}")
            print(f"metric {metric} = {metrics[metric]['value']:.6g} {unit} "
                  f"(median; {note}; values "
                  f"{', '.join(f'{v:.4f}' for v in values)})")
    traced = [run for run in good if run["mode"] == "traced"]
    if trace == 1 and traced and timed:
        layers = dict(traced[0]["layers"])
        layers["trace.overhead_s"] = traced[0]["run_s"] - timed[0]["run_s"]
        layers["fanout.mismatches"] = mismatches[runs.index(traced[0])]
        layers["parallel.speedup"] = 0.0
        if oracle is not None and "error" not in oracle:
            pool = sum(s for q, s in timed[0]["query_s"].items()
                       if q.startswith("pool:"))
            if pool > 0:
                layers["parallel.speedup"] = (
                    sum(oracle["query_s"].values()) / pool
                )
        for metric, unit in LAYER_METRICS:
            metrics[metric] = {"value": layers[metric], "unit": unit}
            print(f"metric {metric} = {layers[metric]:.6g} {unit}")
        total = traced[0]["run_s"]
        shares = sorted(
            ((value / total, key[:-len(".self_s")])
             for key, value in traced[0]["layers"].items()
             if key.endswith(".self_s") and total > 0),
            reverse=True,
        )
        print("self-time shares of traced run_s: " + ", ".join(
            f"{layer} {share:.1%}" for share, layer in shares if share > 0
        ))
        print(f"trace written to {trace_file}")

    reference = next((run["digests"] for run in good), {})
    print(f"digest {name} seed={seed} {workload_digest(reference)}")
    failed = len(failures)
    print(f"error_share = {failed}/{attempted} = {failed / attempted:.4f}")
    for index, query, reason in failures:
        print(f"failed: run {index} {query}: {reason.splitlines()[0]}")
    complete = all("error" not in run for run in runs + setups) and (
        oracle is None or "error" not in oracle
    )
    expected = END_TO_END if trace == 0 else LAYER_METRICS
    return {
        "correct": complete and failed == 0 and len(metrics) == len(expected),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end, layer-by-layer benchmark of repro."
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro source tree under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    deadline = time.monotonic() + BUDGET_S
    # Turn SIGTERM into SystemExit so a running child is killed with us.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    if args.workload is not None:
        trace = 0 if args.trace is None else args.trace
        try:
            result = run_workload(args.workload, args.seed, args.seconds,
                                  trace, deadline)
        except Deadline as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 3
        print(json.dumps(result))
        return 0

    # Every workload untraced, then traced: a human-facing report with
    # no overall time budget.
    modes = (0, 1) if args.trace is None else (args.trace,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for trace in modes:
        for name in WORKLOADS:
            result = run_workload(name, args.seed, args.seconds, trace,
                                  time.monotonic() + BUDGET_S)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = value
            print()
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
