"""dfsqc benchmark: run generated scenarios through the CLI and report.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the directory above this file.  The
parent uses the standard library only.  It generates the workload's
scenario configs from the seed and starts child processes with
``PYTHONPATH=src`` and BLAS threads pinned to one:

1. a validation child checks every config with ``ScenarioConfig.from_dict``
   and writes it as YAML, before anything is timed;
2. the measuring child runs the configs one after another through
   ``dfsqc.cli.main(["simulate", cfg, "--check", "--out", tmp,
   "--threads", "1"])`` for ``--seconds`` seconds, then to the end of the
   workload's block and to at least MIN_SAMPLES scenarios, timing each call;
3. with ``--trace 0``, a third child re-runs the first scenario and its CSV
   bytes must match.  With ``--trace 1`` the measuring child instead runs
   every scenario untraced and traced, and both must match.

Each child's time from start until ``dfsqc.cli`` is imported is one set-up
sample.  A record of the run (environment, every CSV's sha256, raw
samples) goes to ``.bench_out/``; the last line on stdout is the JSON
result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_SAMPLES = 11  # the tail rule needs ten samples beyond the tail
RUN_TIMEOUT = 170.0  # seconds for all children of one workload run

sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS, generate  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "scenario_s.p50": "s",
    "scenario_s.tail": "s",
    "rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
    "ok_frac": "share",
}


def layer_unit(name: str) -> str:
    """Units of the per-layer metrics, from their names."""
    if name == "trace.overhead_s":
        return "s"
    if name == "noise.realizations_per_s":
        return "1/s"
    if name.startswith("share.") or name.endswith("_frac"):
        return "share"
    suffix = name.rsplit(".", 1)[1]
    return {"calls": "calls/scenario", "bytes": "B/scenario"}.get(suffix, "s/scenario")


class BenchError(RuntimeError):
    pass


def tail_percentile(samples):
    """Highest order statistic with at least ten samples above it.

    Returns ``(value, percentile)``: with n samples this is the
    (n-10)-th smallest, at percentile 100*(n-10)/n.
    """
    n = len(samples)
    if n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {n}")
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n


def failed_count(records) -> int:
    """A scenario fails on a non-zero exit, a failed check or a re-run mismatch."""
    return sum(1 for rec in records if not rec["ok"])


def end_to_end(records, setups, peak_rss_kb) -> dict:
    times = [rec["cpu"] for rec in records]
    tail, _ = tail_percentile(times)
    return {
        "setup_s": statistics.median(setups),
        "scenario_s.p50": statistics.median(times),
        "scenario_s.tail": tail,
        "rows_per_s": sum(rec["rows"] for rec in records) / sum(times),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "ok_frac": 1.0 - failed_count(records) / len(records),
    }


def source_digest() -> str:
    """sha256 over the program's sources, as a commit id that needs no git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def spawn(mode: str, job: dict, work: Path, tag: str, deadline: float):
    """Run one child, killed at ``deadline``.

    Returns (set-up seconds, peak RSS in KiB, result).  The child is reaped
    with wait4, which gives its own rusage, so a child's peak RSS does not
    mix with that of children run before it.
    """
    job = dict(job, src=str(SRC), result=str(work / f"{tag}.result.json"))
    job_path = work / f"{tag}.job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with open(work / f"{tag}.stderr", "w", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), mode, str(job_path)],
            stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT, text=True)
        watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            rc = proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    if ready.strip() != "ready" or rc != 0:
        detail = (work / f"{tag}.stderr").read_text(encoding="utf-8")[-2000:]
        raise BenchError(f"{mode} child exited with {rc}:\n{detail}")
    result = json.loads(Path(job["result"]).read_text(encoding="utf-8"))
    return setup, usage.ru_maxrss, result


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path):
    deadline = time.monotonic() + RUN_TIMEOUT
    load_start = os.getloadavg()
    configs, block = generate(workload, seed, seconds)
    setup0, _, validated = spawn("validate", {"configs": configs,
                                           "config_dir": str(work / "configs")},
                              work, "validate", deadline)
    paths = validated["paths"]
    job = {"paths": paths, "seconds": seconds, "min_samples": MIN_SAMPLES,
           "block": block, "trace": trace, "out": str(work / "out"),
           "spans": str(OUT / f"spans-{workload}-seed{seed}.jsonl.gz")}
    setup1, peak_rss_kb, measured = spawn("run", job, work, "measure", deadline)
    records = measured["records"]

    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "nproc": os.cpu_count(),
              "git_sha": git_sha(), "source_sha256": source_digest(),
              "versions": measured["versions"], "load_start": load_start}
    if trace:
        metrics = dict(measured["layers"])
        plain = statistics.median(rec["cpu"] for rec in records)
        traced = statistics.median(rec["cpu_traced"] for rec in records)
        metrics["trace.overhead_s"] = traced - plain
        correct = measured["trace_consistent"]
        record["span_count"] = measured["span_count"]
    else:
        setup2, _, rerun = spawn("run", {"paths": paths[:1], "seconds": 0.0,
                                      "min_samples": 1, "block": 1,
                                      "trace": False,
                                      "out": str(work / "rerun")},
                              work, "rerun", deadline)
        first = rerun["records"][0]
        if not (first["ok"] and first["sha256"] == records[0]["sha256"]):
            records[0]["ok"] = False
            print(f"determinism re-run of {records[0]['name']} differs",
                  file=sys.stderr)
        metrics = end_to_end(records, [setup0, setup1, setup2], peak_rss_kb)
        record["setup_samples"] = [setup0, setup1, setup2]
        record["tail_percentile"] = tail_percentile(
            [rec["cpu"] for rec in records])[1]
        correct = True
    failed = failed_count(records)
    record["load_end"] = os.getloadavg()
    record["scenarios"] = records
    record["metrics"] = metrics
    return metrics, failed, len(records), correct and failed == 0, record


def report_lines(record, correct, failed, attempted, units):
    n = attempted
    lines = [f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
             f"correct={correct} scenarios={n} failed={failed} "
             f"failed_frac={failed / n:.4f} "
             f"nproc={record['nproc']} load={record['load_start'][0]:.2f}"
             f"->{record['load_end'][0]:.2f}"]
    if not record["trace"]:
        lines.append(f"# scenario_s.tail is p{record['tail_percentile']:.1f} "
                     f"of {n} samples")
    for name, value in record["metrics"].items():
        lines.append(f"{name} {value:.6g} {units[name]}")
    return lines


def measure(workload: str, args):
    """One workload run: prints its report and returns its result object."""
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        metrics, failed, attempted, correct, record = run(
            workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
    units = {name: END_TO_END_UNITS[name] if not args.trace else layer_unit(name)
             for name in metrics}
    for line in report_lines(record, correct, failed, attempted, units):
        print(line)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"],
                        help="'all' runs every workload and prefixes metric "
                             "names with '<workload>/'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dfsqc" / "cli.py").is_file():
        print(f"error: no dfsqc sources under {SRC}", file=sys.stderr)
        return 2
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {w: measure(w, args) for w in workloads}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
