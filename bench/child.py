"""Benchmark child process: imports dfsqc once and runs scenarios in it.

    python child.py validate <job.json>   check configs, write them as YAML
    python child.py run <job.json>        run scenarios through dfsqc.cli.main

The parent starts the child with ``PYTHONPATH`` pointing at the checkout's
``src`` and BLAS threads pinned to one.  The child prints ``ready`` once
``dfsqc.cli`` is imported, so the parent can time set-up, then writes its
result as JSON to the path named in the job.
"""

from __future__ import annotations

import contextlib
import gc
import gzip
import hashlib
import io
import json
import os
import sys
import time
import traceback
from pathlib import Path

from tracing import ROOT, Tracer, summarize


def versions() -> dict:
    import dfsqc
    import numpy
    import scipy
    import yaml

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "pyyaml": yaml.__version__,
            "dfsqc": dfsqc.__version__,
            "threads_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "MKL_NUM_THREADS")}}


def validate(job: dict) -> dict:
    """Every generated config goes through ScenarioConfig.from_dict first."""
    from dfsqc.config import ScenarioConfig

    out = Path(job["config_dir"])
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for raw in job["configs"]:
        cfg = ScenarioConfig.from_dict(raw)
        path = out / f"{cfg.name}.yaml"
        path.write_text(cfg.to_yaml(), encoding="utf-8")
        paths.append(str(path))
    return {"paths": paths}


def simulate(path: str, out_dir: str, tracer=None) -> dict:
    """One ``dfsqc simulate --check`` call, timed, then its outputs read back."""
    import dfsqc.cli

    argv = ["simulate", path, "--check", "--out", out_dir, "--threads", "1"]
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()):
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                rc = dfsqc.cli.main(argv)
            else:
                rc = tracer.call(ROOT, dfsqc.cli.main, (argv,), {})
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed scenario, not a failed benchmark
            traceback.print_exc()
            rc = -1
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu_start

    name = Path(path).stem
    rec = {"name": name, "rc": rc, "wall": wall, "cpu": cpu, "checks_ok": False,
           "rows": 0, "sha256": None}
    csv = Path(out_dir) / f"{name}.csv"
    manifest = Path(out_dir) / f"{name}.manifest.json"
    if rc == 0 and csv.exists() and manifest.exists():
        data = csv.read_bytes()
        rec["sha256"] = hashlib.sha256(data).hexdigest()
        rec["rows"] = sum(1 for line in data.splitlines()
                          if not line.startswith(b"#")) - 1
        checks = json.loads(manifest.read_text(encoding="utf-8"))["checks"]
        rec["checks_ok"] = bool(checks) and all(c["passed"] for c in checks)
    rec["ok"] = rec["checks_ok"]
    if not rec["ok"]:
        print(f"scenario {name} failed: rc={rc}", file=sys.stderr)
    return rec


def write_spans(path: str, spans):
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def run(job: dict) -> dict:
    """Run scenarios in order until ``seconds`` have passed, at least
    ``min_samples`` have finished and a block of ``block`` is complete.

    Traced jobs run each scenario twice, untraced and traced, alternating
    which goes first; both must write the same CSV bytes.
    """
    out = Path(job["out"])
    tracer = Tracer() if job["trace"] else None
    records = []
    start = time.perf_counter()
    for i, path in enumerate(job["paths"]):
        if (i % job["block"] == 0 and i >= job["min_samples"]
                and time.perf_counter() - start >= job["seconds"]):
            break
        if tracer is None:
            records.append(simulate(path, str(out)))
            continue
        recs = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
                try:
                    recs[traced] = simulate(path, str(out / "traced"), tracer)
                finally:
                    tracer.uninstall()
            else:
                recs[traced] = simulate(path, str(out / "plain"))
        rec = recs[False]
        rec["wall_traced"] = recs[True]["wall"]
        rec["cpu_traced"] = recs[True]["cpu"]
        rec["ok"] = (rec["ok"] and recs[True]["ok"]
                     and rec["sha256"] == recs[True]["sha256"])
        records.append(rec)

    result = {"records": records, "versions": versions()}
    if tracer is not None:
        walls = [rec["wall_traced"] for rec in records]
        metrics, consistent = summarize(tracer.spans, walls, tracer)
        result["layers"] = metrics
        result["trace_consistent"] = consistent
        result["span_count"] = len(tracer.spans)
        write_spans(job["spans"], tracer.spans)
    return result


def main(argv) -> int:
    import dfsqc.cli  # the set-up every CLI user pays; the parent times it

    print("ready", flush=True)
    mode, job_path = argv
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    src = Path(job["src"]).resolve()
    if src not in Path(dfsqc.__file__).resolve().parents:
        print(f"error: dfsqc was imported from {dfsqc.__file__}, not {src}",
              file=sys.stderr)
        return 2
    result = validate(job) if mode == "validate" else run(job)
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
