"""The workload process: set up one workload, run it, print raw results.

``run.py`` starts this file in a fresh interpreter; set-up time is
measured from that start until the first job is ready.  Modes:

* ``setup``  -- import the library, write the seeded inputs, stop;
* ``plain``  -- closed loop of untraced passes until ``--seconds`` elapse;
* ``trace``  -- alternate untraced and traced passes, report layer metrics;
* ``record`` -- one untraced pass, print each job's report digest.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

import gate
import jobs as workloads
import tracer as tracing

HERE = Path(__file__).resolve().parent
MIN_JOBS = 100  # untraced jobs per run, so that ten lie beyond the p90


def _load_library(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import ramseykit
    from ramseykit import cli, report, stepup

    if Path(ramseykit.__file__).resolve().parent != (src / "ramseykit").resolve():
        raise SystemExit(f"ramseykit was imported from {ramseykit.__file__}, not {src}")
    return ramseykit, cli, report, stepup


class Runner:
    """Runs jobs in this process and checks each answer."""

    def __init__(self, lib, job_list, digests=None):
        _, self.cli, self.report, self.stepup = lib
        self.jobs = job_list
        self.digests = digests
        self.tracer = None

    def _sweep(self, call):
        stepup = self.stepup
        step, k, n, q, seed, p = call
        base = stepup.random_colouring(k, n, q, seed)
        if step == "up1":
            c = stepup.step_up_1(base, stepup.partition_patterns(k, p))
        else:
            c = stepup.step_up_2(base, p)
        _, hist = stepup.sweep_reachable_colours(c, counts=True)
        return {
            "command": "sweep",
            "colouring": self.report.colouring_spec(c),
            "palette": [stepup.colour_str(x) for x in c.palette()],
            "histogram": {stepup.colour_str(x): str(v) for x, v in sorted(hist.items())},
        }

    def _validate(self, doc):
        try:
            return self.report.validate_witness(doc)
        except Exception as exc:  # a crashing validator rejects the witness
            return False, f"validate raised {exc!r}"

    def run_job(self, index, job):
        """Run one job; returns (latency, problems, report document)."""
        out, err = io.StringIO(), io.StringIO()
        doc = None
        tr = self.tracer
        if tr is not None:
            tr.begin(job.name)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                if job.kind == "sweep":
                    doc = self._sweep(job.call)
                    code = 0
                else:
                    code = self.cli.main(list(job.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = "traceback"
                err.write(traceback.format_exc())
            latency = time.perf_counter() - start
        if tr is not None:
            tr.end()
        if doc is None and code in (0, 1):
            try:
                doc = json.loads(Path(job.output).read_text() if job.output
                                 else out.getvalue())
            except (OSError, ValueError):
                doc = None
        problems = gate.check(job, code, doc, self._validate)
        if code == "traceback" or "Traceback" in err.getvalue():
            problems.append("traceback: " + err.getvalue().strip().splitlines()[-1])
        if doc is not None and self.digests is not None:
            if gate.digest(doc) != self.digests[index]:
                problems.append("report differs from the recorded digest")
        return latency, problems, doc

    def run_pass(self):
        latencies, failures, docs = [], [], []
        for index, job in enumerate(self.jobs):
            latency, problems, doc = self.run_job(index, job)
            latencies.append(latency)
            docs.append(doc)
            if problems:
                failures.append({"job": index, "name": job.name, "problems": problems})
        return latencies, failures, docs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True, help="checkout holding src/ramseykit")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--mode", choices=("setup", "plain", "trace", "record"), default="plain")
    args = ap.parse_args(argv)

    root = Path(args.root).resolve()
    lib = _load_library(root)
    files, job_list = workloads.make_workload(args.workload, args.seed)
    scratch = root / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        for name, text in files.items():
            (workdir / name).write_text(text)
        os.chdir(workdir)
        ready = time.perf_counter()
        if args.mode == "setup":
            result = {"ready": ready}
        else:
            result = _run(args, lib, job_list)
            result["ready"] = ready
    finally:
        os.chdir(root)
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _recorded(seed, workload):
    path = HERE / "digests.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    return table.get(str(seed), {}).get(workload)


def _run(args, lib, job_list):
    digests = None if args.mode == "record" else _recorded(args.seed, args.workload)
    runner = Runner(lib, job_list, digests)
    if args.mode == "record":
        _, failures, docs = runner.run_pass()
        return {"failures": failures,
                "digests": [gate.digest(d) if d is not None else None for d in docs]}

    tr = tracing.Tracer(lib[0]) if args.mode == "trace" else None
    plain, traced, failures = [], [], []
    host_sets = 0
    begin = time.perf_counter()
    while True:
        use_trace = tr is not None and len(traced) < len(plain)
        if use_trace:
            runner.tracer = tr
            tr.install()
        try:
            latencies, fails, docs = runner.run_pass()
        finally:
            if use_trace:
                tr.uninstall()
                runner.tracer = None
        (traced if use_trace else plain).append(latencies)
        failures += fails
        if use_trace:
            host_sets += sum(
                int(d["host_check"]["checked"]) for j, d in zip(job_list, docs)
                if j.name == "host-scan" and d is not None)
        done = (time.perf_counter() - begin >= args.seconds
                and sum(map(len, plain)) >= MIN_JOBS)
        if done and (tr is None or len(traced) == len(plain)):
            break

    result = {
        "plain": plain,
        "traced": traced,
        "failures": failures,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tr is not None:
        result["layers"] = tracing.layer_metrics(
            tr.spans, tr.job_names, len(traced), tr.colour_calls, host_sets)
    return result


if __name__ == "__main__":
    sys.exit(main())
