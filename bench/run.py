"""ramseykit benchmark: seeded closed-loop workloads with checked outputs.

Run from the root of a checkout:

    python3 bench/run.py --workload tower --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all        # every workload, one table

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: end-to-end metrics
with ``--trace 0`` and per-layer metrics with ``--trace 1``.  See
``bench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from jobs import DEFAULT_SEED, SECOND_SEED, WORKLOADS  # noqa: E402

# fresh processes per run that only set up, half before and half after the
# measured loop, so that set-up time is sampled at both ends of the run
SETUP_PROBES = 8
DEADLINE_S = 170  # a run must end within 180 s


def _units(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_speedup")) or name.startswith("share."):
        return "ratio"
    return "count"


def _commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def reference_loop_s() -> float:
    """Time of a fixed pure-Python loop: spots a slowed host, never used to
    normalise a metric."""
    start = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x = (x * 31 + i) % 1_000_003
    return time.perf_counter() - start


def machine_record() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _commit(ROOT),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "reference_loop_s": reference_loop_s(),
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"  # same set iteration order in every run
    env.pop("RAMSEY_BUDGET", None)  # the program gets only argv and files
    return env


def _worker(workload, seed, mode, seconds, timeout):
    """Start a fresh worker; returns (its JSON result, seconds to ready)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--seconds", str(seconds)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=_child_env(),
                          cwd=ROOT, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["ready"] - start


def end_to_end(result, setups) -> dict:
    """End-to-end metrics from the untraced passes of one run."""
    lat = [x for p in result["plain"] for x in p]
    return {
        "jobs_per_s": len(lat) / sum(lat),
        "job_p50_s": statistics.median(lat),
        "job_p90_s": statistics.quantiles(lat, n=10)[8],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }


def run_workload(workload, seed, seconds, trace):
    began = time.perf_counter()
    setups = [_worker(workload, seed, "setup", 0, 60)[1] for _ in range(SETUP_PROBES // 2)]
    left = DEADLINE_S - (time.perf_counter() - began)
    result, setup = _worker(workload, seed, "trace" if trace else "plain", seconds, left)
    setups.append(setup)
    setups += [_worker(workload, seed, "setup", 0, 60)[1] for _ in range(SETUP_PROBES // 2)]
    attempted = sum(len(p) for p in result["plain"] + result["traced"])
    failed = len(result["failures"])
    metrics = end_to_end(result, setups)
    if trace:
        layers = result["layers"]
        plain_rate = metrics["jobs_per_s"]
        traced = [x for p in result["traced"] for x in p]
        layers["trace_overhead_frac"] = 1.0 - (len(traced) / sum(traced)) / plain_rate
        metrics = layers
    return {
        "workload": workload,
        "attempted": attempted,
        "failed": failed,
        "failures": result["failures"],
        "jobs_per_pass": len(result["plain"][0]),
        "passes": len(result["plain"]) + len(result["traced"]),
        "metrics": metrics,
    }


def _print_table(res):
    print(f"[{res['workload']}] attempted={res['attempted']} failed={res['failed']} "
          f"error_rate={res['failed'] / res['attempted']:.4f} (of {res['attempted']} jobs) "
          f"jobs_per_pass={res['jobs_per_pass']} passes={res['passes']}")
    for name, value in res["metrics"].items():
        print(f"  {name:42s} {value:14.6g} {_units(name)}")
    for f in res["failures"][:10]:
        print(f"  FAILED job {f['job']} ({f['name']}): {'; '.join(f['problems'])}")


def record_digests():
    """Write bench/digests.json: per-job report digests on the recorded seeds."""
    table = {}
    for seed in (DEFAULT_SEED, SECOND_SEED):
        for workload in WORKLOADS:
            result, _ = _worker(workload, seed, "record", 0, DEADLINE_S)
            if result["failures"]:
                raise SystemExit(f"{workload} seed {seed}: {result['failures']}")
            table.setdefault(str(seed), {})[workload] = result["digests"]
    (HERE / "digests.json").write_text(json.dumps(table, indent=1) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="re-record the report digests of the recorded seeds")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ramseykit" / "__init__.py").is_file():
        print(f"error: no ramseykit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_digests:
        record_digests()
        return 0

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for workload in names:
        print("machine " + json.dumps(machine_record()), flush=True)
        res = run_workload(workload, args.seed, args.seconds, args.trace)
        _print_table(res)
        results.append(res)
    if args.workload == "all":
        return 0 if all(r["failed"] == 0 for r in results) else 1
    res = results[0]
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": _units(name)}
                    for name, value in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
