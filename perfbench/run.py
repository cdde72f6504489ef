"""Benchmark of pearl-floer: three workloads through ``pearl_floer.cli.main``.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sphere_analyze --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload datum_algebra --seed 1 --seconds 55 --trace 1
    python3 perfbench/run.py --seconds 55       # every declared workload in turn
    python3 perfbench/run.py --smoke            # every workload, tiny, checked

Workloads: ``sphere_analyze`` and ``datum_algebra``, which
``BENCHMARK.json`` declares, and ``box_analyze``, which runs only when
named (see ``jobs.py``).  The program is imported from ``src/`` of the
checkout; the run fails, printing no result, when that tree is missing.

Each workload runs in a fresh interpreter (``worker.py``) with
``PEARL_FLOER_THREADS``, ``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS`` and
``MKL_NUM_THREADS`` set to 1 and ``PYTHONHASHSEED`` fixed.  ``setup_s`` is
the median over fresh interpreters (``setup_probe.py``), three after each
pass, of importing ``pearl_floer.cli`` and building the workload's models.
Job times are in refs (see ``worker.py``).

With ``--trace 0`` the last line of stdout carries the end-to-end metrics,
with ``--trace 1`` the per-layer ones (``null`` marks a metric whose
wrapped name no longer exists).  The line before it records the machine.
Full results and traces go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

from jobs import TAIL_PERCENTILE, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

#: Wall-clock limit of one run, worker and probes together.
RUN_LIMIT_S = 170.0

PINNED_ENV = {
    "PEARL_FLOER_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(Exception):
    pass


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _child_env() -> dict:
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _run_worker(extra: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *extra]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"worker timed out: {' '.join(extra)}") from err
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as err:
        raise BenchError(f"worker printed no result: {proc.stdout[-500:]!r}") from err


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _caches() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level = _read(index / "level")
        kind = _read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            out[f"L{level}"] = _read(index / "size")
    return out


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    head = _read(git / "HEAD")
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    sha = _read(git / ref)
    if sha:
        return sha
    for line in _read(git / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def machine(worker: dict) -> dict:
    return {
        "python": worker.get("python", platform.python_version()),
        "numpy": worker.get("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "git_commit": _git_commit(),
        "env": PINNED_ENV,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> tuple[dict, dict]:
    """(result line, full record) of one run."""
    if not (ROOT / "src" / "pearl_floer" / "cli.py").is_file():
        raise BenchError(f"no pearl_floer sources under {ROOT / 'src'}")
    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    common = ["--workload", workload, "--seed", str(seed), "--workdir", str(workdir)]
    if smoke:
        common.append("--smoke")
    try:
        worker = _run_worker(
            common + ["--seconds", str(seconds), "--trace", str(trace)], deadline
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = worker["metrics"]
    spec = _spec()
    declared = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise BenchError(
            f"metric names differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}"
        )
    line = {
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": machine(worker),
        "passes": worker["passes"],
        "jobs_timed": worker.get("jobs_timed"),
        "job_tail_percentile": TAIL_PERCENTILE,
        "failures": worker["failures"],
        "latencies": worker.get("latencies"),
        "setups": worker.get("setups"),
        "seconds": worker.get("seconds"),
        "unmeasured": sorted(n for n, v in metrics.items() if v is None),
        "result": line,
    }
    if trace:
        record["trace"] = worker["trace"]
    return line, record


def smoke() -> int:
    """Every workload at a tiny size, both modes; every oracle must pass."""
    bad = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            try:
                line, record = run_workload(workload, 1, 1.0, trace, smoke=True)
            except BenchError as err:
                print(f"{workload} trace={trace}: {err}", file=sys.stderr)
                bad += 1
                continue
            ok = line["correct"] and not record["unmeasured"]
            print(f"{workload} trace={trace}: {'ok' if ok else 'FAILED'} "
                  f"({line['attempted']} jobs) {record['failures'] or ''}")
            bad += not ok
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="default: every workload BENCHMARK.json declares")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    declared = [w["name"] for w in _spec()["workloads"]]
    for workload in [args.workload] if args.workload else declared:
        try:
            line, record = run_workload(workload, args.seed, args.seconds, args.trace, smoke=False)
        except BenchError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        OUT.mkdir(exist_ok=True)
        name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
        (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        keys = ("workload", "machine", "passes", "jobs_timed", "job_tail_percentile", "seconds",
                "failures", "unmeasured")
        print(json.dumps({k: record[k] for k in keys}))
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
