"""One workload in one fresh interpreter; started by ``run.py``.

The closed loop has one client: jobs run one after another through
``pearl_floer.cli.main`` in this process, with stdout and stderr captured.
A pass is the workload's fixed job list; passes repeat until the next one
would end after ``--seconds`` (but at least ``jobs.MIN_JOBS`` jobs are
timed).  Oracles run after each pass, outside its wall time.

Job times are reported in refs: a job's seconds over the seconds of a
fixed pure-Python loop (``reference``) run just before and just after it.
The loop is benchmark code, so no change to the program moves it, and it
runs at whatever speed the host gives this process at that moment.

Without ``--trace`` fresh interpreters (``setup_probe.py``) time the
program's set-up after every pass, so that the set-up probes are spread
over the run like the jobs.

With ``--trace 1`` untraced and traced passes alternate on the same job
list, and the per-layer metrics come from the traced ones.

The last line of stdout is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs as joblist
import spans

ROOT = Path(__file__).resolve().parent.parent
#: Simpson steps per cell when integrating the Harrell-Davis weights.
HD_CELL_STEPS = 16
#: Iterations of the reference loop (one ref); about 8 ms on the host
#: named in README.md.
REF_ITERATIONS = 40_000
#: Set-up probes started after each untraced pass.
SETUP_PROBES_PER_PASS = 3


def load_cli():
    """Import the CLI from ``src/`` of the checkout (set-up is timed by
    ``setup_probe.py``, not here)."""
    from pearl_floer import cli

    src = (ROOT / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        sys.exit(f"pearl_floer was imported from {cli.__file__}, not from {src}")
    return cli


def reference() -> float:
    """Seconds taken by the reference loop: integer, float and dict work
    in the interpreter, as in the program's own Python code."""
    start = time.perf_counter()
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(REF_ITERATIONS):
        acc += (i * i % 7) * 0.5
        table[i & 1023] = acc
    return time.perf_counter() - start


def setup_seconds(workload: str, smoke: bool) -> float:
    """Set-up time of one fresh start of the program (``setup_probe.py``)."""
    models = [
        f"{name}:{'' if dim is None else dim}"
        for name, dim in joblist.models_used(workload, smoke)
    ]
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("setup_probe.py")), *models],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
    )
    return float(proc.stdout.strip())


def run_job(main, job: joblist.Job) -> tuple[float, int, str, str]:
    """(seconds, exit code, stdout, stderr) of one job."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(job.argv)
        except SystemExit as exc:  # argparse rejects arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed job, not a failed run
            code = -1
            print(f"{type(exc).__name__}: {exc}", file=err)
        seconds = time.perf_counter() - start
    return seconds, code, out.getvalue(), err.getvalue()


def hd_quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of all order statistics with Beta(p(n+1), (1-p)(n+1))
    weights.  Job latencies cluster by job type and the host's speed flips
    between states within a run, so a single order statistic jumps between
    clusters; this estimate moves smoothly instead.  The weights are the
    Beta mass of each cell [i/n, (i+1)/n], by Simpson's rule.
    """
    x = sorted(values)
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def pdf(t: float) -> float:
        if not 0.0 < t < 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))

    h = 1.0 / (n * HD_CELL_STEPS)
    weights = []
    for i in range(n):
        lo = i / n
        inner = sum((4 if k % 2 else 2) * pdf(lo + k * h) for k in range(1, HD_CELL_STEPS))
        weights.append((pdf(lo) + inner + pdf(lo + HD_CELL_STEPS * h)) * h / 3)
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


def check(job: joblist.Job, code: int, out: str, err: str) -> str | None:
    try:
        payload = json.loads(out) if out.strip() else None
    except ValueError:
        payload = None
    try:
        return job.oracle(code, payload, err)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        return f"report does not have the expected shape: {exc!r}"


class Loop:
    def __init__(self, args, cli):
        self.args = args
        self.cli = cli
        self.rng = random.Random(args.seed)
        self.workdir = Path(args.workdir)
        self.passes = 0
        self.inputs_s = 0.0
        self.timed: list[tuple[str, int, float, float]] = []  # (label, pass, seconds, refs)
        self.walls: list[float] = []
        self.setups: list[float] = []
        self.ok = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.jobs_run = 0
        self.mesh_counts: dict[str, float | None] = {"samples": 0, "edges": 0, "double_points": 0}
        self.mesh_jobs: set[int] = set()  # traced jobs whose reports gave mesh counts

    def build(self) -> tuple[list[joblist.Job], Path]:
        pass_dir = self.workdir / f"pass{self.passes}"
        pass_dir.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        pass_jobs = joblist.build_pass(self.args.workload, self.rng, pass_dir, self.args.smoke)
        self.inputs_s += time.perf_counter() - start
        self.passes += 1
        return pass_jobs, pass_dir

    def run(
        self, pass_jobs, main, record: bool, tracer: spans.Tracer | None = None
    ) -> tuple[float, float]:
        """Run one pass; returns its wall time and its jobs' time in refs.
        Oracles run afterwards."""
        results = []
        first_id = self.jobs_run
        start = time.perf_counter()
        before = reference()
        for job in pass_jobs:
            if tracer is not None:
                tracer.job = self.jobs_run
            self.jobs_run += 1
            seconds, code, out, err = run_job(main, job)
            after = reference()
            results.append((seconds, seconds / ((before + after) / 2), code, out, err))
            before = after
        wall = time.perf_counter() - start
        for job_id, job, (seconds, refs, code, out, err) in zip(
            range(first_id, self.jobs_run), pass_jobs, results
        ):
            reason = check(job, code, out, err)
            self.attempted += 1
            if reason is None:
                self.ok += 1
            elif len(self.failures) < 20:
                self.failures.append(f"{job.label}: {reason}")
            if record:
                self.timed.append((job.label, self.passes, seconds, refs))
            if tracer is not None and job.argv[0] == "analyze" and code == 0:
                self._count_mesh(out)
                self.mesh_jobs.add(job_id)
        if record:
            self.walls.append(wall)
        return wall, sum(result[1] for result in results)

    def _count_mesh(self, out: str) -> None:
        try:
            report = json.loads(out)
            found = {
                "samples": report["samples"],
                "edges": report["edges"],
                "double_points": len(report["double_points"]),
            }
        except (ValueError, KeyError, TypeError):
            found = {}
        for name in self.mesh_counts:
            if name in found and self.mesh_counts[name] is not None:
                self.mesh_counts[name] += found[name]
            else:
                self.mesh_counts[name] = None


def warm_up(loop: Loop) -> int:
    """Run one job untimed, so first-call costs of the process are paid;
    returns the number of jobs in a pass."""
    warm, warm_dir = loop.build()
    run_job(loop.cli.main, warm[0])
    shutil.rmtree(warm_dir)
    loop.passes = 0
    loop.inputs_s = 0.0
    return len(warm)


def measure(loop: Loop) -> dict:
    """Untraced passes; end-to-end metrics."""
    args, main = loop.args, loop.cli.main
    per_pass = warm_up(loop)
    min_passes = 1 if args.smoke else -(-joblist.MIN_JOBS // per_pass)
    while True:
        pass_jobs, pass_dir = loop.build()
        loop.run(pass_jobs, main, record=True)
        shutil.rmtree(pass_dir)
        for _ in range(1 if args.smoke else SETUP_PROBES_PER_PASS):
            loop.setups.append(setup_seconds(args.workload, args.smoke))
        if loop.passes >= min_passes and sum(loop.walls) + max(loop.walls) > args.seconds:
            break
    refs = [refs for _label, _pass, _seconds, refs in loop.timed]
    return {
        "jobs_per_kref": 1000.0 * loop.ok / sum(refs),
        "job_p50_ref": hd_quantile(refs, 0.5),
        "job_tail_ref": hd_quantile(refs, joblist.TAIL_PERCENTILE / 100),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": loop.ok / loop.attempted,
        "setup_s": statistics.median(loop.setups),
    }


def measure_traced(loop: Loop) -> tuple[dict, dict]:
    """Untraced and traced passes on the same job list, alternating which
    runs first.  The run length counts wall time, the overhead refs."""
    args, cli = loop.args, loop.cli
    warm_up(loop)
    tracer = spans.Tracer()
    traced_main = tracer.span("cli.main", cli.main)
    wall = 0.0
    refs = {"plain": 0.0, "traced": 0.0}
    pairs = 0
    while True:
        pass_jobs, pass_dir = loop.build()
        for turn in ("plain", "traced") if pairs % 2 == 0 else ("traced", "plain"):
            if turn == "plain":
                timing = loop.run(pass_jobs, cli.main, record=False)
            else:
                tracer.install()
                try:
                    timing = loop.run(pass_jobs, traced_main, record=False, tracer=tracer)
                finally:
                    tracer.uninstall()
            wall += timing[0]
            refs[turn] += timing[1]
        shutil.rmtree(pass_dir)
        pairs += 1
        if args.smoke or wall + wall / pairs > args.seconds:
            break
    metrics = spans.layer_metrics(
        tracer,
        passes=pairs,
        mesh_counts=loop.mesh_counts,
        mesh_jobs=loop.mesh_jobs,
        inputs_s=loop.inputs_s / loop.passes,
        overhead_frac=refs["traced"] / refs["plain"] - 1.0,
    )
    return metrics, tracer.dump()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=joblist.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", default=str(ROOT / ".perfbench_out" / "work"))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    cli = load_cli()
    import numpy

    loop = Loop(args, cli)
    result: dict = {}
    if args.trace:
        result["metrics"], result["trace"] = measure_traced(loop)
    else:
        result["metrics"] = measure(loop)
        result["jobs_timed"] = len(loop.timed)
        result["latencies"] = loop.timed
        result["setups"] = loop.setups
        seconds = [seconds for _label, _pass, seconds, _refs in loop.timed]
        result["seconds"] = {
            "jobs_per_s": loop.ok / sum(loop.walls),
            "job_p50_s": hd_quantile(seconds, 0.5),
            "job_tail_s": hd_quantile(seconds, joblist.TAIL_PERCENTILE / 100),
        }
    result.update(
        attempted=loop.attempted,
        failed=loop.attempted - loop.ok,
        failures=loop.failures,
        passes=loop.passes,
        python=sys.version.split()[0],
        numpy=numpy.__version__,
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
