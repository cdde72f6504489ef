"""Job lists and output oracles of the three workloads.

A job is one ``pearl-floer`` invocation with ``--format json``.  A pass is
the workload's fixed job list in a seeded order; a run repeats passes.
Every job carries an oracle that reads the exit code, the JSON report and
the error text, and returns ``None`` when the output is right or a short
reason when it is not.  Nothing here imports ``pearl_floer``: the oracles
hold their own constants, so a change to the program cannot move them.

Why these workloads:

* ``sphere_analyze``: the multi-chart sphere atlas puts the time in
  sampling, the primitive pass and geom frames, growing with n; costly
  callbacks; the GF(2) layer idles.
* ``box_analyze``: BoxChart grids have about two edges per sample, many
  mesh loops, a broad phase whose close pairs are all dropped by diagonal
  suppression, no Newton refinement and tiny frames; cheap but frequent
  callbacks.  The circle and cylinder jobs exercise the grading and
  exactness gates (exit 1).
* ``datum_algebra``: generated FLD datums of a few hundred to 2000
  generators; cohomology and spectral pages read columns, chain-map and
  mapping-cone checks build matrices; immersion idles.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import gen_datums

#: The documented default ``--tol-exact`` of ``analyze``.
TOL_EXACT = 1e-8
#: Double points must sit at the model's crossing within this distance.
TOL_POINT = 1e-8
#: Sphere double-point actions must be +-1 within this.
TOL_ACTION = 1e-6

#: A run times at least this many jobs, so the tail percentile below has
#: at least ten jobs beyond it.
MIN_JOBS = 40
#: ``job_tail_ref`` is this percentile of the per-job times in refs.
TAIL_PERCENTILE = 75

Oracle = Callable[[int, Optional[dict], str], Optional[str]]


@dataclass
class Job:
    label: str
    argv: list[str]
    oracle: Oracle
    models: tuple[tuple[str, Optional[int]], ...] = ()


# ---------------------------------------------------------------------------
# oracles


def _records(payload: dict) -> list[dict]:
    return [r for point in payload["double_points"] for r in point["records"]]


def _point_norm(point: dict) -> float:
    return math.sqrt(sum(re * re + im * im for re, im in point["point"]))


def _analyze_common(code: int, payload: Optional[dict]) -> Optional[str]:
    if code != 0:
        return f"exit {code}, expected 0"
    if payload is None:
        return "no JSON report"
    if not payload["exactness_residual"] <= TOL_EXACT:
        return f"exactness residual {payload['exactness_residual']} > {TOL_EXACT}"
    return None


def sphere_oracle(n: int, export: Optional[Path]) -> Oracle:
    def check(code: int, payload: Optional[dict], err: str) -> Optional[str]:
        bad = _analyze_common(code, payload)
        if bad:
            return bad
        points = payload["double_points"]
        if len(points) != 1:
            return f"{len(points)} double points, expected 1"
        if _point_norm(points[0]) > TOL_POINT:
            return f"double point {points[0]['point']} is not at the origin"
        records = _records(payload)
        indices = sorted(r["index"] for r in records)
        if indices != [-1, n + 1]:
            return f"indices {indices}, expected [-1, {n + 1}]"
        actions = sorted(r["action"] for r in records)
        if len(actions) != 2 or any(
            abs(a - want) > TOL_ACTION for a, want in zip(actions, (-1.0, 1.0))
        ):
            return f"actions {actions}, expected -1 and 1"
        if export is not None:
            try:
                written = json.loads(export.read_text(encoding="utf-8"))
            except (OSError, ValueError) as err_:
                return f"export unreadable: {err_}"
            if written != payload["datum"]:
                return "exported datum differs from the reported one"
        return None

    return check


def flat_oracle(code: int, payload: Optional[dict], err: str) -> Optional[str]:
    bad = _analyze_common(code, payload)
    if bad:
        return bad
    if payload["double_points"]:
        return f"{len(payload['double_points'])} double points, expected none"
    return None


def figure_eight_oracle(code: int, payload: Optional[dict], err: str) -> Optional[str]:
    bad = _analyze_common(code, payload)
    if bad:
        return bad
    points = payload["double_points"]
    if len(points) != 1:
        return f"{len(points)} double points, expected 1"
    if _point_norm(points[0]) > TOL_POINT:
        return f"double point {points[0]['point']} is not at 0"
    return None


def gate_oracle(phrase: str) -> Oracle:
    """Exit 1 with an error naming the failed gate."""

    def check(code: int, payload: Optional[dict], err: str) -> Optional[str]:
        if code != 1:
            return f"exit {code}, expected 1"
        if phrase not in err:
            return f"error does not say {phrase!r}: {err.strip()[:200]}"
        return None

    return check


def homology_oracle(expected: dict) -> Oracle:
    def check(code: int, payload: Optional[dict], err: str) -> Optional[str]:
        if code != 0 or payload is None:
            return f"exit {code}, expected 0: {err.strip()[:200]}"
        if payload["generators"] != expected["generators"]:
            return f"{payload['generators']} generators, expected {expected['generators']}"
        if payload["ranks"] != expected["ranks"]:
            return f"ranks {payload['ranks']}, expected {expected['ranks']}"
        if payload["total_rank"] != sum(expected["ranks"].values()):
            return "total rank disagrees with the ranks"
        return None

    return check


def spectral_oracle(expected: dict) -> Oracle:
    def check(code: int, payload: Optional[dict], err: str) -> Optional[str]:
        want_code = 0 if expected["rank_inequality"]["holds"] else 1
        if code != want_code or payload is None:
            return f"exit {code}, expected {want_code}: {err.strip()[:200]}"
        if payload["rank_inequality"] != expected["rank_inequality"]:
            return f"rank inequality {payload['rank_inequality']}, expected {expected['rank_inequality']}"
        if payload["pages"][0] != expected["e0"]:
            return "E_0 differs from the generator counts per (level, degree)"
        by_degree: dict[str, int] = {}
        for key, rank in payload["e_infinity"].items():
            p, q = (int(v) for v in key.split(","))
            by_degree[str(p + q)] = by_degree.get(str(p + q), 0) + rank
        want = {k: v for k, v in expected["ranks"].items() if v}
        if by_degree != want:
            return f"E_inf by degree {by_degree}, expected {want}"
        return None

    return check


def verify_map_oracle(expected: dict) -> Oracle:
    def check(code: int, payload: Optional[dict], err: str) -> Optional[str]:
        if code != 0 or payload is None:
            return f"exit {code}, expected 0: {err.strip()[:200]}"
        for key in ("chain_map", "quasi_isomorphism"):
            if payload[key] != expected[key]:
                return f"{key} {payload[key]}, expected {expected[key]}"
        return None

    return check


# ---------------------------------------------------------------------------
# job lists


def _analyze(model: str, dim: Optional[int], res: int, rng: random.Random, *extra: str) -> list[str]:
    argv = ["analyze", "--model", model, "--resolution", str(res)]
    if dim is not None:
        argv += ["--dim", str(dim)]
    return argv + ["--seed", str(rng.randrange(1 << 16)), *extra, "--format", "json"]


# Each full job list has 13 job types, an odd number: with whole passes
# the median and the 75th percentile then fall inside one job type's block
# of sorted latencies, not on the edge between two types.


def sphere_jobs(rng: random.Random, workdir: Path, smoke: bool) -> list[Job]:
    if smoke:
        grid = [(2, 16), (3, 16)]
    else:
        grid = [(n, 16) for n in range(2, 8)] + [(n, 24) for n in range(2, 9)]
    exported = set(rng.sample(range(len(grid)), 2))
    jobs = []
    for k, (n, res) in enumerate(grid):
        export = workdir / f"sphere-{n}-{res}.fld" if k in exported else None
        extra = ("--export", str(export)) if export else ()
        jobs.append(
            Job(
                label=f"sphere n={n} res={res}",
                argv=_analyze("sphere", n, res, rng, *extra),
                oracle=sphere_oracle(n, export),
                models=(("sphere", n),),
            )
        )
    return jobs


#: (model, dim, resolution) of the box_analyze jobs; circle and cylinder
#: jobs must stop at their gate.
BOX_GRID = (
    ("flat", 1, 256), ("flat", 1, 512), ("flat", 1, 1024),
    ("flat", 2, 16), ("flat", 2, 20), ("flat", 2, 24), ("flat", 3, 8),
    ("figure_eight", None, 512), ("figure_eight", None, 2048),
    ("circle", None, 64), ("circle", None, 256),
    ("cylinder", None, 8), ("cylinder", None, 16),
)
BOX_SMOKE = (
    ("flat", 1, 64), ("figure_eight", None, 64), ("circle", None, 32), ("cylinder", None, 8),
)


def box_jobs(rng: random.Random, workdir: Path, smoke: bool) -> list[Job]:
    jobs = []
    for model, dim, res in BOX_SMOKE if smoke else BOX_GRID:
        extra: tuple[str, ...] = ()
        if model == "flat":
            oracle = flat_oracle
        elif model == "figure_eight":
            oracle = figure_eight_oracle
        elif model == "circle":
            # The circle fails exactness before grading; a loose --tol-exact
            # (its loop bounds area pi) lets it reach the grading gate,
            # where its phase winds twice.
            extra = ("--tol-exact", "4")
            oracle = gate_oracle("not gradable")
        else:
            oracle = gate_oracle("not exact")
        label = f"{model} n={dim} res={res}" if dim else f"{model} res={res}"
        jobs.append(Job(label, _analyze(model, dim, res, rng, *extra), oracle, ((model, dim),)))
    return jobs


#: (subcommand, datum size in generators, map kind).  The quasi-isomorphism
#: check at 2000 generators builds a 4000-generator cone that takes seconds,
#: so only the broken map (rejected before any cone) runs at that size.
DATUM_GRID = (
    ("homology", 250, None), ("homology", 500, None),
    ("homology", 1000, None), ("homology", 2000, None),
    ("spectral", 250, None), ("spectral", 500, None),
    ("spectral", 1000, None), ("spectral", 2000, None),
    ("verify-map", 500, "identity"), ("verify-map", 250, "homotopy"),
    ("verify-map", 1000, "homotopy"), ("verify-map", 500, "broken"),
    ("verify-map", 2000, "broken"),
)
DATUM_SMOKE = (
    ("homology", 60, None), ("spectral", 60, None), ("verify-map", 60, "identity"),
    ("verify-map", 60, "homotopy"), ("verify-map", 60, "broken"),
)
DATUM_DIM = 5


def datum_jobs(rng: random.Random, workdir: Path, smoke: bool) -> list[Job]:
    grid = DATUM_SMOKE if smoke else DATUM_GRID
    expected = {
        size: gen_datums.write_inputs(workdir, f"d{size}", rng.randrange(1 << 30), size, DATUM_DIM)
        for size in sorted({size for _cmd, size, _kind in grid})
    }
    jobs = []
    for command, size, kind in grid:
        want = expected[size]
        if command == "homology":
            argv, oracle = ["homology", want["file"]], homology_oracle(want)
        elif command == "spectral":
            argv, oracle = ["spectral", want["file"]], spectral_oracle(want)
        else:
            verdict = want["maps"][kind]
            argv = ["verify-map", want["file"], verdict["target"], verdict["map"]]
            oracle = verify_map_oracle(verdict)
        label = f"{command} {kind} {size}" if kind else f"{command} {size}"
        jobs.append(Job(label, argv + ["--format", "json"], oracle))
    return jobs


JOB_LISTS = {
    "sphere_analyze": sphere_jobs,
    "box_analyze": box_jobs,
    "datum_algebra": datum_jobs,
}
WORKLOADS = tuple(JOB_LISTS)


def build_pass(workload: str, rng: random.Random, workdir: Path, smoke: bool) -> list[Job]:
    """One pass of the workload's job list, in a seeded order.

    Input and export files go to ``workdir``, which the caller removes after
    the pass.  Datum inputs are generated afresh for every pass, so no pass
    repeats another's inputs.
    """
    jobs = JOB_LISTS[workload](rng, workdir, smoke)
    rng.shuffle(jobs)
    return jobs


def models_used(workload: str, smoke: bool) -> list[tuple[str, Optional[int]]]:
    """The (model, dim) pairs whose ``get_model`` set-up the workload pays."""
    if workload == "datum_algebra":
        return []  # building its job list writes input files; it uses no model
    jobs = JOB_LISTS[workload](random.Random(0), Path("unused"), smoke)
    return sorted({m for job in jobs for m in job.models}, key=str)
