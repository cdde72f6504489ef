"""Tests of the benchmark itself: ``python3 -m pytest perfbench``.

They are kept out of the repository's main suite (``tests/``) because the
smoke run starts several interpreters.
"""

from __future__ import annotations

import json
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gen_datums  # noqa: E402
import jobs  # noqa: E402
import spans  # noqa: E402
from worker import hd_quantile  # noqa: E402


def test_hd_quantile_agrees_with_order_statistics():
    rng = random.Random(3)
    values = [rng.gauss(0.0, 1.0) for _ in range(4001)]
    assert abs(hd_quantile(values, 0.5) - statistics.median(values)) < 0.02
    upper = statistics.quantiles(values, n=4)[2]
    assert abs(hd_quantile(values, 0.75) - upper) < 0.02
    assert hd_quantile([0.25] * 9, 0.75) == pytest.approx(0.25)


def test_generator_is_deterministic(tmp_path):
    a = gen_datums.write_inputs(tmp_path / "a", "d", 7, 300, 5)
    b = gen_datums.write_inputs(tmp_path / "b", "d", 7, 300, 5)
    assert {k: v for k, v in a.items() if k not in ("file", "maps")} == {
        k: v for k, v in b.items() if k not in ("file", "maps")
    }
    for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("seed", range(5))
def test_generated_answers_match_an_independent_elimination(seed):
    """The closed-form expectations agree with GF(2) elimination."""
    from pearl_floer.fileformat import datum_from_dict
    from pearl_floer.floer import floer_cohomology, validate_datum

    fld, expected = gen_datums.build_datum(seed, 200, 4)
    datum = datum_from_dict(fld)
    assert validate_datum(datum).ok
    ranks = {str(k): v for k, v in sorted(floer_cohomology(datum).items())}
    assert ranks == expected["ranks"]


def test_every_oracle_passes_in_smoke_mode():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count(": ok") == 2 * len(jobs.WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "datum_algebra",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_a_missing_name_is_unmeasured(monkeypatch):
    monkeypatch.setitem(spans.SPANS, "immersion.probe", ("pearl_floer.cli:no_such_name",))
    from pearl_floer import cli

    tracer = spans.Tracer()
    tracer.install()
    try:
        main = tracer.span("cli.main", cli.main)
        job = jobs.box_jobs(random.Random(0), Path("unused"), smoke=True)[0]
        assert main(job.argv) == 0
    finally:
        tracer.uninstall()
    assert tracer.skipped == ["pearl_floer.cli:no_such_name"]
    metrics = spans.layer_metrics(
        tracer, passes=1, mesh_counts={}, mesh_jobs=set(), inputs_s=0.0, overhead_frac=0.0
    )
    assert metrics["immersion.probe.self_s"] is None
    assert metrics["immersion.primitive.self_s"] > 0
    assert metrics["callbacks.calls.primitive"] > 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(metrics) == {m["name"] for m in declared}
