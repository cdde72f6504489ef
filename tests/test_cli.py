"""Command-line behaviour: reports, round-trips, exit codes, determinism."""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import pearl_floer
from pearl_floer import cli, floer, immersion, models
from pearl_floer.cli import main
from pearl_floer.fileformat import dumps_datum, load_datum, save_datum
from pearl_floer.floer import FloerDatum, Generator
from pearl_floer.immersion import BoxChart
from pearl_floer.sphere import sphere_datum

SRC = Path(pearl_floer.__file__).resolve().parents[1]
ROOT = SRC.parent
MESH_MODULES = tuple(f"pearl_floer.{name}" for name in ("geom", "immersion", "models", "sphere"))

INVALID = FloerDatum(
    ambient_dim=2,
    generators=(Generator("p", "pair", 3, action=1.0, partner="p"),),
    differential=(),
)
INVALID_STDERR = (
    "datum validation failed:\n  - pair generator 'p' is partnered with itself\n"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_sphere_reports_indices_and_actions(capsys):
    code, out, _ = run(
        capsys, "analyze", "--model", "sphere", "--dim", "3", "--resolution", "32"
    )
    assert code == 0
    assert "double points: 1" in out
    assert "index 4" in out
    assert "index -1" in out
    assert "note:" in out


def test_analyze_json_payload(capsys):
    code, out, _ = run(
        capsys,
        "analyze",
        "--model",
        "sphere",
        "--dim",
        "2",
        "--resolution",
        "32",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ambient_dim"] == 2
    records = payload["double_points"][0]["records"]
    assert [r["index"] for r in records] == [3, -1]
    assert records[0]["action"] == pytest.approx(1.0, abs=1e-8)
    assert payload["frame_probe"]["max_angle_deviation"] < 1e-9
    gen_ids = [g["id"] for g in payload["datum"]["generators"]]
    assert gen_ids == ["dp0ab", "dp0ba", "max", "min"]


def test_analyze_output_is_deterministic(capsys):
    args = ("analyze", "--model", "figure_eight", "--resolution", "64")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_same_seed_gives_the_same_frame_probe(capsys):
    args = ("analyze", "--model", "sphere", "--dim", "3", "--resolution", "16",
            "--seed", "5", "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert json.loads(out1)["frame_probe"]["seed"] == 5
    assert out1 == out2


def test_analyze_circle_exits_one(capsys):
    code, _, err = run(capsys, "analyze", "--model", "circle")
    assert code == 1
    assert "not exact" in err


def test_analyze_unknown_model_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["analyze", "--model", "torus"])
    assert info.value.code == 2


def test_analyze_fixed_dimension_mismatch(capsys):
    code, _, err = run(capsys, "analyze", "--model", "circle", "--dim", "2")
    assert code == 2
    assert "fixed ambient dimension" in err


def test_analyze_require_strong(capsys):
    code, out, _ = run(
        capsys,
        "analyze",
        "--model",
        "sphere",
        "--dim",
        "3",
        "--resolution",
        "32",
        "--require-strong",
    )
    assert code == 0
    assert "positivity (strong): ok" in out
    # the curve's positive pair sits in degree 2, below the strong threshold 3
    code, out, _ = run(
        capsys,
        "analyze",
        "--model",
        "figure_eight",
        "--resolution",
        "64",
        "--require-strong",
    )
    assert code == 1
    assert "positivity (strong): FAILED" in out


def test_analyze_export_writes_datum(capsys, tmp_path):
    target = tmp_path / "eight.fld"
    code, out, _ = run(
        capsys,
        "analyze",
        "--model",
        "figure_eight",
        "--resolution",
        "64",
        "--export",
        str(target),
    )
    assert code == 0
    datum = load_datum(target)
    assert sorted(g.id for g in datum.generators) == ["dp0ab", "dp0ba"]


@pytest.mark.parametrize(
    "argv",
    [
        ["export", "--model", "sphere", "--dim", "2"],
        ["analyze", "--model", "sphere", "--dim", "2", "--resolution", "16", "--export"],
    ],
    ids=["export", "analyze"],
)
def test_unwritable_export_path_exits_2_with_one_error_line(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    target = "./missing/x.fld"  # quoted as given, leading "./" included
    code, out, err = run(capsys, *argv, target)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert err.endswith(f"'{target}'\n"), err
    assert err.count("\n") == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_analyzed_sphere_datum_carries_its_strips(capsys, tmp_path, n):
    path = tmp_path / "s.fld"
    argv = ("--model", "sphere", "--dim", str(n), "--resolution", "16")
    code, out, _ = run(capsys, "analyze", *argv, "--export", str(path))
    assert code == 0
    assert set(load_datum(path).differential) == {("dp0ba", "min"), ("max", "dp0ab")}
    code, out, _ = run(capsys, "homology", str(path), "--format", "json")
    assert (code, json.loads(out)["total_rank"]) == (0, 0)
    code, out, _ = run(capsys, "spectral", str(path))
    assert code == 0
    assert out.splitlines()[-1] == "rank inequality: 2 >= 2 - 0 (holds)"


def test_export_then_homology_round_trip(capsys, tmp_path):
    path = tmp_path / "s3.fld"
    code, out, _ = run(capsys, "export", "--model", "sphere", "--dim", "3", str(path))
    assert code == 0
    assert "note:" in out
    code, out, _ = run(capsys, "homology", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ranks"] == {"-1": 0, "0": 0, "3": 0, "4": 0}
    assert payload["total_rank"] == 0


def test_homology_rejects_invalid_datum(capsys, tmp_path):
    path = tmp_path / "bad.fld"
    path.write_text(dumps_datum(INVALID), encoding="utf-8")
    code, _, err = run(capsys, "homology", str(path))
    assert code == 1
    assert "validation failed" in err


def test_invalid_datum_errors_in_every_algebra_subcommand(capsys, tmp_path):
    bad = tmp_path / "bad.fld"
    bad.write_text(dumps_datum(INVALID), encoding="utf-8")
    good = tmp_path / "s2.fld"
    save_datum(sphere_datum(2), good)
    broken_map = tmp_path / "broken.json"
    broken_map.write_text("{", encoding="utf-8")
    for argv in (
        ("homology", str(bad)),
        ("spectral", str(bad)),
        # source, then target, then the map file
        ("verify-map", str(bad), str(good), str(broken_map)),
        ("verify-map", str(good), str(bad), str(broken_map)),
    ):
        assert run(capsys, *argv) == (1, "", INVALID_STDERR)
    code, out, err = run(capsys, "verify-map", str(good), str(good), str(broken_map))
    assert (code, out) == (2, "")
    assert err.startswith("error: not valid JSON:")


def test_each_datum_is_validated_once(capsys, tmp_path, monkeypatch):
    seen = []
    original = floer.validate_datum

    def counting(datum, *args, **kwargs):
        seen.append(datum.ambient_dim)
        return original(datum, *args, **kwargs)

    monkeypatch.setattr(floer, "validate_datum", counting)
    monkeypatch.setattr(cli, "validate_datum", counting)
    s2, s3 = tmp_path / "s2.fld", tmp_path / "s3.fld"
    save_datum(sphere_datum(2), s2)
    save_datum(sphere_datum(3), s3)
    zero_map = tmp_path / "zero.json"
    zero_map.write_text("[]", encoding="utf-8")
    for argv, expected in (
        (("homology", str(s2)), [2]),
        (("spectral", str(s2)), [2]),
        (("verify-map", str(s2), str(s3), str(zero_map)), [2, 3]),
    ):
        seen.clear()
        assert run(capsys, *argv)[0] == 0
        assert seen == expected, argv


def test_homology_rejects_wrong_version(capsys, tmp_path):
    path = tmp_path / "v2.fld"
    data = json.loads(dumps_datum(sphere_datum(2)))
    data["version"] = 2
    path.write_text(json.dumps(data), encoding="utf-8")
    code, _, err = run(capsys, "homology", str(path))
    assert code == 2
    assert "unsupported format version" in err


def test_homology_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "homology", str(tmp_path / "none.fld"))
    assert code == 2
    assert "cannot read" in err


def test_unreadable_files_are_named_as_given(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    save_datum(sphere_datum(2), tmp_path / "s2.fld")
    for argv, missing in (
        (("homology", "./none.fld"), "./none.fld"),
        (("verify-map", "s2.fld", "s2.fld", "./none.json"), "./none.json"),
        (("audit", "./none.json", "--dim", "2"), "./none.json"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error: cannot read {missing}: ")
        assert err.endswith(f"'{missing}'\n"), err


def test_spectral_pages_and_inequality(capsys, tmp_path):
    path = tmp_path / "s3.fld"
    save_datum(sphere_datum(3), path)
    code, out, _ = run(capsys, "spectral", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rank_inequality"] == {
        "card_R": 2,
        "sum_betti": 2,
        "sum_HF": 0,
        "holds": True,
    }
    assert payload["e_infinity"] == {}
    assert len(payload["pages"][1]) == 4


def test_spectral_warns_once_per_zero_action_pair(capsys, tmp_path, recwarn):
    datum = FloerDatum(
        ambient_dim=2,
        generators=(
            Generator("c", "crit", 0),
            Generator("za", "pair", 1, action=0.0, partner="zb"),
            Generator("zb", "pair", 1, action=0.0, partner="za"),
        ),
        differential=(),
    )
    path = tmp_path / "zero.fld"
    save_datum(datum, path)
    code, _, _ = run(capsys, "spectral", str(path))
    assert code == 0
    messages = [
        str(w.message) for w in recwarn if w.category is floer.ZeroActionPairWarning
    ]
    assert messages == [
        f"pair generator '{g}' has action exactly 0; filing it with the"
        " non-negative-action side of the filtration"
        for g in ("za", "zb")
    ]


def test_audit_reports_totals_and_exclusions(capsys, tmp_path):
    path = tmp_path / "pattern.json"
    path.write_text(
        json.dumps(
            [
                {"type": "strip", "ind_u": 1, "jumps": 1},
                {"type": "ghost", "ind_pq": 3},
            ]
        ),
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "audit", str(path), "--dim", "4")
    assert code == 0
    assert "total drop: >= 5" in out
    assert "excluded from differential counts: yes" in out
    assert "excluded from square counts: yes" in out


def test_audit_rejects_inconsistent_pattern(capsys, tmp_path):
    path = tmp_path / "pattern.json"
    path.write_text(json.dumps([{"type": "ghost", "ind_pq": 1}]), encoding="utf-8")
    code, _, err = run(capsys, "audit", str(path), "--dim", "4")
    assert code == 1
    assert "error:" in err


def test_verify_map_identity_is_quasi_iso(capsys, tmp_path):
    path = tmp_path / "s2.fld"
    save_datum(sphere_datum(2), path)
    mapping = tmp_path / "id.json"
    mapping.write_text(
        json.dumps(
            [{"from": g.id, "to": g.id} for g in sphere_datum(2).generators]
        ),
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "verify-map", str(path), str(path), str(mapping))
    assert code == 0
    assert "chain map: yes" in out
    assert "quasi-isomorphism: yes" in out


def test_verify_map_zero_map_answer_is_a_report(capsys, tmp_path):
    datum = FloerDatum(
        ambient_dim=2,
        generators=(Generator("a", "crit", 0), Generator("b", "crit", 2)),
        differential=(),
    )
    path = tmp_path / "pair.fld"
    path.write_text(dumps_datum(datum), encoding="utf-8")
    mapping = tmp_path / "zero.json"
    mapping.write_text("[]", encoding="utf-8")
    code, out, _ = run(capsys, "verify-map", str(path), str(path), str(mapping))
    assert code == 0
    assert "chain map: yes" in out
    assert "quasi-isomorphism: no" in out


def test_verify_map_degree_violation_reported_not_fatal(capsys, tmp_path):
    path = tmp_path / "s2.fld"
    save_datum(sphere_datum(2), path)
    mapping = tmp_path / "skew.json"
    mapping.write_text(json.dumps([{"from": "min", "to": "max"}]), encoding="utf-8")
    code, out, _ = run(capsys, "verify-map", str(path), str(path), str(mapping))
    assert code == 0
    assert "chain map: no" in out
    assert "reason:" in out


def test_verify_map_refuses_a_nan_in_the_map_file(capsys, tmp_path):
    # map files are read by the strict JSON reader of the datum files
    path = tmp_path / "s2.fld"
    save_datum(sphere_datum(2), path)
    mapping = tmp_path / "nan.json"
    mapping.write_text('[{"from": NaN, "to": "min"}]', encoding="utf-8")
    assert run(capsys, "verify-map", str(path), str(path), str(mapping)) == (
        2,
        "",
        "error: non-finite number NaN is not allowed\n",
    )


def test_verify_map_unknown_generator(capsys, tmp_path):
    path = tmp_path / "s2.fld"
    save_datum(sphere_datum(2), path)
    mapping = tmp_path / "ghost.json"
    mapping.write_text(json.dumps([{"from": "zzz", "to": "min"}]), encoding="utf-8")
    code, _, err = run(capsys, "verify-map", str(path), str(path), str(mapping))
    assert code == 2
    assert "not a generator" in err


def test_homology_rejects_nan_action(capsys, tmp_path):
    path = tmp_path / "nan.fld"
    path.write_text(
        dumps_datum(sphere_datum(2)).replace('"action": 1.0', '"action": NaN'),
        encoding="utf-8",
    )
    code, _, err = run(capsys, "homology", str(path))
    assert code == 2
    assert "non-finite" in err


def test_analyze_refuses_a_mesh_above_the_sample_limit(capsys, monkeypatch):
    def refuse(self, resolution):
        raise AssertionError("sample_points called")

    monkeypatch.setattr(BoxChart, "sample_points", refuse)
    code, out, err = run(
        capsys, "analyze", "--model", "flat", "--dim", "6", "--resolution", "1024"
    )
    assert (code, out) == (2, "")
    assert f"{1025**6} samples" in err


def test_analyze_refuses_frames_above_the_entry_limit_before_sampling(capsys, monkeypatch):
    def refuse(self, resolution):
        raise AssertionError("sample_points called")

    monkeypatch.setattr(BoxChart, "sample_points", refuse)
    # 15^5 = 759375 samples are allowed, their 5x5 frames are not
    code, out, err = run(
        capsys, "analyze", "--model", "flat", "--dim", "5", "--resolution", "14"
    )
    assert (code, out) == (2, "")
    assert f"{15**5 * 25} frame entries" in err


def test_analyze_refuses_a_non_finite_position(capsys, monkeypatch):
    build, fixed = models._BUILDERS["figure_eight"]

    def nan_at_a_quarter(n):
        spec = build(n)
        position = lambda chart_id, P: np.where(P == 0.25, np.nan, spec.position(chart_id, P))
        return dataclasses.replace(spec, position=position)

    monkeypatch.setitem(models._BUILDERS, "figure_eight", (nan_at_a_quarter, fixed))
    code, out, err = run(capsys, "analyze", "--model", "figure_eight", "--resolution", "64")
    assert (code, out) == (2, "")
    assert err == "error: chart 'loop': position is not finite at params [0.25]\n"


@pytest.mark.parametrize("command", ["analyze", "export"])
def test_mesh_commands_refuse_a_non_finite_intrinsic_point(capsys, monkeypatch, tmp_path, command):
    build, fixed = models._BUILDERS["figure_eight"]
    bad = np.array([10, 70]) / 128

    def nan_at_two_samples(n):
        spec = build(n)
        intrinsic = lambda chart_id, P: np.where(
            np.isin(P[:, :1], bad), np.nan, spec.intrinsic(chart_id, P)
        )
        return dataclasses.replace(spec, intrinsic=intrinsic)

    monkeypatch.setitem(models._BUILDERS, "figure_eight", (nan_at_two_samples, fixed))
    argv = [command, "--model", "figure_eight", "--resolution", "128"]
    if command == "export":
        argv.append(str(tmp_path / "out.fld"))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: chart 'loop': intrinsic point is not finite at params [0.078125]\n"
    assert not (tmp_path / "out.fld").exists()


@pytest.mark.parametrize("command", ["analyze", "export"])
def test_mesh_commands_refuse_an_intrinsic_stack_of_the_wrong_shape(
    capsys, monkeypatch, tmp_path, command
):
    build, fixed = models._BUILDERS["figure_eight"]

    def one_row_short(n):
        spec = build(n)
        return dataclasses.replace(spec, intrinsic=lambda chart_id, P: spec.intrinsic(chart_id, P)[:-1])

    monkeypatch.setitem(models._BUILDERS, "figure_eight", (one_row_short, fixed))
    argv = [command, "--model", "figure_eight", "--resolution", "128"]
    if command == "export":
        argv.append(str(tmp_path / "out.fld"))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: chart 'loop': intrinsic callback returned shape (127, 2), expected (128, 2)\n"
    assert not (tmp_path / "out.fld").exists()


def test_analyze_refuses_a_large_sphere_before_building_its_atlas(capsys, monkeypatch):
    from pearl_floer import sphere

    def refuse(n):
        raise AssertionError("sphere atlas built")

    monkeypatch.setattr(sphere, "_directions", refuse)
    code, out, err = run(capsys, "analyze", "--model", "sphere", "--dim", "2000")
    assert (code, out) == (2, "")
    samples = sphere.sphere_sample_count(2000, cli.DEFAULT_RESOLUTION)
    assert f"{samples * 2000**2} frame entries" in err


@pytest.mark.parametrize("command", ["analyze", "export"])
@pytest.mark.parametrize("flag", ["--tol-exact", "--tol-index", "--tol-frame"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "-1e-300"])
def test_mesh_commands_refuse_non_finite_or_negative_tolerances(
    capsys, tmp_path, command, flag, value
):
    argv = [command, "--model", "cylinder", f"{flag}={value}"]
    if command == "export":
        argv.append(str(tmp_path / "out.fld"))
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert f"argument {flag}: must be a finite number >= 0" in capsys.readouterr().err


def test_mesh_commands_accept_zero_and_the_benchmark_tolerance(capsys):
    code, _, err = run(capsys, "analyze", "--model", "circle", "--tol-exact", "4")
    assert code == 1 and "not gradable" in err
    code, _, err = run(
        capsys, "analyze", "--model", "figure_eight", "--resolution", "64", "--tol-exact", "0"
    )
    assert code == 1 and "not exact" in err


# ---------------------------------------------------------------------------
# layering: the algebra subcommands never load the mesh layer


def test_algebra_subcommands_load_neither_numpy_nor_mesh_code(tmp_path):
    datum = tmp_path / "pair.fld"
    datum.write_text(
        dumps_datum(
            FloerDatum(
                ambient_dim=2,
                generators=(Generator("a", "crit", 0), Generator("b", "crit", 2)),
                differential=(),
            )
        ),
        encoding="utf-8",
    )
    identity = tmp_path / "id.json"
    identity.write_text(json.dumps([{"from": g, "to": g} for g in "ab"]), encoding="utf-8")
    pattern = tmp_path / "pattern.json"
    pattern.write_text(json.dumps([{"type": "strip", "ind_u": 1, "jumps": 1}]), encoding="utf-8")
    algebra = [
        ["homology", str(datum)],
        ["spectral", str(datum), "--format", "json"],
        ["verify-map", str(datum), str(datum), str(identity)],
    ]
    audit = ["audit", str(pattern), "--dim", "2"]
    # dataclasses (and the inspect module it imports) would cost the
    # algebra subcommands a third of their start-up; audit may load them
    script = f"""
import contextlib, io, json, sys
from pearl_floer.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in {algebra!r}]
    codegen = sorted(m for m in sys.modules if m in ("dataclasses", "inspect"))
    codes.append(main({audit!r}))
loaded = sorted(m for m in sys.modules if m == "numpy" or m in {MESH_MODULES!r})
print(json.dumps({{"codes": codes, "loaded": loaded, "codegen": codegen}}))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0, 0, 0, 0], "loaded": [], "codegen": []}


def test_mesh_subcommands_do_not_load_numpy_random(tmp_path):
    # the frame probe draws from the standard library's random module;
    # numpy.random would pull in secrets, hashlib and OpenSSL
    commands = [
        ["analyze", "--model", "sphere", "--dim", "3"],
        ["export", "--model", "figure_eight", str(tmp_path / "eight.fld")],
    ]
    script = f"""
import contextlib, io, json, sys
from pearl_floer.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in {commands!r}]
loaded = sorted(m for m in sys.modules if m.startswith("numpy.random"))
print(json.dumps({{"codes": codes, "loaded": loaded}}))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0, 0], "loaded": []}


# ---------------------------------------------------------------------------
# a stdout that cannot take the report


def run_cli(argv, stdout, unbuffered):
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONUNBUFFERED": unbuffered}
    return subprocess.run(
        [sys.executable, "-m", "pearl_floer.cli", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        timeout=60,
    )


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_a_closed_stdout_exits_2_with_one_error_line(unbuffered):
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the report is written
    try:
        proc = run_cli(
            ["analyze", "--model", "figure_eight", "--resolution", "64", "--format", "json"],
            write,
            unbuffered,
        )
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write to stdout: [Errno 32] Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_a_full_stdout_exits_2_with_one_error_line(tmp_path, unbuffered):
    path = tmp_path / "sphere.fld"
    save_datum(sphere_datum(2), path)
    with open("/dev/full", "w") as full:
        proc = run_cli(["homology", str(path)], full, unbuffered)
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write to stdout: [Errno 28] No space left on device\n"


# ---------------------------------------------------------------------------
# warnings: one stderr line each, with no source location


ZERO_ACTION = FloerDatum(
    ambient_dim=2,
    generators=(
        Generator("c", "crit", 0),
        Generator("pa", "pair", 1, action=0.0, partner="pb"),
        Generator("pb", "pair", 1, action=0.0, partner="pa"),
    ),
    differential=(),
)


def test_export_of_the_curve_sphere_warns_in_one_line(tmp_path):
    proc = run_cli(
        ["export", "--model", "sphere", "--dim", "1", str(tmp_path / "e.fld")],
        subprocess.DEVNULL,
        "",
    )
    assert proc.returncode == 0
    assert proc.stderr == (
        "warning: the n = 1 sphere is an immersed curve; its datum is degenerate"
        " (pair degrees 2 and -1 sit adjacent to the criticals)\n"
    )


def test_spectral_warns_in_one_line_per_zero_action_pair(tmp_path):
    path = tmp_path / "zero.fld"
    save_datum(ZERO_ACTION, path)
    proc = run_cli(["spectral", str(path)], subprocess.DEVNULL, "")
    assert proc.returncode == 0
    assert proc.stderr == "".join(
        f"warning: pair generator '{g}' has action exactly 0; filing it with the"
        " non-negative-action side of the filtration\n"
        for g in ("pa", "pb")
    )


def test_main_restores_the_warning_format(capsys, tmp_path):
    path = tmp_path / "zero.fld"
    save_datum(ZERO_ACTION, path)
    shown = warnings.formatwarning
    with pytest.warns(floer.ZeroActionPairWarning):
        assert main(["spectral", str(path)]) == 0
    assert warnings.formatwarning is shown
    with pytest.raises(SystemExit):
        main(["spectral"])
    assert warnings.formatwarning is shown


def test_only_audit_loads_the_audit_layer(tmp_path):
    datum = tmp_path / "s2.fld"
    save_datum(sphere_datum(2), datum)
    identity = tmp_path / "id.json"
    identity.write_text(
        json.dumps([{"from": g.id, "to": g.id} for g in sphere_datum(2).generators]),
        encoding="utf-8",
    )
    patterns = {
        "ok": [{"type": "strip", "ind_u": 1, "jumps": 1}],
        "unknown": [{"type": "nope"}],
        "inconsistent": [{"type": "ghost", "ind_pq": 1}],
    }
    for name, pattern in patterns.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(pattern), encoding="utf-8")
    argvs = [
        ["homology", str(datum)],
        ["spectral", str(datum)],
        ["verify-map", str(datum), str(datum), str(identity)],
        ["analyze", "--model", "figure_eight", "--format", "json"],
        *(["audit", str(tmp_path / f"{name}.json"), "--dim", "2"] for name in patterns),
    ]
    script = f"""
import contextlib, io, json, sys
from pearl_floer.cli import main
runs = []
for argv in {argvs!r}:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    runs.append([code, out.getvalue(), err.getvalue(), "pearl_floer.audit" in sys.modules])
print(json.dumps(runs))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout)
    assert [(code, loaded) for code, _, _, loaded in runs[:4]] == [(0, False)] * 4
    ok, unknown, inconsistent = runs[4:]
    assert ok == [
        0,
        f"pattern: {tmp_path / 'ok.json'}\n"
        "ambient dimension: 2\n"
        "  strip(ind_u=1, jumps=1): drops >= 3\n"
        "total drop: >= 3\n"
        "excluded from differential counts: yes\n"
        "excluded from square counts: yes\n",
        "",
        True,
    ]
    assert unknown == [
        2,
        "",
        "error: pieces[0]: unknown piece type 'nope' (expected one of ['boundary_pearl',"
        " 'ghost', 'max_to_pearl', 'morse', 'pearl_to_min', 'splice', 'strip'])\n",
        True,
    ]
    assert inconsistent == [
        1,
        "",
        "error: ghost strip at index 1 violates strong positivity for n = 2"
        " (2*ind - n = 0 < 2)\n",
        True,
    ]


def _tracer_spans():
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


def test_traced_cli_names_resolve_to_their_home_objects():
    names = {"get_model"} | {
        location.partition(":")[2]
        for locations in _tracer_spans().values()
        for location in locations
        if location.startswith("pearl_floer.cli:")
    }
    assert {"sample_immersion", "probe_frame_invariance", "load_datum"} <= names
    for name in sorted(names):
        value = getattr(cli, name)
        assert value.__module__ != cli.__name__, name
        assert getattr(sys.modules[value.__module__], name) is value, name


def test_rebound_mesh_name_is_used_by_analyze(capsys, monkeypatch):
    calls = []
    original = cli.sample_immersion

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "sample_immersion", counting)
    code, _, _ = run(capsys, "analyze", "--model", "flat", "--resolution", "8")
    assert code == 0
    assert len(calls) == 1


def test_parser_defaults_match_the_mesh_layer():
    assert cli.MODEL_NAMES == models.MODEL_NAMES
    assert cli.DEFAULT_RESOLUTION == immersion.DEFAULT_RESOLUTION
    assert cli.TOL_EXACT == immersion.TOL_EXACT
    assert cli.TOL_INDEX == immersion.TOL_INDEX
