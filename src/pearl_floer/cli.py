"""Command-line interface.

Subcommands
-----------
analyze     run the mesh pipeline on a built-in model and report the
            double points (optionally exporting the emitted datum)
export      write a model datum to an FLD v1 file
homology    validate a datum file and print its cohomology ranks
spectral    print the action-filtration spectral pages and the rank
            inequality report for a datum file
audit       bound the index drops of a degeneration pattern file
verify-map  check a generator-to-generator map between two datum files
            for the chain-map property and quasi-isomorphism

Exit codes: 0 on success (including a verify-map answer of "no"), 1 when
mathematical validation fails (non-exact or ungradable immersions,
degenerate crossings, datum violations, filtration or complex errors,
positivity failures under --require-strong), 2 for argument, file, or
format problems, and when the report cannot be written because stdout is
closed (a pipe whose reader has exited) or full.  Then stderr carries one
``error:`` line and nothing else.  Each warning a command emits is one
``warning: <message>`` line on stderr, without a source location.

All reports are deterministic: rows are sorted, floats print in shortest
round-trip form, and repeated invocations produce byte-identical output.

Layering: homology, spectral, audit and verify-map use only the numpy-free
layers (gf2, floer, fileformat, and audit for audit alone).  The mesh
layer (geom, immersion, models, sphere) is imported when analyze or export
first needs it, and its names are then bound in this module (see
``_load_mesh_layer``).  The audit layer is imported when audit runs.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import math
import os
import sys
import warnings
from typing import Any

from .fileformat import (
    FormatError,
    _parse_json,
    _read_text,
    datum_to_dict,
    load_datum,
    save_datum,
)
from .floer import (
    FloerDatum,
    InconsistentPattern,
    ValidationFailed,
    action_filtration,  # uncalled; perfbench/spans.py wraps cli.action_filtration
    assemble_differential,
    check_positivity,
    floer_cohomology,
    rank_inequality_report,
    validate_datum,
)
from .gf2 import (
    DegreeViolation,
    GF2Error,
    GF2Matrix,
    is_quasi_iso,
    verify_chain_map,
)

__all__ = ["main"]

#: The parser's model choices and analyze defaults.  They equal
#: ``models.MODEL_NAMES`` and the ``immersion`` constants of the same names
#: (a test checks); they live here so that building the parser imports no
#: mesh code.
MODEL_NAMES = ("circle", "cylinder", "figure_eight", "flat", "sphere")
DEFAULT_RESOLUTION = 64
TOL_EXACT = 1e-8
TOL_INDEX = 1e-4

#: The mesh layer's names that analyze and export use, by home module.
_MESH_LAYER_NAMES = {
    "geom": ("GeometryError",),
    "immersion": (
        "PipelineError",
        "compute_grading",
        "compute_primitive",
        "emit_datum",
        "find_double_points",
        "probe_frame_invariance",
        "sample_immersion",
    ),
    "models": ("get_model",),
    "sphere": ("SPHERE_DATUM_NOTE", "sphere_datum"),
}


def _load_mesh_layer() -> None:
    """Import the mesh layer and bind its names in this module.

    ``setdefault`` keeps a name that is already bound, so a caller that
    rebinds, say, ``cli.sample_immersion`` (a tracer, a test) keeps its
    wrapper.
    """
    namespace = globals()
    for module, names in _MESH_LAYER_NAMES.items():
        home = importlib.import_module(f".{module}", __package__)
        for name in names:
            namespace.setdefault(name, getattr(home, name))


def __getattr__(name: str) -> Any:
    """Resolve a mesh-layer name (``cli.get_model`` and so on) on first use."""
    if any(name in names for names in _MESH_LAYER_NAMES.values()):
        _load_mesh_layer()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _mesh_command(run):
    """Run a subcommand that needs the mesh layer: load it first, and turn
    its gate failures (PipelineError, GeometryError) into exit 1."""

    @functools.wraps(run)
    def command(args) -> int:
        _load_mesh_layer()
        try:
            return run(args)
        except (PipelineError, GeometryError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 1

    return command


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _fmt_complex(z: complex) -> str:
    return f"{_fmt(z.real)}{'+' if z.imag >= 0 else '-'}{_fmt(abs(z.imag))}j"


def _emit(args, payload: dict[str, Any], text_lines: list[str]) -> int:
    """Print the report; a closed or full stdout is a FormatError (exit 2)."""
    try:
        if args.format == "json":
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            for line in text_lines:
                print(line)
        sys.stdout.flush()
    except OSError as err:
        # Point fd 1 at os.devnull, so that the interpreter's own flush at
        # exit does not fail again on what is left in the buffer.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise FormatError(f"cannot write to stdout: {err}") from err
    return 0


def _positivity_gate(args, datum: FloerDatum, payload: dict, lines: list[str]) -> bool:
    """Run the strong-positivity check when requested; False means fail."""
    if not getattr(args, "require_strong", False):
        return True
    report = check_positivity(datum, mode="strong")
    payload["positivity"] = {
        "mode": report.mode,
        "ok": report.ok,
        "rows": [
            {
                "id": row.id,
                "action": row.action,
                "degree": row.degree,
                "threshold": row.threshold,
                "ok": row.ok,
            }
            for row in report.rows
        ],
    }
    lines.append(f"positivity (strong): {'ok' if report.ok else 'FAILED'}")
    for row in report.rows:
        verdict = "ok" if row.ok else "below threshold"
        lines.append(
            f"  {row.id}: degree {row.degree} vs threshold"
            f" {_fmt(row.threshold)} ({verdict})"
        )
    return report.ok


# ---------------------------------------------------------------------------
# analyze / export


def _run_pipeline(args):
    spec, morse = get_model(args.model, args.dim, args.resolution)
    if args.tol_frame is not None:
        import dataclasses

        spec = dataclasses.replace(spec, frame_tol=args.tol_frame)
    mesh = sample_immersion(spec, args.resolution)
    compute_primitive(mesh, tol_exact=args.tol_exact)
    compute_grading(mesh)
    records = find_double_points(mesh, tol_index=args.tol_index)
    return spec, morse, mesh, records


@_mesh_command
def cmd_analyze(args) -> int:
    spec, morse, mesh, records = _run_pipeline(args)
    datum = emit_datum(mesh, records, morse)
    probe = probe_frame_invariance(mesh, records, seed=args.seed)

    def row(record) -> dict[str, Any]:
        return {
            "p": record.p_id,
            "q": record.q_id,
            "p_chart": record.p_chart,
            "p_params": list(record.p_params),
            "q_chart": record.q_chart,
            "q_params": list(record.q_params),
            "action": record.action,
            "index": record.index,
            "index_raw": record.index_raw,
            "residual": record.residual,
            "angles": [float(a) for a in record.angles.values],
        }

    # find_double_points emits the two records of each point next to each other
    points = [
        {"point": [[z.real, z.imag] for z in first.point], "records": [row(first), row(second)]}
        for first, second in zip(records[::2], records[1::2])
    ]

    payload: dict[str, Any] = {
        "model": args.model,
        "ambient_dim": spec.ambient.n,
        "resolution": args.resolution,
        "samples": len(mesh.points),
        "edges": len(mesh.edges),
        "exactness_residual": mesh.exactness_residual,
        "grading_residual": mesh.grading_residual,
        "double_points": points,
        "datum": datum_to_dict(datum),
        "frame_probe": {"seed": args.seed, "max_angle_deviation": probe},
    }

    lines = [
        f"model: {args.model} (ambient dimension {spec.ambient.n})",
        f"resolution: {args.resolution}",
        f"samples: {len(mesh.points)}  edges: {len(mesh.edges)}",
        f"exactness residual: {_fmt(mesh.exactness_residual)}",
        f"grading residual: {_fmt(mesh.grading_residual)}",
        f"double points: {len(points)}",
    ]
    for k, point in enumerate(points):
        coords = ", ".join(_fmt_complex(complex(re, im)) for re, im in point["point"])
        lines.append(f"point {k}: ({coords})")
        for rec in point["records"]:
            angles = " ".join(_fmt(a) for a in rec["angles"])
            lines.append(
                f"  {rec['p']} -> {rec['q']}: action {_fmt(rec['action'])},"
                f" index {rec['index']} (raw {_fmt(rec['index_raw'])},"
                f" residual {_fmt(rec['residual'])}), angles [{angles}]"
            )
    gens = ", ".join(
        f"{g['id']}({g['kind']},{g['degree']})" for g in payload["datum"]["generators"]
    )
    lines.append(f"datum generators: {gens}")
    lines.append(
        f"frame probe (seed {args.seed}): max angle deviation {_fmt(probe)}"
    )
    if args.model == "sphere":
        payload["note"] = SPHERE_DATUM_NOTE
        lines.append(f"note: {SPHERE_DATUM_NOTE}")

    ok = _positivity_gate(args, datum, payload, lines)
    if args.export:
        save_datum(datum, args.export)
        lines.append(f"datum written to {args.export}")
    code = _emit(args, payload, lines)
    return code if ok else 1


@_mesh_command
def cmd_export(args) -> int:
    if args.model == "sphere":
        dim = args.dim if args.dim is not None else 2
        datum = sphere_datum(dim)
        note = SPHERE_DATUM_NOTE
    else:
        spec, morse, mesh, records = _run_pipeline(args)
        datum = emit_datum(mesh, records, morse)
        note = None
    save_datum(datum, args.output)
    payload = {"output": args.output, "datum": datum_to_dict(datum)}
    lines = [f"datum written to {args.output}"]
    if note:
        payload["note"] = note
        lines.append(f"note: {note}")
    return _emit(args, payload, lines)


# ---------------------------------------------------------------------------
# homology / spectral


def cmd_homology(args) -> int:
    datum = load_datum(args.file)
    ranks = floer_cohomology(datum)
    payload: dict[str, Any] = {
        "file": args.file,
        "ambient_dim": datum.ambient_dim,
        "generators": len(datum.generators),
        "ranks": {str(k): v for k, v in sorted(ranks.items())},
    }
    lines = [
        f"file: {args.file}",
        f"ambient dimension: {datum.ambient_dim}",
        f"generators: {len(datum.generators)}",
        "cohomology ranks:",
    ]
    for degree, rank in sorted(ranks.items()):
        lines.append(f"  degree {degree}: {rank}")
    total = sum(ranks.values())
    lines.append(f"total rank: {total}")
    payload["total_rank"] = total
    ok = _positivity_gate(args, datum, payload, lines)
    code = _emit(args, payload, lines)
    return code if ok else 1


def cmd_spectral(args) -> int:
    datum = load_datum(args.file)
    # rank_inequality_report builds the filtration without validating it
    validation = validate_datum(datum)
    if not validation.ok:
        raise ValidationFailed(validation)
    report = rank_inequality_report(datum, r_max=args.pages)
    table = report.pages
    payload: dict[str, Any] = {
        "file": args.file,
        "ambient_dim": datum.ambient_dim,
        "max_level": table.max_level,
        "stable_page": table.r_stable,
        "pages": [
            {f"{p},{q}": rank for (p, q), rank in sorted(page.items()) if rank}
            for page in table.pages
        ],
        "e_infinity": {
            f"{p},{q}": rank for (p, q), rank in sorted(table.e_inf.items()) if rank
        },
        "rank_inequality": {
            "card_R": report.card_R,
            "sum_betti": report.sum_betti,
            "sum_HF": report.sum_HF,
            "holds": report.inequality_holds,
        },
    }
    lines = [
        f"file: {args.file}",
        f"filtration levels: 0..{table.max_level}",
        f"stable page: r = {table.r_stable}",
    ]
    for r, page in enumerate(table.pages):
        cells = [f"({p},{q})={rank}" for (p, q), rank in sorted(page.items()) if rank]
        lines.append(f"E_{r}: " + (" ".join(cells) if cells else "0"))
    cells = [f"({p},{q})={rank}" for (p, q), rank in sorted(table.e_inf.items()) if rank]
    lines.append("E_inf: " + (" ".join(cells) if cells else "0"))
    lines.append(
        "rank inequality: "
        f"{report.card_R} >= {report.sum_betti} - {report.sum_HF}"
        f" ({'holds' if report.inequality_holds else 'VIOLATED'})"
    )
    code = _emit(args, payload, lines)
    return code if report.inequality_holds else 1


# ---------------------------------------------------------------------------
# audit / verify-map


def cmd_audit(args) -> int:
    from .audit import audit_pattern, load_pattern

    pattern = load_pattern(args.pattern)
    report = audit_pattern(pattern, n=args.dim)
    payload = {
        "pattern": args.pattern,
        "ambient_dim": args.dim,
        "rows": [{"piece": row.piece, "bound": row.bound} for row in report.rows],
        "total": report.total,
        "excluded_from_differential": report.excluded_from_differential,
        "excluded_from_square": report.excluded_from_square,
    }
    lines = [f"pattern: {args.pattern}", f"ambient dimension: {args.dim}"]
    for row in report.rows:
        lines.append(f"  {row.piece}: drops >= {row.bound}")
    lines.append(f"total drop: >= {report.total}")
    lines.append(
        "excluded from differential counts: "
        + ("yes" if report.excluded_from_differential else "no")
    )
    lines.append(
        "excluded from square counts: "
        + ("yes" if report.excluded_from_square else "no")
    )
    return _emit(args, payload, lines)


def _load_map_entries(path: str) -> list[tuple[str, str]]:
    data = _parse_json(_read_text(path))
    if not isinstance(data, list):
        raise FormatError("a map file must contain a JSON array of entries")
    entries = []
    for k, raw in enumerate(data):
        if (
            not isinstance(raw, dict)
            or set(raw) != {"from", "to"}
            or not all(isinstance(raw[key], str) for key in ("from", "to"))
        ):
            raise FormatError(
                f"entries[{k}] must be an object with string keys 'from' and 'to'"
            )
        entries.append((raw["from"], raw["to"]))
    return entries


def cmd_verify_map(args) -> int:
    source = load_datum(args.source)
    target = load_datum(args.target)
    c1 = assemble_differential(source)
    c2 = assemble_differential(target)
    entries = _load_map_entries(args.map)
    index1 = {g.id: k for k, g in enumerate(source.generators)}
    index2 = {g.id: k for k, g in enumerate(target.generators)}
    for src, dst in entries:
        if src not in index1:
            raise FormatError(f"map source '{src}' is not a generator of {args.source}")
        if dst not in index2:
            raise FormatError(f"map target '{dst}' is not a generator of {args.target}")
    phi = GF2Matrix.from_entries(
        len(target.generators),
        len(source.generators),
        [(index2[dst], index1[src]) for src, dst in entries],
    )
    try:
        is_chain_map = verify_chain_map(c1, c2, phi)
        reason = None
    except DegreeViolation as err:
        is_chain_map = False
        reason = str(err)
    quasi = None
    if is_chain_map:
        quasi = is_quasi_iso(c1, c2, phi)
    payload: dict[str, Any] = {
        "source": args.source,
        "target": args.target,
        "map_entries": len(entries),
        "chain_map": is_chain_map,
        "quasi_isomorphism": quasi,
    }
    lines = [
        f"source: {args.source} ({len(source.generators)} generators)",
        f"target: {args.target} ({len(target.generators)} generators)",
        f"map entries: {len(entries)}",
        f"chain map: {'yes' if is_chain_map else 'no'}",
    ]
    if reason:
        payload["reason"] = reason
        lines.append(f"  reason: {reason}")
    if quasi is not None:
        lines.append(f"quasi-isomorphism: {'yes' if quasi else 'no'}")
    return _emit(args, payload, lines)


# ---------------------------------------------------------------------------
# parser


def tolerance(text: str) -> float:
    """An argparse type: a finite number >= 0 (NaN would switch a gate off)."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pearl-floer",
        description="desk-scale tools for immersed Lagrangian analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format",
            choices=("text", "json"),
            default="text",
            help="report format (default: text)",
        )

    def add_model_args(p):
        p.add_argument(
            "--model", required=True, choices=MODEL_NAMES, help="built-in model"
        )
        p.add_argument("--dim", type=int, default=None, help="ambient dimension")
        p.add_argument(
            "--resolution",
            type=int,
            default=DEFAULT_RESOLUTION,
            help=f"mesh cells per dimension (default {DEFAULT_RESOLUTION})",
        )
        p.add_argument("--tol-exact", type=tolerance, default=TOL_EXACT)
        p.add_argument("--tol-index", type=tolerance, default=TOL_INDEX)
        p.add_argument("--tol-frame", type=tolerance, default=None)

    analyze = sub.add_parser("analyze", help="run the mesh pipeline on a model")
    add_model_args(analyze)
    analyze.add_argument("--seed", type=int, default=0, help="frame-probe seed")
    analyze.add_argument(
        "--require-strong",
        action="store_true",
        help="fail (exit 1) unless strong positivity holds",
    )
    analyze.add_argument("--export", default=None, help="also write the datum here")
    add_format(analyze)
    analyze.set_defaults(func=cmd_analyze)

    export = sub.add_parser("export", help="write a model datum to an FLD file")
    add_model_args(export)
    export.add_argument("output", help="output path (.fld)")
    add_format(export)
    export.set_defaults(func=cmd_export)

    homology = sub.add_parser("homology", help="cohomology ranks of a datum file")
    homology.add_argument("file")
    homology.add_argument(
        "--require-strong",
        action="store_true",
        help="fail (exit 1) unless strong positivity holds",
    )
    add_format(homology)
    homology.set_defaults(func=cmd_homology)

    spectral = sub.add_parser(
        "spectral", help="action-filtration spectral pages of a datum file"
    )
    spectral.add_argument("file")
    spectral.add_argument(
        "--pages", type=int, default=None, help="compute pages up to this r"
    )
    add_format(spectral)
    spectral.set_defaults(func=cmd_spectral)

    audit = sub.add_parser("audit", help="index-drop bounds for a pattern file")
    audit.add_argument("pattern")
    audit.add_argument("--dim", type=int, required=True, help="ambient dimension")
    add_format(audit)
    audit.set_defaults(func=cmd_audit)

    verify = sub.add_parser(
        "verify-map", help="chain-map / quasi-isomorphism check between datum files"
    )
    verify.add_argument("source")
    verify.add_argument("target")
    verify.add_argument("map", help="JSON array of {from, to} generator pairs")
    add_format(verify)
    verify.set_defaults(func=cmd_verify_map)

    return parser


def _one_line_warning(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    shown = warnings.formatwarning
    warnings.formatwarning = _one_line_warning
    try:
        return args.func(args)
    except FormatError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ValidationFailed as err:
        print("datum validation failed:", file=sys.stderr)
        for violation in err.report.violations:
            print(f"  - {violation}", file=sys.stderr)
        return 1
    except (GF2Error, InconsistentPattern) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = shown


if __name__ == "__main__":
    sys.exit(main())
