"""FLD v1 serialization round-trips and structural rejection tests."""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path
from typing import get_args

import pytest

from pearl_floer.audit import (
    BoundaryPearl,
    DegenerationPiece,
    GhostStrip,
    MorseEdge,
    Strip,
    audit_pattern,
    load_pattern,
    pattern_from_list,
)
from pearl_floer.fileformat import (
    FormatError,
    datum_from_dict,
    datum_to_dict,
    dumps_datum,
    load_datum,
    loads_datum,
    save_datum,
)
from pearl_floer.floer import FloerDatum, Generator
from pearl_floer.sphere import sphere_datum


def test_round_trip_preserves_datum():
    datum = sphere_datum(3)
    again = loads_datum(dumps_datum(datum))
    assert again.ambient_dim == datum.ambient_dim
    assert sorted(again.generators, key=lambda g: g.id) == sorted(
        datum.generators, key=lambda g: g.id
    )
    assert sorted(again.differential) == sorted(datum.differential)


def test_round_trip_preserves_repeated_entries():
    datum = FloerDatum(
        ambient_dim=2,
        generators=(
            Generator("a", "crit", 0),
            Generator("b", "crit", 1),
        ),
        differential=(("a", "b"), ("a", "b")),
    )
    again = loads_datum(dumps_datum(datum))
    assert again.differential == (("a", "b"), ("a", "b"))
    assert again.net_entries() == []


def test_export_is_canonical():
    datum = sphere_datum(2)
    text = dumps_datum(datum)
    assert text == dumps_datum(loads_datum(text))
    # generator order does not leak into the file
    reversed_datum = FloerDatum(
        ambient_dim=datum.ambient_dim,
        generators=tuple(reversed(datum.generators)),
        differential=tuple(reversed(datum.differential)),
    )
    assert dumps_datum(reversed_datum) == text


def test_file_round_trip(tmp_path):
    datum = sphere_datum(4)
    path = tmp_path / "sphere.fld"
    save_datum(datum, path)
    again = load_datum(path)
    assert sorted(g.id for g in again.generators) == sorted(
        g.id for g in datum.generators
    )


def test_missing_file_is_a_format_error(tmp_path):
    with pytest.raises(FormatError, match="cannot read"):
        load_datum(tmp_path / "absent.fld")


def test_version_must_match():
    data = datum_to_dict(sphere_datum(2))
    data["version"] = 2
    with pytest.raises(FormatError, match="unsupported format version"):
        datum_from_dict(data)


def test_top_level_keys_are_checked():
    data = datum_to_dict(sphere_datum(2))
    del data["ambient_dim"]
    with pytest.raises(FormatError, match="missing top-level keys"):
        datum_from_dict(data)
    data = datum_to_dict(sphere_datum(2))
    data["note"] = "hello"
    with pytest.raises(FormatError, match="unknown top-level keys"):
        datum_from_dict(data)


def test_generator_structure_is_checked():
    base = datum_to_dict(sphere_datum(2))
    crit = next(k for k, g in enumerate(base["generators"]) if g["kind"] == "crit")
    pair = next(k for k, g in enumerate(base["generators"]) if g["kind"] == "pair")

    def corrupt(mutate):
        data = json.loads(json.dumps(base))
        mutate(data)
        with pytest.raises(FormatError):
            datum_from_dict(data)

    corrupt(lambda d: d["generators"][crit].update(kind="vertex"))
    corrupt(lambda d: d["generators"][crit].update(degree=1.5))
    corrupt(lambda d: d["generators"][crit].update(degree=True))
    corrupt(lambda d: d["generators"][crit].update(action=0.5))  # crit with action
    corrupt(lambda d: d["generators"][pair].pop("partner"))  # pair without partner
    corrupt(lambda d: d["generators"][pair].update(action="big"))
    corrupt(lambda d: d["differential"].append({"from": "min"}))
    corrupt(lambda d: d["differential"].append({"src": "a", "dst": "b"}))


def test_not_json_is_a_format_error():
    with pytest.raises(FormatError, match="not valid JSON"):
        loads_datum("{not json")


def test_pattern_parsing_matches_piece_classes():
    pattern = pattern_from_list(
        [
            {"type": "morse", "drop": 2},
            {"type": "strip", "ind_u": 1, "jumps": 1},
            {"type": "ghost", "ind_pq": 3, "n": 4},
            {"type": "boundary_pearl"},
        ]
    )
    assert pattern.pieces == (
        MorseEdge(drop=2),
        Strip(ind_u=1, jumps=1),
        GhostStrip(ind_pq=3, n=4),
        BoundaryPearl(),
    )
    report = audit_pattern(pattern, n=4)
    assert report.total == 2 + 3 + 2 + 2


def test_pattern_rejects_bad_structure(tmp_path):
    with pytest.raises(FormatError, match="JSON array"):
        pattern_from_list({"type": "morse"})
    with pytest.raises(FormatError, match="unknown piece type"):
        pattern_from_list([{"type": "bubble"}])
    with pytest.raises(FormatError, match="unknown keys"):
        pattern_from_list([{"type": "morse", "drops": 1}])
    with pytest.raises(FormatError, match="must be an integer"):
        pattern_from_list([{"type": "strip", "ind_u": "one"}])
    path = tmp_path / "pattern.json"
    path.write_text("[{\"type\": \"strip\", \"ind_u\": 2}]", encoding="utf-8")
    pattern = load_pattern(path)
    assert pattern.pieces == (Strip(ind_u=2),)


def test_pattern_missing_required_field_is_a_format_error():
    with pytest.raises(FormatError, match=r"missing keys in pieces\[1\]: \['ind_u'\]"):
        pattern_from_list([{"type": "morse"}, {"type": "strip", "jumps": 1}])
    with pytest.raises(FormatError, match="missing keys"):
        pattern_from_list([{"type": "ghost", "n": 4}])


def test_readme_names_every_piece_tag_and_field():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    readme = readme.read_text(encoding="utf-8")
    line = re.search(r"Piece types: (.*?)\.\s", readme, re.S).group(1)
    named = {
        tag: {name.strip().rstrip("?") for name in names.split(",")} if names else set()
        for tag, names in re.findall(r"`(\w+)(?: \{([^}]*)\})?`", line)
    }
    assert named == {
        cls.tag: {f.name for f in dataclasses.fields(cls)}
        for cls in get_args(DegenerationPiece)
    }


def test_loads_rejects_non_finite_numbers():
    text = dumps_datum(sphere_datum(3))
    for literal in ("NaN", "Infinity", "-Infinity", "1e400"):
        bad = text.replace('"action": 1.0', f'"action": {literal}')
        assert bad != text
        with pytest.raises(FormatError, match="finite"):
            loads_datum(bad)


def test_dumps_refuses_non_finite_action():
    datum = FloerDatum(
        2,
        (
            Generator("p", "pair", 1, float("nan"), "q"),
            Generator("q", "pair", 1, float("nan"), "p"),
        ),
    )
    with pytest.raises(ValueError):
        dumps_datum(datum)
