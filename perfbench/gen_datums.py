"""Seeded generator of FLD datums and map files for the datum_algebra workload.

It writes JSON directly and imports nothing from ``pearl_floer``, so a
change to the program cannot move the inputs or the expected answers.

A datum is a disjoint union of small blocks whose cohomology is known in
closed form, so the expected answers are recorded without running any
GF(2) elimination:

* ``min`` (degree 0) and ``max`` (degree n) with ``k`` crossing couples
  ``u_i`` (degree -1, action -a_i) -> ``min`` and ``max`` -> ``v_i``
  (degree n+1, action +a_i): pair- -> crit and crit -> pair+ entries that
  cross filtration levels; they leave rank k-1 in degrees -1 and n+1;
* mid-degree criticals hit by, or hitting, one side of a couple: the
  entry cancels the critical in Floer cohomology and frees the partner;
* cancelling Morse pairs (crit -> crit) and free criticals;
* free couples, which give non-zero cohomology;
* acyclic two-couple blocks ``x -> y`` with mirrored ``y' -> x'``;
* acyclic diamonds ``a -> b1, a -> b2, b1 -> c, b2 -> c`` (and their
  mirrors), whose d^2 vanishes only because two terms cancel mod 2.

Some entries are listed three times (net present) and some valid-looking
entries are listed twice (net absent), so parity semantics are exercised.

Maps from a datum to itself or to a relabelled copy:

* ``identity``: chain map, quasi-isomorphism;
* ``homotopy``: ``sigma o (I + d h + h d)`` for a random degree -1 map h
  and a random relabelling sigma; a chain map homotopic to the relabelling,
  hence a quasi-isomorphism;
* ``broken``: the identity plus one entry ``x -> y`` within a degree,
  with ``d y != 0``; not a chain map.
"""

from __future__ import annotations

import json
import random
from pathlib import Path


def _action(rng: random.Random) -> float:
    # Magnitudes stay well away from 0 (a zero action is ambiguous for the
    # filtration) and are rounded so files print short.
    return round(rng.uniform(0.05, 8.0), 6)


class _Blocks:
    def __init__(self, rng: random.Random, n: int):
        self.rng = rng
        self.n = n
        self.gens: list[dict] = []
        self.entries: list[tuple[str, str]] = []  # net entries, each once
        self.repeats: list[tuple[str, str]] = []  # extra listings (even count)
        self.hf: dict[int, int] = {}
        self.betti: dict[int, int] = {}
        self._next = 0

    def _id(self, prefix: str) -> str:
        self._next += 1
        return f"{prefix}{self._next}"

    def crit(self, degree: int) -> str:
        gid = self._id("c")
        self.gens.append({"id": gid, "kind": "crit", "degree": degree})
        return gid

    def couple(self, degree: int, action: float) -> tuple[str, str]:
        """A pair generator and its partner (degree n - degree, -action)."""
        a, b = self._id("p"), self._id("p")
        self.gens.append(
            {"id": a, "kind": "pair", "degree": degree, "action": action, "partner": b}
        )
        self.gens.append(
            {"id": b, "kind": "pair", "degree": self.n - degree, "action": -action, "partner": a}
        )
        return a, b

    def entry(self, src: str, dst: str) -> None:
        self.entries.append((src, dst))
        if self.rng.random() < 0.1:
            self.repeats += [(src, dst), (src, dst)]

    def add(self, table: dict[int, int], degree: int, k: int = 1) -> None:
        table[degree] = table.get(degree, 0) + k


def _increasing(rng: random.Random, count: int) -> list[float]:
    """Distinct actions, increasing; a sign change is allowed along the way."""
    values = sorted({_action(rng) for _ in range(count * 2)})[:count]
    while len(values) < count:
        values.append(values[-1] + 1.0)
    if rng.random() < 0.5:
        cut = rng.randrange(count + 1)
        values = [-v for v in reversed(values[:cut])] + values[cut:]
        values = sorted(values)
    return values


def build_datum(seed: int, size: int, n: int) -> tuple[dict, dict]:
    """Return (FLD v1 object, expected answers) for about ``size`` generators."""
    rng = random.Random(seed)
    b = _Blocks(rng, n)

    lo, hi = b.crit(0), b.crit(n)
    crossings = 3
    for _ in range(crossings):
        a = _action(rng)
        v, u = b.couple(n + 1, a)
        b.entry(u, lo)
        b.entry(hi, v)
    b.add(b.hf, -1, crossings - 1)
    b.add(b.hf, n + 1, crossings - 1)
    b.add(b.betti, 0)
    b.add(b.betti, n)

    for _ in range(max(1, size // 50)):
        j = rng.randint(1, n - 1)
        c = b.crit(j)
        b.add(b.betti, j)
        if rng.random() < 0.5:
            u, _ = b.couple(j - 1, -_action(rng))
            b.entry(u, c)
            b.add(b.hf, n - j + 1)
        else:
            v, _ = b.couple(j + 1, _action(rng))
            b.entry(c, v)
            b.add(b.hf, n - j - 1)

    for _ in range(max(1, size // 100)):
        j = rng.randint(0, n - 1)
        b.entry(b.crit(j), b.crit(j + 1))

    for _ in range(max(1, size // 200)):
        j = rng.randint(0, n)
        b.crit(j)
        b.add(b.betti, j)
        b.add(b.hf, j)

    free = []
    for _ in range(max(2, size // 20)):
        k = rng.randint(0, n)
        a = _action(rng) * rng.choice((-1, 1))
        free.append((k, a, b.couple(k, a)))
        b.add(b.hf, k)
        b.add(b.hf, n - k)
    # Valid-looking entries between free couples, listed twice: net absent.
    for (k1, a1, (p1, _)), (k2, a2, (p2, _)) in zip(free, free[1:]):
        if k2 == k1 + 1 and a2 > a1:
            b.repeats += [(p1, p2), (p1, p2)]

    for _ in range(max(1, size // 40)):
        k = rng.randint(0, n - 2)
        a0, a1, a2, a3 = _increasing(rng, 4)
        a, a_m = b.couple(k, a0)
        b1, b1_m = b.couple(k + 1, a1)
        b2, b2_m = b.couple(k + 1, a2)
        c, c_m = b.couple(k + 2, a3)
        for src, dst in ((a, b1), (a, b2), (b1, c), (b2, c)):
            b.entry(src, dst)
        for src, dst in ((c_m, b1_m), (c_m, b2_m), (b1_m, a_m), (b2_m, a_m)):
            b.entry(src, dst)

    while len(b.gens) + 4 <= size:
        k = rng.randint(0, n - 1)
        ax, ay = _increasing(rng, 2)
        x, x_m = b.couple(k, ax)
        y, y_m = b.couple(k + 1, ay)
        b.entry(x, y)
        b.entry(y_m, x_m)

    rng.shuffle(b.gens)
    listed = b.entries + b.repeats
    rng.shuffle(listed)
    datum = {
        "version": 1,
        "ambient_dim": n,
        "generators": b.gens,
        "differential": [{"from": s, "to": t} for s, t in listed],
    }
    degrees = sorted({g["degree"] for g in b.gens})
    pairs = [g for g in b.gens if g["kind"] == "pair"]
    e0: dict[str, int] = {}
    for g in b.gens:
        level = 1 if g["kind"] == "crit" else (0 if g["action"] < 0 else 2)
        key = f"{level},{g['degree'] - level}"
        e0[key] = e0.get(key, 0) + 1
    sum_betti = sum(b.betti.values())
    sum_hf = sum(b.hf.values())
    expected = {
        "generators": len(b.gens),
        "ranks": {str(k): b.hf.get(k, 0) for k in degrees},
        "e0": e0,
        "rank_inequality": {
            "card_R": len(pairs),
            "sum_betti": sum_betti,
            "sum_HF": sum_hf,
            "holds": len(pairs) >= sum_betti - sum_hf,
        },
    }
    return datum, expected


def _net_differential(datum: dict) -> dict[str, set[str]]:
    d: dict[str, set[str]] = {}
    for e in datum["differential"]:
        d.setdefault(e["from"], set()).symmetric_difference_update({e["to"]})
    return d


def _compose_plus(d: dict[str, set[str]], h: dict[str, set[str]], ids: list[str]) -> dict[str, set[str]]:
    """I + d h + h d over GF(2), as generator -> image set."""
    out: dict[str, set[str]] = {}
    for x in ids:
        image = {x}
        for y in h.get(x, ()):
            image ^= d.get(y, set())
        for z in d.get(x, ()):
            image ^= h.get(z, set())
        out[x] = image
    return out


def relabel(datum: dict, rng: random.Random) -> tuple[dict, dict[str, str]]:
    """A copy of ``datum`` with fresh ids and shuffled generator order."""
    ids = [g["id"] for g in datum["generators"]]
    fresh = [f"t{k}" for k in range(len(ids))]
    rng.shuffle(fresh)
    sigma = dict(zip(ids, fresh))
    gens = []
    for g in datum["generators"]:
        g = dict(g, id=sigma[g["id"]])
        if "partner" in g:
            g["partner"] = sigma[g["partner"]]
        gens.append(g)
    rng.shuffle(gens)
    entries = [{"from": sigma[e["from"]], "to": sigma[e["to"]]} for e in datum["differential"]]
    return dict(datum, generators=gens, differential=entries), sigma


def build_maps(seed: int, datum: dict) -> tuple[dict, dict[str, list[dict]], dict[str, dict]]:
    """Return (relabelled target datum, map files by kind, expected verdicts)."""
    rng = random.Random(seed ^ 0x5EED)
    gens = datum["generators"]
    ids = [g["id"] for g in gens]
    degree = {g["id"]: g["degree"] for g in gens}
    d = _net_differential(datum)

    identity = [{"from": x, "to": x} for x in ids]

    target, sigma = relabel(datum, rng)
    by_degree: dict[int, list[str]] = {}
    for x in ids:
        by_degree.setdefault(degree[x], []).append(x)
    h: dict[str, set[str]] = {}
    for _ in range(max(1, len(ids) // 8)):
        x = rng.choice(ids)
        below = by_degree.get(degree[x] - 1)
        if below:
            h.setdefault(x, set()).symmetric_difference_update({rng.choice(below)})
    phi = _compose_plus(d, h, ids)
    homotopy = [{"from": x, "to": sigma[y]} for x in ids for y in sorted(phi[x])]

    # For E = {x -> y}: (dE + Ed)(x) = d(y) != 0, since d(x) never contains x.
    y = rng.choice(sorted(y for y in ids if d.get(y)))
    x = rng.choice(sorted(x for x in by_degree[degree[y]] if x != y))
    broken = identity + [{"from": x, "to": y}]

    maps = {"identity": identity, "homotopy": homotopy, "broken": broken}
    expected = {
        "identity": {"chain_map": True, "quasi_isomorphism": True, "target": "self"},
        "homotopy": {"chain_map": True, "quasi_isomorphism": True, "target": "relabelled"},
        "broken": {"chain_map": False, "quasi_isomorphism": None, "target": "self"},
    }
    return target, maps, expected


def write_inputs(outdir: Path, name: str, seed: int, size: int, n: int) -> dict:
    """Write ``name``.fld, its relabelled copy and maps; return the expectations."""
    datum, expected = build_datum(seed, size, n)
    target, maps, verdicts = build_maps(seed, datum)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {"self": outdir / f"{name}.fld", "relabelled": outdir / f"{name}-relabelled.fld"}
    paths["self"].write_text(json.dumps(datum, indent=2) + "\n", encoding="utf-8")
    paths["relabelled"].write_text(json.dumps(target, indent=2) + "\n", encoding="utf-8")
    expected["maps"] = {}
    for kind, entries in maps.items():
        path = outdir / f"{name}-{kind}.json"
        path.write_text(json.dumps(entries) + "\n", encoding="utf-8")
        verdict = dict(verdicts[kind])
        verdict["map"] = str(path)
        verdict["target"] = str(paths[verdict["target"]])
        expected["maps"][kind] = verdict
    expected["file"] = str(paths["self"])
    return expected

