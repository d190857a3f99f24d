"""Workload ``lattice-grow``: build, verify, export and re-import quotient lattices.

One item is generate_quotient, the four law checks, a structured export
and an import_lattice round trip.  The cycle holds the three bundled models
at depths 1-3 and eighteen block-sum models (blocksum.py) in fixed
(dimension, atoms, classes) tiers.  Each model's block structure is fixed
by its slot in the tiers and its geometry by the seed, so every seed
builds lattices of the same shapes and the cost profile stays put.  Sizes stop at 32
classes: item cost grows about as classes cubed (96 classes took 9.6 s),
and a run must time at least 100 items.

Nearly all the work sits in ``lattice`` and in ``hilbert`` meets and joins
at dimensions 2-16; this is where quotient-generation changes show.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import blocksum
import oracle
import pragmaql as pq
import spans

BUNDLED = [(name, depth) for name in ("qubit-zx", "qutrit-lines", "ququart-planes")
           for depth in (1, 2, 3)]
# (dimension, atoms, classes, copies per cycle).  The median falls inside
# the twelve 16-class items, which cost about the same, and the 90th
# percentile inside the ququart-planes items, so neither sits on the edge
# between two item kinds.
TIERS = [(4, 2, 8, 4), (8, 3, 16, 12), (10, 3, 24, 1), (16, 4, 32, 1)]
BUDGET_S = 20.0


@dataclass(eq=False)
class Item:
    label: str
    model: object
    depth: int
    classes: int
    distributive: bool
    atom_proj: dict
    seen: dict = field(default_factory=dict)   # fingerprint of the first checked output

    @property
    def atoms(self) -> list[str]:
        return list(self.model.atom_map)


def _blocksum_item(k, slot, rng, dim, n_atoms, classes) -> Item:
    # the structure depends on the slot only, so every seed builds lattices
    # of the same shapes at the same cost; the seed draws the geometry
    structure = np.random.default_rng([slot, dim, n_atoms, classes])
    bs, lattice = blocksum.draw(structure, rng, dim, n_atoms, (classes, classes))
    model = pq.load_model(blocksum.document(bs))
    return Item(f"blocksum-{dim}d-{classes}c#{k}", model, 1, len(lattice),
                blocksum.distributive(bs), _atom_proj(model))


def _atom_proj(model) -> dict:
    return {a: model.properties[p].matrix for a, p in model.atom_map.items()}


class LatticeGrow:
    budget_s = BUDGET_S
    children_rss = False
    traced_run = False
    collect_between = True   # so garbage of earlier items is not collected in a random later one

    def __init__(self, seed: int, root: Path):
        refs = json.loads((Path(__file__).parent / "references.json").read_text())["lattice"]
        rng = np.random.default_rng([seed, 1])
        items = []
        for name, depth in BUNDLED:
            model = pq.bundled_model(name)
            ref = refs[f"{name}/d{depth}"]
            items.append(Item(f"{name}/d{depth}", model, depth, ref["classes"],
                              ref["distributive"], _atom_proj(model)))
        for dim, n_atoms, classes, copies in TIERS:
            for slot in range(copies):
                items.append(_blocksum_item(len(items), slot, rng, dim, n_atoms, classes))
        order = rng.permutation(len(items))
        self.items = [items[i] for i in order]
        self.trace_items = self.items * 2
        self.tracer = None

    def run(self, item: Item):
        lat = pq.generate_quotient(item.model, item.atoms, item.depth)
        laws = pq.verify_ortholattice(lat) + [pq.verify_orthomodular(lat),
                                              pq.verify_isomorphism(lat)]
        violation = pq.find_distributivity_violation(lat)
        back = pq.import_lattice(pq.export_lattice(lat, "structured"))
        return lat, laws, violation, back

    def check(self, item: Item, output, error) -> str | None:
        if error is not None:
            return f"raised {type(error).__name__}: {error}"
        lat, laws, violation, back = output
        if len(lat) != item.classes:
            return f"{len(lat)} classes, expected {item.classes}"
        failed = [r.law for r in laws if not r.holds]
        if failed:
            return f"laws reported failing: {failed}"
        if (violation is None) != item.distributive:
            return f"distributivity violation {violation}, expected none: {item.distributive}"
        projs = np.stack([e.projector.matrix for e in lat.elements])
        formulas = [oracle.from_ast(e.formula) for e in lat.elements]
        tables = [lat.order, lat.neg_table, lat.meet_table, lat.join_table]
        problem = _round_trip(lat, back, projs, formulas)
        if problem:
            return problem
        if not item.seen:
            problem = _full_check(item, lat, projs, formulas, violation)
            if problem:
                return problem
            item.seen.update(projs=projs, formulas=formulas, violation=violation,
                             tables=[t.copy() for t in tables])
            return None
        if not (formulas == item.seen["formulas"] and violation == item.seen["violation"]
                and all(np.array_equal(a, b) for a, b in zip(tables, item.seen["tables"]))
                and np.max(np.abs(projs - item.seen["projs"])) <= lat.class_tol):
            return "output differs from the first checked attempt of this item"
        return None

    def layer_metrics(self, tracer) -> dict:
        extra = {}
        for k, item in enumerate(self.trace_items):
            if item.label == "ququart-planes/d1":
                totals = tracer.item_totals(k)
                extra = {
                    "lattice.ququart_d1.classes": (dict(tracer.classes)[k], "count"),
                    "lattice.ququart_d1.meets": (tracer.within_total("hilbert.meet", "lattice.generate", k), "count"),
                    "lattice.ququart_d1.joins": (tracer.within_total("hilbert.join", "lattice.generate", k), "count"),
                    "lattice.ququart_d1.svds": (tracer.within_total("hilbert.svd", "lattice.generate", k), "count"),
                    "lattice.ququart_d1.generate_s": (totals["lattice.generate"][1], "s"),
                    "lattice.ququart_d1.verify_s": (totals["lattice.verify"][1], "s"),
                }
                break
        return spans.layer_metrics(tracer, extra)

    def report(self, tracer) -> list[str]:
        lines = []
        classes = dict(tracer.classes)
        for k, item in enumerate(self.trace_items[:len(self.items)]):
            totals = tracer.item_totals(k)
            lines.append(
                f"item {item.label}: dim {item.model.dim}, {classes.get(k)} classes, "
                f"generate {totals['lattice.generate'][1]:.4f} s, "
                f"verify {totals['lattice.verify'][1]:.4f} s, "
                f"meets/joins/svds in generate "
                f"{tracer.within_total('hilbert.meet', 'lattice.generate', k)}/"
                f"{tracer.within_total('hilbert.join', 'lattice.generate', k)}/"
                f"{tracer.within_total('hilbert.svd', 'lattice.generate', k)}")
        return lines


def _round_trip(lat, back, projs, formulas) -> str | None:
    if len(back) != len(lat) or (back.bottom, back.top) != (lat.bottom, lat.top):
        return "import_lattice changed the class count or bounds"
    for a, b in ((lat.order, back.order), (lat.neg_table, back.neg_table),
                 (lat.meet_table, back.meet_table), (lat.join_table, back.join_table)):
        if not np.array_equal(a, b):
            return "import_lattice changed a table"
    if [oracle.from_ast(e.formula) for e in back.elements] != formulas:
        return "import_lattice changed a canonical formula"
    back_projs = np.stack([e.projector.matrix for e in back.elements])
    if np.max(np.abs(back_projs - projs)) > lat.eps:
        return "import_lattice changed a projector"
    return None


def _full_check(item: Item, lat, projs, formulas, violation) -> str | None:
    """Compare one lattice with references computed by oracle.py."""
    n, tol = len(lat), lat.class_tol
    ext = oracle.Extensions(item.atom_proj)
    for i, f in enumerate(formulas):
        if not oracle.close(ext(f), projs[i], tol):
            return f"class {i} projector differs from the extension of its formula"
    for i in range(n):
        for j in range(i + 1, n):
            if oracle.close(projs[i], projs[j], tol):
                return f"classes {i} and {j} have the same projector"
    if lat.elements[lat.bottom].projector.rank != 0 or \
            lat.elements[lat.top].projector.rank != projs.shape[1]:
        return "bottom or top is wrong"
    for i in range(n):
        if not oracle.close(projs[lat.neg_table[i]], oracle.ortho(projs[i]), tol):
            return f"neg table wrong at {i}"
        for j in range(i, n):
            if bool(lat.order[i, j]) != oracle.leq(projs[i], projs[j]) or \
                    bool(lat.order[j, i]) != oracle.leq(projs[j], projs[i]):
                return f"order wrong at {i}, {j}"
            if not oracle.close(projs[lat.meet_table[i, j]], oracle.meet(projs[i], projs[j]), tol):
                return f"meet table wrong at {i}, {j}"
            if not oracle.close(projs[lat.join_table[i, j]], oracle.join(projs[i], projs[j]), tol):
                return f"join table wrong at {i}, {j}"
            if lat.meet_table[i, j] != lat.meet_table[j, i] or \
                    lat.join_table[i, j] != lat.join_table[j, i]:
                return f"tables not symmetric at {i}, {j}"
    if violation is not None:
        a, b, c = (projs[k] for k in violation)
        left = oracle.meet(a, oracle.join(b, c))
        right = oracle.join(oracle.meet(a, b), oracle.meet(a, c))
        if oracle.close(left, right, tol):
            return f"reported distributivity violation {violation} is not one"
    return None


def build(seed: int, root: Path) -> LatticeGrow:
    return LatticeGrow(seed, root)
