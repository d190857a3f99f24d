"""Workload ``query-mix``: in-process queries against models of dimension 2-16.

Each cycle of the item list holds, per 100 items: 14 ``parse_assertive``,
8 ``parse_radical``, 14 ``sigma``, 22 ``justify``, 14
``pragmatic_extension``, 16 ``precedes`` and 12 ``check_cc`` (50 probe
states; one per list uses 1000).  Formulas nest up to depth 5.  About a
tenth of the items are malformed texts, non-quantum formulas or unknown
atoms, and must raise ParseError, NonQuantumFormulaError or
UnknownNameError.  Models are the three bundled ones and four block-sum
models of dimension 6, 8, 12 and 16.  Every answer is compared with
oracle.py.

This workload never touches ``lattice``; it calls ``hilbert`` many times at
small sizes, where per-call overhead dominates.  Its tail is the
``check_cc`` items.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

import blocksum
import oracle
import pragmaql as pq
import spans

BLOCKSUM_DIMS = (6, 8, 12, 16)
LIST_BLOCKS = 60          # the list holds 60 x 100 items
# kind -> (items per 100, of which expected errors)
MIX = {"parse_assertive": (14, 2), "parse_radical": (8, 1), "sigma": (14, 1),
       "justify": (22, 2), "extension": (14, 2), "precedes": (16, 1), "check_cc": (12, 0)}
CC_SAMPLES = 50
BUDGET_S = 10.0
CLASS_TOL = 1e-8


@dataclass(eq=False)
class Query:
    label: str
    kind: str
    model: object
    args: tuple
    expect: object = None     # reference answer
    error: type | None = None  # expected domain error


@dataclass(eq=False)
class ModelInfo:
    name: str
    model: object
    atoms: list
    states: dict          # name -> amplitudes
    ext: oracle.Extensions


def _models(rng) -> list[ModelInfo]:
    docs = [(name, pq.bundled_model_document(name))
            for name in ("qubit-zx", "qutrit-lines", "ququart-planes")]
    for dim in BLOCKSUM_DIMS:
        bs, _ = blocksum.draw(np.random.default_rng([dim]), rng, dim, 3, (8, 40))
        docs.append((f"blocksum-{dim}d", blocksum.document(bs, rng)))
    infos = []
    for name, doc in docs:
        model = pq.load_model(doc)
        atom_proj = {a: model.properties[p].matrix for a, p in model.atom_map.items()}
        infos.append(ModelInfo(name, model, list(model.atom_map),
                               {s: v.amplitudes for s, v in model.states.items()},
                               oracle.Extensions(atom_proj)))
    return infos


# -- formula generation ----------------------------------------------------


def _radical(rng, atoms, depth):
    if depth == 0 or rng.random() < 0.3:
        return ("atom", atoms[rng.integers(len(atoms))])
    if rng.random() < 0.25:
        return ("not", _radical(rng, atoms, depth - 1))
    op = ("and", "or", "implies", "iff")[rng.integers(4)]
    return (op, _radical(rng, atoms, depth - 1), _radical(rng, atoms, depth - 1))


def _assertive(rng, atoms, depth):
    if depth == 0 or rng.random() < 0.25:
        return ("assert", ("atom", atoms[rng.integers(len(atoms))]))
    if rng.random() < 0.3:
        return ("N", _assertive(rng, atoms, depth - 1))
    op = ("K", "AQ")[rng.integers(2)]
    return (op, _assertive(rng, atoms, depth - 1), _assertive(rng, atoms, depth - 1))


def _non_quantum(rng, f, atoms):
    """``f`` with one node moved outside the quantum fragment."""
    if f[0] == "assert":
        if rng.random() < 0.5:
            return ("assert", ("and", f[1], ("atom", atoms[0])))
        return ("assert", ("not", f[1]))
    if f[0] == "N":
        return ("N", _non_quantum(rng, f[1], atoms))
    if rng.random() < 0.4:
        return (("A", "C", "E")[rng.integers(3)], f[1], f[2])
    if rng.random() < 0.5:
        return (f[0], _non_quantum(rng, f[1], atoms), f[2])
    return (f[0], f[1], _non_quantum(rng, f[2], atoms))


def _text(rng, f) -> str:
    """Canonical tokens joined by 0-2 spaces (at least one between words)."""
    out = ""
    for t in oracle.tokens(f):
        gap = int(rng.integers(3))
        if out and (out[-1].isalnum() or out[-1] == "_") and (t[0].isalnum() or t[0] == "_"):
            gap = max(gap, 1)
        out += " " * gap + t
    return out


def _malformed(rng, text: str, binary: str) -> str:
    kind = rng.integers(3)
    if kind == 0 and text.endswith(")"):
        return text[:-1]
    if kind == 1:
        cut = int(rng.integers(len(text) + 1))
        return text[:cut] + " # " + text[cut:]
    return text + " " + binary


# -- the workload -----------------------------------------------------------


class QueryMix:
    budget_s = BUDGET_S
    children_rss = False
    traced_run = False
    collect_between = False

    def __init__(self, seed: int, root: Path):
        rng = np.random.default_rng([seed, 2])
        self.models = _models(rng)
        items: list[Query] = []
        turn = {kind: 0 for kind in MIX}
        for _ in range(LIST_BLOCKS):
            kinds = []
            for kind, (count, errors) in MIX.items():
                kinds += [(kind, k < errors) for k in range(count)]
            for i in rng.permutation(len(kinds)):
                kind, bad = kinds[i]
                info = self.models[turn[kind] % len(self.models)]
                turn[kind] += 1
                items.append(self._query(rng, kind, bad, info))
        # one check_cc with 1000 probes per list, on the 4-dimensional model
        items[-1] = Query("check_cc/1000", "check_cc", self.models[2].model, (1000, seed))
        self.items = items
        self.trace_items = items * 2
        self.tracer = None

    def _query(self, rng, kind, bad, info: ModelInfo) -> Query:
        atoms = info.atoms
        label = f"{kind}/{info.name}" + ("/error" if bad else "")
        if kind == "check_cc":
            return Query(label, kind, info.model, (CC_SAMPLES, int(rng.integers(1 << 30))))
        if kind == "parse_radical":
            r = _radical(rng, atoms, int(rng.integers(1, 6)))
            text = _text(rng, r)
            if bad:
                return Query(label, kind, None, (_malformed(rng, text, "&"),), error=pq.ParseError)
            return Query(label, kind, None, (text,), r)
        if kind == "parse_assertive":
            f = _assertive(rng, atoms, int(rng.integers(1, 6)))
            if rng.random() < 0.3:
                f = _non_quantum(rng, f, atoms)
            text = _text(rng, f)
            if bad:
                return Query(label, kind, None, (_malformed(rng, text, "K"),), error=pq.ParseError)
            return Query(label, kind, None, (text,), f)
        states = list(info.states)
        state = states[rng.integers(len(states))]
        if kind == "sigma":
            r = _radical(rng, atoms, int(rng.integers(1, 4)))
            if bad:
                r = ("and", r, ("atom", "zz"))
                return Query(label, kind, info.model, (state, _text(rng, r)),
                             error=pq.UnknownNameError)
            expect = oracle.sigma(info.ext.atom_proj, info.states[state], r, info.model.eps)
            return Query(label, kind, info.model, (state, _text(rng, r)), expect)
        f = _assertive(rng, atoms, int(rng.integers(1, 6 if kind != "precedes" else 5)))
        if bad:
            f = _non_quantum(rng, f, atoms)
        if kind == "justify":
            expect = None if bad else ("J" if oracle.justified(
                info.ext(f), info.states[state], info.model.eps) else "U")
            return Query(label, kind, info.model, (state, _text(rng, f)), expect,
                         pq.NonQuantumFormulaError if bad else None)
        if kind == "extension":
            return Query(label, kind, info.model, (_text(rng, f),),
                         None if bad else info.ext(f), pq.NonQuantumFormulaError if bad else None)
        # precedes: pairs known to be ordered, and random pairs
        g = _assertive(rng, atoms, int(rng.integers(0, 3)))
        pick = rng.integers(4)
        first, second = ((f, ("AQ", f, g)), (("K", g, f), f), (f, g), (f, f))[pick]
        if bad:
            second = _non_quantum(rng, second, atoms)
            return Query(label, kind, info.model, (_text(rng, first), _text(rng, second)),
                         error=pq.NonQuantumFormulaError)
        expect = oracle.leq(info.ext(first), info.ext(second))
        return Query(label, kind, info.model, (_text(rng, first), _text(rng, second)), expect)

    def run(self, q: Query):
        kind, m, a = q.kind, q.model, q.args
        if kind == "parse_assertive":
            return pq.parse_assertive(a[0])
        if kind == "parse_radical":
            return pq.parse_radical(a[0])
        if kind == "sigma":
            return pq.sigma(m, a[0], a[1])
        if kind == "justify":
            return pq.justify(m, a[0], a[1])
        if kind == "extension":
            return pq.pragmatic_extension(m, a[0])
        if kind == "precedes":
            return pq.precedes(m, a[0], a[1])
        return pq.check_cc(m, samples=a[0], seed=a[1])

    def check(self, q: Query, out, error) -> str | None:
        if q.error is not None:
            if isinstance(error, q.error):
                return None
            return f"expected {q.error.__name__}, got {type(error).__name__ if error else out!r}"
        if error is not None:
            return f"raised {type(error).__name__}: {error}"
        if q.kind.startswith("parse"):
            ok = oracle.from_ast(out) == q.expect
        elif q.kind in ("sigma", "justify"):
            ok = str(out) == q.expect
        elif q.kind == "extension":
            ok = oracle.close(out.matrix, q.expect, CLASS_TOL)
        elif q.kind == "precedes":
            ok = out is q.expect
        else:
            ok = out.ok and not out.findings
        return None if ok else f"answer {out!r} differs from the reference"

    def layer_metrics(self, tracer) -> dict:
        k = len(self.items) - 1   # the first pass's check_cc with 1000 probes
        return spans.layer_metrics(tracer, {
            "evaluation.check_cc.samples1000_s": (
                tracer.item_totals(k)["evaluation.check_cc"][1], "s")})

    def report(self, tracer) -> list[str]:
        n = len(self.items)
        return [f"check_cc with 1000 probes: "
                f"{tracer.item_totals(n - 1)['evaluation.check_cc'][1] * 1e3:.2f} ms"]


def build(seed: int, root: Path) -> QueryMix:
    return QueryMix(seed, root)
