"""Spans around calls into pragmaql, installed from outside the package.

``Tracer.install`` rebinds each traced function in every pragmaql module
that holds it (``pragmaql.lattice.meet`` as well as ``pragmaql.hilbert.meet``),
so calls made from inside the library are seen too; ``uninstall`` puts the
originals back.  Each span keeps its name, start, end, parent span and item
id in flat arrays; self time (duration minus the time covered by child
spans) and call counts are summed per name as spans close.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict

import numpy as np

MODULES = ("pragmaql", "pragmaql.formula", "pragmaql.hilbert", "pragmaql.model",
           "pragmaql.evaluation", "pragmaql.lattice", "pragmaql.cli")

# span name -> functions (by module-level name) that open it
TRACED = {
    "formula.parse": ("parse_assertive", "parse_radical"),
    "formula.print": ("print_formula",),
    "formula.fragment_check": ("quantum_fragment_check",),
    "hilbert.meet": ("meet",),
    "hilbert.join": ("join",),
    "hilbert.ortho": ("ortho",),
    "hilbert.leq": ("leq",),
    "hilbert.contains_state": ("contains_state",),
    "model.load": ("load_model", "load_model_file", "bundled_model"),
    "model.validate": ("validate_model",),
    "evaluation.sigma": ("sigma",),
    "evaluation.justify": ("justify",),
    "evaluation.extension": ("pragmatic_extension",),
    "evaluation.precedes": ("precedes",),
    "evaluation.check_cc": ("check_cc",),
    "lattice.generate": ("generate_quotient",),
    "lattice.verify": ("verify_ortholattice", "verify_orthomodular",
                       "verify_isomorphism", "find_distributivity_violation"),
    "lattice.export": ("export_lattice",),
    "lattice.import": ("import_lattice",),
    "cli.run": ("run",),
}
# ``run`` is a common name: only the CLI's own binding is traced
_ONLY_IN = {"run": ("pragmaql.cli",)}


def _first_dim(args) -> int:
    return args[0].dim


# spans whose calls are also counted per enclosing span of these names
WITHIN = ("lattice.generate",)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self.item_id = -1
        self._stack: list[list] = []   # [span index, name id, child time]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        # per name: dimension -> [calls, total seconds]
        self.by_dim: dict[str, dict[int, list]] = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        self.justify_in_cc = [0, 0]   # justify calls inside check_cc, J verdicts
        # (item id, span name, enclosing span name) -> calls
        self.within: dict[tuple, int] = defaultdict(int)
        self.classes: list[tuple[int, int]] = []   # (item id, classes) per generate
        self._saved: list[tuple] = []
        self._per_item = None

    # -- recording -------------------------------------------------------

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name: str) -> None:
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.item.append(self.item_id)
        self.end.append(0.0)
        self._stack.append([len(self.start), self.name[-1], 0.0])
        self.start.append(time.perf_counter())

    def close(self) -> float:
        t = time.perf_counter()
        index, name_id, child = self._stack.pop()
        self.end[index] = t
        duration = t - self.start[index]
        name = self.names[name_id]
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
            for outer in WITHIN:
                if self.inside(outer):
                    self.within[(self.item_id, name, outer)] += 1
        return duration

    def inside(self, name: str) -> bool:
        i = self._ids.get(name)
        return i is not None and any(frame[1] == i for frame in self._stack)

    def span(self, name: str, func, dim_of=None):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            tracer.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                duration = tracer.close()
            if dim_of is not None:
                slot = tracer.by_dim[name][dim_of(args)]
                slot[0] += 1
                slot[1] += duration
            if name == "lattice.generate":
                tracer.classes.append((tracer.item_id, len(result)))
            if name == "evaluation.justify" and tracer.inside("evaluation.check_cc"):
                tracer.justify_in_cc[0] += 1
                tracer.justify_in_cc[1] += str(result) == "J"
            return result

        return wrapper

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        import importlib

        modules = [importlib.import_module(m) for m in MODULES]
        for span_name, funcs in TRACED.items():
            home = importlib.import_module("pragmaql." + span_name.split(".")[0])
            dim_of = _first_dim if span_name in ("hilbert.meet", "hilbert.join") else None
            for fname in funcs:
                original = getattr(home, fname)
                wrapper = self.span(span_name, original, dim_of)
                for module in modules:
                    if module.__name__ not in _ONLY_IN.get(fname, (module.__name__,)):
                        continue
                    if getattr(module, fname, None) is original:
                        self._saved.append((module, fname, original))
                        setattr(module, fname, wrapper)
        projector = importlib.import_module("pragmaql.hilbert").Projector
        self._saved.append((projector, "basis", projector.basis))
        projector.basis = self.span("hilbert.basis", projector.basis)
        self._saved.append((np.linalg, "svd", np.linalg.svd))
        np.linalg.svd = self.span("hilbert.svd", np.linalg.svd)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------

    def within_total(self, name: str, outer: str, item_id: int | None = None) -> int:
        return sum(n for (i, inner, o), n in self.within.items()
                   if inner == name and o == outer and item_id in (None, i))

    def item_totals(self, item_id: int) -> dict[str, list]:
        """name -> [calls, total duration] over the spans of one item.

        Indexed once, on first use after the traced pass."""
        if self._per_item is None:
            self._per_item = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
            for k in range(len(self.start)):
                slot = self._per_item[self.item[k]][self.names[self.name[k]]]
                slot[0] += 1
                slot[1] += self.end[k] - self.start[k]
        return self._per_item[item_id]

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, np.int32),
                 item=np.frombuffer(self.item, np.int32))


DIMS = (2, 3, 4, 6, 8, 10, 12, 16)
TIMED = ("formula.parse", "formula.print", "formula.fragment_check",
         "hilbert.meet", "hilbert.join", "hilbert.ortho", "hilbert.leq",
         "hilbert.contains_state", "model.load", "evaluation.sigma",
         "evaluation.justify", "evaluation.extension", "evaluation.precedes",
         "evaluation.check_cc", "lattice.generate")
SELF_ONLY = ("model.validate", "lattice.verify", "lattice.export", "lattice.import",
             "cli.run")
# measured by one workload only; the others report 0
WORKLOAD_SPECIFIC = {
    "lattice.ququart_d1.classes": "count", "lattice.ququart_d1.meets": "count",
    "lattice.ququart_d1.joins": "count", "lattice.ququart_d1.svds": "count",
    "lattice.ququart_d1.generate_s": "s", "lattice.ququart_d1.verify_s": "s",
    "evaluation.check_cc.samples1000_s": "s",
    "cli.process_s": "s", "cli.interpreter_s": "s", "cli.import_s": "s",
    "cli.startup_share": "ratio", "cli.parse.process_s": "s",
    "cli.lattice_ququart.process_s": "s",
}


def layer_metrics(t: Tracer, extra: dict) -> dict[str, tuple]:
    """Every per-layer metric as name -> (value, unit); ``extra`` holds the
    workload-specific ones this workload measured."""
    m: dict[str, tuple] = {}
    for name in TIMED:
        m[name + ".calls"] = (t.calls[name], "count")
        m[name + ".self_s"] = (t.self_s[name], "s")
    for name in SELF_ONLY:
        m[name + ".self_s"] = (t.self_s[name], "s")
    for op in ("meet", "join"):
        for d in DIMS:
            calls, total = t.by_dim[f"hilbert.{op}"].get(d, (0, 0.0))
            m[f"hilbert.{op}.us_per_call.d{d}"] = (total / calls * 1e6 if calls else 0.0, "us")
    m["hilbert.svd.calls"] = (t.calls["hilbert.svd"], "count")
    m["hilbert.basis.calls"] = (t.calls["hilbert.basis"], "count")
    runs, js = t.justify_in_cc
    m["evaluation.check_cc.justified_ratio"] = (js / runs if runs else 0.0, "ratio")
    pairs = sum(n * n for _, n in t.classes)
    m["lattice.classes"] = (sum(n for _, n in t.classes), "count")
    for key, inner in (("meets", "hilbert.meet"), ("svds", "hilbert.svd")):
        within = t.within_total(inner, "lattice.generate")
        m[f"lattice.{key}_per_pair"] = (within / pairs if pairs else 0.0, "ratio")
    for name, unit in WORKLOAD_SPECIFIC.items():
        m[name] = (0, unit)
    m.update(extra)
    return m
