"""Workload ``cli-session``: ``python -m pragmaql.cli`` subprocesses in sequence.

The command pool covers all seven subcommands in every format they
accept, on bundled models and on model and overlay files this module
writes, plus domain errors (exit 1) and usage errors (exit 2).  Each
command's stdout, stderr and exit code are compared with references.json;
numbers are compared within 1e-6, runs of whitespace as one space (usage
text wraps with the terminal width), everything else exactly.  Comparing
stderr tells an expected ``error:`` line from a crash, which also exits 1
with empty stdout.  A cycle runs
the whole pool once in an order drawn from the seed, so every seed runs
the same mix of cheap and expensive commands.

Per-command time is mostly interpreter start and imports (importing the
package takes about 55 ms of a 75-110 ms ``parse``), so this is where
import-time changes, and work moved into import, show.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import blocksum
import spans

BUDGET_S = 30.0
PROBES = 9     # interpreter and import probes in the traced run
NUMBER_TOL = 1e-6

_P = ["parse", "-f"]
# category -> [argv, ...]; "{work}" is the work directory
POOL = {
    "parse": [
        _P + ["|- az"], _P + ["|- az", "--format", "structured"],
        _P + ["N(|- az) K |- ax"], _P + ["N(|- az) K |- ax", "--format", "structured"],
        _P + ["(|- a) A (|- b) C |- c"], _P + ["(|- a) A (|- b) C |- c", "--format", "structured"],
        _P + ["|- (p & ~q) AQ N |- r"], _P + ["|- (p & ~q) AQ N |- r", "--format", "structured"],
        _P + ["p -> q <-> ~r | s"], _P + ["p -> q <-> ~r | s", "--format", "structured"],
        _P + ["(|- a K"], _P + ["p & # q", "--format", "structured"],
    ],
    "eval": [
        ["eval", "-m", "qubit-zx", "-s", "z+", "-f", "az & ~ax"],
        ["eval", "-m", "qubit-zx", "-s", "x-", "-f", "ax | az", "--format", "structured"],
        ["eval", "-m", "qutrit-lines", "-s", "e2", "-f", "ap -> aa", "--format", "structured"],
        ["eval", "-m", "ququart-planes", "-s", "diag", "-f", "bd <-> ~bl"],
        ["eval", "-m", "{work}/blocksum.json", "-s", "s0", "-f", "a0 & (a1 | ~a2)"],
        ["eval", "-m", "qubit-zx", "-s", "z+", "-f", "zz"],
        ["eval", "-m", "qubit-zx", "-s", "nowhere", "-f", "az", "--format", "structured"],
    ],
    "extension": [
        ["extension", "-m", "qubit-zx", "-f", "|- az AQ |- ax"],
        ["extension", "-m", "ququart-planes", "-f", "(|- bl) K (|- bd)", "--format", "structured"],
        ["extension", "-m", "qutrit-lines", "-f", "N(|- aa) K |- ap"],
        ["extension", "-m", "{work}/blocksum.json", "-f", "N(|- a0 K |- a1) AQ |- a2",
         "--format", "structured"],
        ["extension", "-m", "qubit-zx", "-f", "(|- az) A (|- ax)"],
        ["extension", "-m", "qubit-zx", "-f", "|- (az & ax)", "--format", "structured"],
    ],
    "justify": [
        ["justify", "-m", "qubit-zx", "-s", "z+", "-f", "|- az"],
        ["justify", "-m", "qutrit-lines", "-s", "d01", "-f", "|- ab AQ |- aa", "--format", "structured"],
        ["justify", "-m", "ququart-planes", "-s", "bell", "-f", "N(|- bl) K N(|- bd)"],
        ["justify", "-m", "{work}/blocksum.json", "-s", "s1", "-f", "N |- a0", "--format", "structured"],
        ["justify", "-m", "qubit-zx", "-s", "y+", "-f", "|- az"],
    ],
    "check": [
        ["check", "-m", "qubit-zx", "--samples", "200"],
        ["check", "-m", "qutrit-lines", "--samples", "200", "--seed", "7", "--format", "structured"],
        ["check", "-m", "qubit-zx", "--samples", "100", "--overlay", "{work}/overlay-ok.json"],
        ["check", "-m", "qubit-zx", "--samples", "100", "--overlay", "{work}/overlay-bad.json",
         "--format", "structured"],
        ["check", "-m", "{work}/blocksum.json", "--samples", "100"],
    ],
    "lattice": [
        ["lattice", "-m", "qubit-zx", "--atoms", "az,ax", "--depth", "1"],
        ["lattice", "-m", "qubit-zx", "--atoms", "az,ax", "--depth", "2", "--format", "structured"],
        ["lattice", "-m", "qutrit-lines", "--atoms", "aa,ab,ap", "--depth", "1", "--format", "dot"],
        ["lattice", "-m", "qutrit-lines", "--atoms", "aa,ab", "--depth", "2"],
        ["lattice", "-m", "{work}/blocksum.json", "--atoms", "a0,a1,a2", "--depth", "1"],
        ["lattice", "-m", "qubit-zx", "--atoms", "az,zz", "--depth", "1"],
    ],
    "lattice_ququart": [
        ["lattice", "-m", "ququart-planes", "--atoms", "bl,bd,bc", "--depth", "1"],
    ],
    "export": [
        ["export", "-m", "qubit-zx", "--atoms", "az,ax", "--depth", "1"],
        ["export", "-m", "qutrit-lines", "--atoms", "aa,ab,ap", "--depth", "1", "--format", "dot"],
        ["export", "-m", "{work}/blocksum.json", "--atoms", "a0,a1,a2", "--depth", "1"],
    ],
    "usage": [
        ["parse"],
        ["lattice", "-m", "qubit-zx", "--atoms", "az", "--depth", "x"],
        ["justify", "-m", "qubit-zx", "-s", "z+", "-f", "|- az", "--format", "dot"],
        ["frobnicate"],
    ],
    "model_error": [
        ["eval", "-m", "{work}/broken.json", "-s", "z+", "-f", "az"],
        ["check", "-m", "no-such-model"],
        ["check", "-m", "qubit-zx", "--overlay", "{work}/broken.json"],
    ],
}

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def same_output(out: str, ref: str) -> bool:
    """Equal up to whitespace runs, with numbers equal within ``NUMBER_TOL``."""
    if _NUMBER.sub("#", " ".join(out.split())) != _NUMBER.sub("#", " ".join(ref.split())):
        return False
    a, b = _NUMBER.findall(out), _NUMBER.findall(ref)
    return len(a) == len(b) and all(x == y or abs(float(x) - float(y)) <= NUMBER_TOL
                                    for x, y in zip(a, b))


def prepare(root: Path) -> Path:
    """Write the model and overlay files the pool refers to."""
    work = root / ".bench_work" / "cli-session"
    work.mkdir(parents=True, exist_ok=True)
    # fixed seed: the recorded stdout refers to exactly this model
    rng = np.random.default_rng(20140901)
    model, _ = blocksum.draw(rng, rng, 6, 3, (12, 16))
    files = {
        "blocksum.json": json.dumps(blocksum.document(model, rng)),
        "overlay-ok.json": json.dumps({"assignments": [
            {"state": "z+", "atom": "az", "value": True},
            {"state": "x+", "atom": "az", "value": False}]}),
        "overlay-bad.json": json.dumps({"assignments": [
            {"state": "z-", "atom": "az", "value": True}]}),
        "broken.json": '{"dim": 2, "states": ',
    }
    for name, text in files.items():
        path = work / name
        # rewriting an existing file can take tens of milliseconds here
        if not path.is_file() or path.read_text() != text:
            path.write_text(text)
    return work


def pool(work: Path) -> list[tuple[str, list[str]]]:
    """(reference key, argv) for every command, in POOL order."""
    return [(" ".join(argv), [a.replace("{work}", str(work)) for a in argv])
            for commands in POOL.values() for argv in commands]


def spawn(argv: list[str], work: Path, timeout: float) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(work.parent.parent / "src"))
    return subprocess.run([sys.executable, "-m", "pragmaql.cli", *argv], cwd=work, env=env,
                          capture_output=True, text=True, timeout=timeout)


@dataclass(eq=False)
class Command:
    label: str
    category: str
    argv: list
    stdout: str
    stderr: str
    exit: int


class CliSession:
    budget_s = BUDGET_S + 5.0   # the subprocess timeout below fires first
    children_rss = True
    traced_run = False
    collect_between = False          # the traced run also calls pragmaql.cli.run in-process

    def __init__(self, seed: int, root: Path):
        self.work = prepare(root)
        refs = json.loads((Path(__file__).parent / "references.json").read_text())["cli"]
        rng = np.random.default_rng([seed, 3])
        items = []
        for category, commands in POOL.items():
            for argv in commands:
                key = " ".join(argv)
                ref = refs[key]
                items.append(Command(key, category,
                                     [a.replace("{work}", str(self.work)) for a in argv],
                                     ref["stdout"],
                                     ref["stderr"].replace("{work}", str(self.work)),
                                     ref["exit"]))
        self.items = [items[i] for i in rng.permutation(len(items))]
        self.trace_items = self.items
        self.tracer = None

    def run(self, item: Command):
        if self.tracer is not None:
            self.tracer.open("cli.process")
        try:
            done = spawn(item.argv, self.work, BUDGET_S)
        finally:
            if self.tracer is not None:
                self.tracer.close()
        if not self.traced_run:
            return done, None
        from pragmaql import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(item.argv)
        return done, (out.getvalue(), err.getvalue(), code)

    def check(self, item: Command, output, error) -> str | None:
        if error is not None:
            return f"raised {type(error).__name__}: {error}"
        done, in_process = output
        runs = [("subprocess", done.stdout, done.stderr, done.returncode)]
        if in_process is not None:
            runs.append(("in-process", *in_process))
        for how, stdout, stderr, code in runs:
            if code != item.exit:
                return f"{how} exit code {code}, expected {item.exit}"
            if not same_output(stdout, item.stdout):
                return f"{how} stdout differs from the reference"
            if not same_output(stderr, item.stderr):
                return f"{how} stderr differs from the reference: {stderr[-300:]!r}"
        return None

    def layer_metrics(self, tracer) -> dict:
        process = {}
        for k, item in enumerate(self.trace_items):
            process.setdefault(item.category, []).append(tracer.item_totals(k)["cli.process"][1])
        interpreter, imported = self._probes(tracer)
        per_process = statistics.median(t for ts in process.values() for t in ts)
        return spans.layer_metrics(tracer, {
            "cli.process_s": (per_process, "s"),
            "cli.interpreter_s": (interpreter, "s"),
            "cli.import_s": (imported, "s"),
            "cli.startup_share": ((interpreter + imported) / per_process, "ratio"),
            "cli.parse.process_s": (statistics.median(process.get("parse", [0.0])), "s"),
            "cli.lattice_ququart.process_s": (
                statistics.median(process.get("lattice_ququart", [0.0])), "s"),
        })

    def _probes(self, tracer) -> tuple[float, float]:
        """Median seconds of ``python -c pass`` and of ``import pragmaql``
        beyond it, the two probes alternating so that drift hits both."""
        env = dict(os.environ, PYTHONPATH=str(self.work.parent.parent / "src"))
        times: dict[str, list] = {"pass": [], "import pragmaql": []}
        for _ in range(PROBES):
            for code, name in (("pass", "cli.interpreter"), ("import pragmaql", "cli.import")):
                tracer.open(name)
                t0 = time.perf_counter()
                subprocess.run([sys.executable, "-c", code], cwd=self.work, env=env,
                               check=True, timeout=BUDGET_S)
                times[code].append(time.perf_counter() - t0)
                tracer.close()
        interpreter = statistics.median(times["pass"])
        return interpreter, statistics.median(times["import pragmaql"]) - interpreter

    def report(self, tracer) -> list[str]:
        lines = []
        for k, item in enumerate(self.trace_items):
            totals = tracer.item_totals(k)
            lines.append(f"item {item.category}: process {totals['cli.process'][1]:.4f} s, "
                         f"in-process run {totals['cli.run'][1]:.4f} s: {item.label}")
        return lines


def build(seed: int, root: Path) -> CliSession:
    return CliSession(seed, root)
