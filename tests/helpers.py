"""Seeded random generators and hand-built fixtures shared by the tests."""

import importlib.util
import os
import sys
from pathlib import Path

import numpy as np

from pragmaql import (
    AQ,
    A,
    And,
    Assert,
    Atom,
    C,
    E,
    Iff,
    Implies,
    K,
    LatticeElement,
    N,
    Not,
    Or,
    QuotientLattice,
    random_projector,
)
from pragmaql.hilbert import encode_array

DEFAULT_ATOMS = ("p", "q", "r")


def child_env():
    """The environment for a child interpreter that imports this checkout."""
    src = str(Path(__file__).parent.parent / "src")
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def random_radical(rng, max_depth, atoms=DEFAULT_ATOMS):
    if max_depth <= 0 or rng.random() < 0.3:
        return Atom(str(rng.choice(atoms)))
    pick = int(rng.integers(0, 5))
    if pick == 0:
        return Not(random_radical(rng, max_depth - 1, atoms))
    ctor = (And, Or, Implies, Iff)[pick - 1]
    return ctor(random_radical(rng, max_depth - 1, atoms),
                random_radical(rng, max_depth - 1, atoms))


def random_assertive(rng, max_depth, atoms=DEFAULT_ATOMS):
    if max_depth <= 0 or rng.random() < 0.3:
        return Assert(random_radical(rng, int(rng.integers(0, 3)), atoms))
    pick = int(rng.integers(0, 6))
    if pick == 0:
        return N(random_assertive(rng, max_depth - 1, atoms))
    ctor = (K, A, C, E, AQ)[pick - 1]
    return ctor(random_assertive(rng, max_depth - 1, atoms),
                random_assertive(rng, max_depth - 1, atoms))


def random_quantum(rng, max_depth, atoms, require_composite=False):
    """Random quantum-fragment formula: assertions of atoms under N/K/AQ."""
    if require_composite:
        return _random_quantum_connective(rng, max_depth, atoms)
    if max_depth <= 0 or rng.random() < 0.3:
        return Assert(Atom(str(rng.choice(atoms))))
    return _random_quantum_connective(rng, max_depth, atoms)


def _random_quantum_connective(rng, max_depth, atoms):
    assert max_depth >= 1
    pick = int(rng.integers(0, 3))
    if pick == 0:
        return N(random_quantum(rng, max_depth - 1, atoms))
    ctor = (K, AQ)[pick - 1]
    return ctor(random_quantum(rng, max_depth - 1, atoms),
                random_quantum(rng, max_depth - 1, atoms))


def o6_fixture():
    """Hand-written hexagon: 0 < a < b < 1 and 0 < c < d < 1, with the
    order-reversing involution a<->d, b<->c.  An ortholattice, but the
    orthomodular law fails at (a, b).  Never realizable by projectors,
    hence hand-written tables with no model behind them."""
    n = 6
    BOT, A_, B_, C_, D_, TOP = range(6)
    order = np.zeros((n, n), dtype=bool)
    for i in range(n):
        order[i, i] = True
        order[BOT, i] = True
        order[i, TOP] = True
    order[A_, B_] = True
    order[C_, D_] = True
    neg = np.array([TOP, D_, C_, B_, A_, BOT], dtype=int)

    def glb(x, y):
        lower = [k for k in range(n) if order[k, x] and order[k, y]]
        tops = [k for k in lower if all(order[j, k] for j in lower)]
        assert len(tops) == 1
        return tops[0]

    def lub(x, y):
        upper = [k for k in range(n) if order[x, k] and order[y, k]]
        bots = [k for k in upper if all(order[k, j] for j in upper)]
        assert len(bots) == 1
        return bots[0]

    meet_table = np.array([[glb(x, y) for y in range(n)] for x in range(n)])
    join_table = np.array([[lub(x, y) for y in range(n)] for x in range(n)])
    elements = [LatticeElement(i, None, None) for i in range(n)]
    return QuotientLattice(
        elements=elements, order=order, neg_table=neg,
        meet_table=meet_table, join_table=join_table,
        bottom=BOT, top=TOP,
    )


def seeded_c3_triple(seed):
    """Model document of two planes and a line in general position in C^3,
    atoms a0-a2: a valid model whose generated lattice never saturates."""
    rng = np.random.default_rng(seed)
    projs = [random_projector(3, 2, rng), random_projector(3, 2, rng),
             random_projector(3, 1, rng)]
    return {"dim": 3, "states": {},
            "properties": {f"P{k}": {"matrix": encode_array(p.matrix)}
                           for k, p in enumerate(projs)},
            "atoms": {f"a{k}": f"P{k}" for k in range(3)}}


def _load_blocksum():
    """``perfbench/blocksum.py``, imported from its path without putting its
    directory on the import path; registered first, as dataclasses need."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "blocksum.py"
    spec = importlib.util.spec_from_file_location("blocksum", path)
    module = sys.modules["blocksum"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# seeded block-sum models whose generated lattice is known symbolically
blocksum = _load_blocksum()
