"""Seeded random generators and hand-built fixtures shared by the tests."""

import importlib.util
import json
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
from pragmaql.hilbert import _sine_cutoff, encode_array

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


def frame_span_dims(a, ra, b, rb, eps):
    """Reference ``(span, alpha, gap)`` of the span of the ranges of the
    projector matrices ``a[k]`` and ``b[k]``, of ranks ``ra[k]`` and
    ``rb[k]``, by frames: the unitaries of a full SVD of each matrix, whose
    first r columns span its range.  The block of F_aᴴ F_b whose rows are
    A's complement and whose columns are B's range holds the sines of the
    principal angles (Björck and Golub, 1973); it is formed premasked, as a
    dim x dim product with every other entry zero, and every pair takes one
    row of a values-only SVD of it, commuting or not.  The span is r_a plus
    the sines above the sine cutoff, alpha the largest sine at or below it
    (0 for none), and gap sqrt(1 - cos theta_min) of the smallest sine
    above it (1 for none)."""
    at = np.arange(a.shape[-1])
    complements = np.where(at[:, None] >= ra[:, None, None],
                           np.linalg.svd(a)[0].conj().swapaxes(1, 2), 0)
    ranges = np.where(at < rb[:, None, None], np.linalg.svd(b)[0], 0)
    s = np.linalg.svd(complements @ ranges, compute_uv=False)
    above = s > _sine_cutoff(eps, a.shape[-1])
    alpha = np.where(above, 0.0, s).max(axis=1, initial=0.0)
    sin = np.where(above, np.minimum(s, 1.0), 1.0).min(axis=1, initial=1.0)
    return ra + np.count_nonzero(above, axis=1), alpha, sin / np.sqrt(1.0 + np.sqrt(1.0 - sin * sin))


# values a fault puts in place of one node: extreme and non-finite numbers,
# and every other JSON type
ODD_VALUES = [1e308, -1e308, 5e-324, 0, -1, 2**70, float("inf"), float("nan"), 2.5, "x", "",
              None, True, [], {}, [[1, 0]], {"span": []}]


def mutated(document, rng, depths=(3, 40, 3000)):
    """The JSON text of ``document`` with one seeded fault at a node drawn
    from all of its nodes: the node replaced by an odd value, deleted, or
    nested in lists ``depths`` deep, by default 3 or 40 deep (a value of the
    wrong shape) or 3,000 deep (past what the JSON decoder reads)."""
    doc = json.loads(json.dumps(document))
    nodes = []   # (container, key) of every node but the root

    def walk(node):
        keys = node.keys() if isinstance(node, dict) else range(len(node))
        for key in list(keys):
            nodes.append((node, key))
            if isinstance(node[key], (dict, list)):
                walk(node[key])

    walk(doc)
    container, key = nodes[int(rng.integers(len(nodes)))]
    fault = int(rng.integers(3))
    if fault == 0:
        container[key] = ODD_VALUES[int(rng.integers(len(ODD_VALUES)))]
    elif fault == 1:
        del container[key]
    else:
        depth = depths[int(rng.integers(len(depths)))]
        inner, container[key] = json.dumps(container[key]), "nested"
        return json.dumps(doc).replace('"nested"', "[" * depth + inner + "]" * depth, 1)
    return json.dumps(doc)


def defective_planes(d, eps=1e-9):
    """``(document, raw)``: the model document of two planes P = span(v, x)
    and Q = span(v, y) in C^d, atoms ``a`` and ``b``, sharing the line of
    v, which is spread evenly over the coordinates, with x and y orthonormal
    to v and 0.7 radians apart, so that P and Q do not commute; and P's
    matrix as the document gives it.  That matrix has the eigenvalue
    1 - 0.9 d eps on v: its max-entry idempotence defect is 0.9 eps, which
    the tolerance policy accepts, but its distance from Q's range along v
    is past the sine cutoff eps sqrt(2 d) at every d >= 3."""
    rng = np.random.default_rng(d)
    v = np.full(d, d ** -0.5)
    basis = np.linalg.qr(np.column_stack([v, rng.normal(size=(d, d - 1))]))[0]
    x, y = basis[:, 1], np.cos(0.7) * basis[:, 1] + np.sin(0.7) * basis[:, 2]
    raw = ((1 - 0.9 * d * eps) * np.outer(v, v) + np.outer(x, x)).astype(complex)
    q = np.outer(v, v) + np.outer(y, y)
    document = {"dim": d, "eps": eps, "states": {},
                "properties": {"P": {"matrix": encode_array(raw)},
                               "Q": {"matrix": encode_array(q)}},
                "atoms": {"a": "P", "b": "Q"}}
    return document, raw


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
