"""Seeded direct-sum models whose quotient lattice is known in advance.

A model is a direct sum of 2-dimensional and 1-dimensional blocks, hidden
behind one Haar-random unitary so that every matrix is dense.  Inside a
2-dimensional block an atom is the zero space, the whole block, or a real
line at one of ``GRID`` directions (multiples of pi/GRID past a per-block
offset); inside a 1-dimensional block it is zero or the whole block.

Because ortho, meet and join act block by block, the lattice the atoms
generate can be computed symbolically on tuples of block values.  That
gives an exact class count and an exact projector for every class without
calling the code under test, and it bounds the lattice size before any
numerical work runs: a 2-dimensional block carrying k distinct lines
contributes at most 2k + 2 classes, a 1-dimensional block at most 2.
Tensor products of the bundled models are avoided on purpose: their
lattices keep growing over closure rounds instead of saturating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GRID = 12
CEILING = 128     # draws whose product bound exceeds this are rejected unclosed
TRIES = 10_000
ZERO, WHOLE = -1, -2


def _ortho(v: int) -> int:
    if v == ZERO:
        return WHOLE
    if v == WHOLE:
        return ZERO
    return (v + GRID // 2) % GRID


def _meet(x: int, y: int) -> int:
    if x == y or y == WHOLE:
        return x
    if x == WHOLE:
        return y
    return ZERO


def _join(x: int, y: int) -> int:
    if x == y or y == ZERO:
        return x
    if x == ZERO:
        return y
    return WHOLE


def ortho(e: tuple) -> tuple:
    return tuple(_ortho(v) for v in e)


def meet(a: tuple, b: tuple) -> tuple:
    return tuple(_meet(x, y) for x, y in zip(a, b))


def join(a: tuple, b: tuple) -> tuple:
    return tuple(_join(x, y) for x, y in zip(a, b))


def closure(atoms) -> list[tuple]:
    """Every element the atoms generate under ortho, meet and join."""
    found = list(dict.fromkeys(atoms))
    seen = set(found)
    new = list(found)
    while new:
        fresh = []

        def add(e):
            if e not in seen:
                seen.add(e)
                fresh.append(e)

        for a in new:
            add(ortho(a))
        for a in new:
            for b in found:
                add(meet(a, b))
                add(join(a, b))
        found += fresh
        new = fresh
    return found


@dataclass(frozen=True, eq=False)
class BlockSum:
    blocks: tuple[int, ...]          # block sizes, each 1 or 2
    offsets: tuple[float, ...]       # line-direction offset per block
    atoms: tuple[tuple[int, ...], ...]
    unitary: np.ndarray

    @property
    def dim(self) -> int:
        return sum(self.blocks)

    def bound(self) -> int:
        """Size of the product of the block lattices, an upper bound on the
        class count.  Blocks on which every atom takes the same values are
        equal in every generated element, so they count once."""
        total = 1
        for size, column in {(size, tuple(a[b] for a in self.atoms))
                             for b, size in enumerate(self.blocks)}:
            lines = {v % (GRID // 2) for v in column if v >= 0}
            total *= 2 * len(lines) + 2 if size == 2 else 2
        return total

    def projector(self, element: tuple) -> np.ndarray:
        diag = np.zeros((self.dim, self.dim), dtype=np.complex128)
        start = 0
        for size, offset, v in zip(self.blocks, self.offsets, element):
            if v == WHOLE:
                diag[start:start + size, start:start + size] = np.eye(size)
            elif v != ZERO:
                theta = offset + v * math.pi / GRID
                u = np.array([math.cos(theta), math.sin(theta)])
                diag[start:start + 2, start:start + 2] = np.outer(u, u)
            start += size
        return self.unitary @ diag @ self.unitary.conj().T


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def draw(structure: np.random.Generator, geometry: np.random.Generator, dim: int,
         n_atoms: int, classes: tuple[int, int]) -> tuple[BlockSum, list[tuple]]:
    """A model of the given dimension whose lattice has a class count in
    ``classes`` (inclusive), with its symbolic lattice.

    ``structure`` draws the blocks and each atom's block values, and so
    fixes the lattice and the work of building it; ``geometry`` draws the
    line offsets and the unitary.  Draws whose product bound exceeds
    ``CEILING`` are rejected before the closure is computed.
    """
    lo, hi = classes
    for _ in range(TRIES):
        pairs = int(structure.integers(1, dim // 2 + 1))
        blocks = [2] * pairs + [1] * (dim - 2 * pairs)
        structure.shuffle(blocks)
        # most blocks copy an earlier block's column, so that large
        # dimensions do not force large lattices
        columns: list[tuple[int, ...]] = []
        for size in blocks:
            earlier = [c for c, s in zip(columns, blocks) if s == size]
            if earlier and structure.random() < 0.6:
                columns.append(earlier[int(structure.integers(len(earlier)))])
            elif size == 1:
                columns.append(tuple(int(v) for v in structure.choice((ZERO, WHOLE), n_atoms)))
            else:
                columns.append(tuple(
                    ZERO if r < 0.2 else WHOLE if r < 0.35 else int(structure.integers(GRID))
                    for r in structure.random(n_atoms)))
        atoms = tuple(zip(*columns))
        if len(set(atoms)) < n_atoms:
            continue
        model = BlockSum(tuple(blocks), (0.0,) * dim, atoms, np.eye(dim))
        if model.bound() > CEILING:
            continue
        lattice = closure(model.atoms)
        if lo <= len(lattice) <= hi:
            offsets = tuple(float(x) for x in geometry.uniform(0, math.pi / GRID, len(blocks)))
            return BlockSum(model.blocks, offsets, atoms, haar_unitary(dim, geometry)), lattice
    raise RuntimeError(f"no dim-{dim} draw with {lo}-{hi} classes in {TRIES} tries")


def distributive(model: BlockSum) -> bool:
    """Whether the generated lattice is distributive.

    Projecting onto a block is a surjective homomorphism onto the block's
    generated lattice, so the whole is distributive exactly when every
    block's part is: no 2-dimensional block may carry lines from two
    different orthogonal pairs (that part would contain MO2).
    """
    for b, size in enumerate(model.blocks):
        pairs = {a[b] % (GRID // 2) for a in model.atoms if a[b] >= 0}
        if size == 2 and len(pairs) >= 2:
            return False
    return True


def _encode(values) -> list:
    return [[float(z.real), float(z.imag)] for z in values]


def document(model: BlockSum, rng: np.random.Generator | None = None) -> dict:
    """A pragmaql model document: atoms ``a0``.. on properties ``P0``..

    With ``rng``, it also declares states: one inside and one orthogonal to
    each atom (where that space is not zero) and two Haar-random ones.
    """
    projs = [model.projector(a) for a in model.atoms]
    states = {}
    if rng is not None:
        vectors = []
        for p in projs:
            for side in (p, np.eye(model.dim) - p):
                if np.trace(side).real > 0.5:
                    vectors.append(side @ (rng.standard_normal(model.dim)
                                           + 1j * rng.standard_normal(model.dim)))
        vectors += [rng.standard_normal(model.dim) + 1j * rng.standard_normal(model.dim)
                    for _ in range(2)]
        states = {f"s{i}": _encode(v / np.linalg.norm(v)) for i, v in enumerate(vectors)}
    return {
        "dim": model.dim,
        "states": states,
        "properties": {f"P{i}": {"matrix": [_encode(row) for row in p]}
                       for i, p in enumerate(projs)},
        "atoms": {f"a{i}": f"P{i}" for i in range(len(projs))},
    }
