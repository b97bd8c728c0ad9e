"""Freeness of the ring of integers over the associated order.

beta generates O_L freely over the order iff the matrix whose columns
are the images v_i . beta is unimodular; its determinant also measures
the generalized module index [O_L : order . beta].
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .linalg import Matrix, determinant, unvec, vec
from .order import OrderBasis


class NonIntegralBetaError(Exception):
    pass


@dataclass(frozen=True)
class GeneratorCandidate:
    beta: tuple
    d_beta: Matrix
    det: Fraction

    @property
    def module_index(self) -> Fraction:
        """|det|, the generalized index [O_L : order . beta]."""
        return abs(self.det)


def generator_matrix(ob: OrderBasis, beta) -> GeneratorCandidate:
    """Columns are the integral-basis coordinates of v_i . beta."""
    bundle = ob.bundle
    n = ob.dim
    beta = tuple(Fraction(b) for b in beta)
    if len(beta) != n:
        raise NonIntegralBetaError("beta has wrong length")
    if not all(bundle.ring.is_integral(b) for b in beta):
        raise NonIntegralBetaError("beta must be ring-integral")
    # column j of `blocks` is vec(M_j), so blocks @ beta = vec(sum_j beta_j M_j)
    blocks = Matrix.from_cols([vec(block) for block in bundle.blocks])
    d_beta = unvec(blocks.apply(beta), n) @ ob.basis_in_w
    return GeneratorCandidate(beta=beta, d_beta=d_beta, det=determinant(d_beta))


def is_free_generator(ob: OrderBasis, beta) -> bool:
    """True iff det of the generator matrix is a unit of the ring."""
    cand = generator_matrix(ob, beta)
    return ob.bundle.ring.is_unit(cand.det)


def candidate_box(n: int, bound: int):
    """Nonzero integer vectors in [-bound, bound]^n, graded lex order:
    by max-norm shell first, then lexicographically inside a shell."""
    for k in range(1, bound + 1):
        for beta in itertools.product(range(-k, k + 1), repeat=n):
            if max(abs(b) for b in beta) == k:
                yield beta


def search_free_generator(ob: OrderBasis, bound: int):
    """First free generator in the fixed enumeration, or None."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    for beta in candidate_box(ob.dim, bound):
        cand = generator_matrix(ob, beta)
        if ob.bundle.ring.is_unit(cand.det):
            return cand
    return None
