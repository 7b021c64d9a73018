"""Reference paths that the library no longer carries, kept for the tests
that check the library against them.

``partial_trace`` and ``von_neumann_entropy`` are the density-matrix route
to a block entropy, beside the library's one path, ``block_entropy``.
``dicke_weights`` is the exact ``Fraction`` route to the Ising-gas block
weights, beside the library's integer recurrence in ``ising_gas_rho_k``.
"""
import math
from fractions import Fraction

import numpy as np

from frustra.spin_core import (
    Bipartition,
    StateVector,
    ValidationError,
    _entropy_bits,
    schmidt_matrix,
)


def partial_trace(state: StateVector, cut: Bipartition) -> np.ndarray:
    """Reduced density matrix on the system sites of the cut."""
    if not state.is_normalized(tol=1e-10):
        raise ValidationError("state must be normalized for partial trace")
    a = schmidt_matrix(state, cut)
    return a @ a.conj().T


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy of a density matrix, in bits."""
    rho = np.asarray(rho)
    tr = float(np.real(np.trace(rho)))
    if abs(tr - 1.0) > 1e-8:
        raise ValidationError(f"density matrix trace {tr} deviates from 1")
    p = np.linalg.eigvalsh(rho)
    if p.min() < -1e-12:
        raise ValidationError("density matrix is not positive semidefinite")
    return _entropy_bits(p)


def dicke_weights(m: int, lam: float, k: int) -> tuple:
    """Block weights C(k, i) C(2m-k, n0-i) / C(2m, n0), n0 = m(1+lam), as
    exact fractions from one ``math.comb`` per binomial, rounded to float."""
    n, n0 = 2 * m, round(m * (1.0 + lam))
    denom = math.comb(n, n0)
    weights = [
        Fraction(math.comb(k, i) * math.comb(n - k, n0 - i), denom)
        if 0 <= n0 - i <= n - k
        else Fraction(0)
        for i in range(k + 1)
    ]
    assert sum(weights) == 1
    return tuple(float(w) for w in weights)
