import math

import numpy as np
import pytest
from hypothesis import settings

import frustra.cooling

# Property tests replay the same examples on every run and never time out
# on a slow machine; pytest --hypothesis-profile selects another profile.
settings.register_profile(
    "tier1", derandomize=True, max_examples=40, deadline=None, database=None
)
settings.load_profile("tier1")


def _single_bond_entropy(n, k):
    """Closed-form entropy of sites 0..k-1 of the cooled single-bond ring.

    The block touches the flipped bond.  The environment holds all 0, all
    1, or a domain wall from one of the two complementary families, so
    rho_k has eigenvalues {n-k-1, k-1, l+, l-}/(2n), with l+/- the
    eigenvalues of [[n-k+3, 2 sqrt(k-1)], [2 sqrt(k-1), k-1]].
    """
    r = math.sqrt(k - 1)
    pair = np.linalg.eigvalsh([[n - k + 3, 2 * r], [2 * r, k - 1]])
    p = np.array([n - k - 1, k - 1, *pair]) / (2 * n)
    p = p[p > 1e-15]
    return float(-(p * np.log2(p)).sum())


@pytest.fixture
def single_bond_entropy():
    return _single_bond_entropy


@pytest.fixture
def diagonalize_calls(monkeypatch):
    """Count the calls cooling makes to ``diagonalize``."""
    calls = []
    diagonalize = frustra.cooling.diagonalize

    def counting_diagonalize(*args, **kwargs):
        calls.append(args)
        return diagonalize(*args, **kwargs)

    monkeypatch.setattr(frustra.cooling, "diagonalize", counting_diagonalize)
    return calls
