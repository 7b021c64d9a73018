"""Combinatorial closed forms for the entanglement of the prototype models.

These serve as oracles against exact diagonalization at small sizes and
extend the same quantities far beyond dense-diagonalization reach.  Exact
big-integer arithmetic is used where feasible, switching to log-space
(lgamma) evaluation for very large systems.  The Dicke block weights come
one scan of cuts at a time (``ising_gas_spectra``), which shares its exact
work across the cuts: one C(2m, m(1+lam)) to divide every numerator by,
and each cut's starting numerator stepped from its neighbour's.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .models import SingleBondIsing, dimer_product_state, shastry_sutherland_diagonals
from .spin_core import (
    StateVector,
    ValidationError,
    _check_dense_bytes,
    schmidt_weights,
    shannon_entropy,
)

# Exact rational weights up to this m; larger systems go through lgamma.
_EXACT_M_LIMIT = 1000


def _lbinom(a: int, b: int) -> float:
    if b < 0 or a < 0 or b > a:
        return -math.inf
    return math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)


# ---------------------------------------------------------------------------
# Case 1: long-range Ising gas


@dataclass(frozen=True)
class DickeSpectrum:
    """Reduced-density-matrix spectrum of a k-site block of a Dicke state.

    The weights are hypergeometric: drawing k sites out of 2m of which
    ``num_zeros`` are in |0>, weight i is the probability of finding i
    zeros inside the block.
    """

    k: int
    m: int
    lam: float
    weights: tuple

    def entropy(self) -> float:
        return shannon_entropy(self.weights)


def ising_gas_spectra(m: int, lam: float, ks) -> list:
    """Exact block spectra of the cooled Ising-gas (Dicke) state, one
    ``DickeSpectrum`` per cut size in ``ks``, in that order.

    Requires m*(1+lam) to be an integer so the zero count of the Dicke
    state is well defined.  Weight i is C(k, i) C(2m-k, n0-i) / C(2m, n0)
    for n0 = m(1+lam) zeros, nonzero for lo <= i <= hi.  Every k is
    checked before any weight is computed.

    For m <= 1000 the numerators are exact integers.  C(2m, n0) is taken
    once per scan.  A cut's starting numerator C(2m-k, n0-hi) is C(2m-k,
    n1) with n1 = 2m - n0 ones, or 1 when 2m-k < n1; from one cut to a
    neighbour k +- 1 it is stepped by the exact recurrence C(N-1, n1) =
    C(N, n1)(N-n1)/N, and ``math.comb`` runs only for the first cut and
    after a jump.  The walk down from i = hi steps both binomials with the
    exact recurrences C(N, r+1) = C(N, r)(N-r)/(r+1) and C(k, i-1) =
    C(k, i) i/(k-i+1), from C(k, hi).  The numerators must sum to C(2m, n0)
    (Vandermonde), and each weight is one int/int division, which Python
    rounds correctly.  Above m = 1000 the weights are evaluated in
    log-space, with three ``math.lgamma`` calls per log-binomial; the
    log of C(2m, n0) is taken once per scan.  Nothing is kept between
    calls.
    """
    n0f = m * (1.0 + lam)
    n0 = round(n0f)
    if abs(n0f - n0) > 1e-9:
        raise ValidationError(
            "lambda must be on the j/m grid so that m(1+lambda) is an integer"
        )
    n = 2 * m
    ks = list(ks)
    if not all(0 <= k <= n for k in ks):
        raise ValidationError("k out of range")
    out = []
    if m <= _EXACT_M_LIMIT:
        denom = math.comb(n, n0)
        n1, last = n - n0, None  # cr = C(n-k, n0-hi) of the cut k = last
        for k in ks:
            lo, hi = max(0, n0 - (n - k)), min(k, n0)
            env = n - k
            if last == k + 1 and env > n1:
                cr = cr * env // (env - n1)
            elif last == k - 1 and env >= n1:
                cr = cr * (env + 1 - n1) // (env + 1)
            elif last not in (k, k + 1, k - 1):
                cr = math.comb(env, n0 - hi)
            last = k
            nums = [0] * (k + 1)
            ck, c = math.comb(k, hi), cr
            for i in range(hi, lo - 1, -1):
                nums[i] = ck * c
                r = n0 - i
                c = c * (env - r) // (r + 1)
                ck = ck * i // (k - i + 1)
            assert sum(nums) == denom
            out.append(tuple(num / denom for num in nums))
    else:
        total = _lbinom(n, n0)
        for k in ks:
            lw = np.array(
                [_lbinom(k, i) + _lbinom(n - k, n0 - i) - total for i in range(k + 1)]
            )
            weights = np.where(np.isfinite(lw), np.exp(lw), 0.0)
            out.append(tuple(weights / weights.sum()))
    return [DickeSpectrum(k=k, m=m, lam=lam, weights=w) for k, w in zip(ks, out)]


def ising_gas_asymptote(k: int, lam: float) -> float:
    """Leading-order block entropy (1/2) log2((1 - lam^2) k).

    Valid only for k << 2m.  The block weights are hypergeometric, with
    variance k p (1-p) (N-k)/(N-1) for N = 2m sites and p = (1+lam)/2, so
    at finite N the entropy gain per doubling of k is
    1/2 + (1/2) log2((N-2k)/(N-k)) rather than 1/2 (0.4126 at k=2048,
    N=20000).
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    if not (0.0 <= lam < 1.0):
        raise ValidationError("lambda must lie in [0, 1)")
    return 0.5 * math.log2((1.0 - lam * lam) * k)


def ising_gas_stirling_weights(k: int, lam: float):
    """Binomial weights e_i = C(k,i) (1+lam)^i (1-lam)^{k-i} / 2^k."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    if not (0.0 <= lam < 1.0):
        raise ValidationError("lambda must lie in [0, 1)")
    p = (1.0 + lam) / 2.0
    lw = np.array(
        [_lbinom(k, i) + i * math.log(p) + (k - i) * math.log1p(-p) for i in range(k + 1)]
    )
    w = np.exp(lw)
    return w / w.sum()


# ---------------------------------------------------------------------------
# Case 2: long-range Heisenberg gas


def heisenberg_gas_bound(b: int, w: int) -> float:
    """Schmidt-rank bound log2((b+1)(w+1)) for a cut with b black and w
    white sites on the system side."""
    if b < 0 or w < 0:
        raise ValidationError("b and w must be nonnegative")
    return math.log2((b + 1) * (w + 1))


def heisenberg_gas_schmidt_state(m: int, k: int):
    """Angular-momentum coupling coefficients of the single-color cut.

    For a block of k same-color sites out of 2m, the cooled state couples
    the block's symmetric spin-k/2 with the rest.  Using integer labels
    a = M + k/2 (block) and b = p + m/2 (total black magnetization), the
    squared coefficient is C(k,a) C(m-k, b-a) / C(m, b) / (m+1).

    Returns (coefficients dict {(a, b): value}, reduced spectrum list over a).
    """
    if not (0 <= k <= m):
        raise ValidationError("k out of range")
    coeffs = {}
    spectrum = []
    for a in range(k + 1):
        lam_a = Fraction(0)
        for b in range(m + 1):
            if not (0 <= b - a <= m - k):
                continue
            c2 = Fraction(
                math.comb(k, a) * math.comb(m - k, b - a), math.comb(m, b)
            ) / (m + 1)
            sign = -1.0 if b % 2 else 1.0
            coeffs[(a, b)] = sign * math.sqrt(float(c2))
            lam_a += c2
        spectrum.append(float(lam_a))
    return coeffs, spectrum


# ---------------------------------------------------------------------------
# Case 3: RVB plaquette states


def rvb_q(d: float) -> float:
    """Mean-field vertical-pair amplitude q(d)."""
    if not (0.0 <= d < 1.0):
        raise ValidationError("d must lie in [0, 1)")
    return (-1.0 + math.sqrt(1.0 + 12.0 * d * (1.0 - d))) / (6.0 * (1.0 - d))


def rvb_plaquette_entropy(d: float) -> float:
    """Per-plaquette cut entropy E_pl(d) of the mean-field plaquette state.

    E_pl(d) = log2(1 + 3q^2) - (3q^2 / (1 + 3q^2)) log2(q^2).
    """
    q = rvb_q(d)
    if q == 0.0:
        return 0.0
    t = 3.0 * q * q
    return math.log2(1.0 + t) - (t / (1.0 + t)) * math.log2(q * q)


@dataclass(frozen=True)
class RVBState:
    """Plaquette-label Schmidt data of the fixed-density RVB superposition.

    ``c`` is the coefficient matrix over the orthonormalized system label l
    (vertical plaquettes among the k system plaquettes) and environment
    label r.  Its Schmidt weights (squared singular values) give the block
    entropy in the plaquette-label space.
    """

    m2: int
    s: int
    k: int
    c: np.ndarray

    def entropy(self) -> float:
        p = schmidt_weights(self.c)
        p = p / p.sum()
        return shannon_entropy(p)


def rvb_state(m2: int, d: float, k: int) -> RVBState:
    """Exact coefficient matrix of the density-d RVB state for a block of
    k whole plaquettes.

    c_{l,r} is proportional to sqrt(3^l C(k,l)) sqrt(3^r C(m2-k,r))
    C(m2-l-r, s-l-r), evaluated in log-space and normalized.
    """
    sf = d * m2
    s = round(sf)
    if abs(sf - s) > 1e-9 or not (0 <= s <= m2):
        raise ValidationError("d*m2 must be an integer vertical count in range")
    if not (0 < k < m2):
        raise ValidationError("k must satisfy 0 < k < m2")
    lmax = min(s, k)
    rmax = min(s, m2 - k)
    logs = np.full((lmax + 1, rmax + 1), -math.inf)
    for l in range(lmax + 1):
        for r in range(min(s - l, m2 - k) + 1):
            logs[l, r] = (
                0.5 * (l * math.log(3.0) + _lbinom(k, l))
                + 0.5 * (r * math.log(3.0) + _lbinom(m2 - k, r))
                + _lbinom(m2 - l - r, s - l - r)
            )
    finite = np.isfinite(logs)
    if not finite.any():
        raise ValidationError("empty coefficient matrix")
    c = np.where(finite, np.exp(logs - logs[finite].max()), 0.0)
    c = c / np.linalg.norm(c)
    return RVBState(m2=m2, s=s, k=k, c=c)


def _plaquette_pair_states():
    """The two orthonormal 4-spin plaquette states in the physical basis.

    Plaquette sites are ordered TL, TR, BL, BR as bits 0..3.  e0 is the
    horizontal singlet pair |HH>; e1 completes |VV> to an orthonormal pair
    via e1 = (2|VV> - |HH>)/sqrt(3), using <HH|VV> = 1/2.
    """
    hh = dimer_product_state(4, [(0, 1), (2, 3)]).amplitudes
    vv = dimer_product_state(4, [(0, 2), (1, 3)]).amplitudes
    e0 = hh
    e1 = (2.0 * vv - hh) / math.sqrt(3.0)
    return e0, e1


def rvb_cut_plaquette_entropy(m2: int, d: float) -> float:
    """Exact entropy of a cut slicing horizontally through one plaquette.

    The system side holds the top half (2 spins) of a single boundary
    plaquette; everything else, including the plaquette's bottom half, is
    environment.  As m2 grows this converges to the per-plaquette value
    E_pl(d) of the mean-field product state.

    When d*m2 is not an integer (odd lattices at d = 1/2) the vertical
    count is rounded to the nearest admissible sector.
    """
    s = min(max(round(d * m2), 0), m2)
    state = rvb_state(m2, s / m2, 1)
    e0, e1 = _plaquette_pair_states()
    # index basis 4-spin vector as [top, bottom] with top = bits 0,1
    el = np.stack([e0.reshape(4, 4, order="F"), e1.reshape(4, 4, order="F")])
    a = np.einsum("lr,ltb->tbr", state.c, el).reshape(4, -1)
    p = schmidt_weights(a)
    p = p / p.sum()
    return shannon_entropy(p)


@dataclass(frozen=True)
class BoundaryPath:
    """Rectilinear boundary summary: h plaquettes intersected horizontally,
    v intersected vertically."""

    h: int
    v: int

    def __post_init__(self):
        if self.h < 0 or self.v < 0 or self.h + self.v < 1:
            raise ValidationError("need h, v >= 0 with h + v >= 1")


def rvb_boundary_entropy(d: float, path: BoundaryPath) -> float:
    """Boundary-law entropy h E_pl(d) + v E_pl(1-d) of an RVB block."""
    out = 0.0
    if path.h:
        out += path.h * rvb_plaquette_entropy(d)
    if path.v:
        out += path.v * rvb_plaquette_entropy(1.0 - d)
    return out


# ---------------------------------------------------------------------------
# Case 4: Shastry-Sutherland


def shastry_cut_dimer_count(L: int, system_sites) -> int:
    """Number of diagonal dimers crossing the boundary of the given block."""
    sys_set = set(system_sites)
    count = 0
    for a, b in shastry_sutherland_diagonals(L):
        if (a in sys_set) != (b in sys_set):
            count += 1
    return count


def shastry_block_entropy(L: int, system_sites) -> float:
    """Dimer-product block entropy: one bit per cut diagonal singlet."""
    return float(shastry_cut_dimer_count(L, system_sites))


# ---------------------------------------------------------------------------
# Case 5: Majumdar-Ghosh


def mg_bounds(k: int, num_sites: int | None = None):
    """Entropy bounds for a contiguous k-site cut of the dimer manifold.

    Even k: (2, log2 5); odd k: (1, 2).

    The manifold is span(G+, G-) (``mg_span_blocks``).  The upper bounds
    hold for every state a G+ + b G- of it: an even cut splits no singlet
    of G+ and two of G- (Schmidt rank <= 1 + 4), an odd cut splits one
    singlet of each (rank <= 2 + 2).  The odd-k lower bound of 1 also
    holds for every state: the manifold is made of SU(2) singlets and an
    odd block carries half-integer spin, so every Schmidt value is doubly
    degenerate.  The even-k lower bound of 2 brackets only the maximised
    cooled entropy (``maximize_cooled_entropy``, a search of the span),
    which G- alone reaches; G+ itself has entropy 0 at every even cut.
    """
    if k <= 0 or (num_sites is not None and k >= num_sites):
        raise ValidationError("k must satisfy 0 < k < 2m")
    if k % 2 == 0:
        return 2.0, math.log2(5.0)
    return 1.0, 2.0


# ---------------------------------------------------------------------------
# Case 6: single flipped bond


def single_bond_cooled_state(m: int) -> StateVector:
    """Cooled state of the single-flipped-bond ring, built combinatorially.

    With the positive bond at (2m-1, 0), the classical ground manifold
    holds the two aligned configurations plus every two-domain
    configuration whose second wall sits at the flipped bond: 4m
    bitstrings in total, superposed with equal weight 1/(2 sqrt(m)).

    Its block entropies, with no state built, are
    ``single_bond_block_entropy``.  ``SingleBondIsing`` checks m, and
    SizeLimitError is raised, before allocating, when the 2^n amplitudes
    exceed the dense memory budget.
    """
    n = 2 * SingleBondIsing(m).m
    _check_dense_bytes(8 << n)
    configs = {0, (1 << n) - 1}
    for b in range(n - 1):
        # sites 0..b flipped relative to the rest; walls at bonds b and 2m-1
        pattern = (1 << (b + 1)) - 1
        configs.add(pattern)
        configs.add(pattern ^ ((1 << n) - 1))
    amps = np.zeros(1 << n)
    weight = 1.0 / (2.0 * math.sqrt(m))
    for c in configs:
        amps[c] = weight
    return StateVector(n, amps)


def single_bond_block_entropy(m: int, k: int) -> float:
    """Entropy of sites 0..k-1 of ``single_bond_cooled_state(m)``, in bits.

    For n = 2m the block touches the flipped bond, and the environment
    splits into four orthogonal classes: all 0, all 1, and a domain wall
    from either complementary family.  The block spectrum is therefore
    {n-k-1, k-1, l+, l-}/(2n), where l+/- are the eigenvalues of
    [[n-k+3, 2 sqrt(k-1)], [2 sqrt(k-1), k-1]]:
    l+/- = ((n+2) +/- sqrt((n-2k+4)^2 + 16(k-1)))/2.  The Schmidt rank is
    at most 4, so the entropy is at most 2 for every k (an area law); at
    fixed k it tends to 1 as m grows.  ``SingleBondIsing`` checks m.
    """
    n = 2 * SingleBondIsing(m).m
    if not (0 < k < n):
        raise ValidationError(f"cut k={k} invalid for {n} sites")
    root = math.sqrt((n - 2 * k + 4) ** 2 + 16 * (k - 1))
    spectrum = [n - k - 1, k - 1, (n + 2 + root) / 2, (n + 2 - root) / 2]
    return shannon_entropy([lam / (2 * n) for lam in spectrum])
