"""The six prototype spin models: one frozen spec per model, the
Hamiltonian of a spec (``build_model``) and its default initial product
state.

Every Hamiltonian is a :class:`~frustra.spin_core.PauliOperator` on ``2m``
(chains/gases), ``L*L`` (lattices) or one site per plaquette (RVB labels).
Constant shifts are dropped everywhere, so energy thresholds are always
meant relative to the ground energy of the built operator.
"""
from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import asdict, dataclass, fields

import numpy as np

from .spin_core import (
    PauliOperator,
    StateVector,
    ValidationError,
    _check_dense_bytes,
    product_state,
)

def _check_sign(sign) -> None:
    if sign not in ("frustrated", "unfrustrated"):
        raise ValidationError(f"sign must be frustrated or unfrustrated, not {sign!r}")


def _check_lattice(L: int) -> None:
    if L % 2 != 0 or L < 4:
        raise ValidationError("L must be even and at least 4")


# the type of each annotation, which postponed evaluation keeps as text
_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "str": str}


class ModelSpec:
    """Base of the six model specs.  Each subclass holds exactly the
    parameters its Hamiltonian reads; its class name is its JSON kind.
    Sizes are ints, couplings real numbers (neither a bool) and signs
    strings; another type raises ValidationError, and so does a size the
    model's Hamiltonian cannot take."""

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type]):
                raise ValidationError(f"{self.kind} {f.name} must be {f.type}, not {value!r}")

    @property
    def kind(self) -> str:
        return type(self).__name__

    def to_json(self) -> str:
        d = {"lambda" if k == "lam" else k: v for k, v in asdict(self).items()}
        return json.dumps({"kind": self.kind, **d}, sort_keys=True)


@dataclass(frozen=True)
class IsingGasLR(ModelSpec):
    """Long-range Ising gas on 2m >= 2 sites; "unfrustrated" flips the pair sign."""

    m: int
    lam: float = 0.0
    sign: str = "frustrated"

    def __post_init__(self):
        super().__post_init__()
        if not (0.0 <= self.lam <= 1.0):
            raise ValidationError("lambda must lie in [0, 1]")
        _check_sign(self.sign)
        if self.m < 1:
            raise ValidationError("m must be >= 1")


@dataclass(frozen=True)
class HeisenbergGasLR(ModelSpec):
    """Long-range Heisenberg gas on 2m >= 2 sites."""

    m: int

    def __post_init__(self):
        super().__post_init__()
        if self.m < 1:
            raise ValidationError("m must be >= 1")


@dataclass(frozen=True)
class MajumdarGhosh(ModelSpec):
    """Majumdar-Ghosh ring on 2m >= 4 sites."""

    m: int

    def __post_init__(self):
        super().__post_init__()
        if self.m < 2:
            raise ValidationError("need at least 4 sites")


@dataclass(frozen=True)
class SingleBondIsing(ModelSpec):
    """Ising ring on 2m >= 4 sites with one flipped bond, none if "unfrustrated"."""

    m: int
    sign: str = "frustrated"

    def __post_init__(self):
        super().__post_init__()
        _check_sign(self.sign)
        if self.m < 2:
            raise ValidationError("need at least 4 sites")


@dataclass(frozen=True)
class ShastrySutherland(ModelSpec):
    """Shastry-Sutherland lattice on the L x L torus, L even and >= 4."""

    L: int
    j1: float = 1.0
    j2: float = 0.5

    def __post_init__(self):
        super().__post_init__()
        if not (self.j1 > 0 and self.j2 > 0):
            raise ValidationError("ShastrySutherland requires J1, J2 > 0")
        _check_lattice(self.L)


@dataclass(frozen=True)
class RVBPlaquette(ModelSpec):
    """Plaquette labels whose ground manifold has s vertical plaquettes."""

    plaquettes: int
    s: int

    def __post_init__(self):
        super().__post_init__()
        if not (0 <= self.s <= self.plaquettes):
            raise ValidationError("s out of range")


def _site(L: int, x: int, y: int) -> int:
    """Index x + L*y of lattice site (x, y) on the L x L torus."""
    return (x % L) + L * (y % L)


def shastry_sutherland_diagonals(L: int):
    """The two families of dimer diagonals on an L x L lattice with PBC.

    Family A joins (2i, 2j) with (2i+1, 2j+1); family B joins (2i, 2j+1)
    with (2i-1, 2j+2).  Site index is x + L*y.
    """
    _check_lattice(L)
    pairs = []
    for i in range(L // 2):
        for jj in range(L // 2):
            pairs.append((_site(L, 2 * i, 2 * jj), _site(L, 2 * i + 1, 2 * jj + 1)))
            pairs.append((_site(L, 2 * i, 2 * jj + 1), _site(L, 2 * i - 1, 2 * jj + 2)))
    return pairs


def dimer_product_state(num_sites: int, pairs) -> StateVector:
    """Product of singlets (|0_i 1_j> - |1_i 0_j>)/sqrt(2) over the pairs.

    Sites not covered by any pair are left in |0>.  Raises
    SizeLimitError, before allocating, when the 2^n amplitudes exceed the
    dense memory budget.
    """
    _check_dense_bytes(8 << num_sites)
    covered = [s for p in pairs for s in p]
    if len(set(covered)) != len(covered):
        raise ValidationError("dimer pairs overlap")
    amps = np.zeros(1 << num_sites)
    pairs = list(pairs)
    w = (1.0 / math.sqrt(2.0)) ** len(pairs)
    for choice in itertools.product((0, 1), repeat=len(pairs)):
        idx = 0
        sign = 1.0
        for (i, j), c in zip(pairs, choice):
            if c == 0:
                idx |= 1 << j
            else:
                idx |= 1 << i
                sign = -sign
        amps[idx] += sign * w
    return StateVector(num_sites, amps)


def _mg_site_transfers(norm: float):
    """The 16 x 16 transfer matrices sum_s A^s (x) A^s of an even and of an
    odd site of the direct sum of the Majumdar-Ghosh dimer coverings G+
    and G-, bond dimension 2 + 2 (real tensors, so no conjugate), with the
    singlet norm ``norm`` (1/sqrt(2)) in the site that closes a singlet.

    A singlet (i, j), in the sign of ``dimer_product_state``, is the
    matrix product state A_i^s = e_s^T, A_j^s = eps[:, s]/sqrt(2) with
    eps = [[0, 1], [-1, 0]], so that A_i^s A_j^t = eps[s, t]/sqrt(2).
    Padded to 2 x 2, a site that opens a singlet uses only row 0 of its
    left bond and one that closes it only column 0 of its right bond.  G+
    opens its singlets (2i, 2i+1) on the even sites and G- its singlets
    (2i+1, 2i+2 mod 2m) on the odd ones; its wrap singlet (2m-1, 0)
    closes on site 0 through the trace.
    """
    eps = np.array([[0.0, 1.0], [-1.0, 0.0]])
    opens, closes = np.zeros((2, 2, 2)), np.zeros((2, 2, 2))
    for s in range(2):
        opens[s, 0, s] = 1.0
        closes[s, :, 0] = eps[:, s] * norm

    def transfer(plus, minus):
        a = np.zeros((2, 4, 4))
        a[:, :2, :2], a[:, 2:, 2:] = plus, minus
        return np.einsum("sij,skl->ikjl", a, a).reshape(16, 16)

    return transfer(opens, closes), transfer(closes, opens)


def mg_span_blocks(spec: MajumdarGhosh, ks) -> list:
    """The setup of ``span_entropies`` for the span of the Majumdar-Ghosh
    dimer coverings G+ and G- (Majumdar and Ghosh, J. Math. Phys. 10, 1388
    (1969)) cut at sites [0, k), for each k of ``ks``: per cut, the
    (2, 2, r, r) array of the blocks K (r <= 5), whose traces give the
    overlap S[a, b] = <G_a|G_b> = tr K[b, a].  No 2^n vector is formed.

    Each covering is a matrix product state of bond dimension 2 (Fannes,
    Nachtergaele and Werner, Commun. Math. Phys. 144, 443 (1992)), and a
    state of the span is their direct sum (``_mg_site_transfers``).  Cut
    at k, covering a is sum_p |L_p>|R_p> over the index pairs p = (wrap
    bond, cut bond) of its half of the bonds, with L the product of sites
    0..k-1 and R that of sites k..n-1.  The Gram matrices N_pq =
    <L_p|L_q> and X_pq = <R_q|R_p> are entries of products of the
    transfer matrices.  With N = V Lambda V^T less its null space and W
    = Lambda^1/2 V^T, the state sum_a c_a G_a has the reduced spectrum of
    sum_ab c_a conj(c_b) K_ab, K_ab = W P_a X P_b W^T, where P_a keeps
    the pairs of covering a.  The nonzero eigenvalues of N measured at
    least 2 - sqrt(3) of the largest (every k < 60, n up to 10^6), and
    its zero ones (the unused bond indices, and the vector of G+ that G-
    spans at k = 2) about 1e-16 of it, so a relative cutoff of 1e-8
    splits them.

    The sites repeat with period 2, so the products are powers of the
    two-site transfer matrix T: T^(k//2) before the cut and T^((n-k)//2)
    after it, with one more site at the cut for odd k.  Over two sites
    each covering closes one singlet in each copy of the transfer
    matrix, so every entry of T carries norm^2 = 1/2 once: T is half the
    product of the transfers with norm 1, and its entries and those of
    its powers are dyadic and exact.  With 1/sqrt(2) rounded into each
    site, T's eigenvalue 1 would be off by about eps and T^(n/2) by about
    n eps (2e-7 at n = 2 * 10^9).  The powers are taken in increasing
    order, each from the last by ``matrix_power`` of the gap: O(n)
    products for every cut of the ring, O(log n) for one.  Raises
    ValidationError for a k outside 0 < k < n, and SizeLimitError,
    before any product, when every cut's two powers and blocks (5 KiB a
    cut) exceed the dense memory budget.
    """
    n = 2 * spec.m
    _check_dense_bytes(5120 * len(ks))
    for k in ks:
        if not 0 < k < n:
            raise ValidationError(f"cut k={k} invalid for {n} sites")
    even, odd = _mg_site_transfers(1.0)
    pair = even @ odd / 2.0
    even, odd = _mg_site_transfers(math.sqrt(0.5))
    powers, power, last = {}, np.eye(16), 0
    for j in sorted({k // 2 for k in ks} | {(n - k) // 2 for k in ks}):
        power = power @ np.linalg.matrix_power(pair, j - last)
        powers[j], last = power, j
    p = np.arange(8)
    wrap, bond = p // 2, p % 2 + 2 * (p // 4)
    gram_at = 4 * wrap[:, None] + wrap, 4 * bond[:, None] + bond
    x_at = 4 * bond + bond[:, None], 4 * wrap + wrap[:, None]
    halves = np.stack([p < 4, p >= 4])[:, None]
    out = []
    for k in ks:
        left, right = powers[k // 2], powers[(n - k) // 2]
        if k % 2:
            left, right = left @ even, odd @ right
        w, v = np.linalg.eigh(left[gram_at])
        keep = w > w[-1] * 1e-8
        parts = np.sqrt(w[keep])[:, None] * v[:, keep].T * halves
        out.append((parts @ right[x_at])[:, None] @ parts.transpose(0, 2, 1))
    return out


def _bonds(n: int, coeff: float, groups, letters: str = "XYZ") -> list:
    """The terms (coeff, string) that put each letter on every site of
    each group of sites (a pair, or a 1-tuple for a field term)."""
    terms = []
    for group in groups:
        for p in letters:
            s = ["I"] * n
            for i in group:
                s[i] = p
            terms.append((coeff, "".join(s)))
    return terms


def build_model(spec: ModelSpec) -> PauliOperator:
    """The Hamiltonian of a model spec, constants dropped, with J = 1,
    sigma the Pauli matrices and S = sum_i sigma^z_i.

    - IsingGasLR: (J/2m)(S - 2m*lambda)^2 on 2m sites, which expands to
      pair terms (J/m) Z_i Z_j and field terms -2*J*lambda Z_i;
      "unfrustrated" sets J = -1.
    - HeisenbergGasLR: (J/2m) sum over all pairs of sigma_i . sigma_j.
    - MajumdarGhosh: ring of nearest-neighbour sigma . sigma at J plus
      next-nearest neighbours at J/2.  On 4 sites the two NNN bonds are
      each visited twice going around the ring; canonicalization merges
      them, which keeps the dimer pair in the ground space as expected.
    - SingleBondIsing: NN Ising ring whose bond b couples sites b and
      b+1 mod 2m at -J, except the wrap-around bond (2m-1, 0) at +J (the
      flipped bond); "unfrustrated" keeps it at -J, the ferromagnetic ring.
    - ShastrySutherland: NN sigma . sigma at J1 on the L x L torus plus
      the dimer diagonals of ``shastry_sutherland_diagonals`` at J2.
    - RVBPlaquette: the effective label Hamiltonian (W - s)^2 on one
      two-level label per plaquette, |0> = horizontal pair and |1> =
      vertical pair, where W counts vertical plaquettes.  It expands to
      pair terms (1/2) Z_p Z_q and field terms -(n - 2s)/2 Z_p, whose
      ground manifold is exactly the W = s sector.

    A field of exactly 0 (lambda = 0, or n = 2s) leaves no terms, since
    ``PauliOperator`` drops exact zeros.
    """
    match spec:
        case IsingGasLR(m, lam, sign):
            n, j = 2 * m, 1.0 if sign == "frustrated" else -1.0
            terms = (_bonds(n, j / m, itertools.combinations(range(n), 2), "Z")
                     + _bonds(n, -2.0 * j * lam, [(i,) for i in range(n)], "Z"))
        case HeisenbergGasLR(m):
            n = 2 * m
            terms = _bonds(n, 1.0 / n, itertools.combinations(range(n), 2))
        case MajumdarGhosh(m):
            n = 2 * m
            terms = (_bonds(n, 1.0, [(i, (i + 1) % n) for i in range(n)])
                     + _bonds(n, 0.5, [(i, (i + 2) % n) for i in range(n)]))
        case SingleBondIsing(m, sign):
            n = 2 * m
            wrap = 1.0 if sign == "frustrated" else -1.0
            terms = (_bonds(n, -1.0, [(b, b + 1) for b in range(n - 1)], "Z")
                     + _bonds(n, wrap, [(n - 1, 0)], "Z"))
        case ShastrySutherland(L, j1, j2):
            n = L * L
            nn = [(_site(L, x, y), _site(L, x + dx, y + dy))
                  for x in range(L) for y in range(L) for dx, dy in ((1, 0), (0, 1))]
            terms = _bonds(n, j1, nn) + _bonds(n, j2, shastry_sutherland_diagonals(L))
        case RVBPlaquette(n, s):
            terms = (_bonds(n, 0.5, itertools.combinations(range(n), 2), "Z")
                     + _bonds(n, -(n - 2 * s) / 2.0, [(p,) for p in range(n)], "Z"))
        case _:
            raise ValidationError(f"no builder for {spec.kind}")
    return PauliOperator(n, tuple(terms))


def default_initial_state(spec: ModelSpec) -> StateVector:
    """The per-model initial product state used for cooling.

    IsingGasLR and SingleBondIsing use the uniform product of |+> =
    (|0> + |1>)/sqrt(2).  MajumdarGhosh uses the alternating |0>|1>
    pattern with two free sites in |+> at the end.  HeisenbergGasLR puts
    black sites in |0> and white sites in |+>.  RVBPlaquette
    (plaquette-label basis) uses the uniform label product.
    """
    plus = (1.0 / math.sqrt(2.0),) * 2
    match spec:
        case IsingGasLR(m) | SingleBondIsing(m):
            return product_state([plus] * (2 * m))
        case RVBPlaquette(plaquettes):
            return product_state([plus] * plaquettes)
        case MajumdarGhosh(m):
            per_site = []
            for i in range(2 * m - 2):
                per_site.append((1.0, 0.0) if i % 2 == 0 else (0.0, 1.0))
            return product_state(per_site + [plus, plus])
        case HeisenbergGasLR(m):
            return product_state([(1.0, 0.0)] * m + [plus] * m)
    raise ValidationError(f"no default initial state for {spec.kind}")
