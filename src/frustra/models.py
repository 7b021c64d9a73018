"""Hamiltonian builders for the six prototype spin models and their
default initial product states.

All builders return :class:`~frustra.spin_core.PauliOperator` instances on
``2m`` (chains/gases) or ``L*L`` (lattices) sites.  Constant shifts are
dropped everywhere, so energy thresholds are always meant relative to the
ground energy of the built operator.
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


# the type of each annotation, which postponed evaluation keeps as text
_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "str": str}


class ModelSpec:
    """Base of the six model specs.  Each subclass holds exactly the
    parameters its Hamiltonian reads; its class name is its JSON kind.
    Sizes are ints, couplings real numbers (neither a bool) and signs
    strings; another type raises ValidationError."""

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

    @staticmethod
    def from_json(text: str) -> "ModelSpec":
        """Inverse of ``to_json``; raises ValidationError for text that is
        not a JSON object, for a missing or unknown kind, for a key that
        ``to_json`` does not write for the model (``"lam"`` too: it is
        written ``"lambda"``) and for values its checks refuse."""
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"model spec is not valid JSON: {exc}") from exc
        if not isinstance(d, dict):
            raise ValidationError("model spec must be a JSON object")
        kind = d.pop("kind", None)
        model = next((c for c in ModelSpec.__subclasses__() if c.__name__ == kind), None)
        if model is None:
            raise ValidationError(f"model spec kind {kind!r} is missing or unknown")
        # the JSON keys that to_json writes, and the fields they fill
        keys = {"lambda" if f.name == "lam" else f.name: f.name for f in fields(model)}
        unknown = sorted(set(d) - set(keys))
        if unknown:
            raise ValidationError(f"{kind} spec does not take {', '.join(unknown)}")
        try:
            return model(**{keys[k]: v for k, v in d.items()})
        except TypeError as exc:
            raise ValidationError(f"bad {kind} spec: {exc}") from None


@dataclass(frozen=True)
class IsingGasLR(ModelSpec):
    """Long-range Ising gas on 2m sites; "unfrustrated" flips the pair sign."""

    m: int
    lam: float = 0.0
    sign: str = "frustrated"

    def __post_init__(self):
        super().__post_init__()
        if not (0.0 <= self.lam <= 1.0):
            raise ValidationError("lambda must lie in [0, 1]")
        _check_sign(self.sign)


@dataclass(frozen=True)
class HeisenbergGasLR(ModelSpec):
    """Long-range Heisenberg gas on 2m sites."""

    m: int


@dataclass(frozen=True)
class MajumdarGhosh(ModelSpec):
    """Majumdar-Ghosh ring on 2m sites."""

    m: int


@dataclass(frozen=True)
class SingleBondIsing(ModelSpec):
    """Ising ring on 2m sites with one flipped bond, none if "unfrustrated"."""

    m: int
    sign: str = "frustrated"

    def __post_init__(self):
        super().__post_init__()
        _check_sign(self.sign)


@dataclass(frozen=True)
class ShastrySutherland(ModelSpec):
    """Shastry-Sutherland lattice on the L x L torus."""

    L: int
    j1: float = 1.0
    j2: float = 0.5

    def __post_init__(self):
        super().__post_init__()
        if not (self.j1 > 0 and self.j2 > 0):
            raise ValidationError("ShastrySutherland requires J1, J2 > 0")


@dataclass(frozen=True)
class RVBPlaquette(ModelSpec):
    """Plaquette labels whose ground manifold has s vertical plaquettes."""

    plaquettes: int
    s: int


def _two_site_term(n: int, i: int, j: int, letter: str) -> str:
    s = ["I"] * n
    s[i] = letter
    s[j] = letter
    return "".join(s)


def _one_site_term(n: int, i: int, letter: str) -> str:
    s = ["I"] * n
    s[i] = letter
    return "".join(s)


def build_ising_gas(m: int, lam: float, j: float = 1.0) -> PauliOperator:
    """Long-range Ising gas on 2m sites: (J/2m)(S - 2m*lambda)^2, constant dropped.

    S = sum_i sigma^z_i, so the expansion keeps pair terms (J/m) Z_i Z_j and
    field terms -2*J*lambda Z_i.
    """
    if m < 1:
        raise ValidationError("m must be >= 1")
    n = 2 * m
    terms = []
    for i in range(n):
        for k in range(i + 1, n):
            terms.append((j / m, _two_site_term(n, i, k, "Z")))
    if lam != 0.0:
        for i in range(n):
            terms.append((-2.0 * j * lam, _one_site_term(n, i, "Z")))
    return PauliOperator(n, tuple(terms))


def build_heisenberg_gas(m: int, j: float = 1.0) -> PauliOperator:
    """Long-range Heisenberg gas: (J/2m) sum over all pairs of sigma.sigma."""
    if m < 1:
        raise ValidationError("m must be >= 1")
    if j <= 0:
        raise ValidationError("J must be positive")
    n = 2 * m
    terms = []
    for i in range(n):
        for k in range(i + 1, n):
            for p in "XYZ":
                terms.append((j / n, _two_site_term(n, i, k, p)))
    return PauliOperator(n, tuple(terms))


def build_mg_chain(m: int, j1: float = 1.0) -> PauliOperator:
    """Majumdar-Ghosh ring: NN Heisenberg at J1 plus NNN at J1/2, PBC.

    On 4 sites the two NNN bonds are each visited twice going around the
    ring; canonicalization merges them, which keeps the dimer pair in the
    ground space as expected.
    """
    n = 2 * m
    if n < 4:
        raise ValidationError("need at least 4 sites")
    terms = []
    for i in range(n):
        for d, c in ((1, j1), (2, j1 / 2.0)):
            k = (i + d) % n
            a, b = min(i, k), max(i, k)
            for p in "XYZ":
                terms.append((c, _two_site_term(n, a, b, p)))
    return PauliOperator(n, tuple(terms))


def build_single_bond_ising(m: int, j: float = 1.0, flipped: int | None = None) -> PauliOperator:
    """NN Ising ring with a single positive (antiferromagnetic) bond.

    Bond ``b`` couples sites ``b`` and ``b+1 mod 2m``; all bonds carry
    coefficient -J except the flipped one at +J.  Default flipped bond is
    the wrap-around bond (2m-1, 0).
    """
    n = 2 * m
    if n < 4:
        raise ValidationError("need at least 4 sites")
    if flipped is None:
        flipped = n - 1
    if not (0 <= flipped < n):
        raise ValidationError("flipped bond index out of range")
    terms = []
    for b in range(n):
        i, k = b, (b + 1) % n
        a, c = min(i, k), max(i, k)
        coeff = j if b == flipped else -j
        terms.append((coeff, _two_site_term(n, a, c, "Z")))
    return PauliOperator(n, tuple(terms))


def build_ferromagnetic_ring(m: int, j: float = 1.0) -> PauliOperator:
    """All-negative-bond control variant of the NN Ising ring."""
    n = 2 * m
    terms = []
    for b in range(n):
        i, k = b, (b + 1) % n
        terms.append((-j, _two_site_term(n, min(i, k), max(i, k), "Z")))
    return PauliOperator(n, tuple(terms))


def _site(L: int, x: int, y: int) -> int:
    """Index x + L*y of lattice site (x, y) on the L x L torus."""
    return (x % L) + L * (y % L)


def shastry_sutherland_diagonals(L: int):
    """The two families of dimer diagonals on an L x L lattice with PBC.

    Family A joins (2i, 2j) with (2i+1, 2j+1); family B joins (2i, 2j+1)
    with (2i-1, 2j+2).  Site index is x + L*y.
    """
    if L % 2 != 0 or L < 4:
        raise ValidationError("L must be even and at least 4")

    pairs = []
    for i in range(L // 2):
        for jj in range(L // 2):
            pairs.append((_site(L, 2 * i, 2 * jj), _site(L, 2 * i + 1, 2 * jj + 1)))
            pairs.append((_site(L, 2 * i, 2 * jj + 1), _site(L, 2 * i - 1, 2 * jj + 2)))
    return pairs


def build_shastry_sutherland(L: int, j1: float, j2: float) -> PauliOperator:
    """Shastry-Sutherland lattice: NN Heisenberg J1 plus dimer diagonals J2."""
    pairs = shastry_sutherland_diagonals(L)
    n = L * L

    terms = []
    seen = set()
    for x in range(L):
        for y in range(L):
            for dx, dy in ((1, 0), (0, 1)):
                a, b = _site(L, x, y), _site(L, x + dx, y + dy)
                key = (min(a, b), max(a, b))
                if key in seen:
                    continue
                seen.add(key)
                for p in "XYZ":
                    terms.append((j1, _two_site_term(n, key[0], key[1], p)))
    for a, b in pairs:
        key = (min(a, b), max(a, b))
        for p in "XYZ":
            terms.append((j2, _two_site_term(n, key[0], key[1], p)))
    return PauliOperator(n, tuple(terms))


def rvb_sector_hamiltonian(n_plaquettes: int, s: int) -> PauliOperator:
    """Effective plaquette-label Hamiltonian (W - s)^2, constants dropped.

    Each plaquette is a two-level label with |0> = horizontal pair and
    |1> = vertical pair; W counts vertical plaquettes.  The expansion gives
    pair terms (1/2) Z_p Z_q and field terms -(n - 2s)/2 Z_p, whose ground
    manifold is exactly the W = s sector.
    """
    if not (0 <= s <= n_plaquettes):
        raise ValidationError("s out of range")
    terms = []
    for p in range(n_plaquettes):
        for q in range(p + 1, n_plaquettes):
            terms.append((0.5, _two_site_term(n_plaquettes, p, q, "Z")))
    field = -(n_plaquettes - 2 * s) / 2.0
    if field != 0.0:
        for p in range(n_plaquettes):
            terms.append((field, _one_site_term(n_plaquettes, p, "Z")))
    return PauliOperator(n_plaquettes, tuple(terms))


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


def mg_dimer_pairs(m: int):
    """The singlet pairs of the Majumdar-Ghosh dimer coverings G+ and G-
    of the 2m-ring: (2i, 2i+1), and (2i+1, 2i+2 mod 2m)."""
    n = 2 * m
    return ([(2 * i, 2 * i + 1) for i in range(m)],
            [((2 * i + 1) % n, (2 * i + 2) % n) for i in range(m)])


def mg_dimer_states(m: int):
    """The two Majumdar-Ghosh dimer coverings G+ and G- of the 2m-ring,
    which span its ground manifold.  Raises SizeLimitError before building
    either when they and the peak of ``span_blocks`` on them exceed the
    dense memory budget: seven 2^n float64 arrays, the two coverings and,
    at the middle cut, the Gram matrix, the copy ``eigh`` factors and the
    eigenvectors it returns (one each) and its workspace (two)."""
    n = 2 * m
    if n < 4:
        raise ValidationError("need at least 4 sites")
    _check_dense_bytes(56 << n)
    return tuple(dimer_product_state(n, pairs) for pairs in mg_dimer_pairs(m))


def build_model(spec: ModelSpec) -> PauliOperator:
    """The Hamiltonian of a model spec."""
    match spec:
        case IsingGasLR(m, lam, sign):
            return build_ising_gas(m, lam, 1.0 if sign == "frustrated" else -1.0)
        case HeisenbergGasLR(m):
            return build_heisenberg_gas(m)
        case MajumdarGhosh(m):
            return build_mg_chain(m)
        case SingleBondIsing(m, "frustrated"):
            return build_single_bond_ising(m)
        case SingleBondIsing(m):
            return build_ferromagnetic_ring(m)
        case ShastrySutherland(L, j1, j2):
            return build_shastry_sutherland(L, j1, j2)
        case RVBPlaquette(plaquettes, s):
            return rvb_sector_hamiltonian(plaquettes, s)
    raise ValidationError(f"no builder for {spec.kind}")


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
