"""Workload job lists and the per-job correctness gate.

Each workload is a list of ``frustra`` command lines that run back to back
in one process.  The full lists are what the benchmark times; the quick
lists keep the same job shapes at small sizes for the self-check.

Every payload is checked after its job, outside the timed region:

* against an independent oracle where one exists (the hypergeometric Dicke
  spectrum for the Ising gas, the combinatorial single-bond state, the
  frustration closed forms, the Heisenberg-gas Schmidt-rank bound and the
  Majumdar-Ghosh bounds);
* against values captured at the seed commit (``goldens.json``) when the
  job is deterministic;
* structurally when the job is seeded.

Known model properties that fail by design are recorded, not failed: the
Majumdar-Ghosh ``bounds-check`` reports random dimer superpositions
outside the entropy bounds (acceptance criterion 2).
"""
from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

WORKLOADS = {
    # Diagonal fast path: per-term popcount passes over 2^18 indices, large
    # Schmidt splits (up to 512 x 512) and the 2^18 frustration
    # enumeration.  The Ising-gas closed form for F holds when lambda*m is
    # a whole number, hence lambda = 1/3 at m = 9.  Never calls eigh.
    "diag-large": {
        "full": [
            "cool --model ising-gas --n 18 --k 1..9",
            "cool --model single-bond --n 18 --k 1..9",
            "frustration --model ising-gas --n 18 --lambda 0.3333333333333333",
        ],
        "quick": [
            "cool --model ising-gas --n 12 --k 1..6",
            "cool --model single-bond --n 12 --k 1..6",
            "frustration --model ising-gas --n 12 --lambda 0.5",
        ],
    },
    # Dense complex build_dense + eigh and the MG optimiser.  Never calls
    # diagonal().  n=12 is left out: one complex eigh takes about 70 s there.
    # With BLAS on one thread an n=10 eigh takes about 1.2 s, so only the two
    # cool jobs run at n=10 and a pass stays near 4 s.
    "dense-ed": {
        "full": [
            "cool --model mg --n 10 --k 1..9",
            "cool --model heisenberg-gas --n 10 --k 1..9",
            "bounds-check --model heisenberg-gas --n 8",
            "bounds-check --model mg --n 10 --samples 50",
            "scaling --model mg --n 6 --k 2 --source ed",
            "scaling --model heisenberg-gas --n 4..8..2 --k 2 --source ed",
        ],
        "quick": [
            "cool --model mg --n 6 --k 1..5",
            "cool --model heisenberg-gas --n 6 --k 1..5",
            "bounds-check --model heisenberg-gas --n 6",
            "bounds-check --model mg --n 6 --samples 5",
            "scaling --model mg --n 6 --k 2 --source ed",
            "scaling --model heisenberg-gas --n 4..6..2 --k 2 --source ed",
        ],
    },
    # No Hamiltonian is diagonalised: closed forms, dimer product states and
    # many small block entropies (the opposite shape from diag-large).
    "analytic": {
        "full": [
            "interference --model heisenberg-gas --m 5",
            "scaling --model ising-gas --m 1000 --lambda 0.5 --k 1..100 --source analytic",
            "scaling --model single-bond --n 4..20..2 --k 1..3 --source analytic",
            "fig1 --d-step 0.001",
            "frustration --model shastry --n 4 --j1 0.4 --j2 1.0",
            "bounds-check --model mg --n 12 --samples 200",
        ],
        "quick": [
            "interference --model heisenberg-gas --m 3",
            "scaling --model ising-gas --m 50 --lambda 0.5 --k 1..10 --source analytic",
            "scaling --model single-bond --n 4..10..2 --k 1..3 --source analytic",
            "fig1 --d-step 0.02",
            "frustration --model shastry --n 4 --j1 0.4 --j2 1.0",
            "bounds-check --model mg --n 6 --samples 5",
        ],
    },
}

TOL = 1e-9
GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")


def job_list(workload: str, quick: bool = False) -> list:
    return WORKLOADS[workload]["quick" if quick else "full"]


def is_seeded(cmd: str) -> bool:
    """Jobs whose payload depends on --seed: MG sampling and the optimiser."""
    opts = _options(cmd)
    return opts["model"] == "mg" and opts["_command"] in ("bounds-check", "scaling")


def load_goldens() -> dict:
    with open(GOLDENS) as fh:
        return json.load(fh)


def _options(cmd: str) -> dict:
    words = cmd.split()
    opts = {"_command": words[0], "model": None}
    for flag, value in zip(words[1::2], words[2::2]):
        opts[flag.lstrip("-").replace("-", "_")] = value
    return opts


def _range(text: str) -> list:
    nums = [int(p) for p in text.split("..")]
    if len(nums) == 1:
        return nums
    return list(range(nums[0], nums[1] + 1, nums[2] if len(nums) == 3 else 1))


# ---------------------------------------------------------------------------
# payloads


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def read_payload(cmd: str, path: str):
    """Parse a job's payload into JSON-like data (numbers as floats)."""
    command = cmd.split()[0]
    if command == "fig1":
        out = {}
        for shape in ("square", "horizontal"):
            with open(os.path.join(path, f"fig1_{shape}.tsv")) as fh:
                rows = list(csv.reader(fh, delimiter="\t"))
            out[shape] = [[float(v) for v in row] for row in rows[1:]]
        return out
    with open(path) as fh:
        if command in ("cool", "scaling"):
            return [{k: _number(v) for k, v in row.items()} for row in csv.DictReader(fh)]
        return json.load(fh)


def payload_bytes(cmd: str, path: str) -> int:
    """Bytes of the payload files, without the run manifests."""
    if cmd.split()[0] == "fig1":
        return sum(os.path.getsize(os.path.join(path, f"fig1_{s}.tsv"))
                   for s in ("square", "horizontal"))
    return os.path.getsize(path)


# Free text that a later change may edit on purpose (ROADMAP item 4 drops
# ModelSpec.j3 from it); everything numeric is compared.
_UNCOMPARED = frozenset({"params"})


def compare(got, want, where="payload") -> list:
    """Differences between two JSON-like values, numbers to TOL."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got} "
                    f"!= {sorted(want)}"]
        errs = []
        for key in want:
            if key not in _UNCOMPARED:
                errs += compare(got[key], want[key], f"{where}.{key}")
        return errs
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: length {len(got) if isinstance(got, list) else got} "
                    f"!= {len(want)}"]
        errs = []
        for i, (g, w) in enumerate(zip(got, want)):
            errs += compare(g, w, f"{where}[{i}]")
            if len(errs) > 5:
                break
        return errs
    if isinstance(want, (int, float)) and not isinstance(want, bool):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return [f"{where}: {got!r} is not a number"]
        if not abs(got - want) <= TOL * max(1.0, abs(want)):
            return [f"{where}: {got!r} != {want!r}"]
        return []
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


# ---------------------------------------------------------------------------
# oracles


def dicke_entropy(m: int, lam: float, k: int) -> float:
    """Block entropy of the cooled Ising-gas (Dicke) state, in bits.

    The k-block spectrum is hypergeometric: of the 2m sites, m(1+lam) are
    in |0>, and weight i is the chance of finding i of them in the block.
    """
    n, n0 = 2 * m, round(m * (1.0 + lam))
    total = math.comb(n, n0)
    p = [math.comb(k, i) * math.comb(n - k, n0 - i) / total
         for i in range(k + 1) if 0 <= n0 - i <= n - k]
    return -sum(w * math.log2(w) for w in p if w > 0)


def schmidt_entropy(amps: np.ndarray, k: int) -> float:
    """Entropy of the first k sites (the low k bits) of a sparse state.

    Builds the Schmidt matrix from the nonzero amplitudes only.
    """
    idx = np.flatnonzero(amps)
    rows, r = np.unique(idx & ((1 << k) - 1), return_inverse=True)
    cols, c = np.unique(idx >> k, return_inverse=True)
    mat = np.zeros((len(rows), len(cols)), dtype=complex)
    mat[r, c] = amps[idx]
    p = np.linalg.svd(mat, compute_uv=False) ** 2
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


def heisenberg_bound(m: int, k: int) -> float:
    """Schmidt-rank bound log2((b+1)(w+1)) of a contiguous k-cut; sites
    0..m-1 are black."""
    b = min(k, m)
    return math.log2((b + 1) * (k - b + 1))


def mg_bounds(k: int):
    """Majumdar-Ghosh entropy bounds of a contiguous k-cut: (lower, upper)."""
    return (2.0, math.log2(5.0)) if k % 2 == 0 else (1.0, math.log2(3.0))


class Oracles:
    """Caches oracle values across iterations of one run."""

    def __init__(self):
        self._cache = {}

    def _get(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def dicke(self, m, lam, k):
        return self._get(("dicke", m, lam, k), lambda: dicke_entropy(m, lam, k))

    def single_bond(self, m, k):
        def compute():
            from frustra.closed_forms import single_bond_cooled_state

            return schmidt_entropy(single_bond_cooled_state(m).amplitudes, k)

        return self._get(("single-bond", m, k), compute)


def _near(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# per-job checks


def _check_entropy_rows(opts, rows, oracles, sizes, ks):
    errs = []
    grid = [(n, k) for n in sizes for k in ks]
    got = [(int(r.get("size", sizes[0])), int(r["k"])) for r in rows]
    if got != grid:
        return [f"rows cover (size, k) = {got}, expected {grid}"]
    model = opts["model"]
    for (n, k), row in zip(grid, rows):
        e, m = row["entropy"], n // 2
        if model == "ising-gas":
            want = oracles.dicke(m, float(opts.get("lambda", 0.0)), k)
            if not _near(e, want):
                errs.append(f"n={n} k={k}: entropy {e!r} != Dicke oracle {want!r}")
        elif model == "single-bond":
            want = oracles.single_bond(m, k)
            if not _near(e, want):
                errs.append(f"n={n} k={k}: entropy {e!r} != single-bond oracle {want!r}")
        elif model == "heisenberg-gas":
            if e > heisenberg_bound(m, k) + TOL:
                errs.append(f"n={n} k={k}: entropy {e!r} above the Schmidt-rank bound")
        elif model == "mg" and opts["_command"] == "scaling":
            lo, up = mg_bounds(k)
            if not (_near(row["lower_bound"], lo) and _near(row["upper_bound"], up)):
                errs.append(f"n={n} k={k}: payload bounds differ from ({lo}, {up})")
            if not (lo - TOL <= e <= up + TOL):
                errs.append(f"n={n} k={k}: optimiser entropy {e!r} outside ({lo}, {up})")
        if "z" in row and not (0.0 < row["z"] <= 1.0 + TOL):
            errs.append(f"k={k}: projection weight z={row['z']!r} outside (0, 1]")
    return errs


def _check_cool(opts, rows, oracles, notes):
    n = int(opts["n"])
    return _check_entropy_rows(opts, rows, oracles, [n], _range(opts["k"]))


def _check_scaling(opts, rows, oracles, notes):
    sizes = _range(opts["n"]) if "n" in opts else [2 * m for m in _range(opts["m"])]
    return _check_entropy_rows(opts, rows, oracles, sizes, _range(opts["k"]))


def _check_frustration(opts, rep, oracles, notes):
    if opts["model"] == "ising-gas":
        m, lam = int(opts["n"]) // 2, float(opts.get("lambda", 0.0))
        closed = (1.0 + 2.0 * lam - lam * lam - 1.0 / m) / (1.0 + lam) ** 2
    else:  # shastry, thermodynamic-limit closed form
        closed = 1.0 / (1.0 + 0.5 * float(opts["j2"]) / float(opts["j1"]))
    errs = []
    if rep["closed_form"] is None or not _near(rep["closed_form"], closed):
        errs.append(f"closed_form {rep['closed_form']!r} != {closed!r}")
    if not _near(rep["f"], closed):
        errs.append(f"f {rep['f']!r} != closed form {closed!r}")
    return errs


def _check_bounds(opts, rep, oracles, notes):
    n = int(opts["n"])
    samples = int(opts.get("samples", 20)) if opts["model"] == "mg" else 1
    errs = []
    if rep["checked"] != samples * (n - 1):
        errs.append(f"checked {rep['checked']} != {samples * (n - 1)}")
    if rep["all_ok"] != (not rep["violations"]):
        errs.append("all_ok disagrees with the violations list")
    if opts["model"] == "heisenberg-gas":
        if rep["violations"]:
            errs.append(f"{len(rep['violations'])} Schmidt-rank bound violations")
        return errs
    for v in rep["violations"]:
        k, e = v["k"], v["entropy"]
        lo, up = mg_bounds(k)
        if not (1 <= k < n and _near(v["lower"], lo) and _near(v["upper"], up)):
            errs.append(f"violation {v} has wrong cut or bounds")
        elif lo - TOL <= e <= up + TOL:
            errs.append(f"violation {v} lies inside its bounds")
        elif not (0.0 <= e <= min(k, n - k) + TOL):
            errs.append(f"violation {v} has an impossible entropy")
        else:
            side = "below_lower" if e < lo else "above_upper"
            key = f"mg_n{n}_{'even' if k % 2 == 0 else 'odd'}_k_{side}"
            notes[key] = notes.get(key, 0) + 1
    return errs


def _check_interference(opts, rows, oracles, notes):
    m = int(opts["m"])
    if [r["k"] for r in rows] != list(range(1, m + 1)):
        return [f"rows cover k = {[r['k'] for r in rows]}, expected 1..{m}"]
    errs = []
    for r in rows:
        ratio = r["e_super"] / r["e_avg"]
        verdict = ("constructive" if ratio > 1 + 1e-6
                   else "destructive" if ratio < 1 - 1e-6 else "marginal")
        if not _near(r["ratio"], ratio) or r["verdict"] != verdict:
            errs.append(f"k={r['k']}: ratio/verdict inconsistent with the entropies")
    return errs


def _check_fig1(opts, curves, oracles, notes):
    lo, hi, step = 0.02, 0.98, float(opts["d_step"])
    count = int(round((hi - lo) / step)) + 1
    return [f"{shape}: {len(rows)} points, expected {count}"
            for shape, rows in curves.items() if len(rows) != count]


_CHECKS = {
    "cool": _check_cool,
    "scaling": _check_scaling,
    "frustration": _check_frustration,
    "bounds-check": _check_bounds,
    "interference": _check_interference,
    "fig1": _check_fig1,
}


def check(cmd: str, path: str, goldens: dict, oracles: Oracles, notes: dict) -> list:
    """Check one job's payload; returns a list of errors (empty = pass).

    Expected-by-design findings are added to ``notes``.
    """
    try:
        payload = read_payload(cmd, path)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable payload: {exc!r}"]
    opts = _options(cmd)
    try:
        errs = _CHECKS[opts["_command"]](opts, payload, oracles, notes)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        errs = [f"malformed payload: {exc!r}"]
    if not is_seeded(cmd):
        if cmd not in goldens:
            errs.append("no golden payload recorded for this job")
        else:
            errs += compare(payload, goldens[cmd])
    return errs
