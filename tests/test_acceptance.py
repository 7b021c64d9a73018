"""Acceptance gate: twelve numbered criteria, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
Each criterion is asserted at its stated tolerance; a failing criterion
prints FAIL with the offending numbers before the assertion fires.
"""
import itertools
import math
import time

import numpy as np

from frustra.spin_core import (
    Bipartition,
    StateVector,
    block_entropy,
    product_state,
)
from frustra.models import (
    HeisenbergGasLR,
    IsingGasLR,
    MajumdarGhosh,
    RVBPlaquette,
    ShastrySutherland,
    SingleBondIsing,
    build_model,
)
from frustra.cooling import cool, maximize_cooled_entropy
from frustra.frustration import (
    frustration_degree,
    ising_gas_frustration_formula,
    shastry_sutherland_frustration_formula,
    single_bond_frustration_formula,
)
from frustra.closed_forms import (
    heisenberg_gas_bound,
    heisenberg_gas_schmidt_state,
    ising_gas_spectra,
    mg_bounds,
    rvb_cut_plaquette_entropy,
    rvb_plaquette_entropy,
    single_bond_cooled_state,
)
from frustra.interference import covering_interference, rvb_interference_curve

from reference import (
    covering_interference_by_enumeration,
    fidelity,
    mg_dimer_states,
    normalized,
    partial_trace,
)


def verdict(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_mg_golden_value():
    t0 = time.perf_counter()
    [(e, _)] = maximize_cooled_entropy(MajumdarGhosh(4), [4])
    elapsed = time.perf_counter() - t0
    ok = abs(e - 2.314) <= 0.01 and elapsed < 10.0
    verdict(1, ok, f"E_4:rest = {e:.4f} (target 2.314 +/- 0.01) in {elapsed:.1f} s")


def test_criterion_02_mg_bounds():
    # The upper bounds and the odd-k lower bound hold for every state of the
    # dimer manifold; the even-k lower bound of 2 brackets only the maximised
    # cooled entropy (G+ alone has entropy 0 at every even cut).
    rng = np.random.default_rng(2024)
    violations = []
    checked = 0
    for m in (3, 4):
        n = 2 * m
        gp, gm = mg_dimer_states(m)
        for _ in range(100):
            a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
            st = normalized(StateVector(n, a * gp.amplitudes + b * gm.amplitudes))
            for k in range(1, n):
                e = block_entropy(st, Bipartition.contiguous(k))
                lo, up = mg_bounds(k, n)
                if k % 2 == 0:
                    lo = 0.0
                checked += 1
                if not (lo - 1e-9 <= e <= up + 1e-9):
                    violations.append((n, k, round(e, 4), lo, round(up, 4)))
    for k in (2, 4):
        [(e, _)] = maximize_cooled_entropy(MajumdarGhosh(3), [k])
        lo, up = mg_bounds(k, 6)
        checked += 1
        if not (lo - 1e-9 <= e <= up + 1e-9):
            violations.append((6, k, round(e, 4), lo, round(up, 4)))
    ok = not violations
    detail = f"{checked} cuts checked (the last 2 maximised)"
    if violations:
        detail += (
            f", {len(violations)} outside bounds, e.g. (n,k,E,lo,up) = "
            f"{violations[0]}"
        )
    verdict(2, ok, detail)


def test_criterion_03_ising_gas_oracle():
    worst = 0.0
    for m in range(2, 6):
        h_cache = {}
        for j in range(m + 1):
            lam = j / m
            h = build_model(IsingGasLR(m, lam))
            cooled = cool(h, product_state([(0.6, 0.8)] * 2 * m))
            for k in range(1, 2 * m):
                e_ed = block_entropy(cooled.state, Bipartition.contiguous(k))
                e_cf = ising_gas_spectra(m, lam, [k])[0].entropy()
                worst = max(worst, abs(e_ed - e_cf))
    ok = worst < 1e-8
    verdict(3, ok, f"max |ED - closed form| = {worst:.2e} over m=2..5, full grid")


def test_criterion_04_log_divergence():
    # The slope per doubling is 1/2 only for k << 2m.  The hypergeometric
    # block variance carries a factor (N-k)/(N-1), N = 2m, which gives the
    # finite-size slope 1/2 + (1/2) log2((N-2k)/(N-k)) (0.4126 at k=2048).
    n_sites = 20_000
    bad = []
    for lam in (0.0, 0.5):
        ks = [16 * 2**i for i in range(9)]  # 16 .. 4096
        es = [ising_gas_spectra(n_sites // 2, lam, [k])[0].entropy() for k in ks]
        for k, d in zip(ks, np.diff(es)):
            slope = 0.5 + 0.5 * math.log2((n_sites - 2 * k) / (n_sites - k))
            if not abs(d - slope) <= 0.05:
                bad.append((lam, k, round(float(d), 4), round(slope, 4)))
    ok = not bad
    detail = "all E(2k)-E(k) within 0.05 of the finite-size slope"
    if bad:
        detail = f"diffs outside slope +/- 0.05 at (lam,k,diff,slope) = {bad}"
    verdict(4, ok, detail)


def test_criterion_05_ferromagnetic_control():
    worst = 0.0
    for m in range(2, 7):
        h = build_model(IsingGasLR(m, 0.0, "unfrustrated"))
        cooled = cool(h, product_state([(1, 1)] * 2 * m))
        for k in range(1, 2 * m):
            e = block_entropy(cooled.state, Bipartition.contiguous(k))
            worst = max(worst, abs(e - 1.0))
    ok = worst < 1e-10
    verdict(5, ok, f"max |E - 1| = {worst:.2e} over 2m = 4..12, all k")


def test_criterion_06_heisenberg_bound_and_saturation():
    bound_ok = True
    spec_err = 0.0
    for m in (2, 3):
        n = 2 * m
        h = build_model(HeisenbergGasLR(m))
        init = product_state(
            [(1, 0)] * m + [(1, 1)] * m
        )
        cooled = cool(h, init)
        for r in range(1, n):
            for sites in itertools.combinations(range(n), r):
                cut = Bipartition(sites)
                e = block_entropy(cooled.state, cut)
                blacks = sum(1 for s in sites if s < m)
                whites = r - blacks
                if e > heisenberg_gas_bound(blacks, whites) + 1e-9:
                    bound_ok = False
        for k in range(1, m + 1):
            rho = partial_trace(cooled.state, Bipartition(tuple(range(k))))
            ed = np.sort(np.linalg.eigvalsh(rho))[::-1]
            _, spectrum = heisenberg_gas_schmidt_state(m, k)
            spec_err = max(
                spec_err,
                float(np.max(np.abs(ed[: k + 1] - sorted(spectrum, reverse=True)))),
                float(np.max(np.abs(ed[k + 1 :]))) if 2**k > k + 1 else 0.0,
            )
    ok = bound_ok and spec_err < 1e-8
    verdict(
        6,
        ok,
        f"all cuts bounded: {bound_ok}; single-color spectrum error {spec_err:.2e}",
    )


def test_criterion_07_rvb_mean_field_convergence():
    target = rvb_plaquette_entropy(0.5)
    gaps = [abs(rvb_cut_plaquette_entropy(m2, 0.5) - target) for m2 in (25, 100, 400)]
    ok = gaps[0] > gaps[1] > gaps[2] and gaps[-1] < 0.02
    verdict(
        7,
        ok,
        f"|gap to {target:.4f}| = {[round(g, 4) for g in gaps]} at m^2 = 25,100,400",
    )


def test_criterion_08_rvb_initial_state_independence():
    h = build_model(RVBPlaquette(9, 3))
    rng = np.random.default_rng(8)
    states = []
    for _ in range(20):
        while True:
            alpha, beta = rng.normal(size=2) + 1j * rng.normal(size=2)
            if abs(alpha) > 1e-3 and abs(beta) > 1e-3:
                break
        states.append(cool(h, product_state([(alpha, beta)] * 9)).state)
    worst = min(
        fidelity(a, b) for a, b in itertools.combinations(states, 2)
    )
    ok = worst >= 1 - 1e-10
    verdict(8, ok, f"minimum pairwise cooled fidelity = {worst:.12f} over 20 draws")


def test_criterion_09_frustration_degrees():
    errs = {}
    worst1 = 0.0
    for m in range(2, 7):
        for j in range(3):
            lam = j / m
            f = frustration_degree(build_model(IsingGasLR(m, lam))).value
            worst1 = max(worst1, abs(f - ising_gas_frustration_formula(m, lam)))
    errs["case1"] = worst1
    worst6 = 0.0
    for m in range(2, 7):
        f = frustration_degree(build_model(SingleBondIsing(m))).value
        worst6 = max(worst6, abs(f - single_bond_frustration_formula(m)))
    errs["case6"] = worst6
    errs["mg"] = abs(frustration_degree(build_model(MajumdarGhosh(4))).value - 0.5)
    f_ss = frustration_degree(build_model(ShastrySutherland(4, 0.4, 1.0))).value
    closed = shastry_sutherland_frustration_formula(0.4, 1.0)
    errs["shastry_rel"] = abs(f_ss - closed) / closed
    # "exact" here means exact up to double rounding in the config average
    ok = (
        errs["case1"] < 1e-12
        and errs["case6"] <= 1e-15
        and errs["mg"] <= 1e-15
        and errs["shastry_rel"] < 0.10
    )
    verdict(
        9,
        ok,
        "errors: gas {case1:.1e}, flipped bond {case6:.1e}, "
        "dimer chain {mg:.1e}, shastry rel {shastry_rel:.3f}".format(**errs),
    )


def test_criterion_10_interference_curves():
    grid = [round(0.02 * i, 10) for i in range(1, 50)]
    sq = {d: r for d, r, _ in rvb_interference_curve("square", grid)}
    hz = {d: r for d, r, _ in rvb_interference_curve("horizontal", grid)}
    symmetric = all(
        abs(sq[d] - sq[round(1 - d, 10)]) < 1e-9 for d in grid if d < 0.5
    )
    peak_ok = abs(sq[0.5] - 1.2075) <= 1e-3 and sq[0.5] == max(sq.values())
    sq_tails = [r for d, r in sq.items() if d < 0.1 or d > 0.9]
    sq_destructive = all(r < 1 for r in sq_tails)
    hz_destructive = all(r < 1 for d, r in hz.items() if d < 0.1)
    ok = symmetric and peak_ok and sq_destructive and hz_destructive
    verdict(
        10,
        ok,
        f"symmetric: {symmetric}; peak {sq[0.5]:.4f}: {peak_ok}; "
        f"square tails < 1: {sq_destructive} (max tail {max(sq_tails):.4f}); "
        f"horizontal low-d < 1: {hz_destructive}",
    )


def test_criterion_11_single_bond_trends(single_bond_entropy):
    # Area law at finite size: the block spectrum has at most four
    # eigenvalues, so E <= 2 for every k, and E -> 1 at fixed k only as
    # m -> infinity.  E(k=2) rises from 2m=6 to 8 and falls from 8 on.
    st = single_bond_cooled_state(5)
    es_k = [block_entropy(st, Bipartition.contiguous(k)) for k in range(1, 6)]
    ms = (3, 4, 5, 6)
    es_m = [
        block_entropy(single_bond_cooled_state(m), Bipartition.contiguous(2))
        for m in ms
    ]
    want = [single_bond_entropy(10, k) for k in range(1, 6)]
    want += [single_bond_entropy(2 * m, 2) for m in ms]
    err = max(abs(e - w) for e, w in zip(es_k + es_m, want))
    bounded = max(es_k + es_m) <= 2.0
    decreasing = all(a > b for a, b in zip(es_m[1:], es_m[2:]))
    ok = err <= 1e-10 and bounded and decreasing
    verdict(
        11,
        ok,
        f"max |E - closed form| = {err:.1e} (need <= 1e-10); "
        f"all E <= 2: {bounded}; "
        f"E(k=2) over 2m=6..12 = {[round(e, 4) for e in es_m]}, "
        f"strictly decreasing from 2m=8: {decreasing}",
    )


def test_criterion_12_covering_interference():
    # the superposition of all m! coverings, built state by state, against
    # its components; the library's closed form must give the same reports
    ok = True
    details = []
    err = 0.0
    for m in (2, 3):
        reports = covering_interference_by_enumeration(m)
        ratios = []
        for k in range(1, m + 1):
            rep = reports[k]
            closed = covering_interference(m, k)
            err = max(err, abs(closed.e_super - rep.e_super), abs(closed.e_avg - rep.e_avg))
            if k >= 2 and not rep.e_avg > rep.e_super:
                ok = False
            ratios.append(rep.ratio)
        if not all(a > b for a, b in zip(ratios, ratios[1:])):
            ok = False
        details.append(f"m={m}: ratios {[round(r, 3) for r in ratios]}")
    ok = ok and err <= 1e-12
    details.append(f"max |closed form - enumeration| = {err:.1e} (need <= 1e-12)")
    verdict(12, ok, "; ".join(details))
