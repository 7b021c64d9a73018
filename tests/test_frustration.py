import math

import pytest

from frustra import frustration
from frustra.spin_core import PauliOperator
from frustra.models import (
    ModelSpec,
    build_heisenberg_gas,
    build_ising_gas,
    build_mg_chain,
    build_shastry_sutherland,
    build_single_bond_ising,
    build_ferromagnetic_ring,
)
from frustra.frustration import (
    frustration_degree,
    frustration_degree_model,
    ising_gas_frustration_formula,
    ising_limit,
    shastry_sutherland_frustration_formula,
    single_bond_frustration_formula,
)


def test_ising_limit_collapses_isotropic_triple():
    op = PauliOperator(2, ((0.5, "XX"), (0.5, "YY"), (0.5, "ZZ")))
    limited = ising_limit(op)
    assert limited.terms == ((0.5, "ZZ"),)


def test_ising_limit_keeps_zz():
    op = PauliOperator(3, ((1.0, "ZIZ"),))
    assert ising_limit(op).terms == op.terms


def test_ising_limit_drops_constants():
    op = PauliOperator(2, ((3.0, "II"), (1.0, "ZZ")))
    assert ising_limit(op).terms == ((1.0, "ZZ"),)


def test_ising_limit_replaces_letters_without_triple():
    op = PauliOperator(2, ((1.0, "XY"),))
    assert ising_limit(op).terms == ((1.0, "ZZ"),)


def test_frustration_af_ising_gas():
    rep = frustration_degree(build_ising_gas(4, 0.0))
    assert rep.value == pytest.approx(0.75, abs=1e-12)
    assert rep.num_ground_configs == math.comb(8, 4)


def test_frustration_single_bond_ring():
    rep = frustration_degree(build_single_bond_ising(3))
    assert rep.value == pytest.approx(0.2, abs=1e-12)
    assert rep.num_ground_configs == 12


def test_frustration_ferromagnet_is_zero():
    rep = frustration_degree(build_ising_gas(3, 0.0, j=-1.0))
    assert rep.value == 0.0
    rep = frustration_degree(build_ferromagnetic_ring(3))
    assert rep.value == 0.0


def test_frustration_mg_point():
    rep = frustration_degree(build_mg_chain(4))
    assert rep.value == pytest.approx(0.5, abs=1e-12)


def test_frustration_heisenberg_gas_m2():
    # Ising limit coincides with the lambda = 0 gas, so F = 1 - 1/m = 1/2
    rep = frustration_degree(build_heisenberg_gas(2))
    assert rep.value == pytest.approx(0.5, abs=1e-12)


def test_case1_formula_exact_over_grid():
    for m in range(2, 7):
        for lam in (0.0, 1.0 / m, 2.0 / m):
            rep = frustration_degree(build_ising_gas(m, lam))
            assert rep.value == pytest.approx(
                ising_gas_frustration_formula(m, lam), abs=1e-12
            )


def test_ising_gas_n22_matches_formula():
    # 170,544 ground configurations, many blocks of the ground term table
    rep = frustration_degree(build_ising_gas(11, 4.0 / 11.0))
    assert rep.num_ground_configs == 170_544
    assert rep.value == pytest.approx(
        ising_gas_frustration_formula(11, 4.0 / 11.0), abs=1e-12
    )


@pytest.mark.parametrize("rows", [1, 7, 1 << 20])
def test_ground_table_block_size_leaves_report_unchanged(monkeypatch, rows):
    op = build_ising_gas(5, 0.4)
    want = frustration_degree(op)
    monkeypatch.setattr(frustration, "_GROUND_ROWS", rows)
    assert frustration_degree(op) == want


def test_shastry_sutherland_dimer_regime():
    # in the regime where the diagonal bonds win classically, the L=4
    # enumeration lands on the closed form
    rep = frustration_degree(build_shastry_sutherland(4, 0.4, 1.0))
    closed = shastry_sutherland_frustration_formula(0.4, 1.0)
    assert closed == pytest.approx(4.0 / 9.0)
    assert abs(rep.value - closed) / closed < 0.10


def test_scaling_invariance():
    op = build_single_bond_ising(3)
    a = frustration_degree(op).value
    b = frustration_degree(op.scaled(7.5)).value
    assert a == pytest.approx(b, abs=1e-12)


def test_ratios_nonnegative_and_average():
    rep = frustration_degree(build_ising_gas(3, 0.0))
    assert all(r >= 0 for r in rep.per_config_ratios)
    assert rep.value == pytest.approx(
        sum(rep.per_config_ratios) / len(rep.per_config_ratios)
    )


def test_frustration_degree_model_attaches_closed_forms():
    rep = frustration_degree_model(ModelSpec(kind="MajumdarGhosh", m=4))
    assert rep.closed_form == 0.5
    assert rep.value == pytest.approx(0.5, abs=1e-12)
    rep = frustration_degree_model(ModelSpec(kind="SingleBondIsing", m=3))
    assert rep.closed_form == pytest.approx(single_bond_frustration_formula(3))
    rep = frustration_degree_model(ModelSpec(kind="IsingGasLR", m=4))
    assert rep.closed_form == pytest.approx(0.75)


def test_report_json_shape():
    rep = frustration_degree_model(ModelSpec(kind="SingleBondIsing", m=3))
    import json

    d = json.loads(rep.to_json())
    assert set(d) == {"f", "closed_form", "n_ground_configs", "mode"}
    assert d["f"] == pytest.approx(0.2)
