import pytest

from frustra.spin_core import Bipartition, ValidationError, block_entropy, shannon_entropy
from frustra.models import IsingGasLR, SingleBondIsing
from frustra.closed_forms import BoundaryPath, rvb_plaquette_entropy
from frustra.interference import (
    IncomparableError,
    covering_interference,
    curve_to_tsv,
    make_report,
    rvb_average_entropy,
    rvb_interference_curve,
)

from reference import (
    component_average_entropy,
    covering_interference_by_enumeration,
    frustrated_vs_unfrustrated_ratio,
    heisenberg_covering_states,
    heisenberg_gas_schmidt_state,
    mg_dimer_states,
    superposition_vs_average,
)


def test_report_verdicts():
    assert make_report(1.2, 1.0).verdict == "constructive"
    assert make_report(0.8, 1.0).verdict == "destructive"
    assert make_report(1.0 + 1e-9, 1.0).verdict == "marginal"
    with pytest.raises(IncomparableError):
        make_report(1.0, 0.0)


def test_average_entropy_values():
    assert rvb_average_entropy(0.5, BoundaryPath(2, 2)) == pytest.approx(4.0)
    assert rvb_average_entropy(0.0, BoundaryPath(1, 0)) == 0.0
    assert rvb_average_entropy(1.0, BoundaryPath(0, 1)) == 0.0


def test_square_curve_peak_and_symmetry():
    grid = [round(0.02 * i, 10) for i in range(1, 50)]
    curve = rvb_interference_curve("square", grid)
    ratios = {d: r for d, r, skipped in curve if not skipped}
    peak = max(ratios.values())
    assert ratios[0.5] == pytest.approx(peak)
    assert ratios[0.5] == pytest.approx(rvb_plaquette_entropy(0.5), abs=1e-9)
    for d in (0.1, 0.26, 0.4):
        assert ratios[d] == pytest.approx(ratios[round(1 - d, 10)], abs=1e-9)


def test_square_curve_destructive_at_low_density():
    curve = rvb_interference_curve("square", [0.02, 0.05])
    for d, ratio, skipped in curve:
        assert not skipped
        assert ratio < 1.0, f"square ratio at d={d} is {ratio}, not destructive"


def test_horizontal_curve_destructive_at_low_density():
    curve = rvb_interference_curve("horizontal", [0.02, 0.05, 0.08])
    for _, ratio, skipped in curve:
        assert not skipped and ratio < 1.0


def test_curve_rejects_out_of_range_grid():
    with pytest.raises(Exception):
        rvb_interference_curve("square", [0.0, 0.5])


def test_curve_tsv_format():
    text = curve_to_tsv(rvb_interference_curve("square", [0.25, 0.5]))
    lines = text.strip().splitlines()
    assert lines[0] == "d\tratio"
    assert len(lines) == 3
    d, r = lines[2].split("\t")
    assert float(d) == 0.5


def test_mg_component_average_is_unity():
    gp, gm = mg_dimer_states(4)
    for k in range(1, 8):
        avg = component_average_entropy([gp, gm], Bipartition.contiguous(k))
        assert avg == pytest.approx(1.0, abs=1e-9)


def test_single_component_average_is_its_entropy():
    gp, _ = mg_dimer_states(3)
    cut = Bipartition.contiguous(3)
    assert component_average_entropy([gp], cut) == pytest.approx(
        block_entropy(gp, cut), abs=1e-12
    )


def test_component_average_rejects_bad_weights():
    gp, gm = mg_dimer_states(2)
    with pytest.raises(Exception):
        component_average_entropy([gp, gm], Bipartition.contiguous(1), weights=[0.7, 0.7])


def test_covering_interference_marginal_at_k1():
    rep = covering_interference(2, 1)
    assert rep.e_super == pytest.approx(1.0, abs=1e-9)
    assert rep.e_avg == pytest.approx(1.0, abs=1e-9)
    assert rep.verdict == "marginal"


def test_covering_interference_destructive_beyond_k1():
    for m in (2, 3):
        ratios = []
        for k in range(1, m + 1):
            rep = covering_interference(m, k)
            if k >= 2:
                assert rep.e_avg > rep.e_super
                assert rep.verdict == "destructive"
            ratios.append(rep.ratio)
        assert all(a >= b - 1e-12 for a, b in zip(ratios, ratios[1:]))


@pytest.mark.parametrize("m", range(2, 7))
def test_covering_interference_equals_enumeration(m):
    # the closed form against the superposition of all m! coverings, at
    # every cut, including the k > m cuts that hold whites
    for k, want in covering_interference_by_enumeration(m).items():
        got = covering_interference(m, k)
        assert got.e_super == pytest.approx(want.e_super, abs=1e-12)
        assert got.e_avg == pytest.approx(want.e_avg, abs=1e-12)
        assert got.ratio == pytest.approx(want.ratio, abs=1e-12)
        assert got.verdict == want.verdict


def test_covering_superposition_equals_schmidt_state_spectrum():
    # for k <= m the superposition is the Heisenberg-gas singlet, whose
    # block spectrum the SU(2) coupling gives
    for m in range(1, 25):
        for k in range(1, m + 1):
            _, spectrum = heisenberg_gas_schmidt_state(m, k)
            assert covering_interference(m, k).e_super == pytest.approx(
                shannon_entropy(spectrum), abs=1e-12)


@pytest.mark.parametrize("k", [0, 6, -1])
def test_covering_interference_refuses_cuts_outside_the_ring(k):
    with pytest.raises(ValidationError, match="k out of range"):
        covering_interference(3, k)


def test_covering_average_counts_cut_singlets():
    # every covering pairs each of the first k black sites with a white
    # site outside the block, so the component entropy is exactly k
    m, k = 3, 2
    comps = heisenberg_covering_states(m)
    avg = component_average_entropy(comps, Bipartition.contiguous(k))
    assert avg == pytest.approx(k, abs=1e-9)


def test_superposition_vs_average_single_state():
    gp, gm = mg_dimer_states(2)
    rep = superposition_vs_average([gp, gm], Bipartition.contiguous(2))
    assert rep.e_avg == pytest.approx(1.0, abs=1e-9)


def test_frustrated_vs_unfrustrated_identical_specs():
    spec = SingleBondIsing(4)
    assert frustrated_vs_unfrustrated_ratio(spec, spec, Bipartition.contiguous(4)) == 1.0


def test_frustrated_vs_unfrustrated_case6():
    frus = SingleBondIsing(4, sign="frustrated")
    ferro = SingleBondIsing(4, sign="unfrustrated")
    ratio = frustrated_vs_unfrustrated_ratio(frus, ferro, Bipartition.contiguous(4))
    assert ratio > 1.0  # constructive relative to the clean ring


def test_frustrated_vs_unfrustrated_case1():
    frus = IsingGasLR(4, sign="frustrated")
    ferro = IsingGasLR(4, sign="unfrustrated")
    ratio = frustrated_vs_unfrustrated_ratio(frus, ferro, Bipartition.contiguous(4))
    from frustra.closed_forms import ising_gas_spectra

    assert ratio == pytest.approx(ising_gas_spectra(4, 0.0, [4])[0].entropy(), abs=1e-8)
    assert ratio > 1.0
