"""Detection layer: witnesses, noise thresholds, body ratios, inequalities."""

import numpy as np
import pytest

from corrsets import selfcheck, twoqubit
from corrsets.detect import (MAX_OVER_QM, QM_OVER_SEP, Z_CHSH,
                             bqs_witness, chsh_settings, chsh_value,
                             containment_radius, critical_noise,
                             entanglement_witness,
                             i3322_settings, i3322_value, pauli_settings,
                             rotated_settings, table1)
from corrsets.detect import witness_report
from corrsets.geometry import (MAX, QM, SEP, MeasurementSettings,
                               correlation_matrix, gauge, membership, optimizer_z,
                               support)
from corrsets.oracles import random_separable_state, random_settings
from corrsets.twoqubit import partial_transpose, rho_max, tau_state, werner_state

RNG = np.random.default_rng(19)


def test_settings_factories():
    for factory, m, r in ((chsh_settings, 2, 2), (pauli_settings, 3, 3),
                          (rotated_settings, 3, 3), (i3322_settings, 3, 2)):
        s = factory()
        assert s.m == m
        assert s.r == r
        assert np.allclose(np.linalg.norm(s.a, axis=1), 1.0)
        assert np.allclose(np.linalg.norm(s.b, axis=1), 1.0)


def test_chsh_value_tsirelson():
    s = chsh_settings()
    assert np.isclose(chsh_value(werner_state(0.0), s), 2.0 * np.sqrt(2.0))
    # linear in the noise fraction, classical bound crossed at 1 - 1/sqrt(2)
    p_star = 1.0 - 1.0 / np.sqrt(2.0)
    assert abs(chsh_value(werner_state(p_star), s) - 2.0) <= 1e-12
    with pytest.raises(ValueError):
        chsh_value(werner_state(0.0), pauli_settings())


def test_chsh_value_separable_bound():
    s = chsh_settings()
    for _ in range(50):
        assert chsh_value(random_separable_state(RNG), s) <= 2.0 + 1e-9


def test_i3322_pinned_values():
    s = i3322_settings()
    assert np.isclose(i3322_value(np.eye(4) / 4.0, s), -1.0)
    assert np.isclose(i3322_value(werner_state(0.0), s), 0.25)
    for p in (0.1, 0.2, 0.5):
        assert np.isclose(i3322_value(werner_state(p), s), 0.25 - 1.25 * p)
    with pytest.raises(ValueError):
        i3322_value(werner_state(0.0), chsh_settings())


def test_i3322_separable_bound():
    s = i3322_settings()
    for _ in range(50):
        assert i3322_value(random_separable_state(RNG), s) <= 1e-9


def test_critical_noise_pinned():
    pauli = pauli_settings()
    assert np.isclose(critical_noise(QM, pauli, np.eye(3)), 2.0 / 3.0, atol=1e-9)
    chsh = chsh_settings()
    c = correlation_matrix(werner_state(0.0), chsh)
    assert np.isclose(critical_noise(SEP, chsh, c), 0.5, atol=1e-9)


def test_critical_noise_clamps_at_zero():
    s = pauli_settings()
    inside = 0.5 * np.diag([1.0, -1.0, 1.0])
    assert critical_noise(QM, s, inside) == 0.0


def test_critical_noise_validation():
    s = pauli_settings()
    with pytest.raises(ValueError):
        critical_noise(MAX, s, np.eye(3))
    rows = np.array([[1.0, 0.0, 0.0],
                     [0.0, 1.0, 0.0],
                     [np.sqrt(0.5), np.sqrt(0.5), 0.0]])
    flat = MeasurementSettings(rows, rows)
    with pytest.raises(ValueError):
        critical_noise(QM, flat, np.eye(3))


def test_entanglement_witness_nonnegative_on_separable():
    s = pauli_settings()
    w = entanglement_witness(s, np.diag([1.0, -1.0, 1.0]))
    for _ in range(200):
        rho = random_separable_state(RNG)
        assert float(np.trace(w @ rho).real) >= -1e-9


def test_entanglement_witness_catches_phi_plus():
    s = pauli_settings()
    w = entanglement_witness(s, np.diag([1.0, -1.0, 1.0]))
    margin = float(np.trace(w @ werner_state(0.0)).real)
    assert np.isclose(margin, -2.0)


def test_bqs_witness_catches_rho_max():
    s = pauli_settings()
    w = bqs_witness(s, np.eye(3))
    assert np.isclose(float(np.trace(w @ rho_max()).real), -2.0)
    # nonnegative on every quantum state: the operator plus its
    # detection threshold must dominate the spectrum bottom
    evs = np.linalg.eigvalsh(w)
    assert evs[0] >= -2.0 - 1e-12


def test_witness_zero_support_rejected():
    s = pauli_settings()
    with pytest.raises(ValueError):
        entanglement_witness(s, np.zeros((3, 3)))


def test_witness_report_round_trip():
    s = pauli_settings()
    c = np.diag([1.0, -1.0, 1.0])
    rep = witness_report(SEP, s, c)
    assert np.isclose(rep.sensitivity, 3.0)
    assert np.isclose(rep.p_crit, 2.0 / 3.0)
    ratio = float(np.sum(rep.z_star * c)) / support(SEP, s, rep.z_star)
    assert np.isclose(ratio, rep.sensitivity)
    assert np.linalg.norm(rep.witness - rep.witness.conj().T) <= 1e-12


def test_witness_report_undetectable_target():
    s = pauli_settings()
    rep = witness_report(QM, s, 0.5 * np.diag([1.0, -1.0, 1.0]))
    assert rep.p_crit == 0.0
    assert rep.sensitivity <= 1.0


def test_witness_report_validation():
    s = pauli_settings()
    with pytest.raises(ValueError):
        witness_report(QM, s, np.zeros((3, 3)))
    with pytest.raises(ValueError, match="sep and qm bodies"):
        witness_report(MAX, s, np.diag([1.0, -1.0, 1.0]))


@pytest.mark.parametrize("model", [SEP, QM])
def test_witness_report_carries_the_support_of_its_optimizer(model):
    """One gauge core feeds the gauge and the optimizer, and the report's
    support is the one its witness was normalized by."""
    rng = np.random.default_rng(89)
    for m, rank in ((2, 2), (3, 3), (4, 2)):
        s = random_settings(rng, m, rank)
        c = s.a @ rng.standard_normal((3, 3)) @ s.b.T
        rep = witness_report(model, s, c)
        assert rep.sensitivity == gauge(model, s, c).value
        assert np.array_equal(rep.z_star, optimizer_z(model, s, c))
        assert rep.support == support(model, s, rep.z_star)
        build = entanglement_witness if model == SEP else bqs_witness
        assert np.array_equal(rep.witness, build(s, rep.z_star))


def test_containment_radius_full_rank():
    s = pauli_settings()
    qs = containment_radius(s, QM_OVER_SEP)
    assert qs.pair == (QM, SEP)
    assert qs.radius == 3.0
    mq = containment_radius(s, MAX_OVER_QM)
    assert mq.pair == (MAX, QM)
    assert mq.radius == 3.0


def test_containment_radius_rank_two():
    s = chsh_settings()
    assert containment_radius(s, QM_OVER_SEP).radius == 2.0
    assert containment_radius(s, MAX_OVER_QM).radius == 1.0


def test_containment_report_is_consistent():
    for s in (pauli_settings(), chsh_settings(), rotated_settings(),
              i3322_settings()):
        for pair in (QM_OVER_SEP, MAX_OVER_QM):
            rep = containment_radius(s, pair)
            inner = rep.pair[1]
            g = gauge(inner, s, rep.maximizer_c)
            assert g.finite
            assert abs(g.value - rep.radius) <= 1e-8
            witness_z = optimizer_z(inner, s, rep.maximizer_c)
            ratio = float(np.sum(witness_z * rep.maximizer_c)) \
                / support(inner, s, witness_z)
            assert abs(ratio - rep.radius) <= 1e-8


def test_radii_and_best_thresholds_depend_only_on_r():
    """On seeded settings of every (m, rank) the maximizer lies in the outer
    body, the inner gauge and the optimizer_z duality ratio reach the
    radius there, and the best noise thresholds follow: 1 - 1/r for
    entanglement, and 2/3 at r = 3 or 0 below for beyond-quantum states."""
    rng = np.random.default_rng(29)
    for m in range(2, 6):
        for rank in range(1, min(3, m) + 1):
            for _ in range(4):
                s = random_settings(rng, m, rank)
                assert s.r == rank
                for pair, radius, threshold in (
                        (QM_OVER_SEP, rank, 1.0 - 1.0 / rank),
                        (MAX_OVER_QM, 3.0 if rank == 3 else 1.0,
                         2.0 / 3.0 if rank == 3 else 0.0)):
                    rep = containment_radius(s, pair)
                    outer, inner = rep.pair
                    assert rep.radius == radius
                    assert membership(outer, s, rep.maximizer_c)
                    g = gauge(inner, s, rep.maximizer_c)
                    assert g.finite and g.value == pytest.approx(radius, abs=1e-8)
                    z = optimizer_z(inner, s, rep.maximizer_c)
                    ratio = float(np.sum(z * rep.maximizer_c)) / support(inner, s, z)
                    assert ratio == pytest.approx(radius, abs=1e-8)
                    assert critical_noise(inner, s, rep.maximizer_c) == pytest.approx(
                        threshold, abs=1e-8)


def test_containment_radius_validation():
    with pytest.raises(ValueError):
        containment_radius(pauli_settings(), "sep-over-max")


def test_table1_values():
    rows = table1(chsh_settings(), pauli_settings())
    by_method = {row.method: row for row in rows}
    assert set(by_method) == {"ppt", "gauge", "chsh", "i3322"}

    assert by_method["ppt"].two_setting is None
    assert abs(by_method["ppt"].three_setting - 2.0 / 3.0) <= 1e-12

    assert abs(by_method["gauge"].two_setting - 0.5) <= 1e-6
    assert abs(by_method["gauge"].three_setting - 2.0 / 3.0) <= 1e-6

    chsh_p = 1.0 - 1.0 / np.sqrt(2.0)
    assert abs(by_method["chsh"].two_setting - chsh_p) <= 1e-12
    assert abs(by_method["chsh"].three_setting - chsh_p) <= 1e-12

    assert by_method["i3322"].two_setting is None
    assert abs(by_method["i3322"].three_setting - 0.2) <= 1e-12


def test_table1_neither_classifies_nor_bisects(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("table1 must not take this route")

    monkeypatch.setattr(twoqubit, "classify_state", forbidden)
    monkeypatch.setattr(selfcheck, "_bisect_threshold", forbidden)
    rows = table1(chsh_settings(), pauli_settings())
    assert [row.method for row in rows] == ["ppt", "gauge", "chsh", "i3322"]


def test_table1_chsh_row_matches_the_bisection():
    """The exact root agrees with the verification bisection on the same
    margin, including settings whose CHSH value never exceeds 2."""
    rng = np.random.default_rng(23)
    cases = [chsh_settings()] + [random_settings(rng, 2, 2) for _ in range(12)]
    never = 0
    for s2 in cases:
        row = {r.method: r for r in table1(s2, pauli_settings())}["chsh"]
        bisected = selfcheck._bisect_threshold(
            lambda p: chsh_value(werner_state(p), s2) - 2.0, 0.0, 1.0, tol=1e-7)
        assert abs(row.two_setting - bisected) <= 1e-7
        assert row.three_setting == row.two_setting
        if chsh_value(werner_state(0.0), s2) <= 2.0:
            never += 1
            assert row.two_setting == 0.0 and bisected == 0.0
    assert 0 < never < len(cases)


def test_table1_ppt_row_runs_no_descent(monkeypatch):
    """The PPT row starts no block-positivity descent, and it agrees with a
    bisection over the eager separability flag to that bisection's
    tolerance and with the exact 2/3 to rounding."""
    calls = []
    monkeypatch.setattr(twoqubit, "block_positivity_minimum",
                        lambda *args, **kwargs: calls.append(args))
    rows = table1(chsh_settings(), pauli_settings())
    assert calls == []

    def entangled(p):
        rho = werner_state(p)
        separable = (np.linalg.eigvalsh(rho)[0] >= -1e-9
                     and np.linalg.eigvalsh(partial_transpose(rho))[0] >= -1e-9)
        return -1.0 if separable else 1.0

    ppt = selfcheck._bisect_threshold(entangled, 0.0, 1.0, tol=1e-6)
    assert rows[0].method == "ppt" and rows[0].two_setting is None
    assert abs(rows[0].three_setting - ppt) <= 1e-6
    assert abs(rows[0].three_setting - 2.0 / 3.0) <= 1e-12


def test_table1_rejects_wrong_scenarios():
    with pytest.raises(ValueError):
        table1(pauli_settings(), pauli_settings())
    with pytest.raises(ValueError):
        table1(chsh_settings(), i3322_settings())


def test_tau_family_matches_gauge_threshold():
    # the gauge threshold 2/3 is exactly where the tau family turns quantum
    s = pauli_settings()
    p_star = critical_noise(QM, s, correlation_matrix(rho_max(), s))
    lo = np.linalg.eigvalsh(tau_state(p_star - 1e-6))[0]
    hi = np.linalg.eigvalsh(tau_state(p_star + 1e-6))[0]
    assert lo < 0.0 <= hi + 1e-9
