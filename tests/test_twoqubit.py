"""Two-qubit state layer: Pauli algebra, transposition maps, state families."""

import numpy as np
import pytest

from corrsets import twoqubit
from corrsets.detect import Z_CHSH, chsh_settings, pauli_settings
from corrsets.oracles import (random_product_state, random_quantum_state,
                              random_separable_state)
from corrsets.twoqubit import (I2, PAULI, apply_theta, bell_operator,
                               block_positivity_minimum, classify_state,
                               hull_state, max_entangled, partial_transpose,
                               pauli_assemble, pauli_expand, qubit_state,
                               rho_max, tau_state, werner_state)

RNG = np.random.default_rng(33)


def test_pauli_algebra():
    for s in PAULI:
        assert np.allclose(s @ s.conj().T, np.eye(2))
        assert np.allclose(s, s.conj().T)
        assert np.isclose(np.trace(s), 0.0)
    # sigma_x sigma_y = i sigma_z and cyclic
    assert np.allclose(PAULI[0] @ PAULI[1], 1j * PAULI[2])
    assert np.allclose(PAULI[1] @ PAULI[2], 1j * PAULI[0])
    assert np.allclose(PAULI[2] @ PAULI[0], 1j * PAULI[1])


def test_pauli_expand_assemble_round_trip():
    for _ in range(100):
        rho = random_quantum_state(RNG)
        p = pauli_expand(rho)
        assert np.isclose(p.weight, 1.0)
        assert np.linalg.norm(pauli_assemble(p) - rho) <= 1e-12


def _identical(x, y) -> bool:
    """Equal entry by entry, signs of zeros included; complex part by part."""
    x, y = (np.ascontiguousarray(v).view(float) for v in (x, y))
    return np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))


def test_product_table_matches_kron_loops():
    """Expansion, assembly and Theta agree bit for bit with per-call kron loops."""
    states = [family(k / 20) for family in (werner_state, tau_state) for k in range(21)]
    states += [rho_max()] + [random_quantum_state(seed) for seed in range(20)]
    y = np.kron(I2, PAULI[1])
    for rho in states:
        ra, rb, t = np.empty(3), np.empty(3), np.empty((3, 3))
        for i in range(3):
            ra[i] = np.trace(rho @ np.kron(PAULI[i], I2)).real
            rb[i] = np.trace(rho @ np.kron(I2, PAULI[i])).real
            for j in range(3):
                t[i, j] = np.trace(rho @ np.kron(PAULI[i], PAULI[j])).real
        p = pauli_expand(rho)
        assert _identical(p.weight, np.trace(rho).real)
        assert _identical(p.ra, ra) and _identical(p.rb, rb) and _identical(p.t, t)

        expected = p.weight * np.eye(4, dtype=complex)
        for i in range(3):
            expected += p.ra[i] * np.kron(PAULI[i], I2)
            expected += p.rb[i] * np.kron(I2, PAULI[i])
            for j in range(3):
                expected += p.t[i, j] * np.kron(PAULI[i], PAULI[j])
        assert _identical(pauli_assemble(p), expected / 4.0)
        assert _identical(apply_theta(rho), y @ partial_transpose(rho) @ y)


def test_pauli_expand_phi_plus():
    p = pauli_expand(werner_state(0.0))
    assert np.allclose(p.ra, 0.0, atol=1e-12)
    assert np.allclose(p.rb, 0.0, atol=1e-12)
    assert np.allclose(p.t, np.diag([1.0, -1.0, 1.0]), atol=1e-12)


def test_bell_operator_correlation_block():
    s = chsh_settings()
    op = bell_operator(s, Z_CHSH)
    assert np.linalg.norm(op - op.conj().T) <= 1e-12
    assert np.isclose(np.trace(op).real, 0.0)
    # Tr[(a.sigma) sigma_i] = 2 a_i on each side, so the block is 4 A^T Z B
    p = pauli_expand(op)
    assert np.linalg.norm(p.t - 4.0 * s.a.T @ np.asarray(Z_CHSH) @ s.b) <= 1e-10


def test_bell_operator_spectra():
    swap_like = bell_operator(pauli_settings(), np.eye(3))
    assert np.allclose(np.linalg.eigvalsh(swap_like), [-3.0, 1.0, 1.0, 1.0])
    chsh_op = bell_operator(chsh_settings(), Z_CHSH)
    root8 = 2.0 * np.sqrt(2.0)
    assert np.allclose(np.linalg.eigvalsh(chsh_op), [-root8, 0.0, 0.0, root8])


def test_partial_transpose_involution():
    for _ in range(50):
        rho = random_quantum_state(RNG)
        assert np.linalg.norm(partial_transpose(partial_transpose(rho)) - rho) == 0.0
        assert np.isclose(np.trace(partial_transpose(rho)), np.trace(rho))


def test_partial_transpose_detects_entanglement():
    # Phi+ has negative partial transpose, any product state does not
    assert np.linalg.eigvalsh(partial_transpose(werner_state(0.0)))[0] < -0.49
    for _ in range(20):
        rho = random_separable_state(RNG)
        assert np.linalg.eigvalsh(partial_transpose(rho))[0] >= -1e-10


def test_werner_ppt_boundary():
    # min eigenvalue of the partial transpose is p/4 - (1-p)/2, zero at 2/3
    for p, sep in ((0.6, False), (0.64, False), (0.68, True), (0.75, True)):
        low = np.linalg.eigvalsh(partial_transpose(werner_state(p)))[0]
        assert (low >= -1e-12) == sep
    boundary = np.linalg.eigvalsh(partial_transpose(werner_state(2.0 / 3.0)))[0]
    assert abs(boundary) <= 1e-12


def test_apply_theta_flips_correlations():
    for _ in range(50):
        rho = random_quantum_state(RNG)
        p = pauli_expand(rho)
        q = pauli_expand(apply_theta(rho))
        assert np.isclose(q.weight, p.weight)
        assert np.linalg.norm(q.t + p.t) <= 1e-10


def test_apply_theta_preserves_separability():
    for _ in range(20):
        rho = random_separable_state(RNG)
        out = apply_theta(rho)
        assert np.linalg.eigvalsh(out)[0] >= -1e-9
        assert np.linalg.eigvalsh(partial_transpose(out))[0] >= -1e-9


def test_classify_werner_family():
    half = classify_state(werner_state(0.5))
    assert half.is_quantum and not half.is_separable
    deep = classify_state(werner_state(0.8))
    assert deep.is_quantum and deep.is_separable and deep.is_block_positive
    pure = classify_state(werner_state(0.0))
    assert pure.is_quantum and not pure.is_separable


def test_classify_rho_max():
    cls = classify_state(rho_max())
    assert not cls.is_quantum
    assert not cls.is_separable
    assert cls.is_block_positive
    assert abs(cls.min_product_overlap) <= 1e-6


def test_classify_tau_boundary():
    assert not classify_state(tau_state(0.6)).is_quantum
    assert classify_state(tau_state(0.7)).is_quantum
    # exactly on the boundary the smallest eigenvalue is zero
    evs = np.linalg.eigvalsh(tau_state(2.0 / 3.0))
    assert abs(evs[0]) <= 1e-12


def test_classify_rejects_bad_trace():
    with pytest.raises(ValueError):
        classify_state(2.0 * werner_state(0.5))


def test_classify_runs_the_descent_only_when_read(monkeypatch):
    calls = []
    descent = twoqubit.block_positivity_minimum

    def counted(*args, **kwargs):
        calls.append(args)
        return descent(*args, **kwargs)

    monkeypatch.setattr(twoqubit, "block_positivity_minimum", counted)
    for p in (0.0, 0.5, 0.8):
        cls = classify_state(werner_state(p))
        assert cls.is_quantum and cls.is_separable == (p > 2.0 / 3.0)
    assert not classify_state(tau_state(0.5)).is_quantum
    assert calls == []
    cls = classify_state(rho_max())
    for _ in range(2):
        assert cls.is_block_positive
        assert abs(cls.min_product_overlap) <= 1e-6
    assert len(calls) == 1


@pytest.mark.parametrize("first_seed", [8, 64])
def test_lazy_fields_equal_the_direct_descent(first_seed):
    """Bit for bit the value of block_positivity_minimum on the expansion, at
    the descent's default restarts and seed; the random states come from ten
    seeds starting at first_seed."""
    states = [family(k / 20) for family in (werner_state, tau_state) for k in range(21)]
    states += [rho_max()] + [random_quantum_state(first_seed + k) for k in range(10)]
    for rho in states:
        value, _, _ = block_positivity_minimum(pauli_expand(rho))
        cls = classify_state(rho)
        assert cls.min_product_overlap.hex() == (value / 4.0).hex()
        assert cls.is_block_positive == (value >= -1e-7)


def test_classify_keeps_its_own_copy_of_the_state():
    rho = np.array(tau_state(0.5))
    cls = classify_state(rho)
    rho[:] = 0.0
    assert cls.is_block_positive and cls.min_product_overlap > 0.0


def test_rho_max_is_a_fresh_writable_copy():
    first, second = rho_max(), rho_max()
    assert first is not second and first.flags.writeable
    tau = tau_state(0.25)
    first[:] = 0.0
    assert _identical(rho_max(), second)
    assert _identical(tau_state(0.25), tau)
    assert _identical(tau, 0.75 * hull_state(np.eye(3)) + 0.25 * np.eye(4) / 4.0)


def test_block_positivity_on_rho_max():
    # min over unit u, v of 1 + u.v is 0, attained at antipodal pairs
    value, u, v = block_positivity_minimum(pauli_expand(rho_max()))
    assert abs(value) <= 1e-7
    assert np.isclose(np.linalg.norm(u), 1.0)
    assert np.isclose(np.linalg.norm(v), 1.0)
    assert np.isclose(u @ v, -1.0, atol=1e-6)


def test_block_positivity_sees_negativity():
    p = pauli_expand(1.5 * rho_max() - 0.5 * np.eye(4) / 4.0)
    value, _, _ = block_positivity_minimum(p)
    assert value < -0.05


def test_hull_state_extremes():
    rot = np.eye(3)
    rho = hull_state(rot)
    assert np.isclose(np.trace(rho).real, 1.0)
    assert np.allclose(pauli_expand(rho).t, rot)
    with pytest.raises(ValueError):
        hull_state(np.diag([2.0, 1.0, 1.0]))


def test_max_entangled_states():
    rho = max_entangled(np.diag([1.0, -1.0, 1.0]))
    assert np.linalg.norm(rho - werner_state(0.0)) <= 1e-12
    evs = np.linalg.eigvalsh(rho)
    assert np.allclose(evs, [0.0, 0.0, 0.0, 1.0], atol=1e-12)
    with pytest.raises(ValueError):
        max_entangled(np.eye(3))


def test_rho_max_spectrum():
    assert np.allclose(np.linalg.eigvalsh(rho_max()), [-0.5, 0.5, 0.5, 0.5])


def test_state_family_validation():
    with pytest.raises(ValueError):
        werner_state(1.2)
    with pytest.raises(ValueError):
        tau_state(-0.1)
    with pytest.raises(ValueError):
        qubit_state([1.0, 1.0, 0.0])


def test_qubit_state_bloch():
    rho = qubit_state([0.0, 0.0, 1.0])
    assert np.allclose(rho, np.diag([1.0, 0.0]))
    mixed = qubit_state([0.3, -0.2, 0.1])
    assert np.isclose(np.trace(mixed).real, 1.0)
    assert np.linalg.eigvalsh(mixed)[0] >= 0.0


def test_samplers_produce_states():
    for draw in (random_product_state, random_separable_state,
                 random_quantum_state):
        for _ in range(25):
            rho = draw(RNG)
            assert np.isclose(np.trace(rho).real, 1.0)
            assert np.linalg.norm(rho - rho.conj().T) <= 1e-12
            assert np.linalg.eigvalsh(rho)[0] >= -1e-10


def test_product_states_have_rank_one_blocks():
    for _ in range(25):
        p = pauli_expand(random_product_state(RNG))
        assert np.linalg.matrix_rank(p.t, tol=1e-10) <= 1
        assert np.linalg.norm(p.t - np.outer(p.ra, p.rb)) <= 1e-10
