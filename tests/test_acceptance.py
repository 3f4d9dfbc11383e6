"""Acceptance gate: one test per shipped guarantee, run with pytest -v.

Each test pins the advertised numbers and budgets directly, so the verbose
report reads as a ten-line scorecard. Random draws are seeded; every
expected value below was computed through an independent route before
being frozen here.
"""

import time

import numpy as np
import pytest

from corrsets import detect, geometry, oracles, selfcheck, twoqubit
from corrsets.geometry import MAX, QM, SEP, MeasurementSettings
from corrsets.oracles import OracleConfig
from corrsets.smallmat import (det3_intrinsic, kron, max_trace_over_rotations,
                               norm_minus, norm_plus, random_rotation,
                               special_svd, vec)

ROOT2 = np.sqrt(2.0)


def _rank1_settings() -> MeasurementSettings:
    return MeasurementSettings(np.tile([0.0, 0.0, 1.0], (2, 1)),
                               np.tile([1.0, 0.0, 0.0], (2, 1)))


def test_criterion_01_tsirelson_bound():
    """CHSH support values at the canonical weights, in under 10 ms."""
    s = detect.chsh_settings()
    z = detect.Z_CHSH
    geometry.support(QM, s, z)  # warm-up so the timing sees steady state

    t0 = time.perf_counter()
    qm_value = geometry.support(QM, s, z)
    dt_qm = time.perf_counter() - t0
    t0 = time.perf_counter()
    sep_value = geometry.support(SEP, s, z)
    dt_sep = time.perf_counter() - t0

    assert qm_value == pytest.approx(2.0 * ROOT2, abs=1e-9)
    assert sep_value == pytest.approx(ROOT2, abs=1e-6)
    oracle = oracles.support_sep_oracle(s, z, OracleConfig(seed=0))
    assert sep_value == pytest.approx(oracle, abs=1e-6)
    assert dt_qm < 0.010
    assert dt_sep < 0.010


def test_criterion_02_critical_noise_table():
    """The four detection baselines, each within 1e-4, under 5 seconds."""
    t0 = time.perf_counter()
    rows = {row.method: (row.two_setting, row.three_setting)
            for row in detect.table1(detect.chsh_settings(),
                                     detect.pauli_settings())}
    elapsed = time.perf_counter() - t0

    expected = {
        "ppt": (None, 0.6667),
        "gauge": (0.5, 0.6667),
        "chsh": (0.2929, 0.2929),
        "i3322": (None, 0.2000),
    }
    for method, want in expected.items():
        for got_v, want_v in zip(rows[method], want):
            if want_v is None:
                assert got_v is None
            else:
                assert got_v == pytest.approx(want_v, abs=1e-4), method
    assert elapsed < 5.0


def test_criterion_03_containment_radii():
    """Exact radii from the aligned constructions, approached by sampling."""
    t0 = time.perf_counter()
    scenarios = {
        "pauli3": (detect.pauli_settings(), (3.0, 3.0)),
        "chsh": (detect.chsh_settings(), (2.0, 1.0)),
        "rank1": (_rank1_settings(), (1.0, 1.0)),
    }
    for name, (s, want_pair) in scenarios.items():
        for pair, want in zip((detect.QM_OVER_SEP, detect.MAX_OVER_QM),
                              want_pair):
            report = detect.containment_radius(s, pair)
            assert report.radius == pytest.approx(want, abs=1e-8), (name, pair)
            reached = geometry.gauge(report.pair[1], s, report.maximizer_c)
            assert reached.finite
            assert reached.value == pytest.approx(want, abs=1e-8), (name, pair)

    cfg = OracleConfig(seed=1, samples=10_000)
    for name, (s, want_pair) in scenarios.items():
        for pair, want in zip((detect.QM_OVER_SEP, detect.MAX_OVER_QM),
                              want_pair):
            got = oracles.ratio_scan(s, pair, cfg).value
            assert got <= want + 1e-9, (name, pair)
            assert got >= want - 0.01, (name, pair)
    assert time.perf_counter() - t0 < 30.0


def test_criterion_04_beyond_quantum_threshold():
    """Sensitivity 3 at the identity correlation, noise threshold 2/3."""
    s = detect.pauli_settings()
    g = geometry.gauge(QM, s, np.eye(3))
    assert g.finite
    assert g.value == pytest.approx(3.0, abs=1e-9)
    assert detect.critical_noise(QM, s, np.eye(3)) == pytest.approx(
        2.0 / 3.0, abs=1e-9)

    # independent route: bisect the classifier's quantumness flag
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-7:
        mid = 0.5 * (lo + hi)
        state = twoqubit.tau_state(mid)
        if twoqubit.classify_state(state, restarts=8).is_quantum:
            hi = mid
        else:
            lo = mid
    assert 0.5 * (lo + hi) == pytest.approx(2.0 / 3.0, abs=1e-6)


def test_criterion_05_oracle_equivalence_battery():
    """Closed forms against sampling and eigensolve oracles at full size.

    One thousand instances per feasible (m, rank) combination, every model,
    with the advertised agreement bands and zero failures. The quick level
    must clear in 20 seconds, the full level in five minutes.
    """
    t0 = time.perf_counter()
    quick = selfcheck._check_support_oracles(np.random.default_rng(5),
                                             selfcheck._SIZES["quick"])
    assert time.perf_counter() - t0 < 20.0
    assert all(r.passed for r in quick), [r.name for r in quick if not r.passed]

    t0 = time.perf_counter()
    full = selfcheck._check_support_oracles(np.random.default_rng(5),
                                            selfcheck._SIZES["full"])
    assert time.perf_counter() - t0 < 300.0
    by_name = {r.name: r for r in full}
    combos = len(selfcheck._COMBOS)
    assert by_name["support-vs-oracle-sep"].instances == 1000 * combos
    assert by_name["support-vs-oracle-sep"].worst <= 1e-4
    assert by_name["support-vs-oracle-qm"].worst <= 1e-6
    assert by_name["support-vs-oracle-max"].worst <= 1e-6
    assert all(r.passed for r in full), [r.name for r in full if not r.passed]


def test_criterion_06_duality_attainment():
    """The reported optimizer weights reproduce the gauge for every model."""
    rng = np.random.default_rng(6)
    for model in geometry.MODELS:
        done = 0
        while done < 1000:
            m = int(rng.integers(2, 6))
            rank = int(rng.integers(1, min(3, m) + 1))
            s = oracles.random_settings(rng, m, rank)
            c = s.a @ rng.standard_normal((3, 3)) @ s.b.T
            c /= np.linalg.norm(c)
            g = geometry.gauge(model, s, c)
            if not g.finite or g.value <= 1e-12:
                continue
            done += 1
            z_star = geometry.optimizer_z(model, s, c)
            ratio = float(np.sum(z_star * c)) / geometry.support(model, s, z_star)
            assert abs(ratio - g.value) <= 1e-8 * max(1.0, g.value)


def test_criterion_07_planar_closed_forms():
    """Two-setting angle formulas against the general route, 1e-9 relative.

    Ten thousand draws, an eighth of them near-degenerate with the sine
    product pushed down to exactly 1e-6 on a fixed cadence.
    """
    result, = selfcheck._check_m2_forms(np.random.default_rng(7),
                                        {"m2": 10_000})
    assert result.instances == 10_000
    assert result.worst <= 1e-9, result.detail
    assert result.passed


def test_criterion_08_identity_suite():
    """Five structural identities, ten thousand instances each."""
    rng = np.random.default_rng(8)
    n = 10_000

    # vectorization: sandwiching is a Kronecker product on stacked columns
    worst = 0.0
    for _ in range(n):
        ma, mb = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        a = rng.standard_normal((ma, 3))
        x = rng.standard_normal((3, 3))
        b = rng.standard_normal((mb, 3))
        dev = float(np.abs(vec(a @ x @ b.T) - kron(b, a) @ vec(x)).max())
        worst = max(worst, dev)
    assert worst <= 1e-9

    # intrinsic determinant: the triple-product expansion over setting rows
    worst = 0.0
    for _ in range(n):
        m = int(rng.integers(2, 6))
        s = oracles.random_settings(rng, m, int(rng.integers(1, min(3, m) + 1)))
        z = rng.standard_normal((m, m))
        frame = s.a.T @ z @ s.b
        dev = abs(det3_intrinsic(s.a, s.b, z) - float(np.linalg.det(frame)))
        worst = max(worst, dev)
    assert worst <= 1e-9

    # supports depend on the settings only through their Gram matrices
    worst = 0.0
    for _ in range(n):
        m = int(rng.integers(2, 6))
        s = oracles.random_settings(rng, m, int(rng.integers(1, min(3, m) + 1)))
        z = rng.standard_normal((m, m))
        for model in geometry.MODELS:
            direct = geometry.support(model, s, z)
            gram = geometry.gram_equivalent_support(s, z, model)
            worst = max(worst, abs(direct - gram) / max(1.0, abs(direct)))
    assert worst <= 1e-9

    # asymmetric-norm duality: rotation argmax attains the plus norm exactly,
    # sampled ratios never exceed it (sampling side gets the looser band)
    worst_attain = 0.0
    worst_sample = 0.0
    for _ in range(n):
        x = rng.standard_normal((3, 3))
        hi = norm_plus(x)
        value, q = max_trace_over_rotations(x, "SO3")
        attained = value / norm_minus(q)
        worst_attain = max(worst_attain,
                           abs(attained - hi) / max(1.0, abs(hi)))
        ys = rng.standard_normal((50, 3, 3))
        svals = np.linalg.svd(ys, compute_uv=False)
        signs = np.sign(np.linalg.det(ys))
        minus = svals[:, 0] + svals[:, 1] - svals[:, 2] * signs
        ratios = np.einsum("ij,kij->k", x, ys) / minus
        worst_sample = max(worst_sample, float(ratios.max()) - hi)
    assert worst_attain <= 1e-9
    assert worst_sample <= 1e-6

    # operator spectrum equals the odd signed sums of the frame's
    # rotation-constrained singular values
    sign_patterns = np.array([[1, 1, -1], [1, -1, 1], [-1, 1, 1], [-1, -1, -1]])
    worst = 0.0
    for _ in range(n):
        m = int(rng.integers(2, 6))
        s = oracles.random_settings(rng, m, int(rng.integers(1, min(3, m) + 1)))
        z = rng.standard_normal((m, m))
        tilde = special_svd(s.a.T @ z @ s.b).s
        predicted = np.sort(sign_patterns @ tilde)
        actual = np.linalg.eigvalsh(twoqubit.bell_operator(s, z))
        dev = float(np.abs(predicted - actual).max())
        worst = max(worst, dev / max(1.0, float(np.abs(tilde).max())))
    assert worst <= 1e-9


def test_criterion_09_rigidity_and_symmetry():
    """Orthogonal correlation blocks forbid local parts; gauge parity."""
    rng = np.random.default_rng(78)
    for _ in range(1000):
        q = random_rotation(rng, "O3")
        ra = rng.standard_normal(3)
        ra *= (0.05 + 0.45 * rng.random()) / np.linalg.norm(ra)
        # couple the local parts so the easy slice argument is neutralized;
        # positivity must still break, just at second order in the size
        rb = q.T @ ra
        value, _, _ = twoqubit.block_positivity_minimum(
            twoqubit.PauliForm(1.0, ra, rb, q), restarts=24,
            seed=int(rng.integers(2**31)))
        assert value < -1e-4
        bare, _, _ = twoqubit.block_positivity_minimum(
            twoqubit.PauliForm(1.0, np.zeros(3), np.zeros(3), q), restarts=8,
            seed=int(rng.integers(2**31)))
        assert bare >= -1e-7

    # separable and maximal gauges are exactly even in the correlation
    rng = np.random.default_rng(77)
    for _ in range(1000):
        m = int(rng.integers(2, 6))
        s = oracles.random_settings(rng, m, int(rng.integers(1, min(3, m) + 1)))
        c = s.a @ rng.standard_normal((3, 3)) @ s.b.T
        for model in (SEP, MAX):
            plus = geometry.gauge(model, s, c)
            minus = geometry.gauge(model, s, -c)
            assert plus.finite == minus.finite
            if plus.finite:
                assert plus.value == minus.value

    # the quantum gauge is not even: orientation decides between 3 and 1
    s3 = detect.pauli_settings()
    assert geometry.gauge(QM, s3, np.eye(3)).value == pytest.approx(3.0, abs=1e-9)
    assert geometry.gauge(QM, s3, -np.eye(3)).value == pytest.approx(1.0, abs=1e-9)


def test_criterion_10_witness_soundness():
    """Witnesses never fire on their protected class; maximizers hit -2."""
    rng = np.random.default_rng(79)
    s = detect.pauli_settings()
    sep_states = np.stack([twoqubit.random_separable_state(rng)
                           for _ in range(10_000)])
    qm_states = np.stack([twoqubit.random_quantum_state(rng)
                          for _ in range(10_000)])

    worst = 0.0
    for _ in range(100):
        z = rng.standard_normal((3, 3))
        for states, build in ((sep_states, detect.entanglement_witness),
                              (qm_states, detect.bqs_witness)):
            w = build(s, z)
            values = np.einsum("kij,ji->k", states, w).real
            worst = max(worst, float(-values.min()))
    assert worst <= 1e-9

    # constructed violations at the full margin, radius minus one
    q = np.diag([1.0, -1.0, 1.0])
    z_star = geometry.optimizer_z(SEP, s, s.a @ q @ s.b.T)
    w_ent = detect.entanglement_witness(s, z_star)
    violation = float(np.trace(twoqubit.max_entangled(q) @ w_ent).real)
    assert violation == pytest.approx(-2.0, abs=1e-9)

    z_star = geometry.optimizer_z(QM, s, np.eye(3))
    w_bqs = detect.bqs_witness(s, z_star)
    violation = float(np.trace(twoqubit.rho_max() @ w_bqs).real)
    assert violation == pytest.approx(-2.0, abs=1e-9)
