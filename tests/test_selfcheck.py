"""The verification battery's bookkeeping: stacked offers pick the same
replay as sequential ones, a NaN deviation fails its check, random
instances follow their block draw rule, the stacked checks draw what they
document and agree with the public kernels, and a quick battery still
calls the public verification kernels that its stacked checks replay."""

import collections
import math
import sys

import numpy as np
import pytest

from corrsets import geometry, oracles, selfcheck, smallmat, twoqubit
from corrsets.smallmat import norm_minus, norm_plus, op_norm, random_rotation, trace_norm

from helpers import assert_unit_rows_of_rank, hexes, rejecting_party_rows

SIZES = selfcheck._SIZES["quick"]


def _sequential(devs):
    worst = selfcheck._Worst()
    for i, dev in enumerate(devs):
        worst.offer(dev, index=i)
    return worst


def _stacked(devs):
    worst = selfcheck._Worst()
    worst.offer_stack(np.asarray(devs, dtype=float), lambda i: {"index": i})
    return worst


@pytest.mark.parametrize("devs", [
    [0.0, 0.0, 0.0],
    [1e-17, 3e-16, 2e-16, 3e-16, 1e-16],
    [5e-16, 5e-16],
    [2e-16, np.nan, 1.0, np.nan],
    [np.nan],
    [],
])
def test_stacked_offer_matches_sequential_offers(devs):
    seq, stk = _sequential(devs), _stacked(devs)
    assert seq.detail == stk.detail
    assert seq.value == stk.value or (math.isnan(seq.value) and math.isnan(stk.value))


def test_ties_keep_the_first_index_and_nan_wins():
    assert _stacked([1.0, 3.0, 3.0]).detail == '{"index": 1}'
    worst = _stacked([1.0, np.nan, 3.0, np.nan])
    assert math.isnan(worst.value) and worst.detail == '{"index": 1}'
    assert not worst.result("x", 4, 1e-9).passed


def test_stacked_offers_continue_a_sequential_worst():
    worst = selfcheck._Worst()
    worst.offer(2.0, index=-1)
    worst.offer_stack(np.array([1.0, 2.0]), lambda i: {"index": i})
    assert worst.detail == '{"index": -1}'
    worst.offer_stack(np.array([1.0, 2.5]), lambda i: {"index": i})
    assert (worst.value, worst.detail) == (2.5, '{"index": 1}')


def test_nanmax_propagates_nan_and_keeps_max_otherwise():
    assert math.isnan(selfcheck._nanmax(0.0, float("nan"), 1.0))
    assert math.isnan(selfcheck._nanmax(float("nan"), 0.0))
    assert selfcheck._nanmax(0.0, 2.0, 1.0) == 2.0
    assert math.copysign(1.0, selfcheck._nanmax(0.0, -0.0)) == 1.0


def _run(check, seed=3):
    return {r.name: r for r in check(np.random.default_rng(seed), SIZES)}


def test_nan_gram_support_fails_gram_equivalence(monkeypatch):
    real = oracles.gram_equivalent_support

    def poisoned(a, b, z):
        out = real(a, b, z)
        out[-1, 1] = np.nan
        return out

    monkeypatch.setattr(oracles, "gram_equivalent_support", poisoned)
    result = _run(selfcheck._check_gram_equivalence)["gram-equivalence"]
    assert not result.passed and math.isnan(result.worst)
    assert '"model": "qm"' in result.detail


def test_gram_equivalence_evaluates_one_stack_per_m(monkeypatch):
    shapes = []
    real = oracles.gram_equivalent_support

    def spy(a, b, z):
        shapes.append(np.shape(z))
        return real(a, b, z)

    monkeypatch.setattr(oracles, "gram_equivalent_support", spy)
    result = _run(selfcheck._check_gram_equivalence)["gram-equivalence"]
    assert result.passed
    assert sorted(shape[1] for shape in shapes) == [2, 3, 4, 5]
    assert sum(shape[0] for shape in shapes) == SIZES["identity"] == result.instances


def test_nan_intrinsic_determinant_fails(monkeypatch):
    real = selfcheck.det3_intrinsic
    monkeypatch.setattr(selfcheck, "det3_intrinsic",
                        lambda a, b, z: np.full(np.shape(real(a, b, z)), np.nan))
    result = _run(selfcheck._check_kernel_identities)["intrinsic-determinant"]
    assert not result.passed and math.isnan(result.worst)


def test_nan_pseudoinverse_fails_its_laws(monkeypatch):
    monkeypatch.setattr(selfcheck, "pinv", lambda x: np.full(np.shape(x)[::-1], np.nan))
    results = _run(selfcheck._check_kernel_identities)
    assert not results["pseudoinverse-laws"].passed
    assert math.isnan(results["pseudoinverse-laws"].worst)
    assert results["intrinsic-determinant"].passed


def test_nan_bell_spectrum_fails_with_its_replay(monkeypatch):
    monkeypatch.setattr(selfcheck.np.linalg, "eigvalsh",
                        lambda ops: np.full(np.shape(ops)[:-1], np.nan))
    result = _run(selfcheck._check_bell_spectrum)["bell-operator-spectrum"]
    assert not result.passed and math.isnan(result.worst)
    assert '"actual": [NaN' in result.detail



def test_nan_quantum_gauge_fails_gauge_symmetry(monkeypatch):
    real = geometry.gauge

    def nan_qm(model, s, c):
        if model == geometry.QM:
            return geometry.GaugeValue(False, float("nan"))
        return real(model, s, c)

    monkeypatch.setattr(geometry, "gauge", nan_qm)
    result = _run(selfcheck._check_symmetry)["gauge-symmetry"]
    assert not result.passed and math.isnan(result.worst)


class _RecordingRng:
    """A Generator that records the name and output of each draw."""

    def __init__(self, seed):
        self.rng, self.draws = np.random.default_rng(seed), []

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def draw(*args, **kwargs):
            out = method(*args, **kwargs)
            self.draws.append((name, out))
            return out

        return draw


@pytest.mark.parametrize("m_stop, tail", [(5, None), (6, None), (5, (3, 3)), (6, (3, 3))])
def test_random_instances_draw_every_size_in_blocks(m_stop, tail):
    # the sizes as two integer blocks, then one normal block per (m, rank)
    # group in increasing order, each row both parties' tries and the X
    sizes = sorted((m, rank) for m in range(2, m_stop) for rank in range(1, min(3, m) + 1))
    for seed in range(4):
        rng = _RecordingRng(seed)
        got = selfcheck._random_instances(rng, 200, m_stop, tail)
        again = selfcheck._random_instances(np.random.default_rng(seed), 200, m_stop, tail)
        members = collections.defaultdict(list)
        for i, (s, _) in enumerate(got):
            members[s.m, s.rank_a].append(i)
        assert sorted(members) == sizes
        assert [(name, np.shape(out)) for name, out in rng.draws] == [("integers", (200,))] * 2 + [
            ("standard_normal", (len(members[m, rank]),
                                 2 * (9 + m * rank) + math.prod(tail or (m, m))))
            for m, rank in sizes]
        # each instance is one row of its group's block: the parties' tries, then X
        for (m, rank), (_, block) in zip(sizes, rng.draws[2:]):
            p = 9 + m * rank
            rows = oracles._party_rows(block[:, :2 * p].reshape(-1, 2, p), m, rank)[0]
            for k, i in enumerate(members[m, rank]):
                s, x = got[i]
                assert hexes(s._stack) == hexes(rows[k])
                assert hexes(x) == hexes(block[k, 2 * p:])
        for (s, x), (t, y) in zip(got, again):
            assert_unit_rows_of_rank(s, s.rank_a)
            assert x.shape == (tail or (s.m, s.m))
            assert hexes(s._stack) == hexes(t._stack) and hexes(x) == hexes(y)


@pytest.mark.parametrize("party", [0, 1])
@pytest.mark.parametrize("tail", [None, (3, 3)])
def test_random_instances_redraw_only_a_rejected_party(party, tail, monkeypatch):
    n = 40
    for seed in range(4):
        ref = np.random.default_rng(seed)
        kept = selfcheck._random_instances(ref, n, tail=tail)
        # reject a party in the last group, whose redraw is then the rng's next draw
        last = max((s.m, s.rank_a) for s, _ in kept)
        group = [i for i, (s, _) in enumerate(kept) if (s.m, s.rank_a) == last]
        j = len(group) // 2
        p = 9 + last[0] * last[1]
        redraw = ref.standard_normal((1, p))
        runs = []
        for _ in range(2):  # the same seed gives the same instances
            blocks = rejecting_party_rows(monkeypatch, lambda g, m, rank: (
                (j, party) if (m, rank) == last and g.ndim == 3 else None))
            rng = np.random.default_rng(seed)
            runs.append(selfcheck._random_instances(rng, n, tail=tail))
            monkeypatch.undo()
        got, again = runs
        assert [g.shape for g in blocks if g.ndim == 2] == [(1, p)]
        assert hexes(blocks[-1]) == hexes(redraw)
        assert rng.bit_generator.state == ref.bit_generator.state
        for i, ((s, x), (t, y), (u, w)) in enumerate(zip(got, kept, again)):
            assert hexes(x) == hexes(y) == hexes(w)
            assert hexes(s._stack) == hexes(u._stack)
            assert_unit_rows_of_rank(s, t.rank_a)
            if i != group[j]:
                assert hexes(s._stack) == hexes(t._stack)
        s, t = got[group[j]][0], kept[group[j]][0]
        assert hexes(s._stack[1 - party]) == hexes(t._stack[1 - party])
        assert hexes(s._stack[party]) == hexes(oracles._party_rows(redraw, *last)[0])
        assert hexes(s._stack[party]) != hexes(t._stack[party])


def test_finite_gauge_draws_skip_and_keep_model_order(monkeypatch):
    real = geometry.gauge
    calls = []

    def every_other_infinite(model, s, c):
        calls.append(model)
        return real(model, s, c) if len(calls) % 2 else geometry.GaugeValue(False)

    monkeypatch.setattr(geometry, "gauge", every_other_infinite)
    draws = list(selfcheck._finite_gauge_draws(np.random.default_rng(3), 10, 5))
    assert calls == [model for model in geometry.MODELS for _ in range(10)]
    assert len(draws) == 15
    assert [d[0] for d in draws] == [model for model in geometry.MODELS for _ in range(5)]
    assert all(g.finite and g.value > 1e-12 and s.m <= 4 for _, s, _, g in draws)


def test_rigidity_runs_one_descent_per_instance_with_zero_bare_parts(monkeypatch):
    stacks, replays = [], []
    real_stack, real_public = twoqubit._block_positivity_stack, twoqubit.block_positivity_minimum

    def stack_spy(ra, rb, t, restarts, seeds):
        stacks.append((ra, rb))
        return real_stack(ra, rb, t, restarts, seeds)

    def public_spy(p, restarts, seed):
        replays.append(p)
        return real_public(p, restarts=restarts, seed=seed)

    monkeypatch.setattr(twoqubit, "_block_positivity_stack", stack_spy)
    monkeypatch.setattr(twoqubit, "block_positivity_minimum", public_spy)
    result, = selfcheck._check_rigidity(np.random.default_rng(3), {"rigidity": 20})
    assert result.passed and result.instances == 20
    # one stack of local forms and one of bare forms, then the worst instance
    # replayed through the public descent, which runs the stack on its one form
    assert len(stacks) == 3 and len(replays) == 1 and len(stacks[2][0]) == 1
    assert sum(len(ra) for ra, _ in stacks[:2]) in range(11, 21)
    bare = [ra for ra, rb in stacks[:2] if not (ra.any() or rb.any())]
    local = [ra for ra, _ in stacks[:2] if np.all(np.linalg.norm(ra, axis=1) > 1e-12)]
    assert len(bare) == len(local) == 1 and len(bare[0]) == 10


@pytest.mark.parametrize("seed", range(5))
def test_m2_check_keeps_its_near_degenerate_cadence(seed, monkeypatch):
    stacks, single = [], []
    real_forms, real_offer = oracles._m2_closed_forms, selfcheck._Worst.offer

    def forms(kind, a, b, x):
        stacks.append((kind, a, b))
        return real_forms(kind, a, b, x)

    def offer(self, dev, **instance):
        single.append((instance["tag"], dev))
        real_offer(self, dev, **instance)

    monkeypatch.setattr(oracles, "_m2_closed_forms", forms)
    monkeypatch.setattr(selfcheck._Worst, "offer", offer)
    result, = selfcheck._check_m2_forms(np.random.default_rng(seed), SIZES)
    assert result.passed and result.instances == SIZES["m2"]
    kind, a, b = stacks[0]
    assert kind == "support" and a.shape == b.shape == (SIZES["m2"], 2, 3)
    ca, sa, cb, sb = oracles._cos_sin_m2(a, b)
    product, i = sa * sb, np.arange(len(a))
    # every 16th draw at exactly 1e-6, the other eighths between it and
    # 10^-2.5, with either angle on either side of pi/2; the rest moderate
    assert product[i % 16 == 15] == pytest.approx(1e-6, rel=1e-9)
    near = i % 8 == 7
    assert np.all((product[near] > 1e-6 * (1 - 1e-9)) & (product[near] < 10 ** -2.5))
    assert {*np.sign(ca[near]), *np.sign(cb[near])} == {-1.0, 1.0}
    assert np.all(np.minimum(sa, sb)[~near] > np.sin(0.05) * (1 - 1e-9))
    # the replay through the public closed forms lands on the stacked values
    assert [dev for tag, dev in single if tag == "public-replay"] == [0.0]


@pytest.mark.parametrize("seed", range(5))
def test_asymmetric_norm_terms_are_the_public_norms(seed, monkeypatch):
    calls = []
    real = selfcheck._nanmax

    def spy(*devs):
        calls.append(devs)
        return real(*devs)

    monkeypatch.setattr(selfcheck, "_nanmax", spy)
    results = selfcheck._check_asymmetric_norms(np.random.default_rng(seed), SIZES)
    assert all(r.passed for r in results)
    n = results[0].instances
    folds = [devs for devs in calls if len(devs) > n]
    assert len(folds) == 3
    # each iteration's draws in order, and its terms from the public norms:
    # a maximizing rotation q has norm_minus(q) = 1 and attains norm_plus(x)
    rng = np.random.default_rng(seed)
    terms = {"chain": [], "dual": [], "hull": []}
    for _ in range(n):
        x, ys = rng.standard_normal((3, 3)), rng.standard_normal((50, 3, 3))
        qs, w = random_rotation(rng, "SO3", 5), rng.dirichlet(np.ones(5))
        lo, hi, op, tn = norm_minus(x), norm_plus(x), op_norm(x), trace_norm(x)
        terms["chain"] += [op - lo, op - hi, lo - tn, hi - tn, abs(norm_plus(-x) - lo),
                           abs(norm_minus(-x) - hi),
                           lo - hi if np.linalg.det(x) >= 0.0 else -np.inf]
        sampled = np.einsum("ij,kij->k", x, ys) / [norm_minus(y) for y in ys]
        terms["dual"] += [sampled.max() - hi, 0.0]
        terms["hull"].append(norm_minus(np.tensordot(w, qs, axes=1)) - 1.0)
    for devs, name in zip(folds, terms):
        # the fold starts at 0 and ends with a replay distance of 0
        assert devs[0] == 0.0 and devs[-1] == 0.0
        assert np.allclose(devs[1:-1], terms[name], rtol=0.0, atol=1e-12)


_REPLAYED = {oracles: ("support_m2_closed_form", "gauge_m2_closed_form",
                       "max_trace_over_rotations"),
             smallmat: ("norm_plus", "norm_minus", "op_norm", "trace_norm", "signed_svals")}


def test_quick_battery_calls_the_replayed_public_kernels(monkeypatch):
    # The stacked checks evaluate these on stacks of their own, and replay
    # their worst instance through the public functions; a battery that
    # stopped calling one of them would leave it without a workload.
    assert selfcheck.norm_plus is smallmat.norm_plus
    calls = collections.Counter()
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "corrsets"]
    for owner, names in _REPLAYED.items():
        for name in names:
            fn = getattr(owner, name)

            def spy(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, spy)
    report = selfcheck.run_battery("quick", 0)
    assert report.ok
    assert {name for names in _REPLAYED.values() for name in names} <= {
        name for name, count in calls.items() if count >= 1}
