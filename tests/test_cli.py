"""Command-line interface: outputs, formats, exit codes."""

import copy
import csv
import json

import numpy as np
import pytest

from corrsets import cli, geometry, oracles, selfcheck, twoqubit


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_support_text(capsys):
    rc, out, err = run(capsys, "support", "--model", "qm", "--scenario", "chsh")
    assert rc == 0
    assert err == ""
    assert "support qm (chsh) = 2.82842712475" in out
    assert "rank r: 2" in out
    assert "seed=0 version=" in out


def test_support_json(capsys):
    rc, out, _ = run(capsys, "support", "--model", "max", "--scenario",
                     "pauli3", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["command"] == "support"
    assert payload["model"] == "max"
    assert np.isclose(payload["value"], 3.0)
    assert payload["seed"] == 0
    assert "version" in payload
    assert np.allclose(payload["frame_singular_values"], [1.0, 1.0, 1.0])


def test_gauge_text_and_json(capsys):
    # the built-in pauli3 scenario carries the maximally entangled state,
    # whose correlation sits exactly on the quantum boundary
    rc, out, _ = run(capsys, "gauge", "--model", "qm", "--scenario", "pauli3")
    assert rc == 0
    assert "gauge qm (pauli3) = 1" in out

    rc, out, _ = run(capsys, "gauge", "--model", "sep", "--scenario",
                     "pauli3", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert np.isclose(payload["value"], 3.0)
    assert payload["finite"] is True
    assert payload["rank"] == 3


def test_gauge_infinite(capsys, tmp_path):
    plane = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
             [np.sqrt(0.5), np.sqrt(0.5), 0.0]]
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({"A": plane, "B": plane,
                                "C": np.eye(3).tolist()}))
    rc, out, _ = run(capsys, "gauge", "--model", "qm", "--file", str(path))
    assert rc == 0
    assert "= infinite" in out

    rc, out, _ = run(capsys, "gauge", "--model", "qm", "--file", str(path),
                     "--format", "json")
    payload = json.loads(out)
    assert payload["finite"] is False
    assert payload["value"] is None or payload["value"] == "infinite"


def test_witness_text(capsys):
    rc, out, _ = run(capsys, "witness", "--model", "qm", "--scenario",
                     "pauli3", "--state", "rho_max")
    assert rc == 0
    assert "sensitivity (gauge) = 3" in out
    assert "p_crit = 0.666666666667" in out
    assert "detectable: yes" in out
    assert "round-trip Tr[Z*^T C]/phi = 3" in out
    assert "witness operator:" in out


def test_witness_chsh_werner(capsys):
    rc, out, _ = run(capsys, "witness", "--model", "sep", "--scenario",
                     "chsh", "--state", "werner:0")
    assert rc == 0
    assert "p_crit = 0.5" in out
    assert "detectable: yes" in out


def test_witness_undetectable(capsys):
    rc, out, _ = run(capsys, "witness", "--model", "qm", "--scenario",
                     "pauli3", "--state", "werner:0.5")
    assert rc == 0
    assert "detectable: no" in out


def test_table1_csv(capsys):
    rc, out, _ = run(capsys, "table1", "--format", "csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# corrsets")
    assert lines[1] == "method,two_settings,three_settings"
    rows = {line.split(",")[0]: line.split(",") for line in lines[2:]}
    assert rows["ppt"][1] == ""
    assert abs(float(rows["ppt"][2]) - 2.0 / 3.0) <= 1e-3
    assert abs(float(rows["gauge"][1]) - 0.5) <= 1e-9
    assert abs(float(rows["gauge"][2]) - 2.0 / 3.0) <= 1e-9
    chsh_p = 1.0 - 1.0 / np.sqrt(2.0)
    assert abs(float(rows["chsh"][1]) - chsh_p) <= 1e-6
    assert rows["i3322"][1] == ""
    assert abs(float(rows["i3322"][2]) - 0.2) <= 1e-4


def test_ratios_outputs(capsys):
    rc, out, _ = run(capsys, "ratios", "--scenario", "pauli3")
    assert rc == 0
    assert "qm-over-sep 3 3" in out
    assert "max-over-qm 3 3" in out

    rc, out, _ = run(capsys, "ratios", "--scenario", "chsh")
    assert rc == 0
    assert "qm-over-sep 2 2" in out
    assert "max-over-qm 2 1" in out


def test_sweep_werner(capsys):
    rc, out, _ = run(capsys, "sweep", "--scenario", "pauli3", "--model", "qm",
                     "--state", "werner", "--points", "5")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p gauge"
    values = [line.split() for line in lines[1:-1]]
    for p_str, g_str in values:
        assert np.isclose(float(g_str), 1.0 - float(p_str), atol=1e-9)


def test_sweep_tau(capsys):
    rc, out, _ = run(capsys, "sweep", "--scenario", "pauli3", "--model", "qm",
                     "--state", "tau", "--points", "3")
    assert rc == 0
    lines = out.strip().splitlines()
    for p_str, g_str in (line.split() for line in lines[1:-1]):
        assert np.isclose(float(g_str), 3.0 * (1.0 - float(p_str)), atol=1e-9)


def test_sweep_rejects_empty_grid(capsys):
    rc, out, err = run(capsys, "sweep", "--scenario", "pauli3", "--model", "qm",
                       "--points", "0")
    assert rc == 2
    assert out == ""
    assert "--points" in err


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("points", [21, 101])
def test_sweep_evaluates_one_gauge(capsys, monkeypatch, points):
    gauges = _counting(monkeypatch, geometry, "gauge")
    correlations = _counting(monkeypatch, geometry, "correlation_matrix")
    rc, out, _ = run(capsys, "sweep", "--scenario", "pauli3", "--model", "sep",
                     "--points", str(points), "--format", "json")
    assert rc == 0
    assert len(json.loads(out)["points"]) == points
    assert (len(gauges), len(correlations)) == (1, 1)


_SWEEP_COMBOS = [(m, rank) for m in (2, 3, 4, 5) for rank in (1, 2, 3) if rank <= min(3, m)]


@pytest.mark.parametrize("m,rank", _SWEEP_COMBOS)
def test_sweep_matches_the_per_point_gauge(capsys, tmp_path, m, rank):
    # The sweep scales one gauge by (1 - p); the reference evaluates the
    # correlation matrix and the gauge at every point of the grid.
    s = oracles.random_settings(np.random.default_rng(100 * m + rank), m, rank)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"A": s.a.tolist(), "B": s.b.tolist()}))
    s = cli.load_scenario(str(path)).settings  # the rows the command reads
    for family in ("werner", "tau"):
        state = twoqubit.werner_state if family == "werner" else twoqubit.tau_state
        for points in (1, 2, 5, 21, 101):
            grid = np.linspace(0.0, 1.0, points)
            cs = [geometry.correlation_matrix(state(float(p)), s) for p in grid]
            for model in geometry.MODELS:
                rc, out, _ = run(capsys, "sweep", "--file", str(path), "--model", model,
                                 "--state", family, "--points", str(points),
                                 "--format", "json")
                assert rc == 0
                got = json.loads(out)["points"]
                assert [pt["p"] for pt in got] == [float(f"{p:.12g}") for p in grid]
                for pt, c in zip(got, cs):
                    want = geometry.gauge(model, s, c)
                    assert want.finite
                    assert abs(pt["gauge"] - want.value) <= 1e-11 * max(1.0, want.value), \
                        (family, points, model, pt["p"])


def test_sweep_of_an_out_of_range_correlation(capsys, monkeypatch):
    monkeypatch.setattr(geometry, "gauge", lambda model, s, c: geometry.GaugeValue(False))
    rc, out, _ = run(capsys, "sweep", "--scenario", "chsh", "--model", "qm",
                     "--points", "5")
    assert rc == 0
    rows = [line.split() for line in out.splitlines()[1:-1]]
    assert rows == [["0", "inf"], ["0.25", "inf"], ["0.5", "inf"], ["0.75", "inf"],
                    ["1", "0"]]
    rc, out, _ = run(capsys, "sweep", "--scenario", "chsh", "--model", "qm",
                     "--points", "5", "--format", "json")
    assert rc == 0
    assert [pt["gauge"] for pt in json.loads(out)["points"]] == [None] * 4 + [0.0]


def test_verify_checks_the_per_point_sweep_last(monkeypatch):
    # Appended last, so the SeedSequence children of the other checks keep
    # their index and every earlier check draws the same instances.
    assert selfcheck._CHECKS[-1] is selfcheck._check_noise_homogeneity
    sizes = selfcheck._SIZES["quick"]
    result, = selfcheck._check_noise_homogeneity(np.random.default_rng(3), sizes)
    assert (result.name, result.passed, result.instances) == ("noise-sweep-homogeneity",
                                                              True, 330)
    real = geometry.gauge

    def offset(model, s, c):  # not homogeneous: nonzero at C = 0
        g = real(model, s, c)
        return geometry.GaugeValue(True, g.value + 1e-6) if g.finite else g

    monkeypatch.setattr(geometry, "gauge", offset)
    result, = selfcheck._check_noise_homogeneity(np.random.default_rng(3), sizes)
    assert not result.passed
    assert result.worst >= 0.99e-6
    monkeypatch.setattr(geometry, "gauge", lambda model, s, c: geometry.GaugeValue(False))
    result, = selfcheck._check_noise_homogeneity(np.random.default_rng(3), sizes)
    assert not result.passed


@pytest.mark.parametrize("argv", [
    ("support", "--model", "qm", "--scenario", "chsh"),
    ("gauge", "--model", "sep", "--scenario", "pauli3"),
    ("witness", "--model", "qm", "--scenario", "pauli3", "--state", "tau:0.2"),
    ("ratios", "--scenario", "b-rot"),
    ("sweep", "--model", "max", "--scenario", "i3322-opt", "--state", "tau"),
    ("table1",),
])
def test_seed_is_only_echoed(capsys, argv):
    # Only verify draws random numbers; every other command prints the seed
    # it was given and nothing else that depends on it.
    echoes = {"text": "seed={}", "csv": "seed={}", "json": '"seed": {}'}
    for fmt, echo in echoes.items():
        rc0, out0, _ = run(capsys, *argv, "--format", fmt, "--seed", "0")
        rc9, out9, _ = run(capsys, *argv, "--format", fmt, "--seed", "9")
        assert rc0 == rc9 == 0
        assert out0.count(echo.format(0)) == 1
        assert out9 == out0.replace(echo.format(0), echo.format(9))


def test_ratios_arithmetic_error_exits_2(capsys, monkeypatch):
    def broken(s, pair):
        raise ArithmeticError("constructed maximizer misses the radius")

    monkeypatch.setattr(cli.detect, "containment_radius", broken)
    rc, out, err = run(capsys, "ratios", "--scenario", "pauli3")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: constructed maximizer")


@pytest.fixture(scope="module")
def _battery_cache():
    return {}


@pytest.fixture
def cached_battery(monkeypatch, _battery_cache):
    """run_battery that runs each (level, seed) once per module and hands out
    deep copies, since a caller may mutate its report."""
    real = selfcheck.run_battery

    def cached(level="quick", seed=0, scenario=None):
        if scenario is not None:
            return real(level=level, seed=seed, scenario=scenario)
        if (level, seed) not in _battery_cache:
            _battery_cache[level, seed] = real(level=level, seed=seed)
        return copy.deepcopy(_battery_cache[level, seed])

    monkeypatch.setattr(selfcheck, "run_battery", cached)


def test_verify_quick(capsys, cached_battery):
    rc, out, _ = run(capsys, "verify", "--level", "quick")
    assert rc == 0
    assert "summary:" in out
    assert "0 failed" in out


def test_verify_deterministic(capsys):
    rc1, out1, _ = run(capsys, "verify", "--level", "quick", "--seed", "7")
    rc2, out2, _ = run(capsys, "verify", "--level", "quick", "--seed", "7")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_verify_json_keys(capsys, cached_battery):
    rc, out, _ = run(capsys, "verify", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert set(payload) == {"command", "level", "ok", "results", "seed", "version"}
    assert payload["command"] == "verify" and payload["ok"] is True
    names = [r.name for r in selfcheck.run_battery("quick", 0).results]
    assert [r["name"] for r in payload["results"]] == names
    assert all(set(r) == {"name", "passed", "instances", "worst", "detail"}
               for r in payload["results"])


def test_verify_json_writes_a_nan_worst_as_null(capsys, monkeypatch):
    # a NaN deviation fails its check; the json document must stay strict JSON
    failed = selfcheck._result("gram-equivalence", 3, float("nan"), 1e-9, "{}")
    report = selfcheck.VerifyReport("quick", 0, "v", [failed])
    monkeypatch.setattr(cli.selfcheck, "run_battery", lambda **kwargs: report)

    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    rc, out, _ = run(capsys, "verify", "--format", "json")
    assert rc == 1
    payload = json.loads(out, parse_constant=reject)
    assert payload["ok"] is False
    assert payload["results"] == [{"name": "gram-equivalence", "passed": False,
                                   "instances": 3, "worst": None, "detail": "{}"}]
    rc, out, _ = run(capsys, "verify")
    assert rc == 1 and "FAIL gram-equivalence" in out and "worst=nan" in out


def test_verify_csv_prints_text_report(capsys, cached_battery):
    # documented: the battery has no table, so csv prints the text report
    rc_csv, out_csv, _ = run(capsys, "verify", "--format", "csv", "--seed", "5")
    rc_text, out_text, _ = run(capsys, "verify", "--seed", "5")
    assert rc_csv == rc_text == 0
    assert out_csv == out_text
    assert out_csv.startswith("verification report: level=quick seed=5 ")


@pytest.mark.parametrize("argv", [
    ("table1",),
    ("ratios", "--scenario", "pauli3"),
    ("ratios", "--scenario", "chsh"),
    ("sweep", "--scenario", "pauli3", "--model", "sep", "--points", "5"),
])
def test_text_table_is_the_csv_table(capsys, argv):
    rc, out_csv, _ = run(capsys, *argv, "--format", "csv", "--seed", "4")
    assert rc == 0
    rc, out_text, _ = run(capsys, *argv, "--seed", "4")
    assert rc == 0
    csv_lines = out_csv.splitlines()
    assert csv_lines[0].startswith("# corrsets ")
    csv_rows = [[cell or "-" for cell in row] for row in csv.reader(csv_lines[1:])]
    text_lines = out_text.splitlines()
    assert text_lines[-1].startswith("seed=4 version=")
    assert [line.split(" ") for line in text_lines[:-1]] == csv_rows


def test_verify_reports_failure(capsys, monkeypatch, cached_battery):
    real = selfcheck.run_battery

    def broken(level="quick", seed=0, scenario=None):
        report = real(level="quick", seed=seed)
        report.results[0].passed = False
        return report

    monkeypatch.setattr(cli.selfcheck, "run_battery", broken)
    rc, out, _ = run(capsys, "verify", "--level", "quick")
    assert rc == 1
    assert "FAIL" in out


def test_scenario_file_with_state(capsys, tmp_path):
    path = tmp_path / "scen.json"
    path.write_text(json.dumps({
        "A": np.eye(3).tolist(),
        "B": np.eye(3).tolist(),
        "state": "werner:0",
    }))
    rc, out, _ = run(capsys, "gauge", "--model", "qm", "--file", str(path))
    assert rc == 0
    assert "= 1" in out


def test_scenario_file_renormalizes_rows(capsys, tmp_path):
    rows = (np.eye(3) * (1.0 + 5e-4)).tolist()
    path = tmp_path / "near.json"
    path.write_text(json.dumps({"A": rows, "B": rows, "Z": np.eye(3).tolist()}))
    rc, out, _ = run(capsys, "support", "--model", "max", "--file", str(path))
    assert rc == 0
    assert "= 3" in out


def test_scenario_file_rejects_bad_rows(capsys, tmp_path):
    rows = (np.eye(3) * 1.5).tolist()
    path = tmp_path / "bad_rows.json"
    path.write_text(json.dumps({"A": rows, "B": rows, "Z": np.eye(3).tolist()}))
    rc, out, err = run(capsys, "support", "--model", "max", "--file", str(path))
    assert rc == 2
    assert "error:" in err


def test_unknown_scenario(capsys):
    rc, _, err = run(capsys, "gauge", "--model", "qm", "--scenario", "nosuch")
    assert rc == 2
    assert "unknown scenario" in err


def test_missing_file(capsys, tmp_path):
    rc, _, err = run(capsys, "gauge", "--model", "qm", "--file",
                     str(tmp_path / "absent.json"))
    assert rc == 2
    assert "error:" in err


def test_malformed_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"A": [[1, 0')
    rc, _, err = run(capsys, "gauge", "--model", "qm", "--file", str(path))
    assert rc == 2
    assert "error:" in err


def test_missing_coefficient_matrix(capsys, tmp_path):
    path = tmp_path / "noz.json"
    path.write_text(json.dumps({"A": np.eye(3).tolist(),
                                "B": np.eye(3).tolist(),
                                "C": np.eye(3).tolist()}))
    rc, _, err = run(capsys, "support", "--model", "qm", "--file", str(path))
    assert rc == 2
    assert "no coefficient matrix" in err


def test_missing_state_for_witness(capsys, tmp_path):
    path = tmp_path / "nostate.json"
    path.write_text(json.dumps({"A": np.eye(3).tolist(),
                                "B": np.eye(3).tolist()}))
    rc, _, err = run(capsys, "witness", "--model", "qm", "--file", str(path))
    assert rc == 2
    assert "error:" in err


def test_pauli_form_state_with_wrong_shape(capsys, tmp_path):
    good = {"ra": [0, 0, 0], "rb": [0, 0, 0], "t": np.zeros((3, 3)).tolist()}
    for key, bad in (("ra", [0, 0]), ("ra", [0, 0, 0, 0]), ("t", np.zeros((2, 2)).tolist()),
                     ("weight", [1.0, 1.0])):
        path = tmp_path / f"shape-{key}-{len(bad)}.json"
        path.write_text(json.dumps({"A": np.eye(3).tolist(), "B": np.eye(3).tolist(),
                                    "Z": np.eye(3).tolist(),
                                    "state": dict(good, **{key: bad})}))
        for command in ("support", "gauge", "witness"):
            rc, out, err = run(capsys, command, "--model", "qm", "--file", str(path))
            assert rc == 2, (key, bad, command)
            assert out == ""
            assert err.startswith("error: Pauli-form state needs")


_NONFINITE_FILES = {
    "nan-row-in-A": {"A": [[np.nan, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
    "infinity-in-C": {"C": [[np.inf, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
    "nan-in-Z": {"Z": [[np.nan, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
    "pauli-state": {"state": {"ra": [0, 0, 0], "rb": [0, 0, 0],
                              "t": [[-np.inf, 0, 0], [0, -1, 0], [0, 0, -1]]}},
    "dense-state": {"state": np.full((4, 4, 2), np.nan).tolist()},
    "overflowing-literal": '"C": [[1e999, 0, 0], [0, 1, 0], [0, 0, 1]]',
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["gauge", "sweep", "ratios"])
@pytest.mark.parametrize("name", sorted(_NONFINITE_FILES))
def test_nonfinite_scenario_entries_exit_2(capsys, tmp_path, name, command):
    path = tmp_path / f"{name}.json"
    extra = _NONFINITE_FILES[name]
    base = {"A": np.eye(3).tolist(), "B": np.eye(3).tolist()}
    if isinstance(extra, str):
        path.write_text(json.dumps(base)[:-1] + ", " + extra + "}")
    else:
        path.write_text(json.dumps(dict(base, **extra)))
    argv = [command, "--file", str(path)] + ([] if command == "ratios" else ["--model", "qm"])
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


_EYE3 = np.eye(3).tolist()
_BIG_INT = "1" + "0" * 400   # a JSON integer too large for a float


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("key", ["A", "Z", "C", "state"])
@pytest.mark.parametrize("literal", ["NaN", "Infinity", "1e999", _BIG_INT])
def test_nonfinite_literal_names_its_key(capsys, tmp_path, literal, key):
    base = {"A": _EYE3, "B": _EYE3, "Z": _EYE3, "C": _EYE3}
    if key == "state":
        base["state"] = np.zeros((4, 4)).tolist()
    base[key] = [["X" if i == j == 0 else v for j, v in enumerate(row)]
                 for i, row in enumerate(base[key])]
    path = tmp_path / "literal.json"
    path.write_text(json.dumps(base).replace('"X"', literal))
    for command in ("support", "gauge", "witness"):
        rc, out, err = run(capsys, command, "--model", "qm", "--file", str(path))
        assert (rc, out) == (2, ""), (literal, key, command)
        assert err == f"error: {key} must hold finite numbers only\n"


@pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning",
                            "ignore:invalid value encountered in matmul:RuntimeWarning")
def test_overflowing_frame_or_core_exits_2_and_says_so(capsys, tmp_path):
    """Finite entries whose frame A^T Z B or core A^+ C (B^T)^+ overflows:
    the error names that matrix, not the input."""
    t = 1e-9
    cases = {
        "support": ({"A": [[1, 0, 0], [1, 0, 0]], "B": [[1, 0, 0], [1, 0, 0]],
                     "Z": [[1.7e308, 1.7e308], [1.7e308, 1.7e308]]}, "frame A^T Z B"),
        "gauge": ({"A": [[1, 0, 0], [np.cos(t), np.sin(t), 0]], "B": [[1, 0, 0], [0, 1, 0]],
                   "C": [[1e300, -1e300], [1e300, 1e300]]}, "core A^+ C (B^T)^+"),
    }
    for command, (scenario, matrix) in cases.items():
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(scenario))
        for model in ("sep", "qm", "max"):
            rc, out, err = run(capsys, command, "--model", model, "--file", str(path))
            assert (rc, out) == (2, ""), (command, model)
            assert err == f"error: the {matrix} overflowed\n"


_OUT_OF_RANGE_OVERFLOW = {
    # B's column space is span (1, 1); C's rows are not in it, so the gauge
    # is infinite, and the report's core A^+ C (B^T)^+ overflows (A^+ ~ 1e9).
    "A": [[1, 0, 0], [np.cos(1e-9), np.sin(1e-9), 0]], "B": [[1, 0, 0], [1, 0, 0]],
    "C": [[1e300, -1.5e300], [1e300, 1.7e308]]}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("model", geometry.MODELS)
def test_out_of_range_c_whose_core_overflows_names_the_core(capsys, tmp_path, model):
    """The gauge is infinite without forming the core; the report forms it
    through geometry, whose overflow check names it (the CLI once formed it
    itself and said "input has non-finite entries", after numpy warnings)."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_OUT_OF_RANGE_OVERFLOW))
    s = cli.load_scenario(str(path))
    assert not geometry.gauge(model, s.settings, s.c).finite
    rc, out, err = run(capsys, "gauge", "--model", model, "--file", str(path))
    assert (rc, out) == (2, "")
    assert err == "error: the core A^+ C (B^T)^+ overflowed\n"


@pytest.mark.filterwarnings("error")
def test_overflow_in_a_command_writes_one_error_line_and_no_warning(capsys, tmp_path):
    """cli.main runs each command under np.errstate(over/invalid ignored):
    an overflowing frame or core, in range or not, raises no numpy warning
    (an error here) and stderr holds exactly the one error line."""
    t = 1e-9
    cases = [
        ("support", {"A": [[1, 0, 0], [1, 0, 0]], "B": [[1, 0, 0], [1, 0, 0]],
                     "Z": [[1.7e308, 1.7e308], [1.7e308, 1.7e308]]}),
        ("gauge", {"A": [[1, 0, 0], [np.cos(t), np.sin(t), 0]], "B": [[1, 0, 0], [0, 1, 0]],
                   "C": [[1e300, -1e300], [1e300, 1e300]]}),
        ("gauge", _OUT_OF_RANGE_OVERFLOW),
    ]
    before = np.geterr()
    for k, (command, scenario) in enumerate(cases):
        path = tmp_path / f"{k}.json"
        path.write_text(json.dumps(scenario))
        for model in geometry.MODELS:
            rc, out, err = run(capsys, command, "--model", model, "--file", str(path))
            assert (rc, out) == (2, "")
            assert len(err.splitlines()) == 1 and err.startswith("error: the ")
    assert np.geterr() == before


@pytest.mark.parametrize("model", geometry.MODELS)
@pytest.mark.parametrize("command,formed", [("support", "_frame"), ("gauge", "_gauge_core")])
def test_support_and_gauge_commands_form_one_matrix(capsys, monkeypatch, command, formed,
                                                    model):
    """The report prints the spectrum the value was read from: one frame or
    core per command, and one SVD of it (the CLI once formed it again and
    ran signed_svals on top)."""
    calls = _counting(monkeypatch, geometry, formed)
    real_svd, shapes = np.linalg.svd, []

    def svd(x, *args, **kwargs):
        shapes.append(np.shape(x))
        return real_svd(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    for scenario in ("chsh", "pauli3"):
        rc, _, _ = run(capsys, command, "--model", model, "--scenario", scenario)
        assert rc == 0
    assert len(calls) == 2
    assert shapes.count((3, 3)) == 2


@pytest.mark.parametrize("model", ["sep", "qm"])
def test_witness_forms_one_core_and_one_support(capsys, monkeypatch, model):
    """witness_report reads the gauge and the optimizer off one core, and the
    round trip reuses the report's support."""
    cores = _counting(monkeypatch, geometry, "_gauge_core")
    supports = _counting(monkeypatch, geometry, "support")
    rc, out, _ = run(capsys, "witness", "--model", model, "--scenario", "chsh")
    assert rc == 0 and "round-trip" in out
    assert (len(cores), len(supports)) == (1, 1)


@pytest.mark.parametrize("model", geometry.MODELS)
def test_gauge_report_at_zero_prints_the_zero_core(capsys, tmp_path, model):
    """The gauge reads no core at C = 0, but the report still prints one."""
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"A": np.eye(3).tolist(), "B": np.eye(3).tolist(),
                                "C": np.zeros((3, 3)).tolist()}))
    rc, out, err = run(capsys, "gauge", "--model", model, "--file", str(path))
    assert (rc, err) == (0, "")
    assert out.splitlines()[:4] == [f"gauge {model} ({path}) = 0", "core singular values: 0 0 0",
                                    "core determinant sign: 0", "rank r: 3"]


def test_deeply_nested_scenario_exits_2(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text('{"Z": ' + "[" * 100_000 + "]" * 100_000 + "}")
    rc, out, err = run(capsys, "support", "--model", "sep", "--file", str(path))
    assert (rc, out) == (2, "")
    assert err == "error: scenario file is nested too deeply\n"


_NON_NUMERIC_FILES = {
    "weight": {"state": {"weight": None, "ra": [0, 0, 0], "rb": [0, 0, 0],
                         "t": np.zeros((3, 3)).tolist()}},
    "A": {"A": [[{}, 0, 0], [0, 1, 0], [0, 0, 1]]},
    "Z": {"Z": {"x": 1}},
}


@pytest.mark.parametrize("command", ["support", "gauge", "witness"])
@pytest.mark.parametrize("key", sorted(_NON_NUMERIC_FILES))
def test_non_numeric_scenario_entries_exit_2(capsys, tmp_path, key, command):
    path = tmp_path / f"non-numeric-{key}.json"
    base = {"A": np.eye(3).tolist(), "B": np.eye(3).tolist(), "Z": np.eye(3).tolist(),
            "state": "werner:0.2"}
    path.write_text(json.dumps(dict(base, **_NON_NUMERIC_FILES[key])))
    rc, out, err = run(capsys, command, "--model", "qm", "--file", str(path))
    assert rc == 2
    assert out == ""
    assert err == f"error: {key} must hold finite numbers only\n"


_SHAPELESS_FILES = {
    "A": {"A": [[1, 0, 0], [0, 1], [0, 0, 1]]},
    "Z": {"Z": [[1, 0, 0], [0, 1], [0, 0, 1]]},
    "C": {"C": [[1, 0, 0], [0, 1, 0], [0, 0, "x"]]},
    "t": {"state": {"ra": [0, 0, 0], "rb": [0, 0, 0], "t": [[-1, 0, 0], [0, -1], [0, 0, -1]]}},
    "state": {"state": np.zeros((4, 4, 2)).tolist()[:3] + [[[0, 0]] * 3]},
}


@pytest.mark.parametrize("command", ["support", "witness"])
@pytest.mark.parametrize("key", sorted(_SHAPELESS_FILES) + ["deep-Z"])
def test_ragged_deep_and_string_entries_name_their_key(capsys, tmp_path, key, command):
    # numpy raises ValueError on each of these; it must not reach the user
    base = {"A": _EYE3, "B": _EYE3, "Z": _EYE3, "C": _EYE3, "state": "werner:0.2"}
    path = tmp_path / f"shapeless-{key}.json"
    if key == "deep-Z":
        path.write_text(json.dumps(base)[:-1] + ', "Z": ' + "[" * 100 + "1" + "]" * 100 + "}")
    else:
        path.write_text(json.dumps(dict(base, **_SHAPELESS_FILES[key])))
    rc, out, err = run(capsys, command, "--model", "qm", "--file", str(path))
    assert (rc, out) == (2, ""), (key, command)
    assert err == f"error: {key.removeprefix('deep-')} must be a rectangular array of numbers\n"


def test_rank_2_frame_has_no_determinant_sign(capsys, tmp_path):
    """The frame of rank-2 settings is singular within rounding (its s3 is
    about 1e-17 here), so the report prints sign 0, not a noise sign."""
    rng = np.random.default_rng(0)
    s = oracles.random_settings(rng, 3, 2)
    path = tmp_path / "rank2.json"
    path.write_text(json.dumps({"A": s.a.tolist(), "B": s.b.tolist(),
                                "Z": rng.standard_normal((3, 3)).tolist()}))
    rc, out, _ = run(capsys, "support", "--model", "qm", "--file", str(path))
    assert rc == 0
    assert "rank r: 2" in out
    assert "frame determinant sign: 0\n" in out


def test_witness_of_vanishing_target_exits_2(capsys):
    rc, out, err = run(capsys, "witness", "--scenario", "pauli3", "--state", "werner:1")
    assert rc == 2
    assert out == ""
    assert "nothing to witness" in err


def test_bad_state_string(capsys):
    rc, _, err = run(capsys, "witness", "--model", "qm", "--scenario",
                     "pauli3", "--state", "werner:nope")
    assert rc == 2
    assert "error:" in err


def test_seed_flag_after_subcommand(capsys):
    rc, out, _ = run(capsys, "support", "--model", "qm", "--scenario", "chsh",
                     "--seed", "3")
    assert rc == 0
    assert "seed=3" in out


def test_state_flag_dense_matrix(capsys, tmp_path):
    phi = np.zeros((4, 4, 2))
    phi[:, :, 0] = np.array([[0.5, 0, 0, 0.5],
                             [0, 0, 0, 0],
                             [0, 0, 0, 0],
                             [0.5, 0, 0, 0.5]])
    path = tmp_path / "dense.json"
    path.write_text(json.dumps({"A": np.eye(3).tolist(),
                                "B": np.eye(3).tolist(),
                                "state": phi.tolist()}))
    rc, out, _ = run(capsys, "gauge", "--model", "qm", "--file", str(path))
    assert rc == 0
    assert "= 1" in out


# The parser is built once per process and reused: errors, help and
# defaults of one call must not change what the next call does.

@pytest.mark.parametrize("argv", [
    ("gauge", "--scenario", "chsh"),
    ("nosuch",),
    ("support", "--model", "qm", "--scenario", "chsh", "--file", "scen.json"),
])
def test_usage_error_leaves_the_parser_reusable(capsys, argv):
    valid = ("gauge", "--model", "qm", "--scenario", "pauli3", "--format", "csv")
    before = run(capsys, *valid)
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: corrsets")
    assert run(capsys, *valid) == before


@pytest.mark.parametrize("argv", [("--help",), ("sweep", "--help")])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: corrsets")


def test_defaults_do_not_leak_between_calls(capsys):
    rc, out, _ = run(capsys, "sweep", "--scenario", "pauli3", "--model", "qm",
                     "--points", "5", "--format", "json", "--seed", "3")
    assert rc == 0
    assert len(json.loads(out)["points"]) == 5
    rc, out, _ = run(capsys, "sweep", "--scenario", "pauli3", "--model", "qm")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "p gauge"
    assert len(lines) == 1 + 21 + 1
    assert lines[-1].startswith("seed=0 version=")


def test_parser_is_built_once(capsys, monkeypatch):
    builds = []
    real = cli.build_parser

    def counting():
        builds.append(1)
        return real()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting)
    for _ in range(3):
        assert run(capsys, "ratios", "--scenario", "chsh")[0] == 0
    assert len(builds) == 1


def test_dispatch_looks_up_the_command_at_call_time(capsys, monkeypatch):
    assert run(capsys, "table1")[0] == 0
    seen = []

    def stub(args):
        seen.append((args.command, args.format))
        return 7

    monkeypatch.setattr(cli, "cmd_table1", stub)
    assert run(capsys, "table1", "--format", "csv") == (7, "", "")
    assert seen == [("table1", "csv")]
