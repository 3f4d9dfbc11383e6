"""tools/compare_dumps.py: pairs dump lines, measures numeric drift, lists
text changes."""

import importlib.util
import math
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "compare_dumps.py"
_SPEC = importlib.util.spec_from_file_location("compare_dumps", _PATH)
compare_dumps = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_dumps)

THIRD = 1.0 / 3.0
DUMP = [
    "== reports seed=0 item=0 exit=0: table1 --scenario pauli3",
    "method two three",
    "ppt - 0.6666665077",
    "== table1 ppt: None " + (2.0 / 3.0).hex(),
    "== pauli werner 0/20 expand: " + " ".join(v.hex() for v in (1.0, 0.0, -THIRD)),
    "-- assemble: " + f"{(0.25).hex()},{(0.0).hex()} {(-0.5).hex()},{(0.0).hex()}",
    "-- classify: True False True " + (-THIRD).hex(),
]


def _run(tmp_path, capsys, old, new):
    paths = []
    for name, lines in (("old.txt", old), ("new.txt", new)):
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths.append(str(path))
    code = compare_dumps.main(paths)
    return code, capsys.readouterr().out.splitlines()


def test_identical_dumps_pass(tmp_path, capsys):
    code, out = _run(tmp_path, capsys, DUMP, list(DUMP))
    assert code == 0
    assert out == ["identical"]


def test_one_ulp_change_is_a_numeric_line(tmp_path, capsys):
    new = list(DUMP)
    moved = math.nextafter(-THIRD, 0.0)
    new[-1] = "-- classify: True False True " + moved.hex()
    code, out = _run(tmp_path, capsys, DUMP, new)
    assert code == 1
    assert not [line for line in out if line.startswith("text line")]
    dev = abs(moved + THIRD) / THIRD
    assert out[0] == f"numeric [pauli]: 1 lines differ, largest relative deviation {dev:.3e} at line 7"
    assert out[-1] == "0 text lines and 1 numeric lines differ"


def test_largest_deviation_per_section():
    new = list(DUMP)
    new[3] = "== table1 ppt: None " + (0.6666665077).hex()
    new[4] = "== pauli werner 0/20 expand: " + " ".join(
        v.hex() for v in (1.0, 0.0, math.nextafter(-THIRD, -1.0)))
    new[5] = "-- assemble: " + f"{(0.25).hex()},{(0.0).hex()} {(-0.75).hex()},{(0.0).hex()}"
    text, numeric = compare_dumps.compare(DUMP, new)
    assert text == []
    count, worst, _ = numeric["table1"]
    assert count == 1 and worst == pytest.approx((2.0 / 3.0 - 0.6666665077) / (2.0 / 3.0))
    assert numeric["pauli"] == (2, pytest.approx(1.0 / 3.0), 6)


def test_text_changes_and_missing_lines_are_listed(tmp_path, capsys):
    new = list(DUMP[:-1])
    new[2] = "ppt - 0.6666666667"
    new[3] = "== table1 ppt: None inf"
    new[4] = new[4].replace("expand", "expanded")
    code, out = _run(tmp_path, capsys, DUMP, new)
    assert code == 1
    assert out[:3] == ["text line 3 [reports]", "- ppt - 0.6666665077", "+ ppt - 0.6666666667"]
    assert "text line 5 [pauli]" in out
    assert out[out.index("text line 7 [pauli]") + 2] == "+ <absent>"
    assert "numeric [table1]: 1 lines differ, largest relative deviation inf at line 4" in out
    assert out[-1] == "3 text lines and 1 numeric lines differ"


def test_usage_error(capsys):
    assert compare_dumps.main(["only-one.txt"]) == 2
    assert "usage" in capsys.readouterr().err


def _battery_dump(seeds=40, checks=12):
    lines = []
    for seed in range(seeds):
        lines += [f"== verify-quick seed={seed}", "-- stdout", "summary: ok"]
        lines += [f"-- check c{k} {(seed + k / 7.0).hex()} ok" for k in range(checks)]
    return lines


def test_inserted_line_shifts_nothing_after_it(tmp_path, capsys):
    """Lines are aligned, not paired by position: one inserted line is one
    text line, and a changed value after it is still a numeric line."""
    old = _battery_dump()
    new = list(old)
    new.insert(20, "-- check noise-sweep-homogeneity 0x0.0p+0 ok")
    moved = math.nextafter(3.0, 4.0)
    new[new.index("-- check c0 " + (3.0).hex() + " ok")] = "-- check c0 " + moved.hex() + " ok"
    code, out = _run(tmp_path, capsys, old, new)
    assert code == 1
    assert out[:3] == ["text line 21 [verify-quick]", "- <absent>",
                       "+ -- check noise-sweep-homogeneity 0x0.0p+0 ok"]
    assert out[3].startswith("numeric [verify-quick]: 1 lines differ")
    assert out[-1] == "1 text lines and 1 numeric lines differ"


def test_deleted_and_unpaired_lines_keep_their_own_numbers():
    old = _battery_dump(seeds=3)
    new = old[:5] + old[6:]
    new[9:11] = ["-- check c7 changed"]
    text, numeric = compare_dumps.compare(old, new)
    assert numeric == {}
    assert [(number, o, n) for number, _, o, n in text] == [
        (6, old[5], None), (10, old[10], "-- check c7 changed"), (12, old[11], None)]


def test_moved_line_pairs_by_text_next_to_an_inserted_line():
    """Inside a replaced block, lines pair by their text without numbers:
    the moved value is a numeric line and the inserted line a text line."""
    old = ["== verify-quick seed=0", "-- check c " + (1.0).hex()]
    moved = math.nextafter(1.0, 2.0)
    new = ["== verify-quick seed=0", "-- check new " + (0.0).hex(), "-- check c " + moved.hex()]
    text, numeric = compare_dumps.compare(old, new)
    assert text == [(2, "verify-quick", None, "-- check new " + (0.0).hex())]
    assert numeric == {"verify-quick": (1, pytest.approx(moved - 1.0), 3)}
