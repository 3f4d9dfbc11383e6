"""Compare two outputs of tools/dump_outputs.py line by line.

    python3 tools/compare_dumps.py old.txt new.txt

The dumps are aligned with difflib.SequenceMatcher, so a line that one
dump inserts or deletes shifts nothing after it. Lines in equal blocks
pass. Inside a replaced block the lines are aligned a second time, by
their text with the `float.hex` numbers taken out, so a line whose numbers
moved pairs with its counterpart even when a line is inserted next to it;
the lines this leaves unmatched are paired in order. A pair of equal
lines passes (the first alignment can leave one in a replaced block). A pair that is equal
once its numbers are taken out is a numeric line, whose deviation is the
largest relative difference |a - b| / max(|a|, |b|) over its numbers, and
the report gives the largest deviation and the number of numeric lines per
section. Every other pair, and every line that only one dump has, is a
text line and is printed in full. Line numbers are those of
the new dump, and of the old dump for a line that only the old dump has. A
section is the first word of the last header line ("== reports ...",
"== pauli ...") at or before the line. The exit code is 0 when the dumps
are identical and 1 otherwise.

A change that moves values states the largest deviation per section and
explains every differing text line; see ROADMAP.md.
"""

from __future__ import annotations

import difflib
import itertools
import math
import re
import sys

# float.hex output: 0x1.8p+1, -0x0.0p+0, inf, -inf, nan.
_HEX = re.compile(r"(?<![\w.])(-?(?:0x[0-9a-f]+(?:\.[0-9a-f]*)?p[-+]\d+|inf|nan))(?![\w.])")


def _split(line: str):
    parts = _HEX.split(line)
    return parts[0::2], [float.fromhex(v) for v in parts[1::2]]


def _text(line: str) -> tuple:
    return tuple(_HEX.split(line)[0::2])


def _pairs(old, new):
    """(i, j) pairs of a replaced block: equal text first, then by position.

    i or j is None for a line that only one side has.
    """
    matcher = difflib.SequenceMatcher(None, [_text(x) for x in old], [_text(y) for y in new],
                                      autojunk=False)
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        yield from itertools.zip_longest(range(i1, i2), range(j1, j2))


def relative_deviation(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _sections(lines) -> list[str]:
    sections, section = [], ""
    for line in lines:
        if line.startswith("== "):
            section = line[3:].split(maxsplit=1)[0].rstrip(":")
        sections.append(section)
    return sections


def compare(old_lines, new_lines):
    """Differences of two dumps.

    Returns (text, numeric): ``text`` lists (line number, section, old, new)
    with None for a missing line, and ``numeric`` maps each section to
    (count, largest deviation, line number of the largest).
    """
    text, numeric = [], {}
    old_sections, new_sections = _sections(old_lines), _sections(new_lines)
    matcher = difflib.SequenceMatcher(None, old_lines, new_lines)
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag == "equal":
            continue
        for i, j in _pairs(old_lines[i1:i2], new_lines[j1:j2]):
            i = None if i is None else i1 + i
            j = None if j is None else j1 + j
            old = None if i is None else old_lines[i]
            new = None if j is None else new_lines[j]
            if old == new:
                continue
            number, section = (i + 1, old_sections[i]) if j is None else (j + 1, new_sections[j])
            if old is not None and new is not None:
                old_rest, old_values = _split(old)
                new_rest, new_values = _split(new)
                if old_values and old_rest == new_rest and len(old_values) == len(new_values):
                    dev = max(map(relative_deviation, old_values, new_values))
                    count, worst, where = numeric.get(section, (0, -1.0, 0))
                    if dev > worst:
                        worst, where = dev, number
                    numeric[section] = (count + 1, worst, where)
                    continue
            text.append((number, section, old, new))
    return text, numeric


def report(text, numeric) -> list[str]:
    lines = []
    for number, section, old, new in text:
        lines.append(f"text line {number} [{section}]")
        lines.append(f"- {'<absent>' if old is None else old}")
        lines.append(f"+ {'<absent>' if new is None else new}")
    for section, (count, worst, where) in numeric.items():
        lines.append(f"numeric [{section}]: {count} lines differ, "
                     f"largest relative deviation {worst:.3e} at line {where}")
    if not text and not numeric:
        lines.append("identical")
    else:
        count = sum(c for c, _, _ in numeric.values())
        lines.append(f"{len(text)} text lines and {count} numeric lines differ")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: compare_dumps.py OLD NEW", file=sys.stderr)
        return 2
    dumps = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            dumps.append(fh.read().splitlines())
    text, numeric = compare(*dumps)
    for line in report(text, numeric):
        print(line)
    return 0 if not text and not numeric else 1


if __name__ == "__main__":
    sys.exit(main())
