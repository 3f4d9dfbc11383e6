"""Compare two outputs of tools/dump_outputs.py line by line.

    python3 tools/compare_dumps.py old.txt new.txt

Lines are paired by position, and identical pairs pass. A differing pair
that is equal once its `float.hex` numbers are taken out is a numeric line;
its deviation is the largest relative difference |a - b| / max(|a|, |b|)
over its numbers, and the report gives the largest deviation and the
number of numeric lines per section. Every other differing pair, and every
line that only one dump has, is a text line and is printed in full. A
section is the first word of the last header line ("== reports ...",
"== pauli ...") at or before the line. The exit code is 0 when the dumps
are identical and 1 otherwise.

A change that moves values states the largest deviation per section and
explains every differing text line; see ROADMAP.md.
"""

from __future__ import annotations

import itertools
import math
import re
import sys

# float.hex output: 0x1.8p+1, -0x0.0p+0, inf, -inf, nan.
_HEX = re.compile(r"(?<![\w.])(-?(?:0x[0-9a-f]+(?:\.[0-9a-f]*)?p[-+]\d+|inf|nan))(?![\w.])")


def _split(line: str):
    parts = _HEX.split(line)
    return parts[0::2], [float.fromhex(v) for v in parts[1::2]]


def relative_deviation(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare(old_lines, new_lines):
    """Differences of two dumps.

    Returns (text, numeric): ``text`` lists (line number, section, old, new)
    with None for a missing line, and ``numeric`` maps each section to
    (count, largest deviation, line number of the largest).
    """
    text, numeric = [], {}
    section = ""
    pairs = itertools.zip_longest(old_lines, new_lines)
    for number, (old, new) in enumerate(pairs, start=1):
        head = old if old is not None else new
        if head.startswith("== "):
            section = head[3:].split(maxsplit=1)[0].rstrip(":")
        if old == new:
            continue
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
