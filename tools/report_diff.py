"""Compare two ``tools/report_dump.py`` outputs key by key, floats by relative size.

Usage:

    python3 tools/report_diff.py A B

For every key whose line differs between A and B, prints how many floats
moved, the largest relative difference |a - b| / max(|a|, |b|) and where
the moved floats sit, or else the first difference that is not a float:
another string, integer, boolean, key order or structure.  A key present
in one file only is reported too.  A line's JSON is walked recursively; a
string that holds a JSON object (an emitted report, possibly after a first
line such as ``exit=0``) is parsed and walked too, and any other string is
split into float literals (``repr`` output such as ``0.1234``, ``1e-05``)
and the text between them.  JSON integers are compared exactly, like text.

Exit status: 0 when only floats moved (or nothing did), 1 when a non-float
value differs, 2 on a usage error.  Standard library only.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

# a decimal point or an exponent makes a literal a float; no match inside names
FLOAT_LITERAL = re.compile(
    r"(?<![\w.])[-+]?(?:\d+\.\d*(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+)(?![\w.])"
)


def read_dump(path: Path) -> dict[str, str]:
    lines = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition("\t")
        lines[key] = value
    return lines


def walk(value, path: str, floats: list, shape: list) -> None:
    """Append each float as (path, value) to ``floats`` and all else to ``shape``."""
    if isinstance(value, float):
        floats.append((path, value))
        shape.append("<float>")
    elif isinstance(value, dict):
        shape.append("{")
        for key, item in value.items():
            shape.append(repr(key))
            walk(item, f"{path}.{key}" if path else key, floats, shape)
        shape.append("}")
    elif isinstance(value, list):
        shape.append("[")
        for i, item in enumerate(value):
            walk(item, f"{path}[{i}]", floats, shape)
        shape.append("]")
    elif isinstance(value, str):
        # an emitted report, possibly after a first line such as "exit=0"
        head, brace, body = value.partition("{")
        try:
            nested = json.loads(brace + body) if brace else None
        except ValueError:
            nested = None
        if nested is not None:
            shape.append(repr(head))
            walk(nested, path, floats, shape)
            return
        pieces = FLOAT_LITERAL.split(value)
        literals = FLOAT_LITERAL.findall(value)
        shape.append(repr(pieces))
        for i, literal in enumerate(literals):
            floats.append((f"{path}#{i}" if len(literals) > 1 else path, float(literal)))
    else:  # int, bool, None
        shape.append(repr(value))


def relative(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def compare(key: str, line_a: str, line_b: str) -> bool:
    """Print the differences of one key; True when only floats moved."""
    floats_a, shape_a, floats_b, shape_b = [], [], [], []
    walk(json.loads(line_a), "", floats_a, shape_a)
    walk(json.loads(line_b), "", floats_b, shape_b)
    if shape_a != shape_b:
        first = next(
            (i for i, (a, b) in enumerate(zip(shape_a, shape_b)) if a != b),
            min(len(shape_a), len(shape_b)),
        )
        a = shape_a[first] if first < len(shape_a) else "<end>"
        b = shape_b[first] if first < len(shape_b) else "<end>"
        print(f"{key}: non-float difference: {a} != {b}")
        return False
    moved = [(pa, relative(va, vb)) for (pa, va), (_, vb) in zip(floats_a, floats_b) if va != vb]
    if not moved:
        print(f"{key}: same values, different text")
        return False
    largest = max(rel for _, rel in moved)
    where = ", ".join(path or "<value>" for path, _ in moved)
    print(f"{key}: {len(moved)} of {len(floats_a)} floats moved, "
          f"largest relative difference {largest:.3g} ({where})")
    return True


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: report_diff.py A B", file=sys.stderr)
        return 2
    dump_a, dump_b = (read_dump(Path(arg)) for arg in argv)
    floats_only = True
    for key in dict.fromkeys([*dump_a, *dump_b]):
        if key not in dump_a or key not in dump_b:
            print(f"{key}: only in {argv[0] if key in dump_a else argv[1]}")
            floats_only = False
        elif dump_a[key] != dump_b[key]:
            floats_only &= compare(key, dump_a[key], dump_b[key])
    return 0 if floats_only else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
