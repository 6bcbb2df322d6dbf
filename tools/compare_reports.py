"""Compare two `verify` JSON reports, or two directories of them matched by
file name.  Prints every status flip and every moved value; exits 1 on a
flip or when the check ids or file names differ, 0 otherwise.

    python tools/compare_reports.py OLD NEW
"""

import json
import struct
import sys
from pathlib import Path


def moved(x, y) -> bool:
    """True when two report values differ.  Floats are compared by their
    bits, as the report bytes are: 0.0 -> -0.0 is a move, and a NaN that
    stays NaN is not."""
    if isinstance(x, float) and isinstance(y, float):
        return struct.pack("<d", x) != struct.pack("<d", y)
    return x != y


def compare(old: Path, new: Path, label: str) -> bool:
    """Print the differences of one pair of reports; True on a flip or an
    id mismatch."""
    a, b = ({c["id"]: c for c in json.loads(p.read_text())["checks"]}
            for p in (old, new))
    bad = False
    for cid in sorted(a.keys() ^ b.keys()):
        print(f"{label}{cid}: only in {old if cid in a else new}")
        bad = True
    for cid in sorted(a.keys() & b.keys()):
        x, y = a[cid], b[cid]
        move = f"{x['value']!r} -> {y['value']!r}"
        if x["status"] != y["status"]:
            print(f"{label}{cid}: FLIP {x['status']} -> {y['status']}, {move}")
            bad = True
        elif moved(x["value"], y["value"]):
            print(f"{label}{cid}: {x['status']}, {move}")
    return bad


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = Path(argv[1]), Path(argv[2])
    if not old.is_dir():
        return int(compare(old, new, ""))
    names = [{p.name for p in d.glob("*.json")} for d in (old, new)]
    bad = False
    for name in sorted(names[0] ^ names[1]):
        print(f"{name}: in one directory only")
        bad = True
    for name in sorted(names[0] & names[1]):
        bad |= compare(old / name, new / name, f"{name}: ")
    return int(bad)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
