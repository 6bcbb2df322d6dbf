"""Compare two `verify` JSON reports, or two directories of them matched by
file name.  Prints every status flip and every moved value, and on stderr
how many checks fail on each side and how many flip pass -> fail and
fail -> pass; exits 1 on a flip or when the check ids or file names differ,
2 on a wrong argument count or an input path that does not exist, 0
otherwise.

    python tools/compare_reports.py OLD NEW
    python tools/compare_reports.py MANIFEST NEW_DIR
    python tools/compare_reports.py --write-manifest DIR MANIFEST

A manifest (tools/report_digests.json) holds the sha256 of each report of a
sweep and the Python, numpy and BLAS versions it ran on.  Against a
manifest, every report of NEW_DIR must be in it with the same bytes; the
reports whose bytes differ are listed, a different machine is warned about,
and the exit is 1 on any mismatch or when no report is compared.  NEW_DIR
may hold a part of the sweep.  To see which values moved, sweep the parent
too and compare the two directories.
"""

import hashlib
import json
import platform
import struct
import sys
from collections import Counter
from pathlib import Path

import numpy as np


def moved(x, y) -> bool:
    """True when two report values differ.  Floats are compared by their
    bits, as the report bytes are: 0.0 -> -0.0 is a move, and a NaN that
    stays NaN is not."""
    if isinstance(x, float) and isinstance(y, float):
        return struct.pack("<d", x) != struct.pack("<d", y)
    return x != y


def compare(old: Path, new: Path, label: str, tally: Counter) -> bool:
    """Print the differences of one pair of reports and add its failing
    checks and flips to tally; True on a flip or an id mismatch."""
    a, b = ({c["id"]: c for c in json.loads(p.read_text())["checks"]}
            for p in (old, new))
    tally["old"] += sum(c["status"] == "fail" for c in a.values())
    tally["new"] += sum(c["status"] == "fail" for c in b.values())
    bad = False
    for cid in sorted(a.keys() ^ b.keys()):
        print(f"{label}{cid}: only in {old if cid in a else new}")
        bad = True
    for cid in sorted(a.keys() & b.keys()):
        x, y = a[cid], b[cid]
        move = f"{x['value']!r} -> {y['value']!r}"
        if x["status"] != y["status"]:
            tally[f"{x['status']} -> {y['status']}"] += 1
            print(f"{label}{cid}: FLIP {x['status']} -> {y['status']}, {move}")
            bad = True
        elif moved(x["value"], y["value"]):
            print(f"{label}{cid}: {x['status']}, {move}")
    return bad


def machine() -> dict:
    """The versions that decide the bits of a report."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "arch": platform.machine()}


def digests(directory: Path) -> dict:
    """sha256 of each report of directory, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.glob("*.json"))}


def write_manifest(directory: Path, manifest: Path) -> None:
    manifest.write_text(json.dumps({"machine": machine(),
                                    "reports": digests(directory)},
                                   indent=1, sort_keys=True) + "\n")


def check_manifest(manifest: dict, new: Path) -> bool:
    """Print the reports of new that are not in the manifest or whose bytes
    differ from it; True on any such report or when there is none to
    compare."""
    here = machine()
    if manifest["machine"] != here:
        print(f"warning: manifest made on {manifest['machine']}, "
              f"this machine is {here}", file=sys.stderr)
    want = manifest["reports"]
    got = digests(new)
    bad = not got
    for name, digest in got.items():
        if name not in want:
            print(f"{name}: not in the manifest")
            bad = True
        elif digest != want[name]:
            print(f"{name}: bytes differ")
            bad = True
    print(f"{len(got)} of {len(want)} reports compared", file=sys.stderr)
    return bad


def main(argv) -> int:
    if len(argv) == 4 and argv[1] == "--write-manifest":
        inputs = argv[2:3]
    elif len(argv) == 3:
        inputs = argv[1:]
    else:
        print(__doc__, file=sys.stderr)
        return 2
    for path in inputs:
        if not Path(path).exists():
            print(f"error: {path} does not exist", file=sys.stderr)
            return 2
    if len(argv) == 4:
        write_manifest(Path(argv[2]), Path(argv[3]))
        return 0
    old, new = Path(argv[1]), Path(argv[2])
    tally = Counter()
    if not old.is_dir():
        report = json.loads(old.read_text())
        if "reports" in report:
            return int(check_manifest(report, new))
        bad = compare(old, new, "", tally)
    else:
        names = [{p.name for p in d.glob("*.json")} for d in (old, new)]
        bad = False
        for name in sorted(names[0] ^ names[1]):
            print(f"{name}: in one directory only")
            bad = True
        for name in sorted(names[0] & names[1]):
            bad |= compare(old / name, new / name, f"{name}: ", tally)
    print(f"failing checks: {tally['old']} in OLD, {tally['new']} in NEW; "
          f"flips: {tally['pass -> fail']} pass -> fail, "
          f"{tally['fail -> pass']} fail -> pass", file=sys.stderr)
    return int(bad)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
