"""Replay one finestruct function's calls in two checkouts; compare cost and
outputs.

    python tools/replay_calls.py PARENT_DIR CHANGE_DIR MODULE.FUNCTION
                                 --suite S [--seed N] [--rounds R]

A `python -B` child in PARENT_DIR runs `verify --suite S --seed N` once with
FUNCTION wrapped in every finestruct module that binds it (as
perfbench/tracer.py does) and pickles each call's arguments to a temporary
directory, skipping (and counting) a call with an argument that is not an
ndarray, str, number or None.  Each round, a child per checkout, in
alternating order, replays every call once untimed and once timed.  Prints
each side's median and quartiles and a sha256 over the raw bytes of the
outputs; exits 1 when the digests differ or a child fails.
"""

import argparse
import hashlib
import importlib
import json
import numbers
import os
import pickle
import subprocess
import sys
import tempfile
import time

import numpy as np


def storable(values) -> bool:
    """True if every value is an ndarray, str, number or None."""
    return all(v is None or isinstance(v, (np.ndarray, str, numbers.Number))
               for v in values)


def digest(outputs) -> str:
    """sha256 over the shape and raw bytes of each output (a Multivector's
    coefficients stand for it)."""
    h = hashlib.sha256()
    for out in outputs:
        a = np.ascontiguousarray(getattr(out, "c", out))
        h.update(repr(a.shape).encode() + a.tobytes())
    return h.hexdigest()


def _function(qualname: str):
    module, name = qualname.rsplit(".", 1)
    return getattr(importlib.import_module("finestruct." + module), name)


def _record(qualname, suite, seed, path) -> dict:
    from finestruct import harness
    original, calls, skipped = _function(qualname), [], [0]

    def recorded(*args, **kwargs):
        if storable((*args, *kwargs.values())):
            calls.append(pickle.dumps((args, kwargs)))
        else:
            skipped[0] += 1
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.partition(".")[0] == "finestruct":
            for attr in [a for a, v in vars(mod).items() if v is original]:
                setattr(mod, attr, recorded)
    harness.main(["--suite", suite, "--seed", seed, "--out", os.devnull])
    with open(path, "wb") as fh:
        pickle.dump(calls, fh)
    return {"calls": len(calls), "skipped": skipped[0]}


def _replay(qualname, path) -> dict:
    fn = _function(qualname)
    with open(path, "rb") as fh:
        calls = [pickle.loads(c) for c in pickle.load(fh)]
    for args, kwargs in calls:
        fn(*args, **kwargs)
    start = time.perf_counter()
    outputs = [fn(*args, **kwargs) for args, kwargs in calls]
    return {"seconds": time.perf_counter() - start, "sha256": digest(outputs)}


def _child(checkout, *argv) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    out = subprocess.run([sys.executable, "-B", os.path.abspath(__file__),
                          *argv], cwd=checkout, env=env, capture_output=True,
                         text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] in (["--record"], ["--replay"]):
        step = _record if argv[0] == "--record" else _replay
        print(json.dumps(step(*argv[1:])))
        return 0
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for name in ("parent", "change", "function"):
        ap.add_argument(name)
    ap.add_argument("--suite", required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--rounds", type=int, default=5)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    runs = ([], [])
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "calls.pkl")
            rec = _child(args.parent, "--record", args.function, args.suite,
                         str(args.seed), path)
            print(f"{rec['calls']} calls recorded, {rec['skipped']} skipped")
            for i in range(args.rounds):
                for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                    runs[side].append(_child((args.parent, args.change)[side],
                                             "--replay", args.function, path))
    except subprocess.CalledProcessError as exc:
        print(f"child failed:\n{exc.stderr}", file=sys.stderr)
        return 1
    for name, side in zip(("parent", "change"), runs):
        q1, med, q3 = np.percentile([r["seconds"] * 1e3 for r in side],
                                    [25, 50, 75])
        print(f"{name}: median {med:.3f} ms, quartiles {q1:.3f}-{q3:.3f} ms")
    digests = sorted({r["sha256"] for side in runs for r in side})
    print(("outputs identical, sha256 " if len(digests) == 1
           else "outputs differ: ") + " ".join(digests))
    return 0 if len(digests) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
