"""Write one `verify` JSON report per suite and seed, named
`<suite>_<seed>.json`, for the seeds FIRST to LAST (inclusive), at the
default configuration.  SUITES is one suite, a comma-separated list such
as `identities,kernels,structures`, or `all` for each suite of
`harness.SUITES` in turn (one report per suite, as the manifest
tools/report_digests.json holds them).

    PYTHONPATH=src python tools/sweep_reports.py SUITES FIRST LAST OUTDIR

Run it once in each of two checkouts, then compare the two directories with
`tools/compare_reports.py OLD_DIR NEW_DIR`.  Exits 2 on a bad argument
(FIRST after LAST, or a bad suite, checked for every suite before any
suite runs) or an engine error.
"""

import sys
from pathlib import Path

from finestruct.errors import EngineError
from finestruct.harness import SUITES, emit, parse_config, run_suite


def sweep(suites: str, first: int, last: int, outdir: Path) -> None:
    """Run each suite of the comma-separated list (or of SUITES, for "all")
    at each seed and write its report into outdir."""
    names = SUITES if suites == "all" else suites.split(",")
    cfgs = [parse_config(["--suite", suite, "--seed", str(seed)])
            for suite in names for seed in range(first, last + 1)]
    outdir.mkdir(parents=True, exist_ok=True)
    for cfg in cfgs:
        report = emit(run_suite(cfg), cfg["format"])
        (outdir / f"{cfg['suite']}_{cfg['seed']}.json").write_bytes(report)


def main(argv) -> int:
    if len(argv) != 5:
        print(__doc__, file=sys.stderr)
        return 2
    suites, first, last, outdir = argv[1:]
    try:
        first, last = int(first), int(last)
    except ValueError:
        print(f"error: FIRST and LAST must be integers, got {first!r} {last!r}",
              file=sys.stderr)
        return 2
    if first > last:
        print(f"error: FIRST {first} is after LAST {last}\n{__doc__}",
              file=sys.stderr)
        return 2
    try:
        sweep(suites, first, last, Path(outdir))
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
