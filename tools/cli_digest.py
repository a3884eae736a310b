"""Print a digest of every CLI operation of the benchmark workloads.

    python3 tools/cli_digest.py --seeds 1 2 3 > change.txt
    python3 tools/cli_digest.py --src ../parent/src --seeds 1 2 3 > parent.txt
    diff parent.txt change.txt

Each workload of bench/workloads.py is built for each seed and each of its
CLI operations is run once in this process, without `--output`, so the
report and any error object go to stdout.  One line is printed per
operation: its label, its exit code and the sha256 of its stdout.  Two
builds of the program print the same lines exactly when every operation
prints the same bytes and exits alike.  The direct `grid_J` calls of
frequency-verify are not CLI operations and are skipped.

--src names the directory `coneh` is imported from (default: src/ next to
tools/); the workloads always come from bench/ next to tools/.  Input files
are written to a fresh temporary directory per workload and seed and named
relative to it, so no line depends on where that directory lies.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def digest_lines(builders, seeds):
    """Yield one 'workload seed label exit=code sha256' line per CLI
    operation of each {name: workload builder}; an exception escaping the
    CLI shows as exit=<its type>."""
    import coneh.cli
    import numpy as np

    cwd = os.getcwd()
    for name, build in builders.items():
        for seed in seeds:
            with tempfile.TemporaryDirectory() as work:
                os.chdir(work)
                try:
                    ops = build(np.random.default_rng(seed), Path("."))
                    for op in ops:
                        if op.argv is not None:
                            code, out = _run(coneh.cli.main, op.argv)
                            sha = hashlib.sha256(out.encode()).hexdigest()
                            yield f"{name} seed={seed} {op.label} exit={code} {sha}"
                finally:
                    os.chdir(cwd)


def _run(main, argv):
    """(exit code, stdout) of one CLI call."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            code = main(argv)
        except Exception as exc:
            code = type(exc).__name__
    return code, stdout.getvalue()


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[1])
    p.add_argument("--workload", action="append",
                   help="a workload to run (repeatable; default: all)")
    p.add_argument("--src", type=Path, default=ROOT / "src",
                   help="directory to import coneh from")
    args = p.parse_args()
    src = args.src.resolve()
    sys.path[:0] = [str(src), str(ROOT / "bench")]
    try:
        import coneh
    except ImportError as exc:
        p.error(f"cannot import coneh from {src}: {exc}")
    from workloads import WORKLOADS

    if not Path(coneh.__file__).resolve().is_relative_to(src):
        p.error(f"coneh was imported from {coneh.__file__}, not {src}")

    names = args.workload or list(WORKLOADS)
    for name in names:
        if name not in WORKLOADS:
            p.error(f"unknown workload {name!r}; choose from "
                    f"{', '.join(WORKLOADS)}")
    builders = {name: WORKLOADS[name] for name in names}
    for line in digest_lines(builders, args.seeds):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
