"""Fingerprints of what the CLI writes, to show that a change keeps it.

Run from anywhere:

    python tests/outputs.py              # the checkout this file is in
    python tests/outputs.py PATH         # the checkout at PATH

Every command of COMMANDS runs, in order, as `python -m cnfetcache.cli`
against PATH/src, in one fresh temporary directory that first holds the
config files of CONFIG_FILES (a later command may read what an earlier one
wrote).  The script prints the Python and numpy versions it runs with, then
one line per command, the sha256 of its stdout, stderr and exit code, and
one line per file the command wrote, the sha256 of the file.  A command
that is meant to fail is compared by its error text.  Two checkouts write
the same outputs when they print the same lines:

    python tests/outputs.py > new.txt
    python tests/outputs.py ../parent > old.txt
    diff old.txt new.txt

`outputs.txt` holds these lines for the last commit whose outputs changed.
`test_outputs.py` runs the same commands in-process and compares its lines
with that file, so tier-1 fails on any change of output.  A change that
alters outputs on purpose regenerates the file and says which lines moved
and why.

The list covers `compare` for every recipe with and without the L1s, a
config-file `compare` whose rows differ in `l1.enabled` and
`pagemap.count_raw`, `simulate` for every policy x layout x UCA/NUCA x
page mapping off/PM/UPM x L1 off/on, `profile` with and without
`pagemap.count_raw`, `gen-variation`, `gen-trace`, and a `compare` that
parses the generated trace.
"""

import argparse
import hashlib
import importlib.metadata
import itertools
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# A small LLC under a larger footprint, so that rows miss as well as hit,
# with groups and pages that fit the 32 sets of a NUCA bank.
BASE = {"cache.capacity_bytes": 131072, "workload.length": 3000,
        "workload.num_cores": 4, "grouping.num_groups": 16,
        "pagemap.page_bytes": 512}
POLICIES = ("baseline", "baseline_pd", "vasa", "vasa_ds", "vawa_ug",
            "vawa_ng")
MAPPINGS = {"off": {}, "pm": {"pagemap.enabled": True,
                              "pagemap.unified": False},
            "upm": {"pagemap.enabled": True, "pagemap.unified": True}}
CONFIG_FILES = {
    "raw.cfg": {**BASE, "layout": "way_aligned", "policy": "vawa_ng",
                "pagemap.enabled": True},
    "l1.cfg": {**BASE, "layout": "way_aligned", "policy": "vawa_ng",
               "pagemap.enabled": True, "l1.enabled": True},
    "l1-count-raw.cfg": {**BASE, "layout": "way_aligned", "policy": "vawa_ug",
                         "pagemap.enabled": True, "l1.enabled": True,
                         "pagemap.count_raw": True},
}


def _lines(keys):
    """Config lines, key=value, with booleans written as the config reads
    them."""
    return [f"{key}={str(value).lower() if isinstance(value, bool) else value}"
            for key, value in keys.items()]


def _sets(keys):
    return [arg for line in _lines(keys) for arg in ("--set", line)]


def _commands():
    """(name, argv) of every command, in the order they run."""
    out = []
    for recipe, l1 in itertools.product(("set-uca", "way-uca", "set-nuca",
                                         "way-nuca"), (False, True)):
        out.append((f"compare {recipe} l1={l1}",
                    ["compare", "--recipe", recipe,
                     *_sets({**BASE, "l1.enabled": l1})]))
    out.append(("compare config files",
                ["compare", *CONFIG_FILES, "--out", "files.csv"]))
    for policy, layout, nuca, mapping, l1 in itertools.product(
            POLICIES, ("set_aligned", "way_aligned"), (False, True),
            MAPPINGS, (False, True)):
        name = (f"simulate {policy} {layout} {'nuca' if nuca else 'uca'} "
                f"{mapping} l1={l1}")
        out.append((name, ["simulate", "--out", f"{len(out):03d}.csv",
                           *_sets({**BASE, "policy": policy, "layout": layout,
                                   "nuca.enabled": nuca, **MAPPINGS[mapping],
                                   "l1.enabled": l1})]))
    for l1, count_raw in ((False, False), (True, False), (True, True)):
        out.append((f"profile l1={l1} count_raw={count_raw}",
                    ["profile", "--out", f"{len(out):03d}.txt",
                     *_sets({**BASE, "l1.enabled": l1,
                             "pagemap.count_raw": count_raw})]))
    for layout in ("set_aligned", "way_aligned"):
        out.append((f"gen-variation {layout}",
                    ["gen-variation", "--out", f"{len(out):03d}.map",
                     *_sets({**BASE, "layout": layout})]))
    out.append(("gen-trace", ["gen-trace", "--out", "trace.txt",
                              *_sets(BASE)]))
    out.append(("compare set-uca on the trace l1=True",
                ["compare", "--recipe", "set-uca",
                 *_sets({"cache.capacity_bytes": BASE["cache.capacity_bytes"],
                         "workload.trace": "trace.txt", "l1.enabled": True})]))
    return out


COMMANDS = _commands()


def _digest(*parts):
    return hashlib.sha256(b"\0".join(parts)).hexdigest()


def versions():
    """The first line of the fingerprints: numpy's generator streams, and so
    every digest, may change with the numpy or the Python version."""
    return (f"# Python {platform.python_version()}, "
            f"numpy {importlib.metadata.version('numpy')}")


def run_in_child(src):
    """A command runner: `python -m cnfetcache.cli` on the package in src,
    giving (stdout, stderr, exit code)."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")

    def run(argv, cwd):
        done = subprocess.run([sys.executable, "-m", "cnfetcache.cli", *argv],
                              cwd=cwd, env=env, capture_output=True)
        return done.stdout, done.stderr, done.returncode
    return run


def fingerprint(run):
    """Run every command through `run(argv, cwd)`; yield the lines after
    the versions."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, keys in CONFIG_FILES.items():
            (tmp / name).write_text("".join(f"{line}\n"
                                            for line in _lines(keys)))
        for name, argv in COMMANDS:
            before = set(tmp.iterdir())
            stdout, stderr, code = run(argv, tmp)
            yield f"{_digest(stdout, stderr, str(code).encode())}  {name}"
            for path in sorted(set(tmp.iterdir()) - before):
                yield f"{_digest(path.read_bytes())}  {name} > {path.name}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", type=Path, default=ROOT,
                        help="the checkout whose src/ runs (default: this one)")
    args = parser.parse_args(argv)
    src = args.checkout.resolve() / "src"
    if not (src / "cnfetcache" / "cli.py").is_file():
        parser.error(f"no cnfetcache package under {src}")
    print(versions(), flush=True)
    for line in fingerprint(run_in_child(src)):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
