"""Hand-made mutants of the package, each with the tests that must catch it.

Run by hand from anywhere; it is not part of the tier-1 suite:

    python tests/mutants.py            # every mutant
    python tests/mutants.py --list     # names only
    python tests/mutants.py NAME ...   # the named mutants

Each mutant replaces one piece of text in one file of a temporary copy of
`src/` and runs only its named tests against that copy.  A mutant is caught
when those tests fail.  The script exits 1 if any mutant survives, if a
mutant's old text does not appear exactly once in its file (re-express the
mutant against the current code rather than dropping it), or if the named
tests do not pass on the unmutated copy.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = "tests/test_reference_workload.py::"


class Mutant(NamedTuple):
    name: str
    path: str          # relative to src/
    old: str
    new: str
    tests: tuple       # pytest ids, relative to the repository root


WORKLOAD = "cnfetcache/workload.py"

MUTANTS = [
    # The trace and L1 mutants of the columnar trace change, re-expressed.
    Mutant("read hit clears the dirty bit", WORKLOAD,
           "            if write:\n                all_dirty[s][way] = True",
           "            all_dirty[s][way] = write",
           (REFERENCE + "test_l1_columns_match_the_per_record_filter",)),
    Mutant("write-back placed after its fill", WORKLOAD,
           "[2 * victim_at, 2 * fills + 1]", "[2 * victim_at + 1, 2 * fills]",
           (REFERENCE + "test_l1_columns_match_the_per_record_filter",)),
    Mutant("L1 one way short", WORKLOAD,
           "if len(order) < ways:", "if len(order) < ways - 1:",
           (REFERENCE + "test_l1_columns_match_the_per_record_filter",)),
    Mutant("instruction fetch parity flipped", WORKLOAD,
           "instr = rank % 2 == 1", "instr = rank % 2 == 0",
           (REFERENCE + "test_generated_columns_match_the_per_record_generator",)),
    Mutant("chunk line numbers off by one", WORKLOAD,
           "lineno += len(lines)", "lineno += len(lines) - 1",
           (REFERENCE + "test_parse_matches_the_per_line_parser",)),
    Mutant("whole trace in one chunk", WORKLOAD,
           "PARSE_CHUNK_LINES = 4096", "PARSE_CHUNK_LINES = 1_000_000",
           (REFERENCE + "test_parse_peak_memory_per_record",)),
    # The byte scan and the run collapse.
    Mutant("scan skips the num_cores check", WORKLOAD,
           "if num_cores is not None and np.any(core >= num_cores):",
           "if False:",
           (REFERENCE + "test_parse_matches_the_per_line_parser",)),
    Mutant("run collapse drops the OR of its writes", WORKLOAD,
           "np.logical_or.reduceat(writes[order], runs)",
           "writes[order][runs]",
           (REFERENCE + "test_l1_columns_match_the_per_record_filter",
            REFERENCE + "test_l1_sends_a_run_of_repeats_through_lru_once")),
    Mutant("scan accepts 17 hex digits", WORKLOAD,
           "addr_end, 16, 16, np.uint64)", "addr_end, 17, 16, np.uint64)",
           (REFERENCE + "test_parse_rejects_values_beyond_the_columns",)),
    Mutant("scan accepts 19 decimal digits", WORKLOAD,
           "ends[head], 18, 10, np.int64)", "ends[head], 19, 10, np.int64)",
           (REFERENCE + "test_parse_rejects_values_beyond_the_columns",)),
    Mutant("scan splits on every control byte", WORKLOAD,
           "b < 128 and chr(b).isspace()", "b <= 32",
           (REFERENCE + "test_parse_matches_the_per_line_parser",)),
    Mutant("run collapse ignores the set", WORKLOAD,
           "(by_set[1:] != by_set[:-1]) | (by_line[1:] != by_line[:-1])",
           "by_line[1:] != by_line[:-1]",
           (REFERENCE + "test_l1_columns_match_the_per_record_filter",)),
    Mutant("not-UTF-8 error names the next line", WORKLOAD,
           'bad = text.count("\\n", 0, exc.start)',
           'bad = text.count("\\n", 0, exc.start) + 1',
           ("tests/test_cli.py::test_simulate_rejects_malformed_trace",)),
]


def pytest_configure(config):
    """Loaded into each pytest run as a plugin: a mutant is caught by its
    first failing example, so hypothesis need not shrink it."""
    from hypothesis import Phase, settings
    settings.register_profile("mutants", phases=[
        Phase.explicit, Phase.reuse, Phase.generate])
    settings.load_profile("mutants")


def run_tests(src, tests):
    """pytest's exit code for the tests run against the package in src."""
    # PYTHONPATH makes this file importable as the pytest plugin "mutants".
    path = [str(Path(__file__).parent)] + os.environ.get("PYTHONPATH", "").split(
        os.pathsep)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    # hypothesis's report of a failing example trips this warning, which the
    # suite's filterwarnings=error would turn into a pytest internal error.
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "mutants",
               "-p", "no:cacheprovider", "-o", f"pythonpath={src}",
               "-W", "ignore:mypy_extensions.TypedDict is deprecated"
                     ":DeprecationWarning", *tests]
    return subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default all)")
    parser.add_argument("--list", action="store_true", help="list the mutants")
    args = parser.parse_args(argv)
    if args.list:
        for mutant in MUTANTS:
            print(mutant.name)
        return 0
    unknown = set(args.names) - {mutant.name for mutant in MUTANTS}
    if unknown:
        parser.error(f"no mutant named {sorted(unknown)}")
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        tests = sorted({test for mutant in chosen for test in mutant.tests})
        if run_tests(src, tests) != 0:
            print("the named tests fail on the unmutated package")
            return 1
        caught = 0
        for mutant in chosen:
            path = src / mutant.path
            original = path.read_text()
            if original.count(mutant.old) != 1:
                status = "stale"
            else:
                path.write_text(original.replace(mutant.old, mutant.new))
                code = run_tests(src, mutant.tests)
                path.write_text(original)
                status = {0: "SURVIVED", 1: "caught"}.get(
                    code, f"error (pytest exit {code})")
            caught += status == "caught"
            print(f"{status:10} {mutant.name}", flush=True)
    print(f"{caught} of {len(chosen)} mutants caught")
    return 0 if caught == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main())
