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
PASS = "tests/test_pass.py::test_pass_and_pricing_match_the_per_access_engine"
PASS_COUNT = "tests/test_cli.py::test_compare_makes_one_pass_per_stream"


class Mutant(NamedTuple):
    name: str
    path: str          # relative to src/
    old: str
    new: str
    tests: tuple       # pytest ids, relative to the repository root


WORKLOAD = "cnfetcache/workload.py"
NUCA = "cnfetcache/nuca.py"
CLI = "cnfetcache/cli.py"

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
    # The pass and pricing mutants of the one-pass change, re-expressed
    # against `count_hits` and `price`.
    Mutant("PD hit test d <= k + 1", NUCA,
           "depths - len(policy.disabled), ()",
           "depths - len(policy.disabled) + 1, ()",
           (PASS + "[set_aligned-baseline_pd]",)),
    Mutant("bypass ignored", NUCA,
           "hit_depth, skip = 1, policy.disabled", "hit_depth, skip = 1, ()",
           (PASS + "[way_aligned-baseline_pd]",)),
    Mutant("NoC dropped", NUCA,
           "hop = 0 if noc is None else noc[core][bank]", "hop = 0",
           (PASS + "[way_aligned-baseline]",)),
    Mutant("set aligned banks priced by set", NUCA,
           "if per_set:\n            index = s",
           "if True:\n            index = s",
           (PASS + "[set_aligned-vasa]",)),
    Mutant("DS moves dropped", NUCA,
           "moves += result.shuffle_moves", "moves += 0",
           (PASS + "[set_aligned-vasa_ds4]",)),
    Mutant("LRU depth one too deep", NUCA,
           "depth = order.index(way)", "depth = order.index(way) + 1",
           (PASS + "[set_aligned-baseline_pd]", PASS + "[set_aligned-vasa]")),
    Mutant("DS hit priced after the shuffle", NUCA,
           "way, depth = result.way, 0", "way, depth = order[0][0], 0",
           (PASS + "[set_aligned-vasa_ds4]",)),
    Mutant("core rows swapped", NUCA,
           "enumerate(cores)", "enumerate(reversed(cores))",
           (PASS + "[way_aligned-baseline]",)),
    Mutant("PM addresses not translated", NUCA,
           "zip(_lines(trace, offset_bits, mapping, page_bytes)",
           "zip(_lines(trace, offset_bits, None, page_bytes)",
           (PASS + "[way_aligned-vawa_ug]",)),
    Mutant("pass key ignoring the mapping", CLI,
           "if row.mapping is not None or any(", "if any(",
           (PASS_COUNT + "[way-uca-3-0]",)),
    # Two on the merged pass and the one PD depth rule.
    Mutant("shuffling bank sent down the LRU branch", NUCA,
           "policies[s >> bank_set_bits].shuffle)", "None)",
           (PASS + "[set_aligned-vasa_ds2]",)),
    Mutant("disabled ways left out of the depth rule", NUCA,
           "depths - len(policy.disabled), ()", "depths, ()",
           (PASS + "[set_aligned-baseline_pd]",)),
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
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "mutants",
               "-p", "no:cacheprovider", "-o", f"pythonpath={src}", *tests]
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
