"""The CLI still writes what `outputs.txt` records, and the commands of
`outputs.py` still fit the CLI: each argv parses and each config key it
sets exists."""

import io
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from outputs import COMMANDS, CONFIG_FILES, fingerprint, versions

from cnfetcache.cli import ExperimentConfig, build_parser, main

GOLDEN = Path(__file__).resolve().parent / "outputs.txt"


def test_each_command_parses():
    parser = build_parser()
    for _, argv in COMMANDS:
        parser.parse_args(argv)


def test_each_config_key_exists():
    keys = {arg.split("=", 1)[0] for _, argv in COMMANDS
            for flag, arg in zip(argv, argv[1:]) if flag == "--set"}
    keys |= {key for config in CONFIG_FILES.values() for key in config}
    assert keys - ExperimentConfig.KEYMAP.keys() == set()


def _run_in_process(argv, cwd):
    """`main(argv)` in cwd, giving what `python -m cnfetcache.cli` would:
    (stdout, stderr, exit code)."""
    out, err, home = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(cwd)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(home)
    return out.getvalue().encode(), err.getvalue().encode(), code


def test_outputs_match_the_committed_digests():
    made_with, *expected = GOLDEN.read_text().splitlines()
    assert made_with == versions(), (
        f"tests/outputs.txt was made with {made_with[2:]}, but this run has "
        f"{versions()[2:]}; the digests follow numpy's generator streams, "
        f"so they cannot be compared across versions.  Regenerate the file "
        f"with `python tests/outputs.py > tests/outputs.txt` at a commit "
        f"whose outputs are known good.")
    got = list(fingerprint(_run_in_process))
    changed = [f"expected {want}\n     got {have}"
               for want, have in zip(expected, got) if want != have]
    assert len(got) == len(expected) and not changed, (
        f"{len(changed)} of {len(expected)} lines differ, and "
        f"{len(got)} lines were made:\n" + "\n".join(changed[:10]))
