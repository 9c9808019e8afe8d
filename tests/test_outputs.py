"""The commands of `outputs.py` still fit the CLI: each argv parses and each
config key it sets exists.  Runs no command, so a stale command shows up
in the suite and not only when the fingerprints are taken by hand."""

from outputs import COMMANDS, CONFIG_FILES

from cnfetcache.cli import ExperimentConfig, build_parser


def test_each_command_parses():
    parser = build_parser()
    for _, argv in COMMANDS:
        parser.parse_args(argv)


def test_each_config_key_exists():
    keys = {arg.split("=", 1)[0] for _, argv in COMMANDS
            for flag, arg in zip(argv, argv[1:]) if flag == "--set"}
    keys |= {key for config in CONFIG_FILES.values() for key in config}
    assert keys - ExperimentConfig.KEYMAP.keys() == set()
