"""The flags each ``rulnet`` command takes.  Adding or removing a flag is
an edit to the table below.  The parser takes no abbreviation of a flag,
so the table is the whole command line."""

import argparse
import re
from pathlib import Path

from rulnet.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"

# One flag per ExperimentConfig field, out_dir's being --out, plus --config.
CONFIG_FLAGS = [
    "--batch-size", "--clip-test-rul", "--config", "--dropout", "--early-stop-patience",
    "--feature-heads", "--k-conditions", "--learning-rate", "--lstm-hidden", "--lstm-layers",
    "--max-epochs", "--mlp-hidden", "--mode", "--out", "--r-max", "--seeds",
    "--sequence-heads", "--test-path", "--train-path", "--truth-path", "--validation-fraction",
    "--window",
]
HELP = ["-h", "--help"]

COMMAND_FLAGS = {
    "preprocess": CONFIG_FLAGS + HELP,
    "train": CONFIG_FLAGS + HELP,
    "evaluate": HELP + ["--checkpoint", "--clip-test-rul", "--out", "--test-path", "--truth-path"],
    "explain": HELP + ["--checkpoint", "--cycles", "--matrix-cycles", "--out", "--test-path",
                       "--truth-path", "--unit"],
    "sweep": CONFIG_FLAGS + HELP + ["--param", "--values"],
    "synth-data": HELP + ["--conditions", "--name", "--out", "--seed", "--test-units", "--units"],
}


def test_each_command_takes_the_listed_flags():
    parser = build_parser()
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(commands.choices) == list(COMMAND_FLAGS)
    for name, command in commands.choices.items():
        flags = sorted(s for action in command._actions for s in action.option_strings)
        assert flags == sorted(COMMAND_FLAGS[name]), name
    assert sorted(s for a in parser._actions for s in a.option_strings) == sorted(HELP + ["--version"])


def readme_commands():
    """(command, flags) of each ``rulnet <command>`` line in the README's
    sh blocks, a line continued with a backslash read as one."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    for line in "".join(blocks).replace("\\\n", " ").splitlines():
        words = line.split("#")[0].split()
        if words[:1] == ["rulnet"]:
            yield words[1], [w.split("=")[0] for w in words[2:] if w.startswith("--")]


def test_readme_commands_take_their_flags():
    commands = list(readme_commands())
    assert {name for name, _ in commands} >= {"synth-data", "train", "evaluate", "explain"}
    for name, flags in commands:
        assert set(flags) <= set(COMMAND_FLAGS[name]), (name, sorted(set(flags) - set(COMMAND_FLAGS[name])))
