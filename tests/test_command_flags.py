"""The flags each ``rulnet`` command takes.  Adding or removing a flag is
an edit to the table below."""

import argparse

from rulnet.cli import build_parser

# One flag per ExperimentConfig field but out_dir, plus --config, --seed and --out.
CONFIG_FLAGS = [
    "--batch-size", "--clip-test-rul", "--config", "--dropout", "--early-stop-patience",
    "--feature-heads", "--k-conditions", "--learning-rate", "--lstm-hidden", "--lstm-layers",
    "--max-epochs", "--mlp-hidden", "--mode", "--out", "--r-max", "--seed", "--seeds",
    "--sequence-heads", "--test-path", "--train-path", "--truth-path", "--validation-fraction",
    "--window",
]
HELP = ["-h", "--help"]

COMMAND_FLAGS = {
    "preprocess": CONFIG_FLAGS + HELP + ["--skip-windows"],
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
