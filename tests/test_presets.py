"""The preset recipes through the library entry point ``run_preset``."""

import json

import pytest

from ramseykit import report
from ramseykit.cli import main
from ramseykit.errors import ParameterError
from ramseykit.presets import run_preset

NAMES = ["cor-five-colours", "cor-three-three", "hedgehog-lower", "lemma-k5-13"]


@pytest.mark.parametrize("name", NAMES)
def test_run_preset_is_the_cli_report(name, capsys):
    doc, passed = run_preset(name, 3, 5)
    code = main(["preset", "--name", name, "--seed", "3", "--samples", "5",
                 "--format", "json"])
    cli_doc = json.loads(capsys.readouterr().out)
    for key in ("command", "config", "schema"):
        del cli_doc[key]
    got = json.loads(report.encode_report(doc))
    del got["schema"]
    assert got == cli_doc
    assert code == (0 if passed else 1)


def test_run_preset_refuses_bad_arguments():
    with pytest.raises(ParameterError) as exc:
        run_preset("nope", 0, 5)
    assert str(exc.value) == (
        "unknown preset 'nope'; choose from ['cor-five-colours', "
        "'cor-three-three', 'hedgehog-lower', 'lemma-k5-13']"
    )
    with pytest.raises(ParameterError) as exc:
        run_preset("cor-five-colours", 0, 0)
    assert str(exc.value) == "--samples must be positive, got 0"
