"""Every fenced python block of README.md runs as written, and every
`$ cavitylink ...` block prints what README shows."""

import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from cavitylink.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)
CLI_BLOCKS = re.findall(r"^```\n\$ (cavitylink .*?)\n(.*?)^```$", TEXT, re.M | re.S)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("source", BLOCKS,
                         ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_readme_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})


def test_readme_has_an_example_of_every_subcommand():
    commands = {shlex.split(command)[1] for command, _ in CLI_BLOCKS}
    assert commands == {"dressed", "rabi", "fidelity-sweep", "two-photon",
                        "protocol", "ebit-noise"}


@pytest.mark.parametrize("command, shown", CLI_BLOCKS,
                         ids=[shlex.split(c)[1] for c, _ in CLI_BLOCKS])
def test_readme_cli_example_prints_as_shown(capsys, command, shown):
    assert main(shlex.split(command)[1:]) == 0
    out = capsys.readouterr().out
    if not command.startswith("cavitylink rabi"):
        assert out == shown
        return
    # rabi's propagator columns (p_tdse, abs_diff) may differ across
    # machines below the tolerance: those two compare to 1e-12
    got, want = out.splitlines(), shown.splitlines()
    assert got[0] == want[0] and len(got) == len(want)
    for got_row, want_row in zip(got[1:], want[1:]):
        got_row, want_row = got_row.split(","), want_row.split(",")
        assert got_row[:2] == want_row[:2]
        np.testing.assert_allclose([float(v) for v in got_row[2:]],
                                   [float(v) for v in want_row[2:]],
                                   rtol=0, atol=1e-12)
