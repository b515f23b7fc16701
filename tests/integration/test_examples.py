"""Every ``examples/*.py`` runs to the end as a script.

They are the only callers of some public names (the CUSUM
walkthrough), so a rename that misses them fails here.
"""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parents[2] / "examples").glob("*.py"))


def test_all_six_are_collected():
    assert len(EXAMPLES) == 6


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
