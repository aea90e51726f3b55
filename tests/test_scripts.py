"""The example scripts the README documents run to their last line."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent


@pytest.mark.parametrize(
    "script, closing",
    [
        ("hidden_price_demo", "all transcripts re-verified"),
        ("extraction_experiment", "claims-then-reveals: extracted 7 via transcript rewinding"),
        ("noise_tradeoff", "  0.02   0.98       0.980    25.38"),
    ],
)
def test_example_script_runs_to_its_closing_line(script, closing):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{script}.py")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == closing
