"""Each demo runs to completion against the current API, and prints what
it printed when its output was pinned."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# SHA-256 of each demo's stdout. The demos draw from fixed seeds, so a
# change that keeps behaviour keeps these bytes.
DEMO_STDOUT_SHA256 = {
    "beta_tables": "324362eb4d9e96f06bcf8e87d80bcc073490edcf0bc191ca6b03b2c73b970e5f",
    "extraction_roundtrip": "4412d549509755092e3499564a1a1c7d93ca0e519763b9bd86323447a2f57854",
    "transition_walk": "0cbce52b636a857c399a6bdec17d105ba1cf6a6648da4854f722313f5dd3fb5d",
}


def test_there_are_demos():
    assert [p.name for p in DEMOS] == [
        "beta_tables.py", "extraction_roundtrip.py", "transition_walk.py"]


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == DEMO_STDOUT_SHA256[demo.stem]
