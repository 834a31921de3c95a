"""Every script in demos/ runs to completion (about 25 s in total)."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import levyexotic

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_exits_cleanly(demo):
    src = str(Path(levyexotic.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                         env=env, timeout=600)
    assert out.returncode == 0, out.stderr
