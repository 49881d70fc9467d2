"""``tests/interleave.py`` reports a side it cannot load as one line.  It is
run as a child, since its ``main`` refuses to run once ``gridnav`` is
imported."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_unknown_revision_is_one_error_line():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "interleave.py"), "--parent", "nosuchrev", "--change", "."],
        capture_output=True, text=True, cwd=ROOT, timeout=60,
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "error: 'nosuchrev' is neither a tree nor a git revision\n"
