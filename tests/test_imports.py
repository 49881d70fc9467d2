"""The package is stdlib-only at runtime: importing it, the command line
included, loads no third-party module."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Compares the modules loaded before and after the import, in a fresh
# interpreter: site start-up may already have loaded third-party modules.
PROBE = """\
import json, sys
before = set(sys.modules)
import gridnav, gridnav.cli
print(json.dumps({"file": gridnav.__file__,
                  "new": sorted({name.partition(".")[0] for name in set(sys.modules) - before})}))
"""


def test_importing_gridnav_loads_only_the_standard_library():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                         text=True, check=True).stdout
    loaded = json.loads(out)
    assert Path(loaded["file"]).resolve().parent == SRC / "gridnav"
    assert "gridnav" in loaded["new"]
    foreign = [name for name in loaded["new"]
               if name != "gridnav" and name not in sys.stdlib_module_names]
    assert foreign == []
