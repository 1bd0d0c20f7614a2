"""What a fresh ``import offroad.cli`` loads from scipy.

Every process pays for what its imports load before it does any work, so
the command line loads only the scipy subpackages the program calls.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import offroad

# public scipy subpackage -> why the program loads it
ALLOWED_SCIPY = {
    "sparse": "global_route solves each route query with scipy.sparse.csgraph.dijkstra",
    "linalg": "SurfaceModel solves its spline systems with scipy.linalg.solve_banded "
              "and scipy.linalg.solve; scipy.sparse.csgraph imports it too",
}

PROBE = """
import json, sys
import offroad.cli
print(json.dumps(sorted(name for name, module in sys.modules.items()
                        if name.startswith("scipy.") and hasattr(module, "__path__"))))
"""


def test_cli_import_loads_only_the_scipy_subpackages_it_uses():
    src = str(Path(offroad.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-c", PROBE], cwd=src, check=True,
                         capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src)).stdout
    packages = json.loads(out)
    public = {name.split(".")[1] for name in packages if not name.split(".")[1].startswith("_")}
    assert "scipy.linalg" in packages and "scipy.sparse.csgraph" in packages
    assert public <= set(ALLOWED_SCIPY), sorted(public - set(ALLOWED_SCIPY))
