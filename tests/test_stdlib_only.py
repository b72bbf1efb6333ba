"""The runtime depends on nothing outside the standard library.

A fresh interpreter started with `-S` (no `site`, so no site-packages
and no site hook's own imports) puts `src` first on `sys.path` and
imports `dualfan` and `dualfan.cli`.  Every module that this loads must
be part of dualfan or of the standard library.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import dualfan, dualfan.cli
print(json.dumps([dualfan.__file__, sorted(
    name for name in set(sys.modules) - before
    if name.partition(".")[0] not in sys.stdlib_module_names
    and name.partition(".")[0] != "dualfan")]))
"""


def test_dualfan_and_its_cli_import_only_the_standard_library():
    result = subprocess.run([sys.executable, "-S", "-c", PROBE, str(SRC)],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    loaded_from, foreign = json.loads(result.stdout)
    assert Path(loaded_from).is_relative_to(SRC)
    assert foreign == []
