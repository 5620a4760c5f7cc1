"""Import-path hygiene: the CLI and the simulator start without numpy.

numpy dominates import time when it loads, and only yada's input
generator needs it (and imports it lazily), so nothing on the path to
``repro.cli`` or ``repro.core.simulator`` may import it at module level.
"""

import subprocess
import sys


def test_cli_and_simulator_import_without_numpy():
    code = ("import sys, repro.cli, repro.core.simulator; "
            "print('numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
