"""RESULTS.md, pinned byte for byte.

``versal-gemm report`` runs every experiment and writes one markdown
section per paper artifact; the committed RESULTS.md must be exactly
what the current tree produces, so a change to the model or to an
experiment shows its effect on the reproduced tables and figures in the
same diff.  Regenerate it from the repository root with::

    PYTHONPATH=src python -m repro.cli report -o RESULTS.md
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def test_report_matches_committed_results(tmp_path):
    out = tmp_path / "RESULTS.md"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", "report", "-o", str(out)],
        env=env, capture_output=True, text=True, check=False, cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert out.read_bytes() == (ROOT / "RESULTS.md").read_bytes(), (
        "RESULTS.md is stale; regenerate it with "
        "`versal-gemm report -o RESULTS.md`"
    )
