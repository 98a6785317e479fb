"""Every artifact of the golden commands keeps its bytes.

tests/golden.json holds the sha256 of each file that validate, simulate,
tail and scan write at the benchmark's reduced sizes (the manifest left
out); scripts/update_golden.py regenerates it.  The runs here use two
workers, so the hashes also pin byte-identity across worker counts.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _update_golden():
    spec = importlib.util.spec_from_file_location(
        "update_golden", ROOT / "scripts" / "update_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_golden_artifact_hashes(tmp_path, monkeypatch):
    monkeypatch.setenv("SCLAW_THREADS", "2")
    want = json.loads((ROOT / "tests" / "golden.json").read_text())
    assert set(want) == {"validate", "simulate", "tail", "scan"}
    assert _update_golden().golden_hashes(tmp_path) == want
