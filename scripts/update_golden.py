#!/usr/bin/env python3
"""Regenerate tests/golden.json, the sha256 of every artifact of the
golden commands.

Each command runs on the shipped Burgers config at the benchmark's
reduced sample sizes; the manifest is left out because it embeds the
library versions.  Run it from the root of a checkout, after a change
that moves artifact bytes on purpose:

    PYTHONPATH=src python scripts/update_golden.py
"""

import hashlib
import json
import pathlib
import sys
import tempfile

from sclaw.cli import EXIT_OK, run

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden.json"
COMMANDS = ("validate", "simulate", "tail", "scan")
SIZES = {"n_tail": 640, "n_scaling": 256, "n_moment": 128, "n_pairs": 6}


def golden_hashes(work: pathlib.Path) -> dict:
    """{command: {file: sha256}} of the golden commands, run in work."""
    doc = json.loads((ROOT / "configs" / "burgers2mode.json").read_text())
    doc["harness"].update(SIZES)
    config = work / "burgers2mode.json"
    config.write_text(json.dumps(doc))
    out = {}
    for command in COMMANDS:
        dest = work / command
        code = run([command, "--config", str(config), "--out", str(dest),
                    "--quiet"])
        if code != EXIT_OK:
            raise RuntimeError(f"{command} exited {code}")
        out[command] = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(dest.iterdir()) if path.name != "manifest.json"}
    return out


def main():
    with tempfile.TemporaryDirectory() as work:
        hashes = golden_hashes(pathlib.Path(work))
    GOLDEN.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
