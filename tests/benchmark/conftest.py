"""Make the end-to-end benchmark's modules importable by these tests."""

import sys
from pathlib import Path

E2E_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"
if str(E2E_DIR) not in sys.path:
    sys.path.insert(0, str(E2E_DIR))
