import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

# Child processes (``python -m citedist`` in the scale smoke test) import
# the package from this checkout too, as pytest's ``pythonpath`` does for
# the test process itself.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
