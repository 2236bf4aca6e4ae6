import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent
ROOT = PERFBENCH.parent
for path in (PERFBENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
