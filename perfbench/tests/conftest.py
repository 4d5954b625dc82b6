"""Import paths for the benchmark's own tests.

Run from the repository root:  python -m pytest perfbench/tests
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)

for path in (os.path.join(ROOT, "src"), PERFBENCH):
    if path not in sys.path:
        sys.path.insert(0, path)
