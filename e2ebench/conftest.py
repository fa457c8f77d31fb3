"""Make ``src`` and the benchmark's own modules importable in its tests
(``python -m pytest e2ebench`` from the repository root)."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
for path in (os.path.join(os.path.dirname(HERE), "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)
