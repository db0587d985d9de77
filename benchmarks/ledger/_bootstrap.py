"""Import ``repro`` from this checkout's ``src/`` and from nowhere else.

The ledger scripts are run by path from the checkout root, so nothing
has put ``src/`` on ``sys.path`` yet.  An installed ``repro`` from some
other tree would silently benchmark the wrong code, so that is refused.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
SRC = os.path.join(ROOT, "src")

if SRC not in sys.path:
    sys.path.insert(0, SRC)

try:
    import repro
except ImportError as exc:
    raise SystemExit(f"ledger: cannot import repro from {SRC}: {exc}")

if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
    raise SystemExit(f"ledger: repro resolves to {repro.__file__}, "
                     f"not to this checkout's {SRC}")
