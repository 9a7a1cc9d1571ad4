"""Put the checkout's own package source first on the import path.

The benchmark measures the code of the checkout it sits in, never an
installed copy, so it refuses to run when ``src/dicke_fcs`` is missing.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dicke_fcs"


def use_checkout_package():
    if not (PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {PACKAGE}")
    sys.path.insert(0, str(PACKAGE.parent))

