"""Put the checkout's own ``src`` first on ``sys.path``.

The benchmark measures the cityguard sources next to it, never an
installed copy, so it refuses to run when they are missing.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_src():
    if not (SRC / "cityguard" / "__init__.py").is_file():
        print(f"perfbench: no cityguard sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
