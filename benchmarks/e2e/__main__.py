"""Entry point: ``python3 benchmarks/e2e/__main__.py`` (what
``BENCHMARK.json`` names) or ``python -m benchmarks.e2e``.  Puts the
repo root and ``src/`` on ``sys.path`` itself, because the driver's
command may name no path outside the benchmark's directory."""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
for _entry in (str(_ROOT / "src"), str(_ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
