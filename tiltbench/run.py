"""Entry point that needs no ``PYTHONPATH``: ``python3 tiltbench/run.py …``.

Puts the checkout's root (for ``tiltbench``) and ``src/`` (for ``repro``) on
``sys.path`` and hands over to :mod:`tiltbench.cli`.  In a directory that
holds only the benchmark there is no ``src/``: the import of the engine
fails and the process exits non-zero without printing a result.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from tiltbench.cli import main  # noqa: E402 - needs the path set up above

if __name__ == "__main__":
    raise SystemExit(main())
