"""``python -m tiltbench`` (needs the repository root and ``src/`` importable;
``python3 tiltbench/run.py`` sets both up itself)."""

from .cli import main

raise SystemExit(main())
