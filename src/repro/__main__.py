"""Module entry point: ``python -m repro``.

The ``__name__`` guard matters: ``ingest run --pool spawn`` spawns
worker processes, and the spawn start method re-imports the main module
in each child — without the guard every worker would re-run the CLI.
"""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
