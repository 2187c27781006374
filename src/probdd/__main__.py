"""Entry point for ``python -m probdd``; the same tool as the ``probdd`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
