"""Entry point for ``python -m trimdecomp``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
