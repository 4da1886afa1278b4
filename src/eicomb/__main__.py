"""``python -m eicomb``: the command-line interface of eicomb.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
