"""``python -m optoepr``: the command-line interface of `optoepr.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
