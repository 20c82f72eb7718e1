"""``python -m symcond``: the same entry point as the ``symcond`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
