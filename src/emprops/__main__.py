"""``python -m emprops``: the same command line as the ``emprops`` script."""

import sys

from emprops.cli import main

if __name__ == "__main__":
    sys.exit(main())
