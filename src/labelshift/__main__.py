"""``python -m labelshift``: the ``labelshift`` command line."""

import sys

from labelshift.cli import main

if __name__ == "__main__":
    sys.exit(main())
