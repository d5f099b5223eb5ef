"""Entry point for ``python -m splittrap``; same as the ``splittrap`` command."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
