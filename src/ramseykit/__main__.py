"""``python -m ramseykit``: the same command line as ``ramseykit``."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
