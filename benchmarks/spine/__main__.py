"""Entry point of ``python -m benchmarks.spine``; see :mod:`benchmarks.spine.cli`."""

import sys

from benchmarks.spine.cli import main

if __name__ == "__main__":
    sys.exit(main())
