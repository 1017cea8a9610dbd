"""python -m pkcore: the pkcore command line, run from a source tree
with PYTHONPATH=src and no install."""

import sys

from .cli import main

if __name__ == "__main__":  # importing the module (as tools that walk the package do) runs nothing
    sys.exit(main())
