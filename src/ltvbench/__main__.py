"""``python -m ltvbench``: the ``ltvbench`` command line."""

import sys

from .cli import main

sys.exit(main())
