"""``python -m malgebra``: the command line, also from a checkout that is not
installed (``PYTHONPATH=src python -m malgebra solve "4x = 12"``)."""

import sys

from .cli import main

sys.exit(main())
