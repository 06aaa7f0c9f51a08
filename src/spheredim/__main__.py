"""``python -m spheredim``: the command-line interface of ``spheredim.cli``."""

import sys

from spheredim.cli import main

sys.exit(main())
