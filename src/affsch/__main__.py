"""python -m affsch: the affsch command line, as the installed script runs it."""

import sys

from affsch.cli import main

sys.exit(main())
