"""``python -m repro.devtools`` — the ``spotlint`` driver."""

import sys

from repro.devtools.check import main

sys.exit(main())
