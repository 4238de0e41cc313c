"""``python -m benchmarks.e2e run|compare`` (see :mod:`benchmarks.e2e.suite`)."""

import sys

from benchmarks.e2e.suite import main

sys.exit(main())
