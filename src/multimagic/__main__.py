"""``python -m multimagic``: the command-line toolkit."""

import sys

from .cli import main

sys.exit(main())
