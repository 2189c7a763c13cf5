"""Run the command-line front end: ``python -m quivercoalg <verb> ...``."""

import sys

from .cli import main

sys.exit(main())
