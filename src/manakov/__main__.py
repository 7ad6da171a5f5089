"""``python -m manakov ...`` runs the command line of ``manakov.cli``."""
from .cli import main

raise SystemExit(main())
