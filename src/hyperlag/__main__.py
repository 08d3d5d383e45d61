"""``python -m hyperlag``: the same command line as the ``hyperlag`` script."""

from .cli import main

raise SystemExit(main())
