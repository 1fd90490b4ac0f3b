"""`python -m lmicert`: the lmicert command (cli.main)."""

from .cli import main

raise SystemExit(main())
