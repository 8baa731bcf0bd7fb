"""`python -m vassbound ARGS` runs the `vassbound` command line."""
from .cli import main

raise SystemExit(main())
