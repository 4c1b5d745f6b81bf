"Run the command-line interface: python -m hardsquares ..."
from .cli import main

raise SystemExit(main())
