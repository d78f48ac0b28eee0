"""The ``disklab`` process entry: ``python -m disklab`` and the installed script.

Every import is done once this module's body has run, so ``main`` freezes
the objects they left tracked, numpy's and disklab's, before the command
runs: the collector then never walks them again, neither during the command
nor in the full collections of interpreter shutdown. Only a process entry
may freeze; ``cli.main``, which callers run in process, leaves its caller's
heap as it is.
"""

import gc
from typing import Optional

from . import cli


def main(argv: Optional[list[str]] = None) -> int:
    gc.freeze()
    return cli.main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
