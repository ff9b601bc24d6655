"""Process entry point: ``python -m rkboundary`` and the ``rkboundary`` script."""

import gc

from . import cli


def main() -> int:
    """Run the command line with the objects imported so far frozen.

    They live until the process exits, so the collector need not walk them,
    which it otherwise does mostly at exit.  ``cli.main`` does not freeze,
    since tests and tools call it in-process.
    """
    gc.freeze()
    return cli.main()


if __name__ == "__main__":
    raise SystemExit(main())
