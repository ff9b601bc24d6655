"""Process entry point: ``python -m rkboundary`` and the ``rkboundary`` script."""

import os

from . import cli


def main() -> None:
    """Run the command line and end the process with its exit code.

    ``cli.main`` has written and flushed everything the run prints, so the
    interpreter's shutdown, which would flush the standard streams again and
    turn a write that failed into exit 120, is skipped.
    """
    os._exit(cli.main())


if __name__ == "__main__":
    main()
