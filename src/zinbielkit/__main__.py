"""``python -m zinbielkit`` and the ``zinbielkit`` console script."""

import gc
import sys


def main() -> int:
    # A command leaves a bounded number of cyclic objects and its process then
    # exits, so the cyclic collector's passes would only cost time.
    gc.disable()
    from .cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
