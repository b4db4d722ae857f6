"""``python -m zinbielkit`` and the ``zinbielkit`` console script.

A command is a short-lived process.  It runs with the cyclic collector off,
and once it is done, however it ends, it freezes every live object: CPython
still runs one full collection at exit, after it clears ``sys.modules``,
and that pass skips frozen objects instead of walking and tearing down
every module and function the command loaded.  atexit hooks and the stdio
flush still run.  ``cli.main`` does neither, so a long-lived caller keeps
its collector as it was.
"""

import gc
import sys


def main() -> int:
    # A command leaves a bounded number of cyclic objects and its process then
    # exits, so the cyclic collector's passes would only cost time.
    gc.disable()
    from .cli import main as cli_main

    try:
        return cli_main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
