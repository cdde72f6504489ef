"""Time a fresh start of pearl-floer; started by ``worker.py`` in a new interpreter.

The clock starts before any import but ``time``, which the interpreter has
loaded already, so every module the program pulls in, standard library
included, is counted.  Then ``pearl_floer.cli`` is imported and
``get_model`` builds each model named on the command line.

    python3 perfbench/setup_probe.py [MODEL:DIM ...]

Prints the seconds taken.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402

from pearl_floer import cli  # noqa: E402

for spec in sys.argv[1:]:
    name, dim = spec.split(":")
    cli.get_model(name, int(dim) if dim else None)
print(time.perf_counter() - START)
