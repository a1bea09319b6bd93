"""Run the equivar CLI as ``python -m equivar`` does, recording when its import and command run.

Usage: python -X importtime bench/cli_child.py ARGS... with the environment
variable EQUIVAR_BENCH_MARKS naming the file that receives the timestamps
(perf_counter, which shares one monotonic clock with the parent process).
The traced cli-calls run uses this in place of ``python -m equivar``.
"""

import json
import os
import sys
from time import perf_counter

marks = {"t_start": perf_counter()}
del sys.path[0]  # this script's directory; equivar comes from PYTHONPATH
try:
    import equivar.cli

    marks["t_import"] = perf_counter()
    code = equivar.cli.main(sys.argv[1:])
finally:
    marks["t_end"] = perf_counter()
    with open(os.environ["EQUIVAR_BENCH_MARKS"], "w", encoding="utf-8") as fh:
        json.dump(marks, fh)
sys.exit(code)
