"""Benchmark entry point; run it from the root of an eoflab checkout.

    python3 perfbench/run.py --workload oracle-2q --seed 1 --seconds 24 --trace 0

It imports eoflab from the checkout's own src/ and nothing else, pins
BLAS/OpenMP to one thread before numpy loads, and prints the metrics as a
JSON object on its last line.  Without src/eoflab it exits with code 2.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here: imports plus input generation

import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if __name__ == "__main__":
    if not (SRC / "eoflab" / "__init__.py").is_file():
        print(f"error: no eoflab package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(ROOT)]
    import eoflab

    if Path(eoflab.__file__).resolve().parent != SRC / "eoflab":
        print(f"error: imported eoflab from {eoflab.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    from perfbench.bench import main

    sys.exit(main(sys.argv[1:], T0))
