"""Set-up cost in a fresh interpreter: import kellerscope, parse each config
file given, build its Domain and initial data. Prints the seconds taken.

    python3 perfbench/setup_probe.py SRC_DIR CONFIG [CONFIG ...]
"""

import sys
from time import perf_counter

t0 = perf_counter()
sys.path.insert(0, sys.argv[1])
from kellerscope import build_ic  # noqa: E402
from kellerscope.config import parse_config  # noqa: E402

for path in sys.argv[2:]:
    with open(path) as fh:
        cfg = parse_config(fh.read())
    build_ic(cfg.ic, cfg.domain)
print(repr(perf_counter() - t0))
