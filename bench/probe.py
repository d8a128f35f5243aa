"""Set-up time of a fresh interpreter, printed in seconds.

    python3 bench/probe.py [SCENARIO.json]

Times `import mlwave.cli` and, given a scenario file, parsing it and
building its operator: what a user pays before the first solve starts.
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

t0 = time.perf_counter()
import mlwave.cli  # noqa: E402

if len(sys.argv) > 1:
    from mlwave.spectral_operator import make_operator
    scn = mlwave.cli.parse_scenario(pathlib.Path(sys.argv[1]).read_text())
    make_operator(scn.operator)
print(repr(time.perf_counter() - t0))
