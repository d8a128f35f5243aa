"""Knife-edge picard-blowup entries gated against the benchmark reference.

The last window of picard-blowup pool entries 15, 23, 41 and 59 converges
at 48-50 of max_iter = 50 Picard iterations, and the window after entry
31's last one fails at the cap, so whether they pass rests on rounding: a
change to the Picard arithmetic that is not bit for bit can move their
T_est by a node.  Each entry runs through cli.main and must pass the gate
bench/run.py applies (bench/workloads.py's gate_solve against
bench/reference.npz), after the same pool digest check.  Nothing under
bench/ is written.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from mlwave import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
KNIFE_EDGE = (15, 23, 31, 41, 59)


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


wl = _load_workloads()


@pytest.fixture(scope="module")
def reference():
    with np.load(BENCH / "reference.npz") as z:
        ref = {k: z[k] for k in z.files}
    assert str(ref["digest"]) == wl.pool_digest(), \
        "bench/reference.npz was recorded from other pool inputs"
    return ref


@pytest.mark.parametrize("k", KNIFE_EDGE)
def test_knife_edge_entry_passes_the_bench_gate(tmp_path, reference, k):
    doc = wl.scenario("picard-blowup", k)
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc))
    out = str(tmp_path / "out")
    _, rc, error, log = wl.solve(cli.main, "semilinear", str(config), out)
    assert error is None and rc == 0, log
    got = wl.read_output("semilinear", out, doc)
    assert wl.gate_solve("picard-blowup", got,
                         reference["picard_blowup_state"][k],
                         float(reference["picard_blowup_t_est"][k])) is None
