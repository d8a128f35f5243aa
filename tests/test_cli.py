"""Command-line behavior: scenario parsing, artifacts, exit codes.

Artifacts must be reproducible: the echoed scenario re-parses to an
equal Scenario, trace files are byte-identical across repeat runs, and
the only timestamp lives in summary.json metadata.
"""

import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import asdict
from importlib.metadata import EntryPoint, PackageNotFoundError, distribution
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mlwave import (
    ConfigError,
    ForcingSpec,
    LinearProblem,
    OperatorSpecConfig,
    PicardConfig,
    SpectralField,
    make_operator,
    ml_e,
    solve_linear,
)
from mlwave import cli
from mlwave.cli import Scenario, main, parse_scenario
from mlwave.linear_solver import TIME_FUNCTIONS
from mlwave.mittag_leffler import DEFAULT_PRECISION, MLQuery
from mlwave.semilinear_solver import NONLINEARITY_KINDS
from mlwave.spectral_operator import _KINDS as OPERATOR_KINDS

from conftest import taylor_ref

PI = math.pi


def scenario_doc(**over):
    doc = {
        "alpha": 1.5,
        "operator": {"kind": "dirichlet_laplacian_interval",
                     "lengths": [PI]},
        "u0": [1.0],
    }
    doc.update(over)
    return doc


def scenario_text(**over):
    return json.dumps(scenario_doc(**over))


def write_config(tmp_path, name="scn.json", **over):
    path = tmp_path / name
    path.write_text(scenario_text(**over))
    return str(path)


class TestParseScenario:
    def test_defaults_fill_in(self):
        scn = parse_scenario(scenario_text())
        assert scn.alpha == 1.5
        assert scn.N_modes == 8
        assert scn.u0 == (1.0,) + (0.0,) * 7
        assert scn.u1 == (0.0,) * 8
        assert scn.kind == "linear"
        assert scn.forcing is None and scn.nonlinearity is None
        assert scn.t_end == 1.0 and scn.dt == 0.01
        assert scn.picard["tol"] == 1e-10
        assert scn.picard["max_iter"] == 50
        assert scn.output is None

    def test_not_json(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_scenario("{nope")

    def test_not_an_object(self):
        with pytest.raises(ConfigError, match="JSON object"):
            parse_scenario("[1, 2]")

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown scenario key"):
            parse_scenario(scenario_text(solver="magic"))

    def test_unknown_nested_keys(self):
        with pytest.raises(ConfigError, match="unknown operator key"):
            parse_scenario(scenario_text(
                operator={"kind": "dirichlet_laplacian_interval",
                          "lengths": [PI], "spin": 2}))
        with pytest.raises(ConfigError, match="unknown grid key"):
            parse_scenario(scenario_text(grid={"t_end": 1.0, "stop": 2.0}))
        with pytest.raises(ConfigError, match="unknown picard key"):
            parse_scenario(scenario_text(picard={"iterations": 3}))
        with pytest.raises(ConfigError, match="unknown forcing key"):
            parse_scenario(scenario_text(forcing={"kind": "zero", "amp": 1}))
        with pytest.raises(ConfigError, match="unknown nonlinearity key"):
            parse_scenario(scenario_text(
                nonlinearity={"kind": "sine", "c": 0.1}))

    def test_missing_required_key(self):
        doc = scenario_doc()
        del doc["u0"]
        with pytest.raises(ConfigError, match="missing required key 'u0'"):
            parse_scenario(json.dumps(doc))

    def test_violations_are_itemized(self):
        with pytest.raises(ConfigError) as err:
            parse_scenario(scenario_text(
                alpha=0.5, grid={"t_end": 1.0, "dt": 0.3}))
        msg = str(err.value)
        assert msg.startswith("invalid scenario:")
        assert "alpha must lie in (1, 2]" in msg
        assert "does not divide" in msg
        assert msg.count("\n  - ") == 2

    def test_classical_limit_needs_flag(self):
        with pytest.raises(ConfigError, match="--allow-limit"):
            parse_scenario(scenario_text(alpha=2.0))
        scn = parse_scenario(scenario_text(alpha=2.0), allow_limit=True)
        assert scn.alpha == 2.0

    def test_classical_limit_rejects_nonlinearity(self):
        text = scenario_text(alpha=2.0, nonlinearity={"kind": "zero"})
        with pytest.raises(ConfigError, match="alpha < 2"):
            parse_scenario(text, allow_limit=True)

    def test_mode_profile_names(self):
        scn = parse_scenario(scenario_text(u0="phi3", N_modes=4))
        assert scn.u0 == (0.0, 0.0, 1.0, 0.0)
        scn = parse_scenario(scenario_text(u0="zero", N_modes=2))
        assert scn.u0 == (0.0, 0.0)

    def test_mode_profile_out_of_range(self):
        with pytest.raises(ConfigError, match="exceeds N_modes"):
            parse_scenario(scenario_text(u0="phi9", N_modes=4))

    def test_unknown_profile_name(self):
        with pytest.raises(ConfigError, match="unknown profile name"):
            parse_scenario(scenario_text(u0="gaussian"))

    def test_coefficient_list_pads(self):
        scn = parse_scenario(scenario_text(u0=[1.0, -2.0], N_modes=5))
        assert scn.u0 == (1.0, -2.0, 0.0, 0.0, 0.0)

    def test_coefficient_list_too_long(self):
        with pytest.raises(ConfigError, match="exceed N_modes"):
            parse_scenario(scenario_text(u0=[1.0] * 9, N_modes=4))

    def test_coefficients_from_file(self, tmp_path):
        f = tmp_path / "u0.csv"
        f.write_text("n,c_n\n1,0.5\n3,-2.0\n")
        scn = parse_scenario(scenario_text(u0={"file": str(f)}, N_modes=4))
        assert scn.u0 == (0.5, 0.0, -2.0, 0.0)

    def test_coefficient_file_missing(self, tmp_path):
        bad = str(tmp_path / "nope.csv")
        with pytest.raises(ConfigError, match="file not found"):
            parse_scenario(scenario_text(u0={"file": bad}))

    def test_coefficient_file_mode_out_of_range(self, tmp_path):
        f = tmp_path / "u0.csv"
        f.write_text("n,c_n\n7,1.0\n")
        with pytest.raises(ConfigError, match="outside 1..4"):
            parse_scenario(scenario_text(u0={"file": str(f)}, N_modes=4))

    def test_forcing_and_nonlinearity_exclusive(self):
        with pytest.raises(ConfigError, match="not both"):
            parse_scenario(scenario_text(
                forcing={"kind": "zero"},
                nonlinearity={"kind": "zero"}))

    def test_step_must_divide_horizon(self):
        with pytest.raises(ConfigError, match="does not divide"):
            parse_scenario(scenario_text(grid={"t_end": 1.0, "dt": 0.3}))

    def test_mode_count_validation(self):
        with pytest.raises(ConfigError, match="positive integer"):
            parse_scenario(scenario_text(N_modes=0))
        with pytest.raises(ConfigError, match="positive integer"):
            parse_scenario(scenario_text(N_modes=True))

    @pytest.mark.parametrize("N", ["x", 0, 5000])
    def test_refused_mode_count_skips_the_checks_against_it(self, N,
                                                            tmp_path):
        # with N_modes refused there is no N to hold the coefficients,
        # the forcing table or the rule size to: only its own item shows
        table = [[1.0, 2.0], [3.0, 4.0]]
        csv = tmp_path / "u1.csv"
        csv.write_text("n,c_n\n20,1.0\n")
        for over in ({"u0": [1.0] * 10},
                     {"u0": "phi20", "u1": {"file": str(csv)}},
                     {"forcing": {"kind": "tabulated", "table": table}},
                     {"nonlinearity": {"kind": "power",
                                       "params": {"c": 1.0, "r": 2.0}}}):
            with pytest.raises(ConfigError) as err:
                parse_scenario(scenario_text(N_modes=N, **over))
            items = str(err.value).splitlines()[1:]
            assert len(items) == 1 and "N_modes" in items[0], items

    def test_forcing_profile_resolved(self):
        scn = parse_scenario(scenario_text(
            N_modes=3,
            forcing={"kind": "separable", "g": "phi2",
                     "h_name": "constant", "h_params": {"value": 2}}))
        assert scn.forcing["g"] == [0.0, 1.0, 0.0]
        assert scn.forcing["h_params"] == {"value": 2.0}

    def test_forcing_unknown_kind(self):
        with pytest.raises(ConfigError, match="forcing: unknown kind"):
            parse_scenario(scenario_text(forcing={"kind": "pulse"}))

    def test_nonlinearity_catalog_error_is_itemized(self):
        with pytest.raises(ConfigError, match="nonlinearity:"):
            parse_scenario(scenario_text(
                nonlinearity={"kind": "power", "params": {"r": 3.0}}))

    def test_picard_overrides_are_validated(self):
        with pytest.raises(ConfigError, match="picard:"):
            parse_scenario(scenario_text(picard={"tol": -1.0}))
        scn = parse_scenario(scenario_text(
            nonlinearity={"kind": "sine", "params": {"c": 0.1}},
            picard={"max_iter": 30, "window_init": 0.25}))
        assert scn.picard["max_iter"] == 30
        assert scn.picard["window_init"] == 0.25
        assert scn.picard["tol"] == 1e-10

    def test_integer_picard_settings_are_whole_numbers(self):
        sine = {"kind": "sine", "params": {"c": 0.1}}
        with pytest.raises(ConfigError) as exc:
            parse_scenario(scenario_text(nonlinearity=sine, picard={
                "max_iter": 7.9, "nonlinearity_quadrature": 40.5}))
        assert str(exc.value).count("\n  - ") == 2
        assert "picard.max_iter must be a whole number, got 7.9" \
            in str(exc.value)
        assert "picard.nonlinearity_quadrature must be a whole number, " \
            "got 40.5" in str(exc.value)
        scn = parse_scenario(scenario_text(nonlinearity=sine, picard={
            "max_iter": 50.0, "nonlinearity_quadrature": 40.0}))
        assert scn.picard["max_iter"] == 50
        assert scn.picard["nonlinearity_quadrature"] == 40
        assert all(type(scn.picard[k]) is int
                   for k in ("max_iter", "nonlinearity_quadrature"))

    def test_echo_round_trip_linear(self, tmp_path):
        f = tmp_path / "u0.csv"
        f.write_text("n,c_n\n1,0.5\n2,-0.25\n")
        scn = parse_scenario(scenario_text(
            N_modes=4,
            u0={"file": str(f)},
            u1="phi2",
            forcing={"kind": "separable", "g": [1, 0.5],
                     "h_name": "sinusoid",
                     "h_params": {"amplitude": 2, "omega": 3, "phase": 0}},
            grid={"t_end": 2, "dt": 0.02},
            output="results"))
        again = parse_scenario(json.dumps(scn.echo()))
        assert again == scn
        # echoed document stands alone: no reference to the input file
        assert "file" not in json.dumps(scn.echo())

    def test_echo_round_trip_semilinear(self):
        scn = parse_scenario(scenario_text(
            N_modes=2,
            u0=[0.5, -0.25],
            u1=[0, 0.3],
            nonlinearity={"kind": "power", "params": {"c": 1, "r": 3}},
            picard={"tol": 1e-11, "window_init": 0.5}))
        again = parse_scenario(json.dumps(scn.echo()))
        assert again == scn
        assert isinstance(again, Scenario)

    def test_echo_round_trip_classical_limit(self):
        scn = parse_scenario(scenario_text(alpha=2.0), allow_limit=True)
        again = parse_scenario(json.dumps(scn.echo()), allow_limit=True)
        assert again == scn


# Small versions of the linear-forced and picard-blowup benchmark scenarios.
MUTATION_BASE = {
    "linear": scenario_doc(
        N_modes=4, u0=[1.0, 0.5], u1=[0.2],
        forcing={"kind": "separable", "g": [1.0, 0.25], "h_name": "sinusoid",
                 "h_params": {"amplitude": 1.0, "omega": 3.0, "phase": 0.0}},
        grid={"t_end": 0.1, "dt": 0.05}),
    "semilinear": scenario_doc(
        N_modes=4, u0=[20.0, 0.1], u1="zero",
        nonlinearity={"kind": "power", "params": {"c": 1.0, "r": 3.0}},
        grid={"t_end": 0.01, "dt": 0.005}),
}
NUMERIC_FIELDS = (
    [(kind, path) for kind in MUTATION_BASE
     for path in ("alpha", "grid.t_end", "grid.dt", "operator.lengths",
                  "operator.lengths.0")]
    + [("linear", "forcing.h_params"),
       ("linear", "forcing.h_params.amplitude"),
       ("semilinear", "nonlinearity.params"),
       ("semilinear", "nonlinearity.params.c"),
       ("semilinear", "nonlinearity.params.r")]
    + [("semilinear", f"picard.{key}") for key in sorted(asdict(
        PicardConfig()))])
# mutations that leave a valid scenario: a unit interval, and null for the
# picard settings that default to unset
STILL_VALID = {("operator.lengths", "[1]"), ("picard.R_star", "null"),
               ("picard.nonlinearity_quadrature", "null")}


def run_cli(*argv, code=None):
    """A fresh interpreter running `mlwave argv...`, or the given code,
    that imports this package."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    cmd = ["-c", code] if code is not None else ["-m", "mlwave.cli", *argv]
    return subprocess.run([sys.executable, *cmd], env=env,
                          capture_output=True, text=True, timeout=120)


def mutated(doc, path, value):
    doc = json.loads(json.dumps(doc))
    *head, last = [int(k) if k.isdigit() else k for k in path.split(".")]
    node = doc
    for key in head:
        node = node[key] if isinstance(key, int) else node.setdefault(key, {})
    node[last] = value
    return doc


class TestMistypedFields:
    """A numeric scenario field holding anything but a number exits 1 with
    an itemized error, never with a traceback."""

    def solve(self, tmp_path, kind, doc):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(doc))
        return main(["solve", kind, "--config", str(path),
                     "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("value", ["x", None, [1], {}],
                             ids=["string", "null", "list", "object"])
    @pytest.mark.parametrize("kind, path", NUMERIC_FIELDS,
                             ids=[f"{k}-{p}" for k, p in NUMERIC_FIELDS])
    def test_non_number_exits_one(self, tmp_path, capsys, kind, path, value):
        rc = self.solve(tmp_path, kind,
                        mutated(MUTATION_BASE[kind], path, value))
        if (path, json.dumps(value)) in STILL_VALID:
            assert rc == 0
        else:
            assert rc == 1
            assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", sorted(MUTATION_BASE))
    def test_horizon_past_the_float_range_of_steps(self, tmp_path, capsys,
                                                   kind):
        doc = mutated(MUTATION_BASE[kind], "grid.t_end", 1e308)
        assert self.solve(tmp_path, kind, doc) == 1
        assert "does not divide" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", sorted(MUTATION_BASE))
    def test_grid_past_the_step_cap_exits_one(self, tmp_path, capsys, kind):
        # 1e300 / dt steps is a finite count that no array can hold
        doc = mutated(MUTATION_BASE[kind], "grid.t_end", 1e300)
        assert self.solve(tmp_path, kind, doc) == 1
        assert "exceeds the cap" in capsys.readouterr().err

    def test_rule_past_the_node_cap_exits_one(self, tmp_path, capsys):
        doc = mutated(MUTATION_BASE["semilinear"],
                      "picard.nonlinearity_quadrature", 1e308)
        assert self.solve(tmp_path, "semilinear", doc) == 1
        assert "rule nodes" in capsys.readouterr().err

    def test_step_cap_admits_its_own_value(self):
        base = MUTATION_BASE["semilinear"]
        dt = 0.5
        at = mutated(mutated(base, "grid.dt", dt), "grid.t_end",
                     dt * cli._MAX_STEPS)
        assert parse_scenario(json.dumps(at)).t_end == dt * cli._MAX_STEPS
        past = mutated(at, "grid.t_end", dt * (cli._MAX_STEPS + 1))
        with pytest.raises(ConfigError, match="steps exceeds the cap"):
            parse_scenario(json.dumps(past))

    @pytest.mark.parametrize("kind", sorted(MUTATION_BASE))
    def test_modes_past_the_cap_exit_one(self, tmp_path, capsys, kind):
        # 10**30 modes once ended in an OverflowError traceback
        doc = mutated(MUTATION_BASE[kind], "N_modes", 10 ** 30)
        assert self.solve(tmp_path, kind, doc) == 1
        assert "exceeds the cap of" in capsys.readouterr().err
        past = mutated(doc, "N_modes", cli._MAX_MODES + 1)
        with pytest.raises(ConfigError, match="N_modes exceeds the cap"):
            parse_scenario(json.dumps(past))

    @pytest.mark.parametrize("kind", sorted(MUTATION_BASE))
    def test_mode_cap_admits_its_own_value(self, tmp_path, kind):
        doc = mutated(MUTATION_BASE[kind], "N_modes", cli._MAX_MODES)
        assert self.solve(tmp_path, kind, doc) == 0

    def test_rule_cap_counts_every_axis(self, tmp_path, capsys):
        # the cap bounds the doubled rule's nodes over the whole square:
        # 10-node panels, 2 * panels per axis, squared
        panels = math.isqrt(cli._MAX_RULE_NODES) // 20
        assert (20 * panels) ** 2 <= cli._MAX_RULE_NODES \
            < (20 * (panels + 1)) ** 2
        box = mutated(mutated(MUTATION_BASE["semilinear"], "operator.kind",
                              "dirichlet_laplacian_box"),
                      "operator.lengths", [PI, PI])
        box = mutated(box, "u0", [1.0, 0.1])
        at = mutated(box, "picard.nonlinearity_quadrature", 10 * panels)
        assert self.solve(tmp_path, "semilinear", at) == 0
        past = mutated(at, "picard.nonlinearity_quadrature", 10 * panels + 1)
        assert self.solve(tmp_path, "semilinear", past) == 1
        assert "past the cap of" in capsys.readouterr().err
        # the default rule, max(4N, 40) nodes per axis, is capped too
        many = mutated(box, "N_modes", 3 * panels)
        with pytest.raises(ConfigError, match="past the cap"):
            parse_scenario(json.dumps(many))
        # in 1-D the same count of nodes per axis is far inside the cap
        parse_scenario(json.dumps(mutated(
            MUTATION_BASE["semilinear"], "picard.nonlinearity_quadrature",
            10 * panels + 1)))

    @pytest.mark.parametrize("value", ["1.5", True],
                             ids=["string", "boolean"])
    @pytest.mark.parametrize("path", ["u0.0", "u1.0", "forcing.g.1"])
    def test_coefficient_entry_not_a_number_exits_one(self, tmp_path, capsys,
                                                      path, value):
        doc = mutated(MUTATION_BASE["linear"], path, value)
        assert self.solve(tmp_path, "linear", doc) == 1
        assert "must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "n,c_n\n1,0.5\nnan,1.0\n", "n,c_n\ninf,1.0\n", "n,c_n\n1,nan\n",
        "n\n1\n2\n", "n,c_n,x\n1,0.5,2.0\n", "n,c_n\n1.5,1.0\n",
    ], ids=["nan-index", "inf-index", "nan-value", "one-column",
            "three-columns", "fractional-index"])
    def test_malformed_coefficient_csv_exits_one(self, tmp_path, capsys,
                                                 text):
        f = tmp_path / "u0.csv"
        f.write_text(text)
        doc = mutated(MUTATION_BASE["linear"], "u0", {"file": str(f)})
        assert self.solve(tmp_path, "linear", doc) == 1
        assert "invalid scenario" in capsys.readouterr().err

    @pytest.mark.parametrize("text, problem", [
        ("n,c_n\n1,0.5\n1,2.0\n", "mode index 1 repeats"),
        ("n,c_n\n", "no data rows"),
    ], ids=["repeated-index", "header-only"])
    def test_coefficient_csv_without_one_value_per_mode_exits_one(
            self, tmp_path, capsys, text, problem):
        f = tmp_path / "u0.csv"
        f.write_text(text)
        doc = mutated(MUTATION_BASE["linear"], "u0", {"file": str(f)})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.solve(tmp_path, "linear", doc) == 1
        err = capsys.readouterr().err
        assert "invalid scenario" in err and problem in err

    @pytest.mark.parametrize("forcing", [
        {"kind": "separable", "g": [1.0], "h_samples": ["a", "b", "c"]},
        {"kind": "separable", "g": [1.0], "h_samples": [0.0, True, 1.0]},
        {"kind": "tabulated", "table": [["a"] * 4] * 3},
        {"kind": "tabulated", "table": [[1.0] * 4, [1.0] * 2, [1.0] * 4]},
        {"kind": "tabulated", "table": [1.0, 2.0, 3.0]},
    ], ids=["string-samples", "boolean-sample", "string-table",
            "ragged-table", "flat-table"])
    def test_malformed_forcing_data_exits_one(self, tmp_path, capsys,
                                              forcing):
        doc = mutated(MUTATION_BASE["linear"], "forcing", forcing)
        assert self.solve(tmp_path, "linear", doc) == 1
        assert "invalid scenario" in capsys.readouterr().err

    @pytest.mark.parametrize("forcing", [
        {"kind": "separable", "g": [1.0], "h_samples": [0, 1.0, 2]},
        {"kind": "tabulated", "table": [[1, 0.0, 0.5, 0.0]] * 3},
    ], ids=["samples", "table"])
    def test_tabulated_forcing_data_solves(self, tmp_path, forcing):
        doc = mutated(MUTATION_BASE["linear"], "forcing", forcing)
        assert self.solve(tmp_path, "linear", doc) == 0

    @pytest.mark.parametrize("forcing, problem", [
        ({"kind": "separable", "g": [1.0], "h_name": "bogus"},
         "forcing: unknown time function 'bogus'"),
        ({"kind": "separable", "g": [1.0]},
         "forcing: separable forcing needs exactly one of a named time "
         "function or tabulated samples"),
        ({"kind": "separable", "g": [1.0], "h_name": "sinusoid",
          "h_params": {"amplitude": 1.0}},
         "forcing: time function 'sinusoid' needs parameter 'omega'"),
        ({"kind": "tabulated", "table": [[1.0, 0.0], [0.0, 1.0]]},
         "forcing: forcing table shape (2, 2) does not match (grid, modes) "
         "= (101, 4)"),
    ], ids=["unknown-time-function", "no-time-factor", "missing-parameter",
            "table-off-the-grid"])
    def test_forcing_the_solver_refuses_is_refused_at_parse(
            self, tmp_path, capsys, forcing, problem):
        # on a 101-node grid, beside a refused alpha: the itemized error
        # names both, and the solve exits 1 before it makes --out
        doc = mutated(mutated(MUTATION_BASE["linear"], "forcing", forcing),
                      "grid", {"t_end": 1.0, "dt": 0.01})
        doc["alpha"] = 0.5
        with pytest.raises(ConfigError) as err:
            parse_scenario(json.dumps(doc))
        msg = str(err.value)
        assert problem in msg and "alpha must lie in" in msg
        assert msg.count("\n  - ") == 2
        assert self.solve(tmp_path, "linear", doc) == 1
        assert problem in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_deeply_nested_scenario_is_not_valid_json(self, tmp_path,
                                                      capsys):
        # json.loads runs out of recursion on 100 000 nested arrays
        doc = json.dumps(MUTATION_BASE["linear"]).replace(
            '"u0": [1.0, 0.5]', '"u0": ' + "[" * 100_000 + "]" * 100_000)
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_scenario(doc)
        path = tmp_path / "scn.json"
        path.write_text(doc)
        assert main(["solve", "linear", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_huge_integer_is_not_a_number(self):
        with pytest.raises(ConfigError, match="alpha must be a finite"):
            parse_scenario(scenario_text().replace("1.5", "1" + "0" * 400))


# The non-numeric scenario fields of each kind: kinds, the time function's
# name, the initial-data forms, and whole objects.
FUZZ_FIELDS = {
    "linear": ("operator", "operator.kind", "forcing", "forcing.kind",
               "forcing.h_name", "forcing.h_params", "forcing.g", "u0",
               "u1", "grid"),
    "semilinear": ("operator", "operator.kind", "nonlinearity",
                   "nonlinearity.kind", "nonlinearity.params", "u0", "u1",
                   "grid", "picard"),
}
NAMES = (OPERATOR_KINDS + NONLINEARITY_KINDS + TIME_FUNCTIONS
         + ("separable", "tabulated", "phi0", "phi1", "phi4", "phi5", ""))
SMALL = st.one_of(st.none(), st.booleans(), st.integers(-2, 5),
                  st.floats(-1e3, 1e3), st.text(max_size=4),
                  st.sampled_from(NAMES))
JUNK = st.one_of(SMALL, st.lists(SMALL, max_size=3),
                 st.dictionaries(st.sampled_from(("kind", "file", "value")),
                                 SMALL, max_size=2))


@st.composite
def fuzzed_scenario(draw):
    """(kind, scenario) with up to three fields of distinct top-level
    objects replaced by arbitrary JSON."""
    kind = draw(st.sampled_from(sorted(FUZZ_FIELDS)))
    doc = MUTATION_BASE[kind]
    for path in draw(st.lists(st.sampled_from(FUZZ_FIELDS[kind]),
                              min_size=1, max_size=3,
                              unique_by=lambda p: p.split(".")[0])):
        doc = mutated(doc, path, draw(JUNK))
    return kind, doc


class TestFuzzedFields:
    @settings(max_examples=150, derandomize=True, database=None,
              deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=fuzzed_scenario())
    def test_solve_exits_with_a_documented_code(self, tmp_path, case):
        # a traceback fails the test; every outcome is an exit code
        kind, doc = case
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(doc))
        rc = main(["solve", kind, "--config", str(path),
                   "--out", str(tmp_path / "out")])
        assert rc in (0, 1, 2, 3)


class TestCsv:
    def test_bytes_are_those_of_one_format_per_row(self):
        # the table formatted whole, as one row at a time formats it,
        # nan, infinities, negative zero and subnormals included
        rng = np.random.default_rng(7)
        times = np.linspace(0.0, 1.0, 6)
        block = rng.standard_normal((6, 4)) * 10.0 ** rng.integers(
            -300, 300, (6, 4))
        block[1] = [np.nan, np.inf, -np.inf, -0.0]
        block[2] = [5e-324, -2.5e-310, 0.0, 1.0 / 3.0]
        cols = ["t", "a", "b", "c", "d"]
        line = ",".join(["%.17g"] * 5)
        want = "\n".join([",".join(cols)] + [
            line % tuple(row) for row in np.column_stack(
                [times, block]).tolist()]) + "\n"
        assert cli._csv(cols, [times, block]) == want
        assert ",nan,inf,-inf,-0\n" in want and "e-324," in want
        assert cli._csv(["t"], [np.zeros(0)]) == "t\n"


class TestSolveLinearCli:
    def config(self, tmp_path):
        return write_config(
            tmp_path,
            N_modes=3,
            u0=[1.0, 0.5],
            u1="phi2",
            forcing={"kind": "separable", "g": [2.0],
                     "h_name": "constant", "h_params": {"value": 1.0}})

    def test_writes_all_artifacts(self, tmp_path):
        cfg = self.config(tmp_path)
        out = tmp_path / "out"
        assert main(["solve", "linear", "--config", cfg,
                     "--out", str(out)]) == 0
        assert (out / "trace.csv").is_file()
        assert (out / "norms.csv").is_file()
        assert (out / "summary.json").is_file()

        header = (out / "trace.csv").read_text().splitlines()[0]
        assert header == ("t,u_c_1,u_c_2,u_c_3,dtu_c_1,dtu_c_2,dtu_c_3,"
                          "dalpha_c_1,dalpha_c_2,dalpha_c_3")
        nheader = (out / "norms.csv").read_text().splitlines()[0]
        assert nheader == "t,norm_Vgamma_u,norm_L2_dtu,norm_Vminusgamma_dalpha"

    def test_trace_matches_library_solution(self, tmp_path):
        cfg = self.config(tmp_path)
        out = tmp_path / "out"
        main(["solve", "linear", "--config", cfg, "--out", str(out)])

        op = make_operator(OperatorSpecConfig(
            kind="dirichlet_laplacian_interval", lengths=(PI,)))
        p = LinearProblem(
            op, 1.5,
            SpectralField(op, np.array([1.0, 0.5, 0.0]), 3),
            SpectralField(op, np.array([0.0, 1.0, 0.0]), 3),
            ForcingSpec(kind="separable",
                        g=SpectralField(op, np.array([2.0, 0.0, 0.0]), 3),
                        h_name="constant", h_params={"value": 1.0}))
        trace = solve_linear(p, np.linspace(0.0, 1.0, 101))

        rows = (out / "trace.csv").read_text().splitlines()[1:]
        assert len(rows) == 101
        last = [float(v) for v in rows[-1].split(",")]
        assert last[0] == 1.0
        # 17 significant digits round-trip doubles exactly
        assert last[1:4] == list(trace.u_coeffs[-1])
        assert last[4:7] == list(trace.dtu_coeffs[-1])
        assert last[7:10] == list(trace.dalpha_coeffs[-1])

    def test_summary_contents(self, tmp_path):
        cfg = self.config(tmp_path)
        out = tmp_path / "out"
        main(["solve", "linear", "--config", cfg, "--out", str(out)])
        doc = json.loads((out / "summary.json").read_text())
        assert doc["status"] == "completed"
        assert doc["final_time"] == 1.0
        assert set(doc["final_norms"]) == {
            "u_Vgamma", "dtu_L2", "dalpha_Vminusgamma"}
        assert isinstance(doc["warnings"], list)
        assert "generated_at" in doc["metadata"]
        # the echoed scenario re-parses to the scenario that actually ran
        scn = parse_scenario(json.dumps(doc["scenario"]))
        assert scn == parse_scenario(open(cfg).read())

    def test_timestamp_confined_to_metadata(self, tmp_path):
        cfg = self.config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["solve", "linear", "--config", cfg, "--out", str(a)])
        main(["solve", "linear", "--config", cfg, "--out", str(b)])
        da = json.loads((a / "summary.json").read_text())
        db = json.loads((b / "summary.json").read_text())
        da.pop("metadata")
        db.pop("metadata")
        assert da == db

    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg = self.config(tmp_path)
        blobs = []
        for name in ("r1", "r2", "r3"):
            out = tmp_path / name
            assert main(["solve", "linear", "--config", cfg,
                         "--out", str(out)]) == 0
            blobs.append(((out / "trace.csv").read_bytes(),
                          (out / "norms.csv").read_bytes()))
        assert blobs[0] == blobs[1] == blobs[2]

    def test_scenario_output_dir_is_fallback(self, tmp_path):
        dest = tmp_path / "from-scenario"
        cfg = write_config(tmp_path, output=str(dest))
        assert main(["solve", "linear", "--config", cfg]) == 0
        assert (dest / "trace.csv").is_file()

    def test_no_output_dir_anywhere(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["solve", "linear", "--config", cfg]) == 1
        assert "no output directory" in capsys.readouterr().err

    def test_mode_mismatch(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        rc = main(["solve", "semilinear", "--config", cfg,
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "solve linear" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["solve", "linear", "--config",
                   str(tmp_path / "ghost.json"), "--out", str(tmp_path)])
        assert rc == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_classical_limit_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path, alpha=2.0)
        out = str(tmp_path / "o")
        assert main(["solve", "linear", "--config", cfg, "--out", out]) == 1
        assert "--allow-limit" in capsys.readouterr().err
        assert main(["solve", "linear", "--config", cfg, "--out", out,
                     "--allow-limit"]) == 0

    def test_classical_limit_forced_far_modes(self, tmp_path):
        # the forcing kernel needs E_{2,4}(-lam t^2) at lam t^2 up to 1600,
        # beyond the range of the asymptotic series for integer beta
        g = [1.0 / n for n in range(1, 17)]
        cfg = write_config(
            tmp_path, alpha=2.0, N_modes=16,
            forcing={"kind": "separable", "g": g,
                     "h_name": "constant", "h_params": {"value": 1.0}},
            grid={"t_end": 2.5, "dt": 0.05})
        assert main(["solve", "linear", "--config", cfg,
                     "--out", str(tmp_path / "o"), "--allow-limit"]) == 0


class TestSolveSemilinearCli:
    def test_zero_kind_matches_linear_byte_for_byte(self, tmp_path):
        common = dict(N_modes=2, u0=[0.5, -0.25], u1=[0.0, 0.3])
        lin = write_config(tmp_path, "lin.json", **common)
        semi = write_config(tmp_path, "semi.json",
                            nonlinearity={"kind": "zero"}, **common)
        lo, so = tmp_path / "lin-out", tmp_path / "semi-out"
        assert main(["solve", "linear", "--config", lin,
                     "--out", str(lo)]) == 0
        assert main(["solve", "semilinear", "--config", semi,
                     "--out", str(so)]) == 0
        assert (lo / "trace.csv").read_bytes() == \
            (so / "trace.csv").read_bytes()
        assert (lo / "norms.csv").read_bytes() == \
            (so / "norms.csv").read_bytes()

    def test_outcome_document(self, tmp_path):
        cfg = write_config(
            tmp_path, N_modes=2, u0=[0.5, -0.25], u1=[0.0, 0.3],
            nonlinearity={"kind": "sine", "params": {"c": 0.2}})
        out = tmp_path / "out"
        assert main(["solve", "semilinear", "--config", cfg,
                     "--out", str(out)]) == 0
        doc = json.loads((out / "outcome.json").read_text())
        assert doc["status"] == "completed"
        assert doc["T_end"] == 1.0
        assert doc["T_est"] is None
        assert len(doc["windows"]) >= 1
        for w in doc["windows"]:
            assert set(w) == {"start", "end", "iterations",
                              "contraction_estimate"}
        assert doc["strong_check"]["verdict"] == "strong"
        scn = parse_scenario(json.dumps(doc["scenario"]))
        assert scn == parse_scenario(open(cfg).read())

    def test_outcome_reports_the_run_aliasing(self, tmp_path):
        smooth = write_config(
            tmp_path, "smooth.json", N_modes=2, u0=[0.1, 0.05],
            nonlinearity={"kind": "sine", "params": {"c": 0.2}},
            grid={"t_end": 0.1, "dt": 0.01})
        rough = write_config(
            tmp_path, "rough.json", N_modes=4, u0=[6.0, 0.0, 0.0, 4.0],
            nonlinearity={"kind": "sine", "params": {"c": 0.2}},
            grid={"t_end": 0.1, "dt": 0.01},
            picard={"nonlinearity_quadrature": 16})
        docs = {}
        for name, cfg in (("smooth", smooth), ("rough", rough)):
            out = tmp_path / name
            assert main(["solve", "semilinear", "--config", cfg,
                         "--out", str(out)]) == 0
            docs[name] = json.loads((out / "outcome.json").read_text())
        assert docs["smooth"]["aliasing_est"] < 1e-8
        assert docs["smooth"]["warnings"] == []
        assert docs["rough"]["aliasing_est"] > 1e-8
        assert len(docs["rough"]["warnings"]) == 1
        assert docs["rough"]["warnings"][0].startswith(
            "quadrature under-resolved")

    def test_blowup_still_exits_zero(self, tmp_path):
        cfg = write_config(
            tmp_path, N_modes=1, u0=[20.0],
            nonlinearity={"kind": "power", "params": {"c": 1.0, "r": 3.0}},
            grid={"t_end": 0.1, "dt": 0.001},
            picard={"blowup_threshold": 1e6})
        out = tmp_path / "out"
        assert main(["solve", "semilinear", "--config", cfg,
                     "--out", str(out)]) == 0
        doc = json.loads((out / "outcome.json").read_text())
        assert doc["status"] == "maximal_time_detected"
        assert 0.0 < doc["T_est"] < 0.1
        rows = (out / "trace.csv").read_text().splitlines()[1:]
        assert float(rows[-1].split(",")[0]) == doc["T_est"]

    def test_power_past_the_double_range_completes(self, tmp_path):
        # r = 400 on the interval, where r* is unbounded: the window
        # heuristic's envelope R^r overflows the double range and reads
        # as inf, so the run starts from one-step windows
        cfg = write_config(
            tmp_path,
            nonlinearity={"kind": "power", "params": {"c": 1.0, "r": 400}},
            grid={"t_end": 0.1, "dt": 0.01})
        out = tmp_path / "out"
        assert main(["solve", "semilinear", "--config", cfg,
                     "--out", str(out)]) == 0
        doc = json.loads((out / "outcome.json").read_text())
        assert doc["status"] == "completed"
        assert doc["windows"][0]["end"] == pytest.approx(0.01)

    def test_repeat_runs_byte_identical(self, tmp_path, monkeypatch):
        # a 2-D power run shaped like the box-power benchmark, whose grid
        # values come from BLAS: three runs in process, then one in a
        # fresh interpreter at each of one and two BLAS threads
        n = np.arange(1, 17)
        rng = np.random.default_rng(2)
        cfg = write_config(
            tmp_path, alpha=1.25, N_modes=16,
            operator={"kind": "dirichlet_laplacian_box",
                      "lengths": [PI, PI]},
            u0=(0.2 * rng.uniform(-1.0, 1.0, 16) / n ** 2).tolist(),
            u1=(0.1 * rng.uniform(-1.0, 1.0, 16) / n ** 2).tolist(),
            nonlinearity={"kind": "power", "params": {"c": 1.0, "r": 2.0}},
            grid={"t_end": 0.5, "dt": 0.01})
        outs = [tmp_path / name for name in ("r1", "r2", "r3")]
        for out in outs:
            assert main(["solve", "semilinear", "--config", cfg,
                         "--out", str(out)]) == 0
        for threads in ("1", "2"):
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
            outs.append(tmp_path / f"blas{threads}")
            proc = run_cli("solve", "semilinear", "--config", cfg,
                           "--out", str(outs[-1]))
            assert proc.returncode == 0, proc.stderr
        doc = json.loads((outs[0] / "outcome.json").read_text())
        assert doc["status"] == "completed" and len(doc["windows"]) > 1
        blobs = [((out / "trace.csv").read_bytes(),
                  (out / "norms.csv").read_bytes()) for out in outs]
        assert all(blob == blobs[0] for blob in blobs[1:])

    def test_inadmissible_growth_is_config_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            operator={"kind": "dirichlet_laplacian_box",
                      "lengths": [1.0, 1.0, 1.0]},
            u0=[0.1],
            nonlinearity={"kind": "power", "params": {"c": 1.0, "r": 9.5}})
        rc = main(["solve", "semilinear", "--config", cfg,
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "r*" in capsys.readouterr().err
        # the refused solve removes the empty directory it made, and
        # keeps one that was there before it
        assert not (tmp_path / "o").exists()
        (tmp_path / "kept").mkdir()
        assert main(["solve", "semilinear", "--config", cfg,
                     "--out", str(tmp_path / "kept")]) == 1
        assert (tmp_path / "kept").is_dir()
        # every directory it made goes, leaf first, and none it found
        assert main(["solve", "semilinear", "--config", cfg,
                     "--out", str(tmp_path / "a" / "b")]) == 1
        assert not (tmp_path / "a").exists()
        assert main(["solve", "semilinear", "--config", cfg,
                     "--out", str(tmp_path / "kept" / "c" / "d")]) == 1
        assert (tmp_path / "kept").is_dir()
        assert not (tmp_path / "kept" / "c").exists()


class TestMlCli:
    def test_eval_prints_full_precision(self, capsys):
        assert main(["ml", "eval", "--alpha", "1.5", "--beta", "1.0",
                     "--x", "-2.0"]) == 0
        printed = capsys.readouterr().out.strip()
        expected = ml_e(MLQuery(alpha=1.5, beta=1.0, x=-2.0),
                        DEFAULT_PRECISION)
        assert float(printed) == expected
        assert len(printed.replace("-", "").replace(".", "")
                   .replace("e", " ").split()[0]) >= 15

    def test_eval_with_tolerance(self, capsys):
        assert main(["ml", "eval", "--alpha", "1.2", "--beta", "1.2",
                     "--x", "-5.0", "--tol", "1e-8"]) == 0
        assert capsys.readouterr().out.strip()

    def test_eval_missing_argument_is_usage_error(self, capsys):
        assert main(["ml", "eval", "--alpha", "1.5", "--beta", "1.0"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_eval_near_two_falls_through_to_branch_cut(self, capsys):
        # every asymptotic term with k < ~250 sits near a Gamma pole here,
        # and the series leaves the double range before it could certify
        assert main(["ml", "eval", "--alpha", "1.999", "--beta", "1",
                     "--x", "-100"]) == 0
        got = float(capsys.readouterr().out.strip())
        want = float(taylor_ref(1.999, 1.0, -100.0))
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_eval_at_small_alpha_exits_without_traceback(self):
        # y^(1/alpha) leaves the double range at alpha = 0.0033
        proc = run_cli("ml", "eval", "--alpha", "0.0033", "--beta",
                       "-0.6174", "--x", "-8345")
        assert proc.returncode in (0, 2)
        assert "Traceback" not in proc.stderr

    def test_eval_past_the_power_range_exits_without_traceback(self):
        # a residue amplitude r^(1 - beta), or x^(1 - k) of a closed form,
        # overflows a float on its own: a value (0) or a refusal (2)
        for alpha, beta, x in (("1.5", "-62", "-1e9"), ("1", "-200.5", "-1e3"),
                               ("2", "-300.5", "-1e6"), ("1", "-200", "-1e3")):
            proc = run_cli("ml", "eval", "--alpha", alpha, f"--beta={beta}",
                           f"--x={x}")
            assert proc.returncode in (0, 2)
            assert "Traceback" not in proc.stderr

    def test_eval_series_term_past_the_double_range_exits_two(self):
        # kappa is below the overflow check, but one series term is not
        proc = run_cli("ml", "eval", "--alpha", "0.7204604879566386",
                       "--beta=-165", "--x=90.92926068034703")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr

    def test_eval_overflow_is_numeric_failure(self, capsys):
        rc = main(["ml", "eval", "--alpha", "1.5", "--beta", "1.0",
                   "--x", "20000"])
        assert rc == 2
        assert "numeric failure" in capsys.readouterr().err

    def test_verify_passes(self, capsys):
        assert main(["ml", "verify"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out


class TestCriticalityCli:
    def test_plain_embedding_number(self, capsys):
        assert main(["criticality", "--qa", "3", "--alpha", "1.5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["case"] == "I"
        assert doc["alpha0"] == pytest.approx(4.0 / 3.0)
        assert doc["r_star"] == 9.0
        assert doc["subcritical"] is False
        assert doc["theta_A"] == 0.75

    def test_operator_json(self, capsys):
        op = json.dumps({"kind": "dirichlet_laplacian_interval",
                         "lengths": [PI]})
        assert main(["criticality", "--operator", op,
                     "--alpha", "1.5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["q_A"] == "inf"
        assert doc["r_star"] == "unbounded"
        assert doc["subcritical"] is True
        assert doc["supercritical_range_empty"] is True

    @pytest.mark.parametrize("op", ['{"kind": "dirichlet_laplacian_interval"'
                                    ', "lengths": ["x"]}', "{nope"])
    def test_bad_operator_json_exits_one(self, capsys, op):
        assert main(["criticality", "--operator", op,
                     "--alpha", "1.5"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_deeply_nested_operator_json_exits_one(self, capsys):
        # 100 000 nested arrays are not valid JSON here; 900 nested
        # fractional powers parse, and the entry is refused, not hashed
        assert main(["criticality", "--operator",
                     "[" * 100_000 + "]" * 100_000, "--alpha", "1.5"]) == 1
        assert "--operator is not valid JSON" in capsys.readouterr().err
        op = ('{"kind": "spectral_fractional_power", "power": 0.5, "base": '
              * 900 + '{"kind": "dirichlet_laplacian_interval", "lengths": '
              '[1.0]}' + "}" * 900)
        assert main(["criticality", "--operator", op, "--alpha", "1.5"]) == 1
        assert "non-fractional" in capsys.readouterr().err

    def test_box_operator_json(self, capsys):
        op = json.dumps({"kind": "dirichlet_laplacian_box",
                         "lengths": [1.0, 1.0, 1.0]})
        assert main(["criticality", "--operator", op,
                     "--alpha", "1.5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["q_A"] == 3.0
        assert doc["r_star"] == 9.0

    def test_requires_exactly_one_subject(self, capsys):
        assert main(["criticality", "--alpha", "1.5"]) == 1
        op = json.dumps({"kind": "dirichlet_laplacian_interval",
                         "lengths": [PI]})
        assert main(["criticality", "--qa", "3", "--operator", op,
                     "--alpha", "1.5"]) == 1

    def test_table_rows(self, capsys):
        assert main(["criticality", "--qa", "3", "--alpha", "1.5",
                     "--table"]) == 0
        out = capsys.readouterr().out
        assert "kind,delta,d,q_A,alpha0" in out
        assert "dirichlet_laplacian,0,1,inf,2" in out
        assert "dirichlet_laplacian,0,3,3,1.3333333333333333" in out
        assert "dirichlet_laplacian,0,4,2,none" in out
        assert "wentzell,1,3,3,1.3333333333333333" in out
        assert "dirichlet_to_neumann,0,3,2,none" in out

    @pytest.mark.parametrize("bad, error", [
        (["--s", "2"], "fractional power needs s in (0, 1)"),
        (["--q", "nan"], "q must lie in (1, inf)")], ids=["s", "q"])
    def test_refused_table_prints_nothing(self, capsys, bad, error):
        assert main(["criticality", "--alpha", "1.5", "--qa", "inf",
                     "--table", *bad]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert error in err


class TestVerifyCli:
    @pytest.mark.parametrize("suite", ["ml", "linear", "semilinear",
                                       "rates", "convergence"])
    def test_suite_passes_and_writes_report(self, suite, tmp_path, capsys):
        assert main(["verify", "--suite", suite,
                     "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["suite"] == suite
        assert doc["passed"] is True
        assert len(doc["checks"]) >= 3
        for check in doc["checks"]:
            assert set(check) == {"name", "passed", "detail"}
            assert check["passed"] is True
        assert "FAIL" not in capsys.readouterr().out

    def test_unknown_suite_is_usage_error(self, capsys):
        assert main(["verify", "--suite", "everything"]) == 1
        assert "usage" in capsys.readouterr().err


class TestConvergenceCli:
    def test_homogeneous_is_exact(self, tmp_path, capsys):
        cfg = write_config(tmp_path, N_modes=2, u0=[1.0, 0.5],
                           grid={"t_end": 0.5, "dt": 0.005})
        out = tmp_path / "rep"
        assert main(["convergence", "--config", cfg,
                     "--out", str(out)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dts"] == [0.005, 0.0025, 0.00125]
        assert doc["orders"] == ["exact"]
        saved = json.loads((out / "convergence.json").read_text())
        assert saved["orders"] == ["exact"]
        assert "scenario" in saved

    def test_forced_order_near_two(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, N_modes=2, u0=[0.5, -0.25], u1=[0.0, 0.3],
            forcing={"kind": "separable", "g": [1.0, 0.5],
                     "h_name": "sinusoid",
                     "h_params": {"amplitude": 2.0, "omega": 3.0}},
            grid={"t_end": 1.0, "dt": 0.004})
        assert main(["convergence", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(o >= 1.8 for o in doc["orders"])

    def test_blowup_levels_give_no_order(self, tmp_path, capsys):
        # each level stops at its own T_est, so their last states lie at
        # different times: exit 1 with every level's dt, status and T_est,
        # and no order printed or written
        cfg = write_config(
            tmp_path, N_modes=2, u0=[20.0, 0.1], u1="zero",
            nonlinearity={"kind": "power", "params": {"c": 1.0, "r": 3.0}},
            grid={"t_end": 0.04, "dt": 0.001})
        out = tmp_path / "rep"
        assert main(["convergence", "--config", cfg,
                     "--out", str(out)]) == 1
        cap = capsys.readouterr()
        assert cap.out == ""
        assert "final states are at different times" in cap.err
        assert cap.err.count("maximal_time_detected") == 3
        for dt, t_est in (("0.001", "0.033"), ("0.0005", "0.034"),
                          ("0.00025", "0.0345")):
            assert (f"  - dt={dt}: maximal_time_detected, T_est={t_est}\n"
                    in cap.err)
        assert not (out / "convergence.json").exists()
        assert not out.exists()

    def test_levels_past_the_step_cap_exit_one(self, tmp_path, capsys,
                                              monkeypatch):
        # the default grid has 100 steps: 14 levels end at 100 * 2^13 =
        # 819 200 steps, 15 would run 1 638 400; nothing is solved here
        dts = []

        def study(runner, levels_dts):
            dts.append(levels_dts)
            return {"dts": levels_dts, "diffs": [], "orders": []}

        monkeypatch.setattr(cli, "self_convergence", study)
        monkeypatch.setattr(cli, "solve_linear",
                            lambda *a, **k: pytest.fail("solved"))
        cfg = write_config(tmp_path)
        for levels in (15, 10 ** 6):
            assert main(["convergence", "--config", cfg,
                         "--levels", str(levels)]) == 1
            assert "at most 14 levels" in capsys.readouterr().err
        assert main(["convergence", "--config", cfg, "--levels", "14"]) == 0
        assert dts == [[0.01 / 2 ** k for k in range(14)]]

    def test_too_few_levels(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["convergence", "--config", cfg, "--levels", "2"]) == 1
        assert "at least 3" in capsys.readouterr().err


class TestOutputPathErrors:
    """An output path that names a file exits 1 before any work, with an
    error line and no traceback."""

    @pytest.mark.parametrize("kind", sorted(MUTATION_BASE))
    def test_solve(self, tmp_path, capsys, kind):
        cfg = tmp_path / "scn.json"
        cfg.write_text(json.dumps(MUTATION_BASE[kind]))
        (tmp_path / "afile").write_text("")
        assert main(["solve", kind, "--config", str(cfg),
                     "--out", str(tmp_path / "afile")]) == 1
        assert "cannot create output directory" in capsys.readouterr().err

    def test_verify(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(cli._SUITES, "ml", lambda: pytest.fail("ran"))
        (tmp_path / "afile").write_text("")
        assert main(["verify", "--suite", "ml",
                     "--out", str(tmp_path / "afile" / "x")]) == 1
        assert "cannot create output directory" in capsys.readouterr().err

    def test_convergence(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "solve_linear",
                            lambda *a, **k: pytest.fail("solved"))
        (tmp_path / "afile").write_text("")
        assert main(["convergence", "--config", write_config(tmp_path),
                     "--out", str(tmp_path / "afile")]) == 1
        assert "cannot create output directory" in capsys.readouterr().err

    def test_unwritable_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot write"):
            cli._write_atomic(str(tmp_path / "nodir" / "x.csv"), "x\n")


class TestArtifactFiles:
    """Artifacts are made as open() makes a file, whatever was there
    before, and a failed write leaves nothing behind."""

    ARTIFACTS = {"linear": ("summary.json", "trace.csv", "norms.csv"),
                 "semilinear": ("outcome.json", "trace.csv", "norms.csv")}

    @pytest.mark.parametrize("umask", [0o022, 0o027, 0o077])
    @pytest.mark.parametrize("kind", ["linear", "semilinear"])
    def test_modes_honour_the_umask(self, tmp_path, kind, umask):
        cfg = tmp_path / "scn.json"
        cfg.write_text(json.dumps(MUTATION_BASE[kind]))
        out = tmp_path / "out"
        old = os.umask(umask)
        try:
            for rerun in (False, True):
                if rerun:
                    # a rerun replaces files of any mode by files of the
                    # umask's
                    for name in self.ARTIFACTS[kind]:
                        (out / name).chmod(0o600 if umask == 0o022
                                           else 0o644)
                assert main(["solve", kind, "--config", str(cfg),
                             "--out", str(out)]) == 0
                for name in self.ARTIFACTS[kind]:
                    mode = (out / name).stat().st_mode & 0o777
                    assert mode == 0o666 & ~umask, name
        finally:
            os.umask(old)
        assert sorted(os.listdir(out)) == sorted(self.ARTIFACTS[kind])

    def test_bytes_are_the_text_written(self, tmp_path):
        text = cli._csv(["t", "u"], [np.linspace(0.0, 1.0, 7),
                                     np.exp(np.arange(7.0))])
        cli._write_atomic(str(tmp_path / "a.csv"), text)
        (tmp_path / "b.csv").write_text(text)
        assert (tmp_path / "a.csv").read_bytes() == \
            (tmp_path / "b.csv").read_bytes() == text.encode()

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        target = tmp_path / "x.csv"
        target.write_text("old\n")
        # the text cannot be encoded: the write itself fails
        with pytest.raises(UnicodeEncodeError):
            cli._write_atomic(str(target), "\ud800\n")
        assert os.listdir(tmp_path) == ["x.csv"]

        def refuse(src, dst):
            raise OSError("refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(ConfigError, match="cannot write .*refused"):
            cli._write_atomic(str(target), "new\n")
        assert os.listdir(tmp_path) == ["x.csv"]
        assert target.read_text() == "old\n"


class TestDispatch:
    def test_unknown_subcommand_prints_usage(self, capsys):
        assert main(["frobnicate"]) == 1
        err = capsys.readouterr().err
        assert "usage" in err
        assert "frobnicate" in err

    def test_no_arguments_prints_usage(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_parser_survives_a_solve(self, tmp_path, capsys):
        # one parser serves every main call in a process
        cfg = write_config(tmp_path, N_modes=2, u0=[1.0])
        assert main(["solve", "linear", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0
        assert main(["ml", "eval", "--alpha", "1.5"]) == 1
        assert "usage: mlwave ml eval" in capsys.readouterr().err
        assert cli._build_parser() is cli._build_parser()

    def test_import_leaves_out_scipy_integrate(self):
        proc = run_cli(code="import sys, mlwave.cli; "
                            "print('scipy.integrate' in sys.modules)")
        assert proc.stdout.strip() == "False"

    def test_runtime_loads_no_scipy(self, tmp_path):
        # the Gamma values come from mlwave._gamma, so neither the import,
        # an evaluation nor a solve of either kind needs scipy
        lin = write_config(tmp_path, "lin.json", N_modes=2,
                           grid={"t_end": 0.2, "dt": 0.05})
        semi = write_config(tmp_path, "semi.json", N_modes=2, u1=[0.0, 0.3],
                            nonlinearity={"kind": "sine",
                                          "params": {"c": 0.2}},
                            grid={"t_end": 0.2, "dt": 0.05})
        code = (
            "import contextlib, io, sys\n"
            "import mlwave.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rcs = [mlwave.cli.main(a) for a in (\n"
            "        ['ml', 'eval', '--alpha', '1.5', '--beta', '1.5',\n"
            "         '--x', '-7.0'],\n"
            f"        ['solve', 'linear', '--config', {lin!r},\n"
            f"         '--out', {str(tmp_path / 'lin')!r}],\n"
            f"        ['solve', 'semilinear', '--config', {semi!r},\n"
            f"         '--out', {str(tmp_path / 'semi')!r}])]\n"
            "print(rcs, sorted(m for m in sys.modules\n"
            "                  if m.split('.')[0] == 'scipy'))\n")
        proc = run_cli(code=code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[0, 0, 0] []"

    def test_console_script_is_wired(self):
        # The wiring is read from the repo's own pyproject.toml, so the check
        # holds without installing the package.
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10
            tomllib = pytest.importorskip("tomli")
        import mlwave.cli

        root = Path(__file__).resolve().parents[1]
        with open(root / "pyproject.toml", "rb") as fh:
            pyproject = tomllib.load(fh)
        target = pyproject["project"]["scripts"]["mlwave"]
        assert target == "mlwave.cli:main"

        ep = EntryPoint(name="mlwave", value=target, group="console_scripts")
        assert ep.load() is mlwave.cli.main

        # The declared script points into the package pyproject ships.
        (where,) = pyproject["tool"]["setuptools"]["packages"]["find"]["where"]
        package_dir = Path(mlwave.__file__).resolve().parent
        assert package_dir.is_relative_to((root / where).resolve())

        # An installed distribution must agree, so a stale install is caught.
        try:
            dist = distribution("mlwave")
        except PackageNotFoundError:
            return
        installed = [e.value for e in dist.entry_points
                     if e.group == "console_scripts" and e.name == "mlwave"]
        assert installed == [target]
