"""Command-line front end: scenario files in, CSV/JSON artifacts out.

Scenario documents are JSON.  Unknown keys are hard errors, every
defaulted field is echoed back into the result files, and all writes go
through a temp-file rename so partial output never lands under a final
name.  Exit codes: 0 success, 1 domain/config error, 2 numeric failure,
3 verification-suite failure.
"""

import argparse
import contextlib
import datetime
import functools
import json
import math
import os
import re
import sys
import warnings
from dataclasses import asdict, dataclass, replace

import numpy as np

from .criticality import Unbounded, classify, exponent_table
from .diagnostics import discrete_caputo, rate_fit, self_convergence
from .errors import AccuracyError, ConfigError, MLWaveError, NumericFailure
from .linear_solver import (ForcingSpec, LinearProblem, homogeneous_state,
                            solve_linear)
from .mittag_leffler import (DEFAULT_PRECISION, MLPrecision, MLQuery, _ml,
                             ml_bound_probe, ml_e, ml_identity_residuals)
from .semilinear_solver import (NonlinearitySpec, PicardConfig,
                                SemilinearProblem, run,
                                strong_solution_check)
from .spectral_operator import (OperatorSpecConfig, SpectralField,
                                _doubled_rule_nodes, make_operator)

__all__ = ["Scenario", "parse_scenario", "main"]

_TOP_KEYS = {"alpha", "operator", "N_modes", "u0", "u1", "forcing",
             "nonlinearity", "grid", "picard", "output"}
_OPERATOR_KEYS = {"kind", "lengths", "shift", "power", "base", "q"}
_GRID_KEYS = {"t_end", "dt"}
_FORCING_KEYS = {"kind", "g", "h_name", "h_params", "h_samples", "table"}
_NONLINEARITY_KEYS = {"kind", "params"}
_PICARD_KEYS = set(asdict(PicardConfig()))
_PICARD_INTS = {"max_iter", "nonlinearity_quadrature"}
_LIST_PARAMS = {"s", "values", "coeffs"}    # tabulated catalog parameters
# Caps on the grid's steps, far above the longest horizons run (5e4
# steps), on the nodes over the whole box of the doubled collocation
# rule the aliasing estimate builds, 32 MB of doubles (a 16-mode square
# at its default rule needs 19600), and on the modes, far above the 16
# of the benchmark scenarios (a semilinear interval solve at the cap
# peaks near 160 MB, at 4096 modes near 1.1 GB).  A larger value is refused
# here instead of failing in numpy's allocation.
_MAX_STEPS = 10 ** 6
_MAX_RULE_NODES = 1 << 22
_MAX_MODES = 1024


# ------------------------------------------------------------- scenario

@dataclass(frozen=True)
class Scenario:
    """Fully resolved scenario: every default applied, every file read.

    u0/u1 (and a separable forcing profile) are stored as plain
    coefficient tuples, so re-parsing the echo of a scenario yields an
    equal Scenario without touching the original input files.
    """

    alpha: float
    operator: OperatorSpecConfig
    N_modes: int
    u0: tuple
    u1: tuple
    kind: str                      # "linear" | "semilinear"
    forcing: dict | None
    nonlinearity: dict | None
    t_end: float
    dt: float
    picard: dict
    output: str | None

    def echo(self) -> dict:
        doc = {
            "alpha": self.alpha,
            "operator": _operator_to_dict(self.operator),
            "N_modes": self.N_modes,
            "u0": list(self.u0),
            "u1": list(self.u1),
            "grid": {"t_end": self.t_end, "dt": self.dt},
            "picard": dict(self.picard),
            "output": self.output,
        }
        if self.forcing is not None:
            doc["forcing"] = self.forcing
        if self.nonlinearity is not None:
            doc["nonlinearity"] = self.nonlinearity
        return doc


def _check_keys(doc, allowed, where):
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError(
            f"unknown {where} key(s) {unknown}; allowed: {sorted(allowed)}")


def _number(value, label, problems):
    """value as a finite float, or None after adding to problems: JSON
    strings, null, lists, objects, booleans and numbers past the float
    range are not numbers."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            x = math.inf
        if math.isfinite(x):
            return x
    problems.append(f"{label} must be a finite number, got {value!r}")
    return None


def _numbers(value, label, problems):
    """A list of finite numbers as floats, or None after adding to
    problems."""
    if not isinstance(value, list):
        problems.append(f"{label} must be a list of numbers, got {value!r}")
        return None
    vals = [_number(v, f"{label}[{i}]", problems) for i, v in enumerate(value)]
    return None if None in vals else vals


def _params(value, label, problems):
    """A catalog parameter object: a list of numbers under the tabulated
    keys, a number under every other; None after adding to problems."""
    if not isinstance(value, dict):
        problems.append(f"{label} must be an object, got {value!r}")
        return None
    before = len(problems)
    out = {key: (_numbers if key in _LIST_PARAMS else _number)(
        v, f"{label}.{key}", problems) for key, v in value.items()}
    return out if len(problems) == before else None


def _operator_from_dict(doc, problems):
    """The operator entry, or None after adding to problems."""
    if not isinstance(doc, dict):
        raise ConfigError("operator must be an object")
    _check_keys(doc, _OPERATOR_KEYS, "operator")
    if "kind" not in doc:
        raise ConfigError("operator needs a kind")
    before = len(problems)
    lengths = _numbers(doc.get("lengths", []), "operator.lengths", problems)
    shift = _number(doc.get("shift", 0.0), "operator.shift", problems)
    power = _number(doc.get("power", 0.0), "operator.power", problems)
    q = _number(doc.get("q", 4.0), "operator.q", problems)
    base = doc.get("base")
    if base is not None:
        base = _operator_from_dict(base, problems)
    if len(problems) > before:
        return None
    return OperatorSpecConfig(kind=doc["kind"], lengths=tuple(lengths),
                              shift=shift, power=power, base=base, q=q)


def _operator_to_dict(cfg: OperatorSpecConfig) -> dict:
    return {
        "kind": cfg.kind,
        "lengths": list(cfg.lengths),
        "shift": cfg.shift,
        "power": cfg.power,
        "base": _operator_to_dict(cfg.base) if cfg.base is not None else None,
        "q": cfg.q,
    }


def _resolve_coeffs(spec, N, label, problems):
    """Initial-data spec -> tuple of N coefficients.

    Accepted forms: a profile name ("zero", "phi<k>"), a coefficient
    list (leading modes, zero-padded), or {"file": path} pointing at a
    two-column n,c_n CSV.  With N None, a refused N_modes, only the form
    is checked.
    """
    top, N = (math.inf, 0) if N is None else (N, N)
    if isinstance(spec, str):
        if spec == "zero":
            return (0.0,) * N
        m = re.fullmatch(r"phi([1-9][0-9]*)", spec)
        if m:
            k = int(m.group(1))
            if k > top:
                problems.append(f"{label}: mode {k} exceeds N_modes={N}")
                return None
            return tuple(float(n == k) for n in range(1, N + 1))
        problems.append(
            f"{label}: unknown profile name {spec!r} "
            "(use \"zero\", \"phi<k>\", a list, or {\"file\": path})")
        return None
    if isinstance(spec, list):
        vals = _numbers(spec, label, problems)
        if vals is None:
            return None
        if len(vals) > top:
            problems.append(
                f"{label}: {len(vals)} coefficients exceed N_modes={N}")
            return None
        return tuple(vals + [0.0] * (N - len(vals)))
    if isinstance(spec, dict) and set(spec) == {"file"}:
        path = spec["file"]
        if not os.path.isfile(path):
            problems.append(f"{label}: file not found: {path}")
            return None
        try:
            with warnings.catch_warnings():     # no data: reported below
                warnings.simplefilter("ignore", UserWarning)
                rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except ValueError as exc:
            problems.append(f"{label}: unreadable coefficient CSV: {exc}")
            return None
        if not rows.size:
            problems.append(f"{label}: coefficient CSV has no data rows")
            return None
        if rows.shape[1] != 2:
            problems.append(f"{label}: coefficient CSV needs the two columns "
                            f"n,c_n, got {rows.shape[1]}")
            return None
        c = {}
        for i, (nmode, val) in enumerate(rows.tolist()):
            k = _number(nmode, f"{label} CSV row {i + 1} mode index",
                        problems)
            val = _number(val, f"{label} CSV row {i + 1} value", problems)
            if k is None or val is None:
                return None
            if k != int(k) or not 1 <= k <= top:
                problems.append(
                    f"{label}: CSV mode index {k:g} outside 1..{top:g}")
                return None
            if int(k) in c:
                problems.append(f"{label}: CSV mode index {k:g} repeats")
                return None
            c[int(k)] = val
        return tuple(c.get(n, 0.0) for n in range(1, N + 1))
    problems.append(f"{label}: unsupported initial-data spec {spec!r}")
    return None


def _normalize_forcing(doc, N, nodes, problems):
    """The forcing object, or None after adding to problems: its fields
    as JSON types, then the ForcingSpec of them validated, against the
    grid's node count and N too unless either is None (refused)."""
    if not isinstance(doc, dict):
        problems.append("forcing must be an object")
        return None
    _check_keys(doc, _FORCING_KEYS, "forcing")
    kind = doc.get("kind")
    out = {"kind": kind, "g": None, "h_name": None, "h_params": None,
           "h_samples": None, "table": None}
    before = len(problems)
    if kind == "separable":
        if "g" in doc:
            g = _resolve_coeffs(doc["g"], N, "forcing.g", problems)
            out["g"] = None if g is None else list(g)
        out["h_name"] = doc.get("h_name")
        if doc.get("h_params") is not None:
            out["h_params"] = _params(doc["h_params"], "forcing.h_params",
                                      problems)
        if doc.get("h_samples") is not None:
            out["h_samples"] = _numbers(doc["h_samples"], "forcing.h_samples",
                                        problems)
    elif kind == "tabulated":
        table = doc.get("table")
        if isinstance(table, list):
            table = [_numbers(row, f"forcing.table[{i}]", problems)
                     for i, row in enumerate(table)]
            if len({len(row) for row in table if row is not None}) > 1:
                problems.append("forcing.table rows must have one length")
        out["table"] = table
    if len(problems) > before:
        return None
    try:
        # the profile is only checked for presence here
        _forcing_spec(out, out["g"]).validate(nodes, N)
    except MLWaveError as exc:
        problems.append(f"forcing: {exc}")
        return None
    return out


def _normalize_nonlinearity(doc, problems):
    if not isinstance(doc, dict):
        problems.append("nonlinearity must be an object")
        return None
    _check_keys(doc, _NONLINEARITY_KEYS, "nonlinearity")
    kind = doc.get("kind")
    if not isinstance(kind, str):
        problems.append("nonlinearity needs a kind")
        return None
    out = {"kind": kind, "params": _params(doc.get("params", {}),
                                           "nonlinearity.params", problems)}
    if out["params"] is None:
        return None
    try:
        NonlinearitySpec(kind, dict(out["params"])).validate()
    except MLWaveError as exc:
        problems.append(f"nonlinearity: {exc}")
        return None
    return out


def parse_scenario(text: str, allow_limit: bool = False) -> Scenario:
    """Validate a scenario document into a fully defaulted Scenario.

    Unknown keys anywhere are hard errors; all other violations are
    collected and reported as one itemized error.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"scenario is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("scenario must be a JSON object")
    _check_keys(doc, _TOP_KEYS, "scenario")
    for key in ("alpha", "operator", "u0"):
        if key not in doc:
            raise ConfigError(f"scenario is missing required key {key!r}")
    if "grid" in doc:
        if not isinstance(doc["grid"], dict):
            raise ConfigError("grid must be an object")
        _check_keys(doc["grid"], _GRID_KEYS, "grid")
    if "picard" in doc:
        if not isinstance(doc["picard"], dict):
            raise ConfigError("picard must be an object")
        _check_keys(doc["picard"], _PICARD_KEYS, "picard")

    problems = []
    operator = _operator_from_dict(doc["operator"], problems)
    dim = None          # the box's dimension, once the operator is valid
    if operator is not None:
        try:
            operator.validate()
            dim = len((operator.base or operator).lengths)
        except MLWaveError as exc:
            problems.append(f"operator: {exc}")

    alpha = _number(doc["alpha"], "alpha", problems)
    has_nl = doc.get("nonlinearity") is not None
    if alpha is not None and not 1.0 < alpha <= 2.0:
        problems.append(f"alpha must lie in (1, 2], got {alpha}")
    elif alpha == 2.0:
        if not allow_limit:
            problems.append(
                "alpha=2 is the classical limit; pass --allow-limit to "
                "solve it")
        if has_nl:
            problems.append("the semilinear solver needs alpha < 2")

    N = doc.get("N_modes", 8)
    if not (isinstance(N, int) and not isinstance(N, bool) and N >= 1):
        problems.append(f"N_modes must be a positive integer, got {N!r}")
        N = None        # refused: nothing is checked against it
    elif N > _MAX_MODES:
        problems.append(f"N_modes exceeds the cap of {_MAX_MODES} modes")
        N = None

    u0 = _resolve_coeffs(doc["u0"], N, "u0", problems)
    u1 = _resolve_coeffs(doc.get("u1", "zero"), N, "u1", problems)

    grid = doc.get("grid", {})
    t_end = _number(grid.get("t_end", 1.0), "grid.t_end", problems)
    dt = _number(grid.get("dt", 0.01), "grid.dt", problems)
    nodes = None        # the grid's, once it is valid
    if t_end is not None and not t_end > 0.0:
        problems.append(f"grid.t_end must be positive, got {t_end}")
    if dt is not None and not dt > 0.0:
        problems.append(f"grid.dt must be positive, got {dt}")
    elif t_end is not None and dt is not None:
        steps = t_end / dt
        M = round(steps) if math.isfinite(steps) else 0
        if M < 1 or abs(M * dt - t_end) > 1e-12 * max(1.0, t_end):
            problems.append(
                f"grid.dt={dt} does not divide t_end={t_end} within 1e-12")
        elif M > _MAX_STEPS:
            problems.append(
                f"grid.t_end/grid.dt = {M:.3g} steps exceeds the cap of "
                f"{_MAX_STEPS} steps")
        else:
            nodes = M + 1

    if doc.get("forcing") is not None and has_nl:
        problems.append("give either forcing or nonlinearity, not both")
    forcing = None
    if doc.get("forcing") is not None and not has_nl:
        forcing = _normalize_forcing(doc["forcing"], N, nodes, problems)
    nonlinearity = None
    if has_nl:
        nonlinearity = _normalize_nonlinearity(doc["nonlinearity"], problems)

    picard = asdict(PicardConfig())
    before = len(problems)
    for key, val in doc.get("picard", {}).items():
        if val is None and picard[key] is None:
            continue        # an optional setting left unset
        x = _number(val, f"picard.{key}", problems)
        if key in _PICARD_INTS and x is not None:
            if not x.is_integer():
                problems.append(
                    f"picard.{key} must be a whole number, got {val!r}")
            x = int(x)
        picard[key] = x
    if len(problems) == before:
        cfg = PicardConfig(**picard)
        try:
            cfg.validate()
        except MLWaveError as exc:
            problems.append(f"picard: {exc}")
        else:
            quad = N and cfg.quadrature(N)
            if has_nl and None not in (dim, quad) and \
                    _doubled_rule_nodes(quad, dim) > _MAX_RULE_NODES:
                problems.append(
                    f"a {quad:.3g}-node rule per axis is doubled past the "
                    f"cap of {_MAX_RULE_NODES} rule nodes on the {dim}-D box")

    output = doc.get("output")
    if output is not None and not isinstance(output, str):
        problems.append("output must be a directory path string")

    if problems:
        raise ConfigError("invalid scenario:\n  - " + "\n  - ".join(problems))
    return Scenario(alpha=alpha, operator=operator, N_modes=N,
                    u0=u0, u1=u1,
                    kind="semilinear" if has_nl else "linear",
                    forcing=forcing, nonlinearity=nonlinearity,
                    t_end=t_end, dt=dt, picard=picard, output=output)


# ----------------------------------------------------- scenario -> solver

def _forcing_spec(f, g) -> ForcingSpec:
    """The ForcingSpec of a forcing object f, or of none, with the
    spatial profile g."""
    if f is None:
        return ForcingSpec()
    return ForcingSpec(
        kind=f["kind"], g=g, h_name=f["h_name"], h_params=f["h_params"],
        h_samples=None if f["h_samples"] is None else np.array(f["h_samples"]),
        table=None if f["table"] is None else np.array(f["table"]))


def _problem(scn: Scenario):
    """The scenario's LinearProblem or SemilinearProblem."""
    op = make_operator(scn.operator)
    u0, u1 = (SpectralField(op, np.array(c), scn.N_modes)
              for c in (scn.u0, scn.u1))
    if scn.kind == "linear":
        f = scn.forcing
        g = None if f is None or f["g"] is None else SpectralField(
            op, np.array(f["g"]), scn.N_modes)
        return LinearProblem(op, scn.alpha, u0, u1, _forcing_spec(f, g))
    nl = scn.nonlinearity
    return SemilinearProblem(op, scn.alpha, u0, u1,
                             NonlinearitySpec(nl["kind"], dict(nl["params"])))


def _grid(t_end, dt):
    return np.linspace(0.0, t_end, round(t_end / dt) + 1)


# ------------------------------------------------------------- persistence

def _fmt(v) -> str:
    return format(float(v), ".17g")


def _write_atomic(path, text):
    """Write text to path through a new file beside it, renamed over path,
    so a reader sees the old file or the new one whole.  The file is made
    as open() makes one, with mode 0o666 less the umask; it is removed on
    any failure."""
    head, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(head, f".{name}.{os.getpid()}-{os.urandom(6).hex()}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(text.encode())
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _write_json(path, obj):
    _write_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _csv(cols, blocks) -> str:
    """The header cols, then one line per time row of the column blocks
    side by side, each value as _fmt writes it, the table formatted whole
    by one repeated line format."""
    table = np.column_stack(blocks)
    line = ",".join(["%.17g"] * len(cols)) + "\n"
    return (",".join(cols) + "\n"
            + line * len(table) % tuple(table.ravel().tolist()))


def _trace_csv(trace) -> str:
    N = trace.u_coeffs.shape[1]
    cols = ["t"]
    for block in ("u", "dtu", "dalpha"):
        cols += [f"{block}_c_{n}" for n in range(1, N + 1)]
    return _csv(cols, [trace.times, trace.u_coeffs, trace.dtu_coeffs,
                       trace.dalpha_coeffs])


def _norms_csv(trace) -> str:
    names = (("u_Vgamma", "norm_Vgamma_u"),
             ("dtu_L2", "norm_L2_dtu"),
             ("dalpha_Vminusgamma", "norm_Vminusgamma_dalpha"))
    return _csv(["t"] + [out for _, out in names],
                [trace.times] + [trace.norm_series[key] for key, _ in names])


def _windows_json(windows):
    return [{"start": w.start, "end": w.end, "iterations": w.iterations,
             "contraction_estimate": w.contraction_estimate}
            for w in windows]


# ------------------------------------------------------------ subcommands

def _cmd_ml_eval(args) -> int:
    prec = (MLPrecision(rel_tol=args.tol) if args.tol is not None
            else DEFAULT_PRECISION)
    value = ml_e(MLQuery(alpha=args.alpha, beta=args.beta, x=args.x), prec)
    print(_fmt(value))
    return 0


def _cmd_ml_verify(args) -> int:
    checks = _suite_ml()
    _print_checks(checks)
    return 0 if all(c["passed"] for c in checks) else 3


def _regime_json(regime) -> dict:
    def num(v):
        if v is None:
            return None
        if isinstance(v, Unbounded):
            return "unbounded"
        v = float(v)
        return "inf" if math.isinf(v) else v

    return {
        "case": regime.case,
        "subcritical": regime.subcritical,
        "alpha0": num(regime.alpha0),
        "theta_A": num(regime.theta_A),
        "r_star": num(regime.r_star),
        "gamma": num(regime.gamma),
        "p_range_sup": num(regime.p_range_sup),
        "q_A": num(regime.q_A),
        "supercritical_range_empty": regime.supercritical_range_empty,
    }


def _cmd_criticality(args) -> int:
    if (args.qa is None) == (args.operator is None):
        raise ConfigError("give exactly one of --qa or --operator")
    if args.qa is not None:
        subject = args.qa
    else:
        try:
            doc = json.loads(args.operator)
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"--operator is not valid JSON: {exc}") from exc
        problems = []
        cfg = _operator_from_dict(doc, problems)
        if problems:
            raise ConfigError("invalid operator: " + "; ".join(problems))
        subject = make_operator(cfg)
    regime = classify(subject, args.alpha)
    # the table is built before anything is printed, so a refused one
    # prints nothing
    text = json.dumps(_regime_json(regime), indent=2, sort_keys=True) + "\n"
    if args.table:
        text += "\n" + _exponent_table_csv(s=args.s, q=args.q)
    print(text, end="")
    return 0


def _exponent_table_csv(s=0.75, q=4.0) -> str:
    lines = ["kind,delta,d,q_A,alpha0"]
    variants = (("dirichlet_laplacian", 0.0),
                ("spectral_fractional_power", 0.0),
                ("wentzell", 0.0),
                ("wentzell", 1.0),
                ("dirichlet_to_neumann", 0.0))
    for kind, delta in variants:
        rows = exponent_table(kind, (1, 2, 3, 4),
                              s=s if kind == "spectral_fractional_power"
                              else None,
                              q=q, delta=delta)
        for row in rows:
            qa = "inf" if math.isinf(row["q_A"]) else _fmt(row["q_A"])
            a0 = "none" if row["alpha0"] is None else _fmt(row["alpha0"])
            lines.append(f"{kind},{_fmt(delta)},{row['d']},{qa},{a0}")
    return "\n".join(lines) + "\n"


def _read_scenario(args) -> Scenario:
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    return parse_scenario(text, allow_limit=args.allow_limit)


@contextlib.contextmanager
def _outdir(out):
    """The output directory out, created before any work is done, for the
    body of a with statement.  If the body fails, each directory this call
    created is removed again, leaf first, while it is empty."""
    if not out:
        raise ConfigError(
            "no output directory: pass --out or set \"output\" in the "
            "scenario")
    made = []
    head = os.path.abspath(out)
    while not os.path.exists(head):
        made.append(head)
        head = os.path.dirname(head)
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory: {exc}") from exc
    try:
        yield out
    except BaseException:
        with contextlib.suppress(OSError):
            for path in made:
                os.rmdir(path)
        raise


def _cmd_solve(args) -> int:
    scn = _read_scenario(args)
    if args.mode != scn.kind:
        raise ConfigError(
            f"scenario is {scn.kind} (use `solve {scn.kind}`)")
    with _outdir(args.out or scn.output) as out:
        grid = _grid(scn.t_end, scn.dt)
        p = _problem(scn)
        if scn.kind == "linear":
            trace = solve_linear(p, grid)
            summary = {
                "scenario": scn.echo(),
                "status": "completed",
                "nodes": len(grid),
                "final_time": float(trace.times[-1]),
                "final_norms": {k: float(v[-1])
                                for k, v in sorted(trace.norm_series.items())},
                "warnings": list(trace.warnings),
                "metadata": {
                    "generated_at": datetime.datetime.now(
                        datetime.timezone.utc).isoformat()},
            }
            _write_json(os.path.join(out, "summary.json"), summary)
            status = "completed"
        else:
            outcome = run(p, scn.t_end, PicardConfig(**scn.picard), scn.dt)
            hf1 = p.nonlinearity.hf1
            check = strong_solution_check(
                outcome, p, q=2.0, r=hf1[0] if hf1 else 2.0)
            outcome = replace(outcome, strong_check=check)
            trace = outcome.trace
            _write_json(os.path.join(out, "outcome.json"), {
                "scenario": scn.echo(),
                "status": outcome.status,
                "T_end": outcome.T_end,
                "T_est": outcome.T_est,
                "windows": _windows_json(outcome.windows),
                "strong_check": outcome.strong_check,
                "aliasing_est": outcome.aliasing_est,
                "warnings": list(outcome.warnings),
            })
            status = outcome.status
        _write_atomic(os.path.join(out, "trace.csv"), _trace_csv(trace))
        _write_atomic(os.path.join(out, "norms.csv"), _norms_csv(trace))
        print(f"{status}: {len(trace.times)} nodes x {scn.N_modes} modes "
              f"-> {out}")
        return 0


def _cmd_convergence(args) -> int:
    scn = _read_scenario(args)
    if args.levels < 3:
        raise ConfigError("need at least 3 refinement levels")
    # level k has M 2^k steps: the most levels within the cap, without
    # forming 2^levels
    fit = (_MAX_STEPS // round(scn.t_end / scn.dt)).bit_length()
    if args.levels > fit:
        raise ConfigError(
            f"--levels {args.levels} refines past the cap of {_MAX_STEPS} "
            f"steps; this grid admits at most {fit} levels")
    with _outdir(args.out) if args.out else contextlib.nullcontext():
        dts = [scn.dt / 2 ** k for k in range(args.levels)]
        p = _problem(scn)
        if scn.kind == "linear":
            def runner(dt):
                return solve_linear(p, _grid(scn.t_end, dt)).u_coeffs[-1]
        else:
            cfg = PicardConfig(**scn.picard)

            def level(dt):
                # status, T_est and final state alone: the trace is freed here
                o = run(p, scn.t_end, cfg, dt)
                return o.status, o.T_est, o.trace.u_coeffs[-1].copy()

            levels = {dt: level(dt) for dt in dts}
            if any(status == "maximal_time_detected"
                   for status, _, _ in levels.values()):
                # each level's last state is at its own T_est: no order
                raise ConfigError(
                    "no convergence order: a level stops before t_end, so the "
                    "levels' final states are at different times:\n  - "
                    + "\n  - ".join(
                        f"dt={dt:g}: {status}"
                        + ("" if T_est is None else f", T_est={T_est:g}")
                        for dt, (status, T_est, _) in levels.items()))

            def runner(dt):
                return levels[dt][2]

        rep = self_convergence(runner, dts)
        res = {key: list(rep[key]) for key in ("dts", "diffs", "orders")}
        print(json.dumps(res, indent=2))
        if args.out:
            _write_json(os.path.join(args.out, "convergence.json"),
                        {"scenario": scn.echo(), **res})
        return 0


# ------------------------------------------------------------ verify suites

def _check(name, passed, detail) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _suite_ml():
    checks = []
    xs = np.linspace(-30.0, 5.0, 201)
    err = max(abs(_ml(1.0, 1.0, x) - math.exp(x))
              / max(abs(math.exp(x)), 1e-300) for x in xs)
    checks.append(_check("exp-closed-form", err <= 1e-10,
                         f"max rel err {err:.3e} (tol 1e-10)"))
    xs = np.linspace(0.0, 20.0, 201)
    err = max(abs(_ml(2.0, 1.0, -x * x) - math.cos(x)) for x in xs)
    checks.append(_check("cos-closed-form", err <= 1e-10,
                         f"max abs err {err:.3e} (tol 1e-10)"))
    err = max(abs(_ml(2.0, 2.0, -x * x) - (math.sin(x) / x if x else 1.0))
              for x in xs)
    checks.append(_check("sinc-closed-form", err <= 1e-10,
                         f"max abs err {err:.3e} (tol 1e-10)"))
    worst = math.inf
    for alpha in (1.25, 1.5, 1.75):
        for lam in (1.0, 4.0):
            r1 = ml_identity_residuals(alpha, lam, 1.0, 1e-3)
            r2 = ml_identity_residuals(alpha, lam, 1.0, 5e-4)
            for a, b in zip(r1, r2):
                worst = min(worst, math.log2(a / b))
    checks.append(_check("derivative-identity-order", worst >= 1.9,
                         f"min observed order {worst:.3f} (need >= 1.9)"))
    coarse = ml_bound_probe(1.5, 1.5, 1e4, 200)
    fine = ml_bound_probe(1.5, 1.5, 1e4, 400)
    rel = abs(fine - coarse) / coarse
    checks.append(_check("kernel-bound-stability",
                         math.isfinite(fine) and rel <= 0.01,
                         f"sup {fine:.6f}, refinement shift {rel:.2e}"))
    return checks


def _interval_problem(alpha, u0, u1, forcing=None):
    op = make_operator(OperatorSpecConfig(
        kind="dirichlet_laplacian_interval", lengths=(math.pi,)))
    return LinearProblem(op, alpha,
                         SpectralField(op, np.array(u0, dtype=float),
                                       len(u0)),
                         SpectralField(op, np.array(u1, dtype=float),
                                       len(u1)),
                         forcing or ForcingSpec())


def _suite_linear():
    checks = []
    p = _interval_problem(1.5, [1.0], [0.5])
    u, dtu = homogeneous_state(p, 2.0)
    lam = p.op.eigenvalue(1)
    ta = 2.0 ** 1.5
    exact_u = _ml(1.5, 1.0, -lam * ta) + 0.5 * 2.0 * _ml(1.5, 2.0, -lam * ta)
    err = abs(u[0] - exact_u)
    checks.append(_check("homogeneous-closed-form", err <= 1e-12,
                         f"abs err {err:.3e} (tol 1e-12)"))

    op = p.op
    g = SpectralField(op, np.array([2.0]), 1)
    f = ForcingSpec(kind="separable", g=g, h_name="constant",
                    h_params={"value": 1.0})
    p2 = _interval_problem(1.5, [0.0], [0.0], f)
    grid2 = np.linspace(0.0, 2.0, 201)
    tr2 = solve_linear(p2, grid2)
    exact = np.array([2.0 * t ** 1.5 * _ml(1.5, 2.5, -t ** 1.5)
                      for t in grid2])
    err = float(np.max(np.abs(tr2.u_coeffs[:, 0] - exact)))
    checks.append(_check("constant-forcing-closed-form", err <= 1e-8,
                         f"max abs err {err:.3e} (tol 1e-8)"))

    p3 = _interval_problem(2.0, [1.0], [0.0])
    grid3 = np.linspace(0.0, 10.0, 1001)
    tr3 = solve_linear(p3, grid3)
    root = math.sqrt(p3.op.eigenvalue(1))
    erru = float(np.max(np.abs(tr3.u_coeffs[:, 0] - np.cos(root * grid3))))
    errv = float(np.max(np.abs(tr3.dtu_coeffs[:, 0]
                               + root * np.sin(root * grid3))))
    checks.append(_check("classical-limit", max(erru, errv) <= 1e-9,
                         f"max abs err {max(erru, errv):.3e} (tol 1e-9)"))

    lamv = p2.op.eigenvalues(1)
    F = p2.forcing.values(grid2, 1)
    resid = float(np.max(np.abs(tr2.dalpha_coeffs
                                - (-tr2.u_coeffs * lamv[None, :] + F))))
    checks.append(_check("derivative-identity", resid == 0.0,
                         f"reconstruction residual {resid:.3e} (exact)"))
    return checks


def _suite_semilinear():
    checks = []
    op = make_operator(OperatorSpecConfig(
        kind="dirichlet_laplacian_interval", lengths=(math.pi,)))
    u0 = SpectralField(op, np.array([0.5, -0.25]), 2)
    u1 = SpectralField(op, np.array([0.0, 0.3]), 2)
    pz = SemilinearProblem(op, 1.5, u0, u1, NonlinearitySpec())
    out = run(pz, 2.0, PicardConfig(), 0.01)
    ref = solve_linear(LinearProblem(op, 1.5, u0, u1, ForcingSpec()),
                       np.linspace(0.0, 2.0, 201))
    same = (np.array_equal(out.trace.u_coeffs, ref.u_coeffs)
            and np.array_equal(out.trace.dtu_coeffs, ref.dtu_coeffs))
    checks.append(_check("zero-matches-linear-bitwise", same,
                         "coefficient arrays identical" if same
                         else "coefficient arrays differ"))

    e1 = SpectralField(op, np.array([1.0]), 1)
    z1 = SpectralField(op, np.array([0.0]), 1)
    pk = SemilinearProblem(op, 1.5, e1, z1,
                           NonlinearitySpec("linear_shift", {"kappa": 1.0}))
    outk = run(pk, 2.0, PicardConfig(), 0.01)
    dev = float(np.max(np.abs(outk.trace.u_coeffs[:, 0] - 1.0)))
    checks.append(_check("balanced-shift-fixed-point", dev <= 1e-8,
                         f"max drift {dev:.3e} (tol 1e-8)"))

    ps = SemilinearProblem(op, 1.5, u0, u1,
                           NonlinearitySpec("sine", {"c": 0.2}))
    one = run(ps, 1.0, PicardConfig(window_init=1.0), 0.01)
    many = run(ps, 1.0, PicardConfig(window_init=0.25), 0.01)
    dev = float(np.max(np.abs(one.trace.u_coeffs - many.trace.u_coeffs)))
    checks.append(_check("window-split-consistency", dev <= 1e-8,
                         f"max split deviation {dev:.3e} (tol 1e-8)"))
    return checks


def _suite_rates():
    checks = []
    t = np.arange(0, 201) * 1e-3
    fit = rate_fit(t, t ** 1.2, (1e-3, 1e-1))
    err = abs(fit.exponent - 1.2)
    checks.append(_check("power-law-fit", err <= 1e-6,
                         f"exponent err {err:.3e} (tol 1e-6)"))
    base = rate_fit(t, t ** 0.75, (1e-3, 1e-1))
    scaled = rate_fit(t, 7.3 * t ** 0.75, (1e-3, 1e-1))
    err = abs(scaled.exponent - base.exponent)
    checks.append(_check("fit-scale-invariance", err <= 1e-12,
                         f"exponent shift {err:.3e} (tol 1e-12)"))
    dt = 1e-3
    tt = np.arange(0, 1001) * dt
    got = discrete_caputo(tt ** 2, 1.5, dt)
    exact = 2.0 * tt ** 0.5 / math.gamma(1.5)
    rel = float(np.max(np.abs(got[2:] - exact[2:]) / exact[2:]))
    checks.append(_check("caputo-quadratic-exact", rel <= 1e-9,
                         f"max rel err {rel:.3e} (tol 1e-9)"))
    errs = []
    for dt in (2e-3, 1e-3):
        M = round(1.0 / dt)
        tt = np.arange(0, M + 1) * dt
        got = discrete_caputo(tt ** 3, 1.5, dt)
        exact = 6.0 * tt ** 1.5 / math.gamma(2.5)
        errs.append(float(np.max(np.abs(got[2:] - exact[2:]))))
    factor = errs[0] / errs[1]
    checks.append(_check("caputo-halving-factor", factor >= 1.8,
                         f"error factor {factor:.3f} (need >= 1.8)"))
    return checks


def _suite_convergence():
    checks = []
    ph = _interval_problem(1.5, [0.5, -0.25], [0.0, 0.3])

    def final_state(p):
        def solve(dt):
            grid = np.arange(0, round(1.0 / dt) + 1) * dt
            return solve_linear(p, grid).u_coeffs[-1]
        return solve

    rep = self_convergence(final_state(ph), (4e-3, 2e-3, 1e-3))
    exact = rep["orders"] == ("exact",)
    checks.append(_check("homogeneous-exact", exact,
                         f"orders {rep['orders']}"))

    g = SpectralField(ph.op, np.array([1.0, 0.5]), 2)
    f = ForcingSpec(kind="separable", g=g, h_name="sinusoid",
                    h_params={"amplitude": 2.0, "omega": 3.0, "phase": 0.0})
    rep = self_convergence(final_state(replace(ph, forcing=f)),
                           (4e-3, 2e-3, 1e-3))
    ok = all(isinstance(o, float) and o >= 1.8 for o in rep["orders"])
    checks.append(_check("sinusoidal-forcing-order", ok,
                         f"orders {tuple(round(o, 3) for o in rep['orders'])}"
                         " (need >= 1.8)"))

    ps = SemilinearProblem(ph.op, 1.5, ph.u0, ph.u1,
                           NonlinearitySpec("sine", {"c": 0.3}))
    cfg = PicardConfig(tol=1e-12)

    def run_s(dt):
        return run(ps, 1.0, cfg, dt).trace.u_coeffs[-1]

    rep = self_convergence(run_s, (8e-3, 4e-3, 2e-3))
    ok = all(isinstance(o, float) and o >= 1.5 for o in rep["orders"])
    checks.append(_check("semilinear-sine-order", ok,
                         f"orders {tuple(round(o, 3) for o in rep['orders'])}"
                         " (need >= 1.5)"))
    return checks


_SUITES = {
    "ml": _suite_ml,
    "linear": _suite_linear,
    "semilinear": _suite_semilinear,
    "rates": _suite_rates,
    "convergence": _suite_convergence,
}


def _print_checks(checks):
    for c in checks:
        flag = "PASS" if c["passed"] else "FAIL"
        print(f"{c['name']:32s} {flag}  {c['detail']}")


def _cmd_verify(args) -> int:
    with _outdir(args.out):
        checks = _SUITES[args.suite]()
        _print_checks(checks)
        passed = all(c["passed"] for c in checks)
        report = {"suite": args.suite, "passed": passed, "checks": checks}
        _write_json(os.path.join(args.out, "report.json"), report)
        return 0 if passed else 3


# ----------------------------------------------------------------- parser

class _UsageError(Exception):
    def __init__(self, message, parser):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message, self)


@functools.cache                   # built once, reused by every main call
def _build_parser() -> _Parser:
    parser = _Parser(prog="mlwave",
                     description="Fractional-in-time wave equation toolkit")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    ml = sub.add_parser("ml", help="Mittag-Leffler evaluation and checks")
    mlsub = ml.add_subparsers(dest="ml_command", required=True,
                              parser_class=_Parser)
    ev = mlsub.add_parser("eval", help="evaluate E_{alpha,beta}(x)")
    ev.add_argument("--alpha", type=float, required=True)
    ev.add_argument("--beta", type=float, required=True)
    ev.add_argument("--x", type=float, required=True)
    ev.add_argument("--tol", type=float, default=None,
                    help="relative tolerance (default 1e-12)")
    ev.set_defaults(func=_cmd_ml_eval)
    mv = mlsub.add_parser("verify", help="run the identity suite")
    mv.set_defaults(func=_cmd_ml_verify)

    cr = sub.add_parser("criticality",
                        help="classify a problem's growth regime")
    cr.add_argument("--alpha", type=float, required=True)
    cr.add_argument("--qa", type=float, default=None,
                    help="Sobolev embedding exponent q_A")
    cr.add_argument("--operator", type=str, default=None,
                    help="operator config as a JSON object")
    cr.add_argument("--table", action="store_true",
                    help="also print the critical-order tables as CSV")
    cr.add_argument("--s", type=float, default=0.75,
                    help="fractional power for the table (default 0.75)")
    cr.add_argument("--q", type=float, default=4.0,
                    help="borderline-dimension exponent (default 4)")
    cr.set_defaults(func=_cmd_criticality)

    sv = sub.add_parser("solve", help="run a scenario")
    svsub = sv.add_subparsers(dest="mode", required=True,
                              parser_class=_Parser)
    for mode in ("linear", "semilinear"):
        m = svsub.add_parser(mode)
        m.add_argument("--config", required=True,
                       help="scenario JSON file")
        m.add_argument("--out", default=None,
                       help="output directory (overrides scenario)")
        m.add_argument("--allow-limit", action="store_true",
                       help="admit the alpha=2 classical limit")
        m.set_defaults(func=_cmd_solve, mode=mode)

    vf = sub.add_parser("verify", help="run an invariant suite")
    vf.add_argument("--suite", required=True, choices=sorted(_SUITES))
    vf.add_argument("--out", default=".",
                    help="directory for report.json (default .)")
    vf.set_defaults(func=_cmd_verify)

    cv = sub.add_parser("convergence", help="step-halving refinement study")
    cv.add_argument("--config", required=True, help="scenario JSON file")
    cv.add_argument("--levels", type=int, default=3,
                    help="number of dt levels (default 3)")
    cv.add_argument("--out", default=None,
                    help="directory for convergence.json")
    cv.add_argument("--allow-limit", action="store_true",
                    help="admit the alpha=2 classical limit")
    cv.set_defaults(func=_cmd_convergence)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(exc.parser.format_usage(), end="", file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericFailure, AccuracyError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except MLWaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
