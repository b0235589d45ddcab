"""Command-line front end: experiment runner with reproducible tables.

Each command runs one pipeline and writes a results table plus metadata.
``_COMMAND_TABLE`` states each command once: its pipeline, its help line and,
per parameter, the type, the default or ``REQUIRED``, the domain or choices
and the help text.  The parser is built from it, and RunConfig checks every
configuration against it, so one replayed from a results file meets the same
types, domains and choices as a command line.

CSV output starts with '#'-prefixed header lines; the first carries the full
resolved run configuration as JSON and round-trips through
``RunConfig.from_header_line``, so any output file reproduces its run.  When
an output path is given, a ``<path>.meta.json`` sidecar carries the fit
summaries and accuracy warnings.  Floats print with 17 significant digits,
'.' decimal separator, LF line endings; nothing in the output depends on
wall-clock time or iteration order, so repeated runs are byte-identical.

Exit status: 0 on success, 1 on solver failure (diagnostic on stderr) or,
under --strict, when the run emitted accuracy warnings; 2 on usage or domain
errors, non-numeric and non-finite values included.  The domain checks include
the charges whose results stay finite floats, and a replayed parameter map
must hold exactly what the command's parser sets.  A result that still holds
a NaN or infinity is a solver failure and writes no file: every JSON part is
serialized with allow_nan=False.

Pipelines call the library through its modules (``scott.scott_experiment_tf``),
so a function replaced on its module, as a profiler does, is the one called.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from . import coherent, numerics, scott, semiclassics, thomas_fermi

__all__ = [
    "RunConfig",
    "main",
    "read_config",
    "run",
]

CONFIG_PREFIX = "# scottlab-config: "


class UsageError(ValueError):
    """Invalid configuration; maps to exit status 2."""


@dataclass(frozen=True)
class RunConfig:
    """One resolved run: command, full parameter map, output destination."""

    command: str
    parameters: dict[str, Any]
    output_path: str | None = None
    format: str = "csv"

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise UsageError(f"unknown command {self.command!r}")
        if self.format not in ("csv", "json"):
            raise UsageError(f"unknown format {self.format!r}")
        if not isinstance(self.output_path, (str, type(None))):
            raise UsageError(
                f"output path must be a string or null, got {self.output_path!r}"
            )
        spec = _COMMAND_TABLE[self.command]
        options = {**spec.options, "strict": _STRICT}
        # a copy, which the whole-map check may complete
        object.__setattr__(self, "parameters", dict(self.parameters))
        for key, value in self.parameters.items():
            option = options.get(key)
            if option is None:
                continue
            if option.type in _KINDS:
                types, kind = _KINDS[option.type]
                values = value if option.type is _floats else (value,)
                if not isinstance(values, (list, tuple)) or not all(
                    isinstance(v, types) and isinstance(v, bool) == (option.type is bool)
                    for v in values
                ):
                    raise UsageError(f"{key} must be {kind}, got {value!r}")
                # ints are always finite, and huge ones overflow math.isfinite
                if not all(math.isfinite(v) for v in values if isinstance(v, float)):
                    raise UsageError(f"{key} must be a finite number")
                if option.domain is not None:
                    test, rule = option.domain
                    if not all(test(v) for v in values):
                        raise UsageError(f"{key} {rule}")
            if option.choices is not None and value not in option.choices:
                raise UsageError(f"{key} must be {' or '.join(map(str, option.choices))}")
            if key == "h_values":
                try:
                    numerics.require_decreasing(value)
                except ValueError as exc:
                    raise UsageError(str(exc)) from exc
        unknown = set(self.parameters) - set(options)
        if unknown:
            raise UsageError(
                f"{self.command} takes no parameter {', '.join(sorted(unknown))}"
            )
        # the parser always fills the required options and those with a default
        missing = {k for k, o in options.items() if o.default is not None}
        missing -= set(self.parameters)
        if missing:
            raise UsageError(
                f"{self.command} config lacks {', '.join(sorted(missing))}"
            )
        try:
            spec.check(self.parameters)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc

    def to_header_line(self) -> str:
        doc = {
            "command": self.command,
            "parameters": self.parameters,
            "output_path": self.output_path,
            "format": self.format,
        }
        return CONFIG_PREFIX + json.dumps(doc, sort_keys=True, allow_nan=False)

    @classmethod
    def from_header_line(cls, line: str) -> "RunConfig":
        if not line.startswith(CONFIG_PREFIX):
            raise UsageError("not a scottlab config header line")
        doc = json.loads(line[len(CONFIG_PREFIX) :])
        params = {
            k: tuple(v) if isinstance(v, list) else v
            for k, v in doc["parameters"].items()
        }
        return cls(
            command=doc["command"],
            parameters=params,
            output_path=doc["output_path"],
            format=doc["format"],
        )


def read_config(path: str) -> RunConfig:
    """Recover the RunConfig from a results file (CSV header or JSON doc)."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if first.startswith(CONFIG_PREFIX):
            return RunConfig.from_header_line(first.rstrip("\n"))
        fh.seek(0)
        doc = json.loads(fh.read())
    return RunConfig.from_header_line(doc["config_header"])


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise UsageError(f"expected comma-separated numbers, got {text!r}") from exc


def _parse_a_rule(rule: str) -> Callable[[float], float]:
    """'h^-0.8' style power rules, or a plain number for a constant a."""
    if not isinstance(rule, str):
        raise UsageError(f"a-rule must be a string, got {rule!r}")
    text = rule.strip()
    if text.startswith("h^"):
        try:
            exponent = float(text[2:])
        except ValueError as exc:
            raise UsageError(f"bad a-rule {rule!r}") from exc
        return lambda h: h**exponent
    try:
        const = float(text)
    except ValueError as exc:
        raise UsageError(f"bad a-rule {rule!r}") from exc
    return lambda h: const


# ---------------------------------------------------------------------------
# pipelines: parameters -> (columns, rows, meta)


def _pipeline_hydrogen(params: dict[str, Any]):
    z, h = params["z"], params["h"]
    columns = ["z", "h", "sum"]
    rows = [[z, h, scott.hydrogen_exact_sum(z, h)]]
    meta: dict[str, Any] = {}
    if params.get("k") is not None:
        exp = scott.hydrogen_expansion_check(z, params["k"])
        meta["expansion"] = {
            "K": int(exp.K),
            "h": str(exp.h),
            "sum": str(exp.sum),
            "leading": str(exp.leading),
            "scott": str(exp.scott),
            "remainder": str(exp.remainder),
        }
    return columns, rows, meta


def _named_potential(params: dict[str, Any]):
    if params["potential"] == "coulomb":
        z, shift = params["z"], params["shift"]
        return lambda r: -z / np.abs(np.asarray(r, dtype=float)) + shift

    def well(r):
        r = np.asarray(r, dtype=float)
        return np.where(np.abs(r) < 1.0, -((1.0 - r * r) ** 2), 0.0)

    return well


def _pipeline_weyl(params: dict[str, Any]):
    n, h = params["n"], params["h"]
    potential = _named_potential(params)
    spec = semiclassics.WeylSpec(n=n, potential=potential, bump=None, h=h)
    value = semiclassics.weyl_energy(spec)
    coulomb = params["potential"] == "coulomb"  # the well takes no z or shift
    columns = ["n", "z", "shift", "h", "weyl"] if coulomb else ["n", "h", "weyl"]
    rows = [[*(params[key] for key in columns[:-1]), value]]
    return columns, rows, {"potential": params["potential"]}


def _pipeline_tf_atom(params: dict[str, Any]):
    sol = thomas_fermi.atomic_tf(params["z"])
    columns = ["r", "v_tf", "rho_tf"]
    rows = [
        [float(r), float(v), float(rho)]
        for r, v, rho in zip(sol.r, sol.v_tf_table, sol.rho_tf_table)
    ]
    meta = {
        "E_TF": sol.E_TF,
        "D_rho": sol.D_rho,
        "length_scale": sol.ell,
        "initial_slope": sol.universal.initial_slope,
        "max_rms_residual": sol.universal.max_rms_residual,
        "grid_size": len(rows),
    }
    return columns, rows, meta


def _pipeline_scott(params: dict[str, Any]):
    sweep = scott.scott_experiment_tf(params["z"], params["h_values"],
                                      params["x_max"], params["spacing_scale"])
    columns = ["h", "quantum", "weyl", "scott", "residual"]
    rows = [
        [row.h, row.quantum_sum, row.weyl_sum, row.scott_term, row.residual]
        for row in sweep.results
    ]
    # the fit is against {h^-2, h^-1}
    (scott_range, h_inverse_range), shift = sweep.spread()
    meta = {
        "scott_coefficient": sweep.fit.coefficient(-2.0),
        "scott_leave_one_out": scott_range,
        "scott_constant_shift": shift,
        "h_inverse_leave_one_out": h_inverse_range,
        "per_h": list(sweep.per_h),
        "fit": sweep.summary(),
        "recorded_warnings": list(sweep.warnings),
    }
    return columns, rows, meta


def _pipeline_local_trace(params: dict[str, Any]):
    n = params["n"]
    bump = numerics.Bump(center=params["bump_center"], radius=params["bump_radius"])
    potential = _named_potential(params)
    sweep = semiclassics.local_trace_experiment(potential, bump, params["h_values"], n=n)
    columns = ["h", "quantum", "weyl", "residual", "scaled_residual"]
    rows = [
        [row.h, row.quantum_sum, row.weyl_sum, row.residual,
         row.residual * row.h ** (n - 1.2)]
        for row in sweep.results
    ]
    meta = {
        "fit": sweep.summary(),
        "left_out_of_fit": list(sweep.left_out),
        "recorded_warnings": list(sweep.warnings),
    }
    return columns, rows, meta


def _coherent_cases(
    params: dict[str, Any],
) -> list[tuple[coherent.CoherentParams, float, int, float, int]]:
    """Per h of a coherent-check sweep: the coherent parameters p, and the
    half width and points of the representation grid and of the resolution
    grid; UsageError where the a-rule or a grid fails at some h.  Only point
    counts are computed, so a wide half-width allocates nothing here.

    The representation check drops an edge margin of at least
    coherent._edge_reach(p) per side, so its half width is at least that
    reach plus 0.5, which leaves a core window a unit wide.  The identity
    check wants its test vector to decay below the quadrature floor before
    the grid ends, so its grid is at least [-7, 7].
    """
    a_rule = _parse_a_rule(params["a_rule"])
    half = params["half_width"]
    cases = []
    for h in params["h_values"]:
        try:
            a = a_rule(h)
        except OverflowError:
            a = math.inf
        if not 0 < a < 1.0 / h:
            raise UsageError(f"a-rule gives a outside (0, 1/h) at h = {h:g}")
        p = coherent.CoherentParams(h=h, a=a)
        try:
            dx = min(p.h, 1.0 / math.sqrt(p.b)) / 6.0
            width = max(half, coherent._edge_reach(p) + 0.5)
            r_half = max(half, 7.0)
            n, r_n = (int(round(2.0 * w / dx)) + 1 for w in (width, r_half))
        except (OverflowError, ZeroDivisionError) as exc:
            raise UsageError(
                f"half-width {half:g} at h = {h:g} gives more grid "
                "points than a float counts"
            ) from exc
        points, short = min((n, width), (r_n, r_half))
        if points < 8:
            raise UsageError(
                f"half-width {short:g} gives a {points}-point grid "
                f"at h = {h:g}; a grid needs at least 8 points"
            )
        try:
            coherent._core_window(p, n, dx)
        except ValueError as exc:
            raise UsageError(
                f"grid at h = {h:g}, a = {a:.6g}, half-width {width:g}: {exc}"
            ) from exc
        cases.append((p, width, n, r_half, r_n))
    return cases


def _pipeline_coherent_check(params: dict[str, Any]):
    half = params["half_width"]
    sym = coherent.harmonic_symbol()
    columns = [
        "h", "a", "b",
        "weight_dev", "resolution_dev", "cancellation", "representation_err",
        "err_over_h2b",
    ]
    rows, sizes = [], []
    for p, width, n_pts, r_half, r_n in _coherent_cases(params):
        # weight normalization over +-9 Gaussian widths: w(u, q) =
        # w(u, 0) w(0, q)/w(0, 0), so the 801 x 801 node sum is two 1D sums
        alpha = p.a / (1.0 - p.h * p.a)
        span = 9.0 / math.sqrt(2.0 * alpha)
        t = np.linspace(-span, span, 801)
        step = t[1] - t[0]
        weight_dev = float(
            np.sum(coherent.weight_w(p, t, 0.0))
            * np.sum(coherent.weight_w(p, 0.0, t))
            * step * step / coherent.weight_w(p, 0.0, 0.0)
            - 1.0
        )

        grid = numerics.Grid1D.uniform(-width, width, n_pts)
        r_grid = numerics.Grid1D.uniform(-r_half, r_half, r_n)
        psi = np.exp(-r_grid.points**2 / 2.0)
        psi /= math.sqrt(float(np.sum(psi**2) * r_grid.spacing))
        resolution = coherent.resolution_of_identity_check(p, psi, r_grid)
        cancel = coherent.gaussian_moment_cancellation(
            sym, p, coherent.PhasePoint(0.3, -0.2)
        )
        rep = coherent.representation_error_norm(sym, p, grid)
        rows.append([
            p.h, p.a, p.b, weight_dev, resolution, cancel, rep,
            rep / (p.h * p.h * p.b),
        ])
        sizes.append({
            "h": p.h,
            "representation_grid_points": grid.size,
            "representation_u_nodes": coherent._representation_u_nodes(p, grid).size,
            "representation_factor_rank": coherent._factor_rank(p),
            "resolution_grid_points": r_grid.size,
            "resolution_q_nodes": coherent._resolution_nodes(p, r_grid).size,
        })
    meta = {"symbol": "q^2 + u^2", "grid_half_width": half, "problem_sizes": sizes}
    return columns, rows, meta


# ---------------------------------------------------------------------------
# the command table: each command's pipeline, help line and parameters

REQUIRED = object()  # the default of a parameter every command line gives


class _Option(NamedTuple):
    """A command's parameter: type, default (REQUIRED, or None where the parser
    leaves it out), domain (a test of each value, the rule it states) or
    choices, and help text."""

    type: Callable[[str], Any]
    default: Any = REQUIRED
    domain: tuple[Callable[[Any], bool], str] | None = None
    choices: tuple | None = None
    help: str | None = None


class _Command(NamedTuple):
    """A command: its pipeline, help line, parameters, and a domain check of
    the complete parameter map beyond each value's own, which also fills in
    the defaults that depend on another parameter."""

    pipeline: Callable[[dict[str, Any]], tuple]
    help: str
    options: dict[str, _Option]
    check: Callable[[dict[str, Any]], Any] = lambda params: None


# the Python types a config may give for an option of each type, a bool only
# for a bool; a string option is checked by its choices or its parser (a-rule)
_KINDS = {
    float: ((int, float), "a number"),
    _floats: ((int, float), "a list of numbers"),
    int: (int, "an integer"),
    bool: (bool, "true or false"),
}
_POSITIVE = (lambda v: v > 0, "must be positive")
_POTENTIALS = ("coulomb", "well")
_COULOMB_ONLY = "coulomb only, 1 unless given"
# --strict shapes the exit status, so it is a parameter a replay keeps
_STRICT = _Option(bool, None, help="exit nonzero when accuracy warnings occur")


def _check_sweep(p: dict[str, Any]) -> None:
    # the h sweep of scott and local-trace feeds a fit (numerics.HSweep)
    numerics.require_decreasing(p["h_values"], least=2)


def _check_potential(p: dict[str, Any]) -> None:
    # z and shift shape the Coulomb potential alone, and are 1.0 unless given
    if p["potential"] == "coulomb":
        p.setdefault("z", 1.0)
        p.setdefault("shift", 1.0)
    elif given := sorted({"z", "shift"} & set(p)):
        raise ValueError(f"the well takes no {' or '.join(given)}")


_COMMAND_TABLE = {
    "hydrogen": _Command(_pipeline_hydrogen, "exact hydrogen eigenvalue sum", {
        "z": _Option(float, domain=_POSITIVE),
        "h": _Option(float, domain=_POSITIVE),
        "k": _Option(int, None, (lambda v: v >= 1, "must be at least 1"),
                     help="also report the closed three-term split at K"),
    }, lambda p: scott._require_levels(p["z"], p["h"])),
    "weyl": _Command(_pipeline_weyl, "Weyl phase-space energy integral", {
        "n": _Option(int, 3, choices=(1, 3)),
        "potential": _Option(str, "coulomb", choices=_POTENTIALS),
        "z": _Option(float, None, _POSITIVE, help=_COULOMB_ONLY),
        "shift": _Option(float, None, help=_COULOMB_ONLY),
        "h": _Option(float, 1.0, _POSITIVE),
    }, _check_potential),
    "tf-atom": _Command(_pipeline_tf_atom, "Thomas-Fermi atom tables", {
        "z": _Option(float, domain=_POSITIVE),
    }, lambda p: thomas_fermi._require_charge(p["z"])),
    "scott": _Command(_pipeline_scott, "Scott coefficient experiment", {
        "z": _Option(float, domain=_POSITIVE),
        "h_values": _Option(_floats, domain=_POSITIVE,
                            help="comma-separated strictly decreasing h sweep"),
        "x_max": _Option(float, 15.0, _POSITIVE),
        "spacing_scale": _Option(float, 1.0, (lambda v: 0 < v <= 1, "must lie in (0, 1]")),
    }, lambda p: _check_sweep(p) or thomas_fermi._require_charge(p["z"])),
    "local-trace": _Command(_pipeline_local_trace, "localized trace vs Weyl sweep", {
        "h_values": _Option(_floats, domain=_POSITIVE),
        "n": _Option(int, 3, choices=(1, 3)),
        "potential": _Option(str, "well", choices=_POTENTIALS),
        "z": _Option(float, None, _POSITIVE, help=_COULOMB_ONLY),
        "shift": _Option(float, None, help=_COULOMB_ONLY),
        "bump_center": _Option(float, 0.0),
        "bump_radius": _Option(float, 2.0, _POSITIVE),
    }, lambda p: _check_sweep(p) or _check_potential(p) or p["n"] == 1
        or semiclassics._require_radial_bump(
            numerics.Bump(p["bump_center"], p["bump_radius"]))),
    "coherent-check": _Command(_pipeline_coherent_check, "coherent-state identity suite", {
        "h_values": _Option(_floats, domain=_POSITIVE),
        "a_rule": _Option(str, "h^-0.8",
                          help="localization rule, e.g. h^-0.8 or a constant"),
        "half_width": _Option(float, 4.0, _POSITIVE),
    }, _coherent_cases),
}
COMMANDS = tuple(_COMMAND_TABLE)


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scottlab",
        description="Semiclassical spectral-sum experiments "
        "(Scott correction, Weyl terms, coherent states, Thomas-Fermi atoms).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, spec in _COMMAND_TABLE.items():
        sp = sub.add_parser(command, help=spec.help)
        for key, option in spec.options.items():
            # the h sweep is given as --h
            flag = "--h" if key == "h_values" else "--" + key.replace("_", "-")
            required = option.default is REQUIRED
            sp.add_argument(flag, dest=key, type=option.type, choices=option.choices,
                            required=required, help=option.help,
                            default=None if required else option.default)
        sp.add_argument("--out", dest="out", default=None,
                        help="output file path; stdout when omitted")
        sp.add_argument("--format", dest="format", choices=("csv", "json"), default="csv")
        sp.add_argument("--strict", action="store_true", help=_STRICT.help)
    return parser


# built once, with the module: argparse imports locale for its message lookup
# when it builds the first parser, which keeps that import out of a command
_PARSER = _build_parser()


def config_from_args(argv: Sequence[str]) -> RunConfig:
    args = vars(_PARSER.parse_args(list(argv)))
    command, out, fmt = args.pop("command"), args.pop("out"), args.pop("format")
    # every other argument the command line gives is a parameter
    params = {key: value for key, value in args.items() if value is not None}
    return RunConfig(command, params, output_path=out, format=fmt)


# ---------------------------------------------------------------------------
# output writing


def _render_csv(config: RunConfig, columns, rows, meta, warn_messages) -> str:
    buf = io.StringIO()
    buf.write(config.to_header_line() + "\n")
    buf.write("# meta: " + json.dumps(meta, sort_keys=True, allow_nan=False) + "\n")
    buf.write("# warnings: " + json.dumps(warn_messages) + "\n")
    buf.write(",".join(columns) + "\n")
    for row in rows:
        if not all(math.isfinite(v) for v in row if isinstance(v, float)):
            raise ValueError(f"non-finite value in the row {row!r}")
        buf.write(",".join(_fmt(v) for v in row) + "\n")
    return buf.getvalue()


def _render_json(config: RunConfig, columns, rows, meta, warn_messages) -> str:
    doc = {
        "config_header": config.to_header_line(),
        "columns": list(columns),
        "rows": [[v for v in row] for row in rows],
        "meta": meta,
        "warnings": warn_messages,
    }
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def run(config: RunConfig) -> int:
    """Execute one pipeline and write its artifacts; returns the exit status."""
    if config.output_path is not None:
        folder = os.path.dirname(config.output_path) or os.curdir
        if not os.path.isdir(folder):
            raise UsageError(f"output directory {folder!r} does not exist")
    pipeline = _COMMAND_TABLE[config.command].pipeline
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            columns, rows, meta = pipeline(config.parameters)
        except UsageError:
            raise
        except Exception as exc:  # solver failure -> status 1
            print(f"scottlab: {config.command} failed: {exc}", file=sys.stderr)
            return 1
    recorded = meta.pop("recorded_warnings", [])
    warn_messages = sorted({str(w.message) for w in caught} | set(recorded))

    render = _render_csv if config.format == "csv" else _render_json
    sidecar = {
        "config_header": config.to_header_line(),
        "meta": meta,
        "warnings": warn_messages,
    }
    try:
        text = render(config, columns, rows, meta, warn_messages)
        sidecar_text = json.dumps(sidecar, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:  # a NaN or infinity in the results: no file
        print(f"scottlab: {config.command} failed: {exc}", file=sys.stderr)
        return 1
    if config.output_path is None:
        sys.stdout.write(text)
    else:
        with open(config.output_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        with open(
            config.output_path + ".meta.json", "w", encoding="utf-8", newline="\n"
        ) as fh:
            fh.write(sidecar_text + "\n")

    if warn_messages:
        for message in warn_messages:
            print(f"scottlab: warning: {message}", file=sys.stderr)
        if config.parameters.get("strict"):
            return 1
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    try:
        config = config_from_args(sys.argv[1:] if argv is None else argv)
        return run(config)
    except UsageError as exc:
        print(f"scottlab: usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
