"""Command-line front end: experiment runner with reproducible tables.

Each command runs one pipeline and writes a results table plus metadata.
CSV output starts with '#'-prefixed header lines; the first carries the full
resolved run configuration as JSON and round-trips through
``RunConfig.from_header_line``, so any output file reproduces its run.  When
an output path is given, a ``<path>.meta.json`` sidecar carries the fit
summaries and accuracy warnings.  Floats print with 17 significant digits,
'.' decimal separator, LF line endings; nothing in the output depends on
wall-clock time or iteration order, so repeated runs are byte-identical.

Exit status: 0 on success, 1 on solver failure (diagnostic on stderr) or,
under --strict, when the run emitted accuracy warnings; 2 on usage or domain
errors, non-numeric and non-finite values included.  Domain checks live in
RunConfig, so a configuration replayed from a results file is checked the
same way; they include the charges whose results stay finite floats, and a
replayed parameter map must hold exactly what the command's parser sets.  A
result that still holds a NaN or infinity is a solver failure and writes no
file: every JSON part is serialized with allow_nan=False.

Pipelines call the library through its modules (``scott.scott_experiment_tf``),
so a function replaced on its module, as a profiler does, is the one called.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
import warnings
from dataclasses import dataclass
from functools import cache
from typing import Any, Callable, Sequence

import numpy as np

from . import coherent, numerics, scott, semiclassics, thomas_fermi

__all__ = [
    "RunConfig",
    "main",
    "read_config",
    "run",
]

CONFIG_PREFIX = "# scottlab-config: "

# commands whose h sweep feeds a fit and so needs at least two values
_SWEEP_COMMANDS = ("scott", "local-trace")

# commands that solve the Thomas-Fermi atom of charge z
_TF_COMMANDS = ("tf-atom", "scott")

# every parameter the parser reads as a number, with its domain (for each
# entry of a sweep) beyond being a finite number, or None for any number
_NUMBERS = {
    "z": (lambda v: v > 0, "must be positive"),
    "h": (lambda v: v > 0, "must be positive"),
    "h_values": (lambda v: v > 0, "must be positive"),
    "x_max": (lambda v: v > 0, "must be positive"),
    "half_width": (lambda v: v > 0, "must be positive"),
    "bump_radius": (lambda v: v > 0, "must be positive"),
    "spacing_scale": (lambda v: 0 < v <= 1, "must lie in (0, 1]"),
    "spacing_divisor": (lambda v: v >= 8, "must be at least 8"),
    "k": (lambda v: v >= 1, "must be at least 1"),
    "n": (lambda v: v in (1, 3), "must be 1 or 3"),
    "shift": None,
    "bump_center": None,
}
# numeric parameters that hold a sweep of values
_SWEEPS = ("h_values",)
# options that shape the output rather than feed a pipeline
_OUTPUT_OPTIONS = ("out", "format", "strict")


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
        for key, value in self.parameters.items():
            if key not in _NUMBERS:
                continue
            sweep = key in _SWEEPS
            values = value if sweep else (value,)
            if not isinstance(values, (list, tuple)) or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in values
            ):
                kind = "a list of numbers" if sweep else "a number"
                raise UsageError(f"{key} must be {kind}, got {value!r}")
            # ints are always finite, and huge ones overflow math.isfinite
            if not all(math.isfinite(v) for v in values if isinstance(v, float)):
                raise UsageError(f"{key} must be a finite number")
            if _NUMBERS[key] is not None:
                test, rule = _NUMBERS[key]
                if not all(test(v) for v in values):
                    raise UsageError(f"{key} {rule}")
        hs = list(self.parameters.get("h_values", ()))
        if any(b >= a for a, b in zip(hs, hs[1:])):
            raise UsageError("h values must be strictly decreasing")
        if self.command in _SWEEP_COMMANDS and len(hs) < 2:
            raise UsageError("the h sweep needs at least two values")
        filled, known = _parameter_names(self.command)
        unknown = set(self.parameters) - known
        if unknown:
            raise UsageError(
                f"{self.command} takes no parameter {', '.join(sorted(unknown))}"
            )
        missing = filled - set(self.parameters)
        if missing:
            raise UsageError(
                f"{self.command} config lacks {', '.join(sorted(missing))}"
            )
        try:
            if self.command in _TF_COMMANDS:
                thomas_fermi._require_charge(self.parameters["z"])
            if self.command == "hydrogen":
                scott._require_levels(self.parameters["z"], self.parameters["h"])
            if self.command == "local-trace" and self.parameters["n"] == 3:
                bump = numerics.Bump(
                    self.parameters["bump_center"], self.parameters["bump_radius"]
                )
                semiclassics._require_radial_bump(bump)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        if self.command == "coherent-check":
            a_rule = _parse_a_rule(self.parameters["a_rule"])
            half = self.parameters["half_width"]
            for h in hs:
                try:
                    a = a_rule(h)
                except OverflowError:
                    a = math.inf
                if not 0 < a < 1.0 / h:
                    raise UsageError(
                        f"a-rule gives a outside (0, 1/h) at h = {h:g}"
                    )
                p = coherent.CoherentParams(h=h, a=a)
                try:
                    dx, width, n, r_half, r_n = _coherent_grids(p, half)
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
        exp = scott.hydrogen_expansion_check(z, int(params["k"]))
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
    name, z, shift = params["potential"], params["z"], params["shift"]
    if name == "coulomb":
        return lambda r: -z / np.abs(np.asarray(r, dtype=float)) + shift
    if name == "well":
        def well(r):
            r = np.asarray(r, dtype=float)
            return np.where(np.abs(r) < 1.0, -((1.0 - r * r) ** 2), 0.0)

        return well
    raise UsageError(f"unknown potential {name!r}")


def _pipeline_weyl(params: dict[str, Any]):
    n, h = int(params["n"]), params["h"]
    potential = _named_potential(params)
    spec = semiclassics.WeylSpec(n=n, potential=potential, bump=None, h=h)
    value = semiclassics.weyl_energy(spec)
    columns = ["n", "z", "shift", "h", "weyl"]
    rows = [[n, params["z"], params["shift"], h, value]]
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


def _fit_summary(fit) -> dict[str, Any]:
    return {
        "exponents": [float(e) for e in fit.exponents],
        "coefficients": [float(c) for c in fit.coefficients],
        "residual_norm": float(fit.residual_norm),
        "condition": float(fit.condition),
        "warnings": list(fit.warnings),
    }


def _pipeline_scott(params: dict[str, Any]):
    experiment = scott.scott_experiment_tf(
        params["z"],
        params["h_values"],
        x_max=params["x_max"],
        spacing_scale=params["spacing_scale"],
    )
    columns = ["h", "quantum", "weyl", "scott", "residual"]
    rows = [
        [row.h, row.quantum_sum, row.weyl_sum, row.scott_term, row.residual]
        for row in experiment.results
    ]
    meta = {
        "scott_coefficient": experiment.scott_coefficient,
        **experiment.fit_spread(),
        "per_h": list(experiment.per_h),
        "fit": _fit_summary(experiment.fit),
        "recorded_warnings": list(experiment.warnings),
    }
    return columns, rows, meta


def _pipeline_local_trace(params: dict[str, Any]):
    n = int(params["n"])
    bump = numerics.Bump(center=params["bump_center"], radius=params["bump_radius"])
    potential = _named_potential(params)
    results, fit = semiclassics.local_trace_experiment(
        potential,
        bump,
        params["h_values"],
        n=n,
        spacing_divisor=params["spacing_divisor"],
    )
    columns = ["h", "quantum", "weyl", "residual", "scaled_residual"]
    rows = [
        [row.h, row.quantum_sum, row.weyl_sum, row.residual,
         row.residual * row.h ** (n - 1.2)]
        for row in results
    ]
    recorded = list(fit.warnings)
    for row in results:
        recorded.extend(row.warnings)
    meta = {"fit": _fit_summary(fit), "recorded_warnings": recorded}
    return columns, rows, meta


def _coherent_grids(p, half: float) -> tuple[float, float, int, float, int]:
    """Spacing, and the half width and points of the representation grid and
    of the resolution grid at coherent parameters p, given --half-width half.

    The representation check drops an edge margin of at least
    coherent._edge_reach(p) per side, so its half width is at least that
    reach plus 0.5, which leaves a core window a unit wide.  The identity
    check wants its test vector to decay below the quadrature floor before
    the grid ends, so its grid is at least [-7, 7].
    """
    dx = min(p.h, 1.0 / math.sqrt(p.b)) / 6.0
    width = max(half, coherent._edge_reach(p) + 0.5)
    r_half = max(half, 7.0)
    n, r_n = (int(round(2.0 * w / dx)) + 1 for w in (width, r_half))
    return dx, width, n, r_half, r_n


def _pipeline_coherent_check(params: dict[str, Any]):
    a_rule = _parse_a_rule(params["a_rule"])
    half = params["half_width"]
    sym = coherent.harmonic_symbol()
    columns = [
        "h", "a", "b",
        "weight_dev", "resolution_dev", "cancellation", "representation_err",
        "err_over_h2b",
    ]
    rows, sizes = [], []
    for h in params["h_values"]:
        p = coherent.CoherentParams(h=h, a=a_rule(h))
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

        _, width, n_pts, r_half, r_n = _coherent_grids(p, half)
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
            h, p.a, p.b, weight_dev, resolution, cancel, rep,
            rep / (h * h * p.b),
        ])
        sizes.append({
            "h": h,
            "representation_grid_points": grid.size,
            "representation_u_nodes": coherent._representation_u_nodes(p, grid).size,
            "representation_factor_rank": coherent._factor_rank(p),
            "resolution_grid_points": r_grid.size,
            "resolution_q_nodes": coherent._resolution_nodes(p, r_grid).size,
        })
    meta = {"symbol": "q^2 + u^2", "grid_half_width": half, "problem_sizes": sizes}
    return columns, rows, meta


_PIPELINES = {
    "hydrogen": _pipeline_hydrogen,
    "weyl": _pipeline_weyl,
    "tf-atom": _pipeline_tf_atom,
    "scott": _pipeline_scott,
    "local-trace": _pipeline_local_trace,
    "coherent-check": _pipeline_coherent_check,
}
COMMANDS = tuple(_PIPELINES)


# ---------------------------------------------------------------------------
# argument parsing


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process, with the module."""
    parser = argparse.ArgumentParser(
        prog="scottlab",
        description="Semiclassical spectral-sum experiments "
        "(Scott correction, Weyl terms, coherent states, Thomas-Fermi atoms).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", dest="out", default=None,
                        help="output file path; stdout when omitted")
        sp.add_argument("--format", dest="format", choices=("csv", "json"),
                        default="csv")
        sp.add_argument("--strict", action="store_true",
                        help="exit nonzero when accuracy warnings occur")

    sp = sub.add_parser("hydrogen", help="exact hydrogen eigenvalue sum")
    sp.add_argument("--z", type=float, required=True)
    sp.add_argument("--h", type=float, required=True)
    sp.add_argument("--k", type=int, default=None,
                    help="also report the closed three-term split at K")
    common(sp)

    sp = sub.add_parser("weyl", help="Weyl phase-space energy integral")
    sp.add_argument("--n", type=int, choices=(1, 3), default=3)
    sp.add_argument("--potential", choices=("coulomb", "well"), default="coulomb")
    sp.add_argument("--z", type=float, default=1.0)
    sp.add_argument("--shift", type=float, default=1.0)
    sp.add_argument("--h", type=float, default=1.0)
    common(sp)

    sp = sub.add_parser("tf-atom", help="Thomas-Fermi atom tables")
    sp.add_argument("--z", type=float, required=True)
    common(sp)

    sp = sub.add_parser("scott", help="Scott coefficient experiment")
    sp.add_argument("--z", type=float, required=True)
    sp.add_argument("--h", dest="h_values", type=_floats, required=True,
                    help="comma-separated strictly decreasing h sweep")
    sp.add_argument("--x-max", type=float, default=15.0)
    sp.add_argument("--spacing-scale", type=float, default=1.0)
    common(sp)

    sp = sub.add_parser("local-trace", help="localized trace vs Weyl sweep")
    sp.add_argument("--h", dest="h_values", type=_floats, required=True)
    sp.add_argument("--n", type=int, choices=(1, 3), default=3)
    sp.add_argument("--potential", choices=("coulomb", "well"), default="well")
    sp.add_argument("--z", type=float, default=1.0)
    sp.add_argument("--shift", type=float, default=1.0)
    sp.add_argument("--bump-center", type=float, default=0.0)
    sp.add_argument("--bump-radius", type=float, default=2.0)
    sp.add_argument("--spacing-divisor", type=float, default=8.0)
    common(sp)

    sp = sub.add_parser("coherent-check", help="coherent-state identity suite")
    sp.add_argument("--h", dest="h_values", type=_floats, required=True)
    sp.add_argument("--a-rule", dest="a_rule", default="h^-0.8",
                    help="localization rule, e.g. h^-0.8 or a constant")
    sp.add_argument("--half-width", type=float, default=4.0)
    common(sp)

    return parser


# argparse imports locale for its message lookup when it builds the first
# parser, so building it here keeps that import out of the first command
_build_parser()


@cache
def _parameter_names(command: str) -> tuple[frozenset[str], frozenset[str]]:
    """(filled, known): the parameters the parser fills on every command line
    of a command, and all it can set.

    Known are the command's options apart from --out and --format, --strict
    included.  Filled are the required options and those with a default,
    --strict apart.  A config that lacks a filled one or holds one that is
    not known was not written by the parser and is a usage error.
    """
    sub = _build_parser()._subparsers._group_actions[0].choices[command]
    actions = [a for a in sub._actions if a.dest not in ("help", "out", "format")]
    filled = frozenset(
        a.dest
        for a in actions
        if a.dest != "strict" and (a.required or a.default is not None)
    )
    return filled, frozenset(a.dest for a in actions)


def config_from_args(argv: Sequence[str]) -> RunConfig:
    parser = _build_parser()
    ns = parser.parse_args(list(argv))
    # every subcommand argument except the output options is a parameter
    params = {
        key: value
        for key, value in vars(ns).items()
        if key not in ("command", *_OUTPUT_OPTIONS) and value is not None
    }
    params["strict"] = bool(ns.strict)
    return RunConfig(
        command=ns.command,
        parameters=params,
        output_path=ns.out,
        format=ns.format,
    )


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
    pipeline = _PIPELINES[config.command]
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
