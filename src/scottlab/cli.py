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
errors, non-finite numbers included.  Domain checks live in RunConfig, so a
configuration replayed from a results file is checked the same way.

The heavy imports happen inside the pipelines so that the thread-count
environment variable (SCOTTLAB_THREADS) can be applied to the BLAS layer
before numpy loads.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

__all__ = [
    "RunConfig",
    "main",
    "read_config",
    "run",
]

CONFIG_PREFIX = "# scottlab-config: "
COMMANDS = ("tf-atom", "coherent-check", "local-trace", "scott", "hydrogen", "weyl")

# parameters whose option is not "--" + the key with "_" -> "-"
_FLAGS = {"h_values": "--h"}

# commands whose h sweep feeds a fit and so needs at least two values
_SWEEP_COMMANDS = ("scott", "local-trace")

# domain of each numeric parameter (every entry of a sweep), where it has
# one beyond being finite
_DOMAINS = {
    "z": (lambda v: v > 0, "must be positive"),
    "h": (lambda v: v > 0, "must be positive"),
    "h_values": (lambda v: v > 0, "must be positive"),
    "x_max": (lambda v: v > 0, "must be positive"),
    "half_width": (lambda v: v > 0, "must be positive"),
    "bump_radius": (lambda v: v > 0, "must be positive"),
    "spacing_scale": (lambda v: 0 < v <= 1, "must lie in (0, 1]"),
    "extra_channels": (lambda v: v >= 0, "must be nonnegative"),
    "spacing_divisor": (lambda v: v >= 8, "must be at least 8"),
    "k": (lambda v: v >= 1, "must be at least 1"),
    "bump_order": (lambda v: v >= 1, "must be at least 1"),
}


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
            values = value if isinstance(value, (list, tuple)) else (value,)
            numbers = [
                v for v in values
                if isinstance(v, (int, float)) and not isinstance(v, bool)
            ]
            # ints are always finite, and huge ones overflow math.isfinite
            if not all(math.isfinite(v) for v in numbers if isinstance(v, float)):
                raise UsageError(f"{key} must be a finite number")
            if key in _DOMAINS:
                test, rule = _DOMAINS[key]
                if not all(test(v) for v in numbers):
                    raise UsageError(f"{key} {rule}")
        hs = list(self.parameters.get("h_values", ()))
        if any(b >= a for a, b in zip(hs, hs[1:])):
            raise UsageError("h values must be strictly decreasing")
        if self.command in _SWEEP_COMMANDS and len(hs) < 2:
            raise UsageError("the h sweep needs at least two values")
        if self.command == "coherent-check":
            a_rule = _parse_a_rule(self.parameters.get("a_rule", "h^-0.8"))
            for h in hs:
                try:
                    a = a_rule(h)
                except OverflowError:
                    a = math.inf
                if not 0 < a < 1.0 / h:
                    raise UsageError(
                        f"a-rule gives a outside (0, 1/h) at h = {h:g}"
                    )

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

    def to_argv(self) -> list[str]:
        """Command line that reproduces this run."""
        argv = [self.command]
        for key in sorted(self.parameters):
            value = self.parameters[key]
            flag = _FLAGS.get(key, "--" + key.replace("_", "-"))
            if isinstance(value, bool):
                if value:
                    argv.append(flag)
            elif isinstance(value, (list, tuple)):
                argv.extend([flag, ",".join(_fmt(v) for v in value)])
            else:
                argv.extend([flag, _fmt(value)])
        if self.output_path is not None:
            argv.extend(["--out", self.output_path])
        argv.extend(["--format", self.format])
        return argv


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
    from .scott import hydrogen_exact_sum, hydrogen_expansion_check

    z, h = params["z"], params["h"]
    columns = ["z", "h", "sum"]
    rows = [[z, h, hydrogen_exact_sum(z, h)]]
    meta: dict[str, Any] = {}
    if params.get("k") is not None:
        exp = hydrogen_expansion_check(z, int(params["k"]))
        meta["expansion"] = {
            "K": int(exp.K),
            "h": str(exp.h),
            "sum": str(exp.sum),
            "leading": str(exp.leading),
            "scott": str(exp.scott),
            "remainder": str(exp.remainder),
        }
    return columns, rows, meta


def _named_potential(params: dict[str, Any], n: int):
    import numpy as np

    name = params.get("potential", "coulomb")
    z, shift = params.get("z", 1.0), params.get("shift", 1.0)
    if name == "coulomb":
        return lambda r: -z / np.abs(np.asarray(r, dtype=float)) + shift
    if name == "well":
        def well(r):
            r = np.asarray(r, dtype=float)
            return np.where(np.abs(r) < 1.0, -((1.0 - r * r) ** 2), 0.0)

        return well
    raise UsageError(f"unknown potential {name!r}")


def _pipeline_weyl(params: dict[str, Any]):
    from .semiclassics import WeylSpec, weyl_energy

    n, h = int(params["n"]), params["h"]
    potential = _named_potential(params, n)
    value = weyl_energy(WeylSpec(n=n, potential=potential, bump=None, h=h))
    columns = ["n", "z", "shift", "h", "weyl"]
    rows = [[n, params.get("z", 1.0), params.get("shift", 1.0), h, value]]
    return columns, rows, {"potential": params.get("potential", "coulomb")}


def _pipeline_tf_atom(params: dict[str, Any]):
    from .thomas_fermi import atomic_tf

    sol = atomic_tf(params["z"])
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
    from .scott import scott_experiment_tf

    experiment = scott_experiment_tf(
        params["z"],
        params["h_values"],
        x_max=params.get("x_max", 15.0),
        spacing_scale=params.get("spacing_scale", 1.0),
        extra_channels=int(params.get("extra_channels", 0)),
    )
    columns = ["h", "quantum", "weyl", "scott", "residual"]
    rows = [
        [row.h, row.quantum_sum, row.weyl_sum, row.scott_term, row.residual]
        for row in experiment.results
    ]
    meta = {
        "scott_coefficient": experiment.scott_coefficient,
        "fit": _fit_summary(experiment.fit),
        "recorded_warnings": list(experiment.warnings),
    }
    return columns, rows, meta


def _pipeline_local_trace(params: dict[str, Any]):
    from .numerics import make_bump
    from .semiclassics import local_trace_experiment

    n = int(params.get("n", 3))
    bump = make_bump(
        center=params.get("bump_center", 0.0),
        radius=params.get("bump_radius", 2.0),
        order=int(params.get("bump_order", 4)),
    )
    potential = _named_potential(params, n)
    results, fit = local_trace_experiment(
        potential,
        bump,
        params["h_values"],
        n=n,
        spacing_divisor=params.get("spacing_divisor", 8.0),
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


def _pipeline_coherent_check(params: dict[str, Any]):
    import numpy as np

    from .coherent import (
        CoherentParams,
        PhasePoint,
        gaussian_moment_cancellation,
        harmonic_symbol,
        representation_error_norm,
        resolution_of_identity_check,
        weight_w,
    )
    from .numerics import Grid1D

    a_rule = _parse_a_rule(params.get("a_rule", "h^-0.8"))
    half = params.get("half_width", 4.0)
    sym = harmonic_symbol()
    columns = [
        "h", "a", "b",
        "weight_dev", "resolution_dev", "cancellation", "representation_err",
        "err_over_h2b",
    ]
    rows = []
    for h in params["h_values"]:
        p = CoherentParams(h=h, a=a_rule(h))
        # weight normalization over +-9 Gaussian widths
        alpha = p.a / (1.0 - p.h * p.a)
        span = 9.0 / math.sqrt(2.0 * alpha)
        t = np.linspace(-span, span, 801)
        uu, qq = np.meshgrid(t, t, indexing="ij")
        w_vals = weight_w(p, uu, qq)
        step = t[1] - t[0]
        weight_dev = float(np.sum(w_vals) * step * step - 1.0)

        dx = min(h, 1.0 / math.sqrt(p.b)) / 6.0
        n_pts = int(round(2.0 * half / dx)) + 1
        grid = Grid1D.uniform(-half, half, n_pts)
        # the identity check wants the test vector to decay below the
        # quadrature floor before the grid ends, so it gets a wider box
        r_half = max(half, 7.0)
        r_n = int(round(2.0 * r_half / dx)) + 1
        r_grid = Grid1D.uniform(-r_half, r_half, r_n)
        psi = np.exp(-r_grid.points**2 / 2.0)
        psi /= math.sqrt(float(np.sum(psi**2) * r_grid.spacing))
        resolution = resolution_of_identity_check(p, psi, r_grid)
        cancel = gaussian_moment_cancellation(sym, p, PhasePoint(0.3, -0.2))
        rep = representation_error_norm(sym, p, grid)
        rows.append([
            h, p.a, p.b, weight_dev, resolution, cancel, rep,
            rep / (h * h * p.b),
        ])
    return columns, rows, {"symbol": "q^2 + u^2", "grid_half_width": half}


_PIPELINES = {
    "hydrogen": _pipeline_hydrogen,
    "weyl": _pipeline_weyl,
    "tf-atom": _pipeline_tf_atom,
    "scott": _pipeline_scott,
    "local-trace": _pipeline_local_trace,
    "coherent-check": _pipeline_coherent_check,
}


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
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
    sp.add_argument("--extra-channels", type=int, default=0)
    common(sp)

    sp = sub.add_parser("local-trace", help="localized trace vs Weyl sweep")
    sp.add_argument("--h", dest="h_values", type=_floats, required=True)
    sp.add_argument("--n", type=int, choices=(1, 3), default=3)
    sp.add_argument("--potential", choices=("coulomb", "well"), default="well")
    sp.add_argument("--z", type=float, default=1.0)
    sp.add_argument("--shift", type=float, default=1.0)
    sp.add_argument("--bump-center", type=float, default=0.0)
    sp.add_argument("--bump-radius", type=float, default=2.0)
    sp.add_argument("--bump-order", type=int, default=4)
    sp.add_argument("--spacing-divisor", type=float, default=8.0)
    common(sp)

    sp = sub.add_parser("coherent-check", help="coherent-state identity suite")
    sp.add_argument("--h", dest="h_values", type=_floats, required=True)
    sp.add_argument("--a-rule", dest="a_rule", default="h^-0.8",
                    help="localization rule, e.g. h^-0.8 or a constant")
    sp.add_argument("--half-width", type=float, default=4.0)
    common(sp)

    return parser


def config_from_args(argv: Sequence[str]) -> RunConfig:
    parser = _build_parser()
    ns = parser.parse_args(list(argv))
    # every subcommand argument except the output options is a parameter
    params = {
        key: value
        for key, value in vars(ns).items()
        if key not in ("command", "out", "format", "strict") and value is not None
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
    buf.write("# meta: " + json.dumps(meta, sort_keys=True) + "\n")
    buf.write("# warnings: " + json.dumps(warn_messages) + "\n")
    buf.write(",".join(columns) + "\n")
    for row in rows:
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
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


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
    text = render(config, columns, rows, meta, warn_messages)
    if config.output_path is None:
        sys.stdout.write(text)
    else:
        with open(config.output_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        sidecar = {
            "config_header": config.to_header_line(),
            "meta": meta,
            "warnings": warn_messages,
        }
        with open(
            config.output_path + ".meta.json", "w", encoding="utf-8", newline="\n"
        ) as fh:
            fh.write(json.dumps(sidecar, sort_keys=True, indent=2) + "\n")

    if warn_messages:
        for message in warn_messages:
            print(f"scottlab: warning: {message}", file=sys.stderr)
        if config.parameters.get("strict"):
            return 1
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    if "SCOTTLAB_THREADS" in os.environ:
        count = os.environ["SCOTTLAB_THREADS"]
        for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(name, count)
    try:
        config = config_from_args(sys.argv[1:] if argv is None else argv)
        return run(config)
    except UsageError as exc:
        print(f"scottlab: usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
