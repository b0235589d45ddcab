"""The benchmark's three workloads and the checks on their outputs.

Each workload builds its inputs in ``setup`` (imports included, so that the
import cost lands in set-up time), runs one complete pass in ``run_pass``
and judges that pass in ``check``, which returns the list of failed
checks.  Checks compare against closed forms computed here or against
properties the method must have, never against stored output.  Nothing
here is random; README.md gives each workload's inputs and why.

Modules are reached through their package attributes at call time
(``scottlab.cli.main``), so the tracer's wrappers are seen when installed.
"""

from __future__ import annotations

import json
import math
import os

SCOTT_ARGS = ["scott", "--z", "1", "--h", "0.12,0.09,0.07,0.05"]
COHERENT_ARGS = ["coherent-check", "--h", "0.4,0.25"]
TRIAL_H = (0.6, 0.5)
TRIAL_SUPPORT = 1.5


def _read_csv(text: str):
    """(meta, rows) of a scottlab CSV results file."""
    meta, table = {}, []
    for line in text.splitlines():
        if line.startswith("# meta: "):
            meta = json.loads(line[len("# meta: "):])
        elif not line.startswith("#"):
            table.append(line.split(","))
    columns = table[0]
    return meta, [dict(zip(columns, map(float, row))) for row in table[1:]]


class Workload:
    name = ""

    def run_check(self) -> list[str]:
        """Checks made once per run, outside the timed passes."""
        return []


class CliWorkload(Workload):
    """One scottlab command run in-process through ``scottlab.cli.main``."""

    args: list[str] = []

    def setup(self, out_dir: str) -> None:
        import scottlab.cli  # noqa: F401  (import cost belongs to set-up)

        self.path = os.path.join(out_dir, self.name + ".csv")
        self.argv = self.args + ["--out", self.path]
        self.first = None

    def run_pass(self):
        import scottlab.cli

        status = scottlab.cli.main(self.argv)
        with open(self.path, "rb") as fh:
            return status, fh.read()

    def check(self, output) -> list[str]:
        status, blob = output
        if status != 0:
            return [f"scottlab exited with status {status}"]
        failures = []
        if self.first is None:
            self.first = blob
        elif blob != self.first:
            failures.append("output differs from the first pass of this process")
        meta, rows = _read_csv(blob.decode("utf-8"))
        return failures + self.check_rows(meta, rows)


class ScottSweep(CliWorkload):
    name = "scott-sweep"
    args = SCOTT_ARGS

    def check_rows(self, meta, rows) -> list[str]:
        failures = []
        coefficient = meta["scott_coefficient"]
        if not 0.115 <= coefficient <= 0.135:
            failures.append(f"Scott coefficient {coefficient} outside [0.115, 0.135]")
        weyl_h3 = [row["weyl"] * row["h"] ** 3 for row in rows]
        for row, scaled in zip(rows, weyl_h3):
            h = row["h"]
            if not math.isclose(row["scott"], 1.0 / (8.0 * h * h), rel_tol=1e-14):
                failures.append(f"h={h}: scott column {row['scott']} != 1/(8h^2)")
            if not math.isclose(scaled, weyl_h3[0], rel_tol=1e-9):
                failures.append(f"h={h}: weyl*h^3 {scaled} differs from {weyl_h3[0]}")
            if not row["quantum"] - row["weyl"] > 0.0:
                failures.append(f"h={h}: quantum - weyl is not positive")
        return failures

    def accuracy(self, output) -> dict:
        meta, _ = _read_csv(output[1].decode("utf-8"))
        return {"scott_coefficient": meta["scott_coefficient"], "target": 0.125}

    def run_check(self) -> list[str]:
        """Radial engine against the Bohr sum at h = 0.2, outside any pass."""
        import scottlab.spectra as spectra

        h = 0.2
        k_max = int(math.floor(1.0 / (2.0 * h) + 1e-12))
        exact = sum(n * n - 1.0 / (4.0 * h * h) for n in range(1, k_max + 1))
        problem = spectra.RadialProblem.build(
            lambda r: 1.0 / r, h=h, r_max=6.0, spacing=min(h / 8.0, h * h / 5.0)
        )
        value = spectra.neg_sum_radial(problem, shift=1.0).total.value
        if abs(value - exact) > 0.01 * abs(exact):
            return [f"radial Coulomb sum {value} not within 1% of Bohr sum {exact}"]
        return []


class CoherentCheck(CliWorkload):
    name = "coherent-check"
    args = COHERENT_ARGS

    def check_rows(self, meta, rows) -> list[str]:
        failures = []
        for row in rows:
            h = row["h"]
            if not abs(row["weight_dev"]) < 1e-8:
                failures.append(f"h={h}: weight_dev {row['weight_dev']}")
            if not row["resolution_dev"] < 1e-6:
                failures.append(f"h={h}: resolution_dev {row['resolution_dev']}")
            if not abs(row["cancellation"]) < 1e-8:
                failures.append(f"h={h}: cancellation {row['cancellation']}")
        ratios = [row["err_over_h2b"] for row in rows]
        if not (min(ratios) > 0.0 and max(ratios) / min(ratios) < 2.0):
            failures.append(f"err_over_h2b {ratios} varies by a factor of 2 or more")
        return failures

    def accuracy(self, output) -> dict:
        _, rows = _read_csv(output[1].decode("utf-8"))
        return {
            "resolution_dev": max(row["resolution_dev"] for row in rows),
            "err_over_h2b": [row["err_over_h2b"] for row in rows],
        }


class TrialDensity(Workload):
    """Trial density for q^2 + u^2 - 1 and its semiclassical upper bound."""

    name = "trial-density"

    def setup(self, out_dir: str) -> None:
        import scottlab.coherent as coherent
        from scottlab.numerics import Grid1D

        self.sym = coherent.harmonic_symbol(offset=-1.0)
        self.cases = []
        for h in TRIAL_H:
            # acceptance criterion 8's grid rule: Nyquist momentum above the
            # q range by five momentum spreads of a projected state
            p = coherent.CoherentParams(h=h, a=h**-0.8)
            spread = 1.0 / math.sqrt(2.0 * p.a)
            q_half = 1.0 + 10.0 / math.sqrt(p.a)
            half = TRIAL_SUPPORT + 7.0 * spread + 0.5
            dx = math.pi * p.h / (q_half + 5.0 * spread)
            n = 2 * int(math.ceil(half / dx)) + 1
            self.cases.append((p, Grid1D.uniform(-half, half, n)))

    def run_pass(self):
        import numpy as np
        import scottlab.coherent as coherent
        import scottlab.semiclassics as semiclassics

        out = []
        for p, grid in self.cases:
            gamma = coherent.trial_density_matrix(
                self.sym, p, grid, support_radius=TRIAL_SUPPORT
            )
            H = coherent.schrodinger_operator(self.sym, grid, p.h)
            energy = float(np.real(np.sum(H.matrix * gamma.matrix.T)))
            weyl = semiclassics.weyl_energy(
                semiclassics.WeylSpec(n=1, potential=lambda u: u * u - 1.0, h=p.h)
            )
            c_h = (energy - weyl) * p.h ** (-0.2)
            out.append({"h": p.h, "gamma": gamma, "H": H, "energy": energy,
                        "weyl": weyl, "C": c_h})
        return out

    def check(self, output) -> list[str]:
        failures = []
        for case in output:
            h = case["h"]
            w = case["gamma"].eigenvalues()
            if not (w[0] >= -1e-6 and w[-1] <= 1.0 + 1e-6):
                failures.append(f"h={h}: spec(gamma) [{w[0]}, {w[-1]}] escapes [0, 1]")
            negative = case["H"].negative_sum()
            if not case["energy"] >= negative:
                failures.append(f"h={h}: Tr(H gamma) {case['energy']} below Tr(H)_- {negative}")
            oscillator = sum(
                min(h * (2 * k + 1) - 1.0, 0.0) for k in range(int(1.0 / (2.0 * h)) + 2)
            )
            if not abs(negative - oscillator) <= 1e-6:
                failures.append(f"h={h}: grid Tr(H)_- {negative} != oscillator sum {oscillator}")
            if not abs(case["weyl"] + 1.0 / (4.0 * h)) <= 1e-9:
                failures.append(f"h={h}: Weyl term {case['weyl']} != -1/(4h)")
        constants = [case["C"] for case in output]
        if not (min(constants) > 0.0 and max(constants) / min(constants) < 2.0):
            failures.append(f"C(h) {constants} not positive with max/min below 2")
        return failures

    def accuracy(self, output) -> dict:
        return {"C": {str(case["h"]): case["C"] for case in output}}


WORKLOADS = {cls.name: cls for cls in (ScottSweep, CoherentCheck, TrialDensity)}
