"""The four benchmark workloads: seeded inputs, one job, and its correctness gate.

Every workload draws its inputs from the benchmark seed and hands sphereflow
only the generated values.  A job is the workload's unit of user work; its
gate returns ``None`` when the output is correct and a one-line reason when
it is not.  Jobs call sphereflow's public functions only, each inside a
tracer span, so the traced run sees the same calls the untraced run makes.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np
from scipy.integrate import quad

from sphereflow import cli, exact, grid, spharm, timestep, verify

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: Sizes per scale.  ``full`` is what the benchmark measures; ``tiny`` keeps
#: the smoke test fast and exercises the same code paths.
SCALES = {
    "full": {
        "checks": {"nlat": 256, "nlon": 128, "lmax": 64, "ntheta": 4096},
        "evolve": {"lmax": 127, "steps": 2, "dt": 2e-3, "amplitude": 10.0},
        "drift": {"lmaxes": (15, 31, 63), "nu": 1e-2, "t_final": 0.5},
        "fields": {"nlat": 256, "nlon": 512},
        "layers": {
            "spharm_ls": (15, 31, 63, 127),
            "rhs_ls": (31, 63, 127),
            # lmax -> repetitions of the 1- and 2-step evolve calls
            "step_reps": {31: 3, 63: 3, 127: 1},
            "profile_ns": (256, 4096),
            "reps": 3,
        },
    },
    "tiny": {
        "checks": {"nlat": 64, "nlon": 16, "lmax": 8, "ntheta": 512},
        "evolve": {"lmax": 15, "steps": 2, "dt": 2e-3, "amplitude": 10.0},
        "drift": {"lmaxes": (15, 31), "nu": 1e-2, "t_final": 0.5},
        "fields": {"nlat": 16, "nlon": 32},
        "layers": {
            "spharm_ls": (7, 15),
            "rhs_ls": (7, 15),
            "step_reps": {7: 1, 15: 1},
            "profile_ns": (16, 512),
            "reps": 1,
        },
    },
}

#: Relative change of energy and enstrophy allowed over one evolve job.  The
#: seed code measures about 1e-10 and 1e-7 at lmax 127, dt 2e-3, 2 steps.
ENERGY_GATE = 1e-8
ENSTROPHY_GATE = 1e-5

#: psi read back must match the quadrature oracle to this share of max|psi|.
PSI_GATE = 1e-10


class K1Sequence:
    """Vortex-pair strengths with |k1| in [0.5, 3] and a random sign.

    |k1| follows a golden-ratio sequence from a seeded start, so every prefix
    of the jobs covers the range evenly; the quadrature cost of ``checks``
    depends on k1, and an even cover keeps the job median independent of
    how many jobs a run reaches.
    """

    def __init__(self, rng: np.random.Generator):
        self._u0 = float(rng.random())
        self._signs = rng.choice([-1.0, 1.0], size=1024)

    def __call__(self, i: int) -> float:
        u = (self._u0 + i * GOLDEN) % 1.0
        return float(self._signs[i % self._signs.size] * (0.5 + 2.5 * u))


def red_field(lmax: int, rng: np.random.Generator, amplitude: float) -> spharm.SpectralField:
    """Zero-mean real vorticity with a red spectrum and coefficient norm ``amplitude``."""
    f = spharm.random_real_field(lmax, rng)
    ls = np.arange(lmax + 1, dtype=np.float64)[:, None]
    c = f.coeffs / (ls + 1.0)
    return spharm.SpectralField(lmax, c * (amplitude / np.sqrt(np.sum(np.abs(c) ** 2))))


class Workload:
    name = ""

    def __init__(self, seed: int, scale: str, workdir: str):
        self.seed = seed
        self.sizes = SCALES[scale]
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.k1 = K1Sequence(self.rng)

    def setup(self, tracer) -> None:
        """Build what every job needs, before the warm-up job."""

    def job_k1(self, i: int) -> float:
        """Vortex-pair strength of job ``i``."""
        return self.k1(i)

    def teardown(self) -> None:
        """Remove what the jobs left on disk."""

    def job(self, i: int, tracer):
        raise NotImplementedError

    def gate(self, i: int, out):
        raise NotImplementedError


class Checks(Workload):
    """``sphereflow checks`` at the CLI defaults: one run_all_checks per job."""

    name = "checks"

    def job(self, i, tracer):
        s = self.sizes["checks"]
        p = exact.VortexPairParams(k1=self.job_k1(i))
        with tracer.span("verify.run_all_checks"):
            return verify.run_all_checks(
                nlat=s["nlat"], nlon=s["nlon"], lmax=s["lmax"], ntheta=s["ntheta"], p=p
            )

    def gate(self, i, reports):
        if len(reports) != 7:
            return f"expected 7 reports, got {len(reports)}"
        failed = [r.name for r in reports if not r.passed]
        return f"reports failed: {', '.join(failed)}" if failed else None


class Evolve(Workload):
    """``sphereflow evolve`` hot loop: one evolve call of a few RK4 steps at lmax 127."""

    name = "evolve-l127"

    def setup(self, tracer):
        s = self.sizes["evolve"]
        L = s["lmax"]
        with tracer.span("timestep.transform_plan_for", f"l{L}"):
            self.plan = timestep.transform_plan_for(L, True)
        with tracer.span("spharm.random_real_field", f"l{L}"):
            self.omega0 = red_field(L, self.rng, s["amplitude"])
        self.cfg = timestep.EvolutionConfig(nu=0.0, dt=s["dt"], steps=s["steps"], lmax=L)

    def job(self, i, tracer):
        with tracer.span("timestep.evolve", f"l{self.cfg.lmax}", steps=self.cfg.steps):
            return timestep.evolve(self.omega0, self.cfg)

    def gate(self, i, series):
        for name, limit in (("energy", ENERGY_GATE), ("enstrophy", ENSTROPHY_GATE)):
            v = getattr(series, name)
            if not np.all(np.isfinite(v)) or v[0] <= 0.0:
                return f"{name} not finite and positive"
            change = abs(v[-1] / v[0] - 1.0)
            if not change <= limit:
                return f"relative {name} change {change:.3e} exceeds {limit:.0e}"
        return None


class DriftSweep(Workload):
    """The steadiness-under-truncation claim: steadiness_drift at three truncations."""

    name = "drift-sweep"

    def job(self, i, tracer):
        s = self.sizes["drift"]
        p = exact.VortexPairParams(k1=self.job_k1(i))
        drifts = []
        for L in s["lmaxes"]:
            with tracer.span("timestep.steadiness_drift", f"l{L}"):
                drifts.append(timestep.steadiness_drift(p, L, s["nu"], s["t_final"]))
        return drifts

    def gate(self, i, drifts):
        d = np.asarray(drifts, dtype=np.float64)
        if not np.all(np.isfinite(d)) or not np.all(d > 0.0):
            return f"drifts not finite and positive: {drifts}"
        if not np.all(np.diff(d) < 0.0):
            return f"drift does not decrease with lmax: {drifts}"
        return None


FIELD_NAMES = ("omega", "psi", "uphi")


class FieldsIO(Workload):
    """``sphereflow fields`` to CSV, then every CSV read back with read_scalar_field.

    Jobs come in pairs with identical arguments (jobs 2j and 2j+1 share k1)
    so the gate can demand byte-identical files.
    """

    name = "fields-io"

    def setup(self, tracer):
        s = self.sizes["fields"]
        with tracer.span("grid.build_grid"):
            self.grid = grid.build_grid(grid.GridSpec(nlat=s["nlat"], nlon=s["nlon"]))
        self.out = os.path.join(self.workdir, "fields")
        os.makedirs(self.out, exist_ok=True)
        self._digests = {}

    def job_k1(self, i):
        return self.k1(i // 2)

    def job(self, i, tracer):
        s = self.sizes["fields"]
        k1 = self.job_k1(i)
        argv = [
            "fields", "--nlat", str(s["nlat"]), "--nlon", str(s["nlon"]),
            "--k1", repr(k1), "--out", self.out,
        ]
        with tracer.span("cli.fields"):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"sphereflow fields exited with {rc}")
        arrays = {}
        for name in FIELD_NAMES:
            with tracer.span("grid.read_scalar_field"):
                arrays[name] = grid.read_scalar_field(os.path.join(self.out, f"{name}.csv"))
        return {"k1": k1, "arrays": arrays}

    def teardown(self):
        for name in FIELD_NAMES:
            path = os.path.join(self.out, f"{name}.csv")
            if os.path.exists(path):
                os.remove(path)

    def digests(self):
        out = {}
        for name in FIELD_NAMES:
            with open(os.path.join(self.out, f"{name}.csv"), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
        return out

    def gate(self, i, out):
        g, k1 = self.grid, out["k1"]
        for name, (thetas, phis, values) in out["arrays"].items():
            if values.shape != (g.nlat, g.nlon):
                return f"{name} has shape {values.shape}, grid is {(g.nlat, g.nlon)}"
            if not (np.array_equal(thetas, g.thetas) and np.array_equal(phis, g.phis)):
                return f"{name} axes do not round-trip"
            if not np.all(values == values[:, :1]):
                return f"{name} is not zonal"
        omega = out["arrays"]["omega"][2][:, 0]
        if not np.array_equal(omega, k1 * np.log(np.tan(0.5 * g.thetas))):
            return "omega does not round-trip k1*log(tan(theta/2)) to 17 digits"
        psi = out["arrays"]["psi"][2][:, 0]
        oracle = psi_oracle(g.thetas, k1)
        err = float(np.max(np.abs(psi - oracle)))
        if not err <= PSI_GATE * max(1.0, float(np.max(np.abs(oracle)))):
            return f"psi differs from the quadrature oracle by {err:.3e}"
        # the files on disk are still this job's: the next job has not run yet
        digests = self.digests()
        pair = i - 1 if i % 2 else i + 1
        if pair in self._digests and self._digests[pair] != digests:
            return f"jobs {pair} and {i} had identical arguments but wrote different bytes"
        self._digests[i] = digests
        return None


def psi_oracle(thetas: np.ndarray, k1: float) -> np.ndarray:
    """psi(theta) = -int_0^theta u_phi, one scalar quad per node from the pole.

    Independent of sphereflow: the integrand is the closed-form velocity
    written with ``math``, and no node reuses another node's integral.
    """

    def u_phi(s: float) -> float:
        i_s = math.log(math.sin(s)) - math.cos(s) * math.log(math.tan(0.5 * s)) - math.log(2.0)
        return k1 * i_s / math.sin(s)

    return np.array(
        [-quad(u_phi, 0.0, t, limit=200, epsabs=1e-13, epsrel=1e-13)[0] for t in thetas]
    )


WORKLOADS = {cls.name: cls for cls in (Checks, Evolve, DriftSweep, FieldsIO)}
