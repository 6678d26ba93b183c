"""The three workloads: seeded request lists, one request, and its oracles.

Each workload is a closed loop with one client: the runner sends request
``i + 1`` when request ``i`` has returned.  ``requests()`` builds the whole
list from the seed given to the constructor before timing starts; the package
sees only the generated arguments.  ``run`` is the timed request, ``finish``
does the client's bookkeeping outside the latency timer, and ``check``
applies the oracles after the loop.

Request lists are built from blocks whose mix is fixed (systems, sizes, command
kinds) while the seed draws the parameters inside each block, so quantiles
stay comparable across seeds.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import oracles

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

K1_VALUES = (0.3, 0.5, 0.75, 1.0, 1.5)


@dataclass
class Verdict:
    """Oracle outcome of a run: one failed flag per executed request."""

    failed: list[bool]
    correct: bool
    notes: dict = field(default_factory=dict)


def _admissible(system: str) -> list[tuple[float, int]]:
    """(k1, branch sign) pairs: minus needs k1 <= 1/2, Coulomb needs k1 < sqrt(2)."""
    pairs = []
    for k1 in K1_VALUES:
        if system == "coulomb" and k1 >= math.sqrt(2.0):
            continue
        pairs.append((k1, 1))
        if k1 <= 0.5:
            pairs.append((k1, -1))
    return pairs


class _Cycle:
    """Endless seeded permutations of a fixed pool: every value recurs equally often."""

    def __init__(self, rng: np.random.Generator, pool) -> None:
        self.rng, self.pool, self.queue = rng, list(pool), []

    def next(self):
        if not self.queue:
            self.queue = [self.pool[i] for i in self.rng.permutation(len(self.pool))]
        return self.queue.pop()


# ---------------------------------------------------------------------------
# validate-all
# ---------------------------------------------------------------------------


class ValidateAll:
    """``validate --suite all`` in-process, the FD eigenvalue oracle's workload."""

    name = "validate-all"
    traced_requests = 1

    def __init__(self, seed: int, scratch: str, smoke: bool = False) -> None:
        from circle_sqm import cli

        self.cli, self.scratch = cli, scratch
        # the smoke run swaps in the cheapest suite so the plumbing runs in seconds
        self.suite = "contraction" if smoke else "all"

    def requests(self) -> list[tuple[str, ...]]:
        return [("validate", "--suite", self.suite)]

    def run(self, request, index: int):
        return self.cli.main(list(request) + ["--output", self._path(index)])

    def finish(self, request, index: int, code):
        path = self._path(index)
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        os.unlink(path)
        reports_passed = all(report["passed"] for report in payload["reports"])
        return {"code": code, "passed": payload["passed"] and reports_passed,
                "reports": len(payload["reports"])}

    def check(self, done) -> Verdict:
        failed = [out is None or out["code"] != 0 or not out["passed"] for _, out in done]
        return Verdict(failed, correct=not any(failed),
                       notes={"reports_per_request": sorted({out["reports"] for _, out in done
                                                             if out is not None})})

    def _path(self, index: int) -> str:
        return os.path.join(self.scratch, f"validate-{index}.json")


# ---------------------------------------------------------------------------
# closed-form
# ---------------------------------------------------------------------------

# Highest n whose norm and mpmath spot checks hold for every (k1, branch,
# size) the workload can draw, measured over all of them: beyond it the
# monomial Gauss series loses accuracy (ROADMAP item 3).  At these n the worst
# spot error is 0.46 (oscillator) and 0.35 (Coulomb) of its tolerance; one
# level higher it is 1.2 and 1.6.  Timed requests stay inside, so none fails;
# requests beyond are probed after the loop and their failure share reported.
ENVELOPE_N = {"oscillator": 11, "coulomb": 18}
MAX_N = 40
NORM_TARGET = {"oscillator": 1.0, "coulomb": 0.5}
NORM_TOL = 1e-8
SIZES = (1_000, 10_000, 100_000)
SPOT_FRACTIONS = (0.6, 0.85)
SPOT_REQUESTS = 6
BEYOND_PROBES = 24
BEYOND_SIZE = SIZES[0]


@dataclass(frozen=True)
class ClosedFormRequest:
    system: str  # "oscillator" | "coulomb"
    k1: float
    sign: int
    n: int
    size: int


class ClosedForm:
    """Library requests: energy, wavefunction on an interior grid, norm by quadrature."""

    name = "closed-form"
    traced_requests = 240  # ten blocks

    def __init__(self, seed: int, scratch: str, smoke: bool = False) -> None:
        import circle_sqm
        from circle_sqm import coulomb, oscillator
        from circle_sqm.numerics import quadrature

        self.pkg, self.coulomb, self.oscillator, self.quadrature = (
            circle_sqm, coulomb, oscillator, quadrature)
        self.seed = seed
        self.grids: dict[tuple[str, bool, int], np.ndarray] = {}
        if smoke:
            self.traced_requests = 8

    def requests(self) -> list[ClosedFormRequest]:
        """Blocks of 24: both systems x three sizes x (three n < 10, one n in
        10..ENVELOPE_N).

        n cycles per (system, size), so a few blocks give every size every n
        once and the cost mix barely depends on the seed.
        """
        rng = np.random.default_rng([self.seed, 1])
        pairs = {system: _Cycle(rng, _admissible(system)) for system in NORM_TARGET}
        levels = {(system, size, high): _Cycle(rng, range(10, ENVELOPE_N[system] + 1)
                                               if high else range(10))
                  for system in NORM_TARGET for size in SIZES for high in (False, True)}
        cells = [(system, size, high) for system in NORM_TARGET for size in SIZES
                 for high in (False, False, False, True)]
        out = []
        for _ in range(100):
            for i in rng.permutation(len(cells)):
                system, size, high = cells[i]
                k1, sign = pairs[system].next()
                n = int(levels[system, size, high].next())
                out.append(ClosedFormRequest(system, k1, sign, n, size))
        for req in out:
            self._grid(req)
        return out

    def _grid(self, req: ClosedFormRequest) -> np.ndarray:
        """Midpoint grid inside the motion domain, built once before timing."""
        two_sided = req.system == "oscillator" and req.k1 <= 0.5
        key = (req.system, two_sided, req.size)
        if key not in self.grids:
            if req.system == "coulomb":
                lo, hi = 0.0, math.pi
            else:
                lo, hi = (-math.pi / 2 if two_sided else 0.0), math.pi / 2
            step = (hi - lo) / req.size
            self.grids[key] = lo + (np.arange(req.size) + 0.5) * step
        return self.grids[key]

    def run(self, req: ClosedFormRequest, index: int):
        # every call goes through a module attribute, where a tracer can see it
        coulomb, oscillator = self.coulomb, self.oscillator
        branch = self.pkg.Branch.PLUS if req.sign > 0 else self.pkg.Branch.MINUS
        geometry = self.pkg.CircleGeometry(1.0)
        phi = self._grid(req)
        if req.system == "oscillator":
            system = oscillator.OscillatorSystem(geometry, omega=1.0, k1=req.k1, branch=branch)
            energy = oscillator.energy_level(system, req.n)
            psi = oscillator.wavefunction(system, req.n, phi)
            nodes, weights = self.quadrature.gauss_legendre_rule(
                48, 12, 0.0, math.pi / 2, endpoint_refinement=40)
            on_nodes = oscillator.wavefunction(system, req.n, nodes)
            norm = geometry.radius * float(np.dot(weights, on_nodes * on_nodes))
        else:
            system = coulomb.CoulombSystem(geometry, mu=1.0, k1=req.k1, branch=branch)
            energy = coulomb.energy_level(system, req.n)
            psi = coulomb.wavefunction(system, req.n, phi)
            norm = coulomb.diamond_norm(system, req.n)
        spots = [(float(phi[int(f * req.size)]), complex(psi[int(f * req.size)]))
                 for f in SPOT_FRACTIONS]
        return energy, norm, spots

    def finish(self, req, index: int, raw):
        return raw

    def check(self, done) -> Verdict:
        failed = [out is None or not _norm_ok(req, out[1]) for req, out in done]

        # mpmath spot values on a seeded subset of distinct executed requests
        rng = np.random.default_rng([self.seed, 2])
        distinct = {}
        for i, (req, out) in enumerate(done):
            if out is not None:
                distinct.setdefault(req, i)
        chosen = sorted(rng.permutation(sorted(distinct.values()))[:SPOT_REQUESTS].tolist())
        spot_missed = 0
        for i in chosen:
            req, (_, _, spots) = done[i]
            psi_fn = oracles.oscillator_psi if req.system == "oscillator" else oracles.coulomb_psi
            if not all(oracles.spot_matches(got, psi_fn(1.0, 1.0, req.k1, req.sign, req.n, phi))
                       for phi, got in spots):
                spot_missed += 1
                for j, (other, _) in enumerate(done):
                    if other == req:
                        failed[j] = True

        return Verdict(failed, correct=not any(failed), notes={
            "envelope_n": ENVELOPE_N,
            "mpmath_spot_requests": len(chosen),
            "mpmath_spot_misses": spot_missed,
            "beyond_envelope_probes": BEYOND_PROBES,
            "beyond_envelope_norm_fail_frac": self._probe_beyond_envelope() / BEYOND_PROBES,
        })

    def _probe_beyond_envelope(self) -> int:
        """Norm misses among seeded requests with n in (ENVELOPE_N, MAX_N].

        They run after the loop, untimed: the accuracy defect of ROADMAP
        item 3 is reported here rather than as failed timed requests.
        """
        rng = np.random.default_rng([self.seed, 4])
        missed = 0
        for i in range(BEYOND_PROBES):
            system = ("oscillator", "coulomb")[i % 2]
            pairs = _admissible(system)
            k1, sign = pairs[int(rng.integers(len(pairs)))]
            n = int(rng.integers(ENVELOPE_N[system] + 1, MAX_N + 1))
            req = ClosedFormRequest(system, k1, sign, n, BEYOND_SIZE)
            try:
                _, norm, _ = self.run(req, -1)
            except Exception:  # an error counts as a miss
                missed += 1
                continue
            missed += not _norm_ok(req, norm)
        return missed


def _norm_ok(req: ClosedFormRequest, norm: float) -> bool:
    return abs(norm - NORM_TARGET[req.system]) <= NORM_TOL


# ---------------------------------------------------------------------------
# cli-requests
# ---------------------------------------------------------------------------

GOLDEN_COMMANDS = (
    (("spectrum", "--system", "coulomb", "--mu", "1", "--radius", "1", "--k1", "1",
      "--levels", "3"), "spectrum_coulomb.json"),
    (("wavefunction", "--system", "oscillator", "--omega", "1", "--radius", "1",
      "--k1", "1.5", "--n", "2", "--samples", "8", "--format", "csv"),
     "wavefunction_oscillator.csv"),
    (("validate", "--suite", "specfun"), "validate_specfun.json"),
)
LEVEL_STRATA = ((1, 5), (6, 20), (21, 60))
SAMPLE_STRATA = ((8, 40), (40, 300), (300, 5000))


class CliRequests:
    """A stream of small ``cli.main`` requests, each written to a scratch file."""

    name = "cli-requests"
    traced_requests = 240  # ten blocks

    def __init__(self, seed: int, scratch: str, smoke: bool = False) -> None:
        from circle_sqm import cli

        self.cli, self.seed, self.scratch = cli, seed, scratch
        self.golden = {name: (GOLDEN / name).read_bytes() for _, name in GOLDEN_COMMANDS}
        if smoke:
            self.traced_requests = 8

    def requests(self) -> list[tuple[tuple[str, ...], str | None]]:
        """Blocks of 24: 9 spectrum, 9 wavefunction, 3 validate, the 3 golden commands."""
        rng = np.random.default_rng([self.seed, 3])
        branches = _Cycle(rng, ("both", "plus", "minus"))
        formats = _Cycle(rng, ("json", "csv"))
        systems = _Cycle(rng, ("oscillator", "coulomb"))
        out = []
        for _ in range(100):
            block = []
            for lo, hi in LEVEL_STRATA * 3:
                system, branch = systems.next(), branches.next()
                k1, _ = self._pick_k1(rng, system, branch == "minus")
                block.append((("spectrum",) + self._system_args(rng, system, k1, branch, True)
                              + ("--levels", str(int(rng.integers(lo, hi + 1))),
                                 "--format", formats.next()), None))
            for lo, hi in SAMPLE_STRATA * 3:
                system = systems.next()
                k1, sign = self._pick_k1(rng, system, rng.random() < 0.5)
                samples = int(round(math.exp(rng.uniform(math.log(lo), math.log(hi)))))
                block.append((("wavefunction",)
                              + self._system_args(rng, system, k1,
                                                  "plus" if sign > 0 else "minus", False)
                              + ("--n", str(int(rng.integers(0, 9))), "--samples", str(samples),
                                 "--format", formats.next()), None))
            for suite in ("specfun", "norms", "contraction"):
                block.append((("validate", "--suite", suite), None))
            block.extend(GOLDEN_COMMANDS)
            out.extend(block[i] for i in rng.permutation(len(block)))
        return out

    @staticmethod
    def _pick_k1(rng, system: str, minus: bool) -> tuple[float, int]:
        pool = [pair for pair in _admissible(system) if (pair[1] < 0) == minus]
        return pool[int(rng.integers(len(pool)))]

    @staticmethod
    def _system_args(rng, system: str, k1: float, branch: str, vary: bool) -> tuple[str, ...]:
        # spectra may take any scale; sampled wavefunctions stay at the unit
        # scale where the n <= 8 envelope was measured
        scale = str(rng.choice(("0.5", "1", "2"))) if vary else "1"
        radius = str(rng.choice(("0.5", "1", "2"))) if vary else "1"
        coupling = "--omega" if system == "oscillator" else "--mu"
        return ("--system", system, coupling, scale, "--radius", radius, "--k1", repr(k1),
                "--branch", branch)

    def run(self, request, index: int):
        argv, _ = request
        return self.cli.main(list(argv) + ["--output", self._path(index)])

    def finish(self, request, index: int, code):
        path = self._path(index)
        data = b""
        if os.path.exists(path):
            with open(path, "rb") as handle:
                data = handle.read()
            os.unlink(path)
        argv, golden = request
        return {"code": code, "digest": hashlib.sha256(data).hexdigest(),
                "golden_ok": golden is None or data == self.golden[golden]}

    def check(self, done) -> Verdict:
        first_digest: dict[tuple[str, ...], str] = {}
        failed, repeats, mismatched = [], 0, 0
        golden_runs = golden_misses = 0
        for (argv, golden), out in done:
            bad = out is None or out["code"] != 0 or not out["golden_ok"]
            if golden is not None:
                golden_runs += 1
                golden_misses += out is None or not out["golden_ok"]
            if out is not None and argv in first_digest:
                repeats += 1
                if first_digest[argv] != out["digest"]:
                    mismatched += 1
                    bad = True
            elif out is not None:
                first_digest[argv] = out["digest"]
            failed.append(bad)
        return Verdict(failed, correct=not any(failed), notes={
            "golden_requests": golden_runs, "golden_mismatches": golden_misses,
            "repeated_requests": repeats, "repeat_mismatches": mismatched,
        })

    def _path(self, index: int) -> str:
        return os.path.join(self.scratch, f"cli-{index}.out")


WORKLOADS = {cls.name: cls for cls in (ValidateAll, ClosedForm, CliRequests)}
