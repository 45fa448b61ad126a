"""Seeded workloads of the cvmodes benchmark, with their output checks.

Each workload draws its inputs from ``--seed`` alone (numpy PCG64), before
cvmodes is imported, so the program only ever sees the generated inputs.
``bind`` turns them into API objects of one imported ``cvmodes`` package,
``op`` runs one operation through the public API, and ``check`` raises
:class:`CheckFailed` when an output is wrong.  The oracles used by the
checks (closed forms, symplectic spectra, bipartition enumeration) are
written here, independently of cvmodes.
"""

import contextlib
import hashlib
import io
import json
import math
import os
from itertools import combinations

import numpy as np

SN = 0.5            # shot-noise variance of the state-file convention
BAND = 1e-9         # one-sided witness band of the PPT test
NEAR_THRESHOLD = 1e-7  # witnesses this close to SN - BAND are not judged


class CheckFailed(Exception):
    """An operation returned an output that fails its check."""


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _close(actual, expected, tol, what):
    scale = max(1.0, float(np.max(np.abs(expected))))
    dev = float(np.max(np.abs(np.asarray(actual) - np.asarray(expected))))
    _require(dev <= tol * scale, f"{what}: deviation {dev:.3e} > {tol:.0e} x {scale:.3g}")


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def opo_standard_form(r, eta):
    """(a, c) of the lossy two-mode squeezed vacuum, covariance units SN."""
    a = SN * (eta * math.cosh(2.0 * r) + 1.0 - eta)
    c = SN * eta * math.sinh(2.0 * r)
    return a, c


def opo_cov(r, eta):
    a, c = opo_standard_form(r, eta)
    return np.array([[a, 0, c, 0], [0, a, 0, -c], [c, 0, a, 0], [0, -c, 0, a]],
                    dtype=float)


def distributed_cov(a, b, c1, c2):
    """8x8 covariance of modes (a1, a2, b1, b2) after the q-plate at pi/2."""
    m = np.array([
        [a + SN, 0, 0, SN - a, c1, 0, 0, -c1],
        [0, a + SN, a - SN, 0, 0, c2, c2, 0],
        [0, a - SN, a + SN, 0, 0, c2, c2, 0],
        [SN - a, 0, 0, a + SN, -c1, 0, 0, c1],
        [c1, 0, 0, -c1, b + SN, 0, 0, SN - b],
        [0, c2, c2, 0, 0, b + SN, b - SN, 0],
        [0, c2, c2, 0, 0, b - SN, b + SN, 0],
        [-c1, 0, 0, c1, SN - b, 0, 0, b + SN],
    ], dtype=float)
    return m / 2.0


def ppt_witness(cov, side_b):
    """Smallest symplectic eigenvalue of cov with side_b's Y flipped."""
    n = cov.shape[0] // 2
    signs = np.ones(2 * n)
    signs[[2 * k + 1 for k in side_b]] = -1.0
    omega = np.kron(np.eye(n), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    ev = np.linalg.eigvals(omega @ (cov * np.outer(signs, signs)))
    return float(np.min(np.abs(ev.imag)))


def bipartitions(n):
    """The documented split order: 1x(n-1) splits, then 2x(n-2) splits."""
    everyone = range(n)
    splits = [((i,), tuple(k for k in everyone if k != i)) for i in everyone]
    for pair in combinations(everyone, 2):
        if n == 4 and 0 not in pair:
            continue  # 2x2 splits are unordered
        splits.append((pair, tuple(k for k in everyone if k not in pair)))
    return splits


def random_mixed_cov(rng, n):
    """Squeezed thermal product state under a Haar-random passive map."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    s = np.block([[u.real, -u.imag], [u.imag, u.real]])      # (x.., y..)
    squeeze = rng.uniform(0.0, 0.4, n)
    nu = rng.uniform(0.5, 1.3, n)
    d = np.diag(np.concatenate([nu * np.exp(2 * squeeze),
                                nu * np.exp(-2 * squeeze)]))
    cov = s @ d @ s.T
    order = [k // 2 + (k % 2) * n for k in range(2 * n)]   # interleave
    cov = cov[np.ix_(order, order)]
    return 0.5 * (cov + cov.T)


def _verdict_key(verdict):
    return verdict.status.value, verdict.method.value


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    pool_size = 1       # distinct inputs; op i uses input i % pool_size

    def mix(self):
        return {}

    def bind(self, cv):
        """Build the API inputs for one imported cvmodes package."""

    def op(self, cv, i):
        raise NotImplementedError

    def check(self, i, out):
        raise NotImplementedError

    def finish(self):
        """Checks that need a whole pass; called once after the run."""


class Reproduce(Workload):
    """reproduce_paper() then reproduce_paper_json(): no inputs to draw."""

    name = "reproduce"

    def __init__(self, seed, workdir, pins):
        self.digest = pins["reproduce_json_sha256"]
        self.expected = None

    def bind(self, cv):
        path = os.path.join(os.path.dirname(cv.fixtures.__file__),
                            "sigma2_exp.json")
        with open(path, encoding="utf-8") as handle:
            cov = np.array(json.load(handle)["cov"], dtype=float)
        self.expected = distributed_cov(cov[0, 0], cov[2, 2], cov[0, 2], cov[1, 3])

    def op(self, cv, i):
        outcome = cv.reproduce_paper()
        return outcome, cv.pipeline.reproduce_paper_json(outcome)

    def check_cov(self, outcome):
        _close(outcome["final"].cov, self.expected, 1e-12, "final cov vs closed form")

    def check(self, i, out):
        outcome, payload = out
        self.check_cov(outcome)
        digest = hashlib.sha256(payload).hexdigest()
        _require(digest == self.digest, f"reproduce JSON digest {digest}")


class Sweep(Workload):
    """One (delta, eta, r) grid point through run_pipeline per op."""

    name = "sweep"
    POINTS = 2048
    PINNED_EVERY = 8    # every 8th point sits at delta = pi/2 exactly
    pool_size = POINTS

    def __init__(self, seed, workdir, pins):
        rng = np.random.default_rng(seed)
        self.delta = rng.uniform(0.0, 2.0 * math.pi, self.POINTS)
        self.delta[::self.PINNED_EVERY] = math.pi / 2.0
        self.eta = rng.uniform(0.3, 1.0, self.POINTS)
        self.r = rng.uniform(0.0, 3.0, self.POINTS)

    def mix(self):
        return {
            "points": self.POINTS,
            "delta_half_pi_points": int(np.sum(self.delta == math.pi / 2.0)),
            "delta_range": [float(self.delta.min()), float(self.delta.max())],
            "eta_range": [float(self.eta.min()), float(self.eta.max())],
            "r_range": [float(self.r.min()), float(self.r.max())],
        }

    def op(self, cv, i):
        k = i % self.POINTS
        source = {"kind": "opo", "r": float(self.r[k]), "eta": float(self.eta[k])}
        config = cv.distribution_config(source=source, delta=float(self.delta[k]),
                                        analyses=("photons",))
        return cv.run_pipeline(config)

    def check(self, i, result):
        k = i % self.POINTS
        r, eta = float(self.r[k]), float(self.eta[k])
        a, c = opo_standard_form(r, eta)
        expected = 2.0 * a - 2.0 * SN
        before = result.diagnostics[0].total_photons
        after = result.analyses["photons"]
        _close(before, expected, 1e-12, f"point {k}: source photons")
        _close(after, before, 1e-12, f"point {k}: photon conservation")
        if self.delta[k] == math.pi / 2.0:
            _close(result.final_state.cov, distributed_cov(a, a, c, -c), 1e-12,
                   f"point {k}: final cov vs closed form")


class Scan(Workload):
    """Pairwise map plus bipartition scan of one random mixed state per op.

    The states come from one of ``POOLS`` seeded pools, pool ``seed %
    POOLS``; pins.json holds the verdict digest of every pool, so every
    seed's verdicts are checked against a pinned digest.
    """

    name = "scan"
    STATES = 240
    SIZES = (4, 6, 8)   # interleaved, so every size is an exact third
    POOLS = 100
    pool_size = STATES

    def __init__(self, seed, workdir, pins):
        self.pool = seed % self.POOLS
        rng = np.random.default_rng(self.pool)
        self.covs = [random_mixed_cov(rng, self.SIZES[k % len(self.SIZES)])
                     for k in range(self.STATES)]
        self.pinned = pins["scan_sha256"].get(str(self.pool))
        self.first = [None] * self.STATES
        self.states = None

    def bind(self, cv):
        self.states = []
        for cov in self.covs:
            n = cov.shape[0] // 2
            register = cv.ModeRegister(tuple(
                cv.ModeLabel("H", k, f"m{k}") for k in range(n)))
            self.states.append(cv.GaussianState(register, np.zeros(2 * n), cov))

    def mix(self):
        sizes = [c.shape[0] // 2 for c in self.covs]
        escalations = sum(m == "iterative" for rows in self.first if rows
                          for _, _, m in rows)
        return {
            "states": self.STATES,
            "n_histogram": {str(n): sizes.count(n) for n in self.SIZES},
            "gklc_escalations": escalations,
            "pool": self.pool,
        }

    def op(self, cv, i):
        state = self.states[i % self.STATES]
        return (cv.pairwise_entanglement_map(state),
                cv.bipartition_scan(state))

    def check(self, i, out):
        k = i % self.STATES
        pairwise, scan = out
        rows = [(("pair",) + key, *_verdict_key(v))
                for key, v in sorted(pairwise.pairwise.items())]
        rows += [((split.side_a, split.side_b), *_verdict_key(v))
                 for split, v in scan]
        if self.first[k] is None:
            self.first[k] = rows
            self._check_against_oracle(k, pairwise, scan)
        else:
            _require(rows == self.first[k], f"state {k}: verdicts changed between ops")

    def _check_against_oracle(self, k, pairwise, scan):
        cov = self.covs[k]
        n = cov.shape[0] // 2
        _require(sorted(pairwise.pairwise) == list(combinations(range(n), 2)),
                 f"state {k}: pairwise map does not cover every pair")
        for (i, j), verdict in pairwise.pairwise.items():
            idx = [2 * i, 2 * i + 1, 2 * j, 2 * j + 1]
            self._judge(k, f"pair {i},{j}", cov[np.ix_(idx, idx)], (1,), 1, verdict)
        splits = [(s.side_a, s.side_b) for s, _ in scan]
        _require(splits == bipartitions(n), f"state {k}: bipartition list differs")
        for (side_a, side_b), (_, verdict) in zip(splits, scan):
            self._judge(k, f"split {side_a}|{side_b}", cov, side_b,
                        min(len(side_a), len(side_b)), verdict)

    @staticmethod
    def _judge(k, what, cov, side_b, smaller_side, verdict):
        witness = ppt_witness(cov, side_b)
        _close(verdict.witness, witness, 1e-9, f"state {k} {what}: witness")
        status, method = _verdict_key(verdict)
        margin = witness - (SN - BAND)
        if abs(margin) <= NEAR_THRESHOLD:
            return
        if margin < 0:
            expected = {("entangled", "ppt")}
        elif smaller_side == 1:
            expected = {("separable", "ppt")}
        else:  # the partial transpose is not conclusive for MxN splits
            expected = {("separable", "iterative"), ("entangled", "iterative")}
        _require((status, method) in expected,
                 f"state {k} {what}: {status}/{method}, expected one of {sorted(expected)}")

    def finish(self):
        _require(all(rows is not None for rows in self.first),
                 "scan run ended before one full pass over the states")
        _require(self.pinned is not None, f"no pinned verdict digest for pool {self.pool}")
        digest = self.digest()
        _require(digest == self.pinned, f"scan verdict digest {digest}")

    def digest(self):
        """sha256 over every state's (split, status, method) rows, in order."""
        return hashlib.sha256(repr(self.first).encode()).hexdigest()


class Files(Workload):
    """CLI transform then CLI analyze on generated state and config files.

    The output file is removed after each op, so every transform writes a
    new file, as a user's run would.  Overwriting the previous output made
    ext4 write it back synchronously on close, which put a disk wait into
    every op.
    """

    name = "files"
    SETS = 16
    pool_size = SETS

    def __init__(self, seed, workdir, pins):
        rng = np.random.default_rng(seed)
        self.sets = []
        self.params = []
        for k in range(self.SETS):
            r, eta = rng.uniform(0.0, 2.0), rng.uniform(0.3, 1.0)
            delta = rng.uniform(0.0, 2.0 * math.pi)
            state = {
                "convention": {"sn": SN, "ordering": "interleaved"},
                "register": [{"tag": "a", "polarization": "H", "oam": 0},
                             {"tag": "b", "polarization": "V", "oam": 0}],
                "mean": [0.0] * 4,
                "cov": opo_cov(r, eta).tolist(),
            }
            config = {
                "steps": [
                    {"op": "waveplate"},
                    {"op": "embed", "modes": [
                        {"tag": "a~", "polarization": "R", "oam": 1},
                        {"tag": "b~", "polarization": "L", "oam": -1}]},
                    {"op": "reorder", "order": [0, 2, 1, 3]},
                    {"op": "qplate", "delta": delta, "q": 0.5},
                ],
                "analyses": [],
            }
            paths = {key: os.path.join(workdir, f"{key}{k}.json")
                     for key in ("in", "cfg", "out")}
            for key, doc in (("in", state), ("cfg", config)):
                with open(paths[key], "w", encoding="utf-8") as handle:
                    json.dump(doc, handle)
            self.sets.append({**paths, "state": state, "config": config})
            self.params.append((r, eta, delta))
        self.expected = None

    def mix(self):
        r, eta, delta = np.array(self.params).T
        return {"file_sets": self.SETS,
                "r_range": [float(r.min()), float(r.max())],
                "eta_range": [float(eta.min()), float(eta.max())],
                "delta_range": [float(delta.min()), float(delta.max())]}

    def bind(self, cv):
        self.expected = []
        analyze = cv.PipelineConfig(source=None, steps=(), analyses=("pairwise", "scan"))
        for s in self.sets:
            state = cv.io.state_from_dict(s["state"])
            config = cv.PipelineConfig.from_dict(s["config"])
            final = cv.run_pipeline(config, state=state).final_state
            report = cv.run_pipeline(analyze, state=final).report
            self.expected.append(cv.emit_report(report, "json"))

    @staticmethod
    def _cli(cv, argv):
        out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cv.cli.main(argv)
        out.flush()
        return code, out.buffer.getvalue()

    def op(self, cv, i):
        s = self.sets[i % self.SETS]
        code_t, _ = self._cli(cv, ["transform", s["in"], "--config", s["cfg"],
                                   "--output", s["out"]])
        code_a, report = self._cli(cv, ["--format", "json", "analyze", s["out"]])
        return code_t, code_a, report

    def check(self, i, out):
        code_t, code_a, report = out
        k = i % self.SETS
        os.unlink(self.sets[k]["out"])
        _require(code_t == 0 and code_a == 0, f"set {k}: exit codes {code_t}, {code_a}")
        _require(report == self.expected[k], f"set {k}: analyze output differs")


WORKLOADS = {w.name: w for w in (Reproduce, Sweep, Scan, Files)}
