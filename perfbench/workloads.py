"""The operations each workload runs, with their correctness checks.

An operation returns normally when every output passed its check.  A check
that fails raises `CheckFailed`; an exception from the library propagates.
Library functions are always reached through their module (`spectral.ball`,
not a name imported here), so layer tracing sees every call.
"""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import time

from dyadiff import cli, dyadic, gaussian, laplacian, spectral
from dyadiff.dyadic import DyadicInterval, DyadicPoint

# Relative agreement required between the closed and spectral distance
# routes and between the two evolution routes.  Both series certify a
# relative tail of 1e-12; the rest is double rounding.
ROUTE_RTOL = 1e-9
# The spectral route sums squared terms, so distances below the square root
# of the smallest normal double (about 1.5e-154) underflow to 0 there while
# the closed route, evaluated in log scale, still resolves them.
SPECTRAL_ATOL = 1e-150
# psi is flat near psi_infinity: neighbouring powers of 2 may round apart by
# a few ulps in either direction.
MONOTONE_RTOL = 1e-12
# Absolute floor for comparisons of evolved values that cancel to about 0.
EVOLVE_ATOL = 1e-12
LAPLACIAN_RTOL = 1e-8


class CheckFailed(Exception):
    """An output disagreed with its independent route or invariant."""

    def __init__(self, layer: str, message: str):
        self.layer = layer
        super().__init__(message)


def _close(a: float, b: float, rtol: float, atol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


def _point(p) -> DyadicPoint:
    return DyadicPoint(p[0], p[1])


# -- metric_queries ------------------------------------------------------

def _spectral_pairs(x, pairs, closed, params) -> None:
    for y, d in zip(pairs, closed):
        d_spec = spectral.distance_spectral(x, y, params)
        if not _close(d_spec, d, ROUTE_RTOL, SPECTRAL_ATOL):
            raise CheckFailed("spectral.distance", f"routes differ: {d_spec} vs {d}")


def metric_row(row: dict) -> dict:
    """One distance row: closed distances and kernel values from an anchor to
    every point, the spectral route on a few of the pairs, the Euclidean
    baseline on the same pairs, three balls with membership checked against
    the distances, and one radius transfer.

    An edge row (s = 0.01) runs only the closed and spectral routes on its
    pairs, the `distance --method both` case that stops with CapExceeded
    today.  It is kept this small so that fixing that case cannot change the
    cost of the workload much.
    """
    params = spectral.DiffusionParams(row["s"], row["t"])
    x = _point(row["anchor"])
    ys = [_point(p) for p in row["points"]]
    pairs = [ys[i] for i in row["spectral_idx"]]
    if row["edge"]:
        closed = [spectral.distance_closed(x, y, params) for y in pairs]
        _spectral_pairs(x, pairs, closed, params)
        return {}
    dists = [spectral.distance_closed(x, y, params) for y in ys]
    deltas = [dyadic.dyadic_distance(x, y) for y in ys]
    for y, delta in zip(ys, deltas):
        if delta:
            k = spectral.kernel_K(x, y, params)
            if abs(k) > (2.0 / float(delta)) * (1.0 + 1e-12):
                raise CheckFailed("spectral.distance", f"|K| = {abs(k)} above 2/delta")
    # psi is increasing, so distances must be ordered like the dyadic distances
    order = sorted(range(len(ys)), key=lambda i: deltas[i])
    for a, b in zip(order, order[1:]):
        if deltas[a] < deltas[b] and dists[a] > dists[b] * (1.0 + MONOTONE_RTOL):
            raise CheckFailed("spectral.series", "psi not monotone along the row")

    _spectral_pairs(x, pairs, [dists[i] for i in row["spectral_idx"]], params)

    gp = gaussian.GaussianParams(row["t"], 1)
    rhos = [gaussian.rho(g, gp) for g in sorted(abs(float(x) - float(y)) for y in pairs)]
    if any(a > b for a, b in zip(rhos, rhos[1:])):
        raise CheckFailed("gaussian", "rho not monotone in |x - y|")

    limit = spectral.psi_infinity(params)
    for frac in row["radius_fracs"]:
        r = frac * limit
        b = spectral.ball(x, r, params)
        for y, d in zip(ys, dists):
            if (d < r) != b.contains(y):
                raise CheckFailed("spectral.ball", f"membership mismatch at r={r}")

    t2 = row["transfer_t"]
    r1 = row["transfer_frac"] * limit
    r2 = spectral.ball_radius_transfer(x, r1, row["t"], t2, row["s"])
    if spectral.ball(x, r1, params) != spectral.ball(
        x, r2, spectral.DiffusionParams(row["s"], t2)
    ):
        raise CheckFailed("spectral.ball", "transferred radius gives another ball")
    return {}


# -- heat_evolve ---------------------------------------------------------

def expansion(coeffs) -> laplacian.HaarExpansion:
    return laplacian.HaarExpansion.from_pairs(
        (DyadicInterval(level, index), c) for level, index, c in coeffs
    )


def _by_interval(pair):
    return (pair[0].level, pair[0].index)


def eigen_constant(s: float) -> float:
    """lambda_I * |I|^s for Haar functions in closed form, 1 + 1/(2 (2^s - 1))."""
    return 1.0 + 0.5 / (2.0**s - 1.0)


def heat_job(job: dict) -> dict:
    """One evolution job: format/parse round trip, diagonal evolution,
    synthesis, kernel-integral evolution at the query points checked against
    the diagonal route, a Haar eigenvalue checked against its closed form,
    and the Laplacian of the synthesized function checked against the
    eigen-expansion.  Returns the piece and coefficient counts."""
    f = expansion(job["coeffs"])
    parsed = laplacian.parse_expansion(laplacian.format_expansion(f))
    if sorted(parsed.coefficients, key=_by_interval) != sorted(
        f.coefficients, key=_by_interval
    ):
        raise CheckFailed("laplacian.io", "format/parse round trip changed the expansion")
    params = spectral.DiffusionParams(job["s"], job["t"])
    evolved = laplacian.evolve_spectral(f, params)
    pieces = f.to_piecewise()
    for q in job["queries"]:
        x = _point(q)
        u_kernel = laplacian.evolve_pointwise(pieces, x, params)
        u_spec = evolved.evaluate(x)
        if not _close(u_kernel, u_spec, ROUTE_RTOL, EVOLVE_ATOL):
            raise CheckFailed("laplacian.evolve", f"routes differ: {u_kernel} vs {u_spec}")

    s = job["s"]
    interval = DyadicInterval(*job["eigen_interval"])
    constant = laplacian.haar_eigenvalue(interval, s) * float(interval.length) ** s
    if not _close(constant, eigen_constant(s), LAPLACIAN_RTOL, 0.0):
        raise CheckFailed("laplacian.operator", f"eigenvalue constant {constant}")
    # D f(x) = -sum_I c_I lambda_I h_I(x)
    x = _point(job["queries"][0])
    got = laplacian.apply_laplacian(pieces, x, s)
    terms = [c * float(I.length) ** -s * dyadic.haar_eval(I, x) for I, c in f.coefficients]
    want = -constant * math.fsum(terms)
    scale = constant * math.fsum(abs(term) for term in terms)
    if abs(got - want) > LAPLACIAN_RTOL * scale + EVOLVE_ATOL:
        raise CheckFailed("laplacian.operator", f"D f(x) = {got}, eigen-sum {want}")
    return {"pieces": len(pieces.pieces), "coeffs": len(f.coefficients)}


# -- cli_cold ------------------------------------------------------------

# `dyadiff` is not installed on PATH in a source checkout, and
# `python -m dyadiff.cli` exits 0 without output because the module has no
# `__main__` block, so each call runs the console-script entry point through
# `python -c`.  Adding `__main__` later changes no cost measured here.
CLI_ENTRY = "from dyadiff.cli import app; app()"
JSON_COMMANDS = ("delta", "distance", "ball")


class CliRunner:
    """Runs CLI calls in fresh interpreters and checks each output against
    `cli.main` run in this process on the same arguments."""

    def __init__(self, root, scratch):
        self.root = root
        self.scratch = scratch
        env = {k: v for k, v in os.environ.items() if not k.startswith("DYADIFF_")}
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env

    def argv(self, call: dict, name: str) -> list[str]:
        """The subcommand argv; evolve gets its expansion written to a file."""
        if call["cmd"] != "evolve":
            return [call["cmd"], *call["args"]]
        path = self.scratch / f"{name}.txt"
        path.write_text(laplacian.format_expansion(expansion(call["job"]["coeffs"])))
        return ["evolve", str(path), *call["args"]]

    def spawn(self, args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
        """Wall seconds and result of one fresh interpreter."""
        start = time.perf_counter()
        proc = subprocess.run(
            args, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120
        )
        return time.perf_counter() - start, proc

    def call(self, argv: list[str]) -> tuple[float, subprocess.CompletedProcess, int]:
        """Wall seconds, result and peak RSS in KiB of one CLI call.  The
        child is reaped with `os.wait4` to get its own resource usage."""
        args = [sys.executable, "-c", CLI_ENTRY, *argv]
        with tempfile.TemporaryFile("w+", dir=self.scratch) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(args, cwd=self.root, env=self.env, text=True,
                                    stdout=subprocess.PIPE, stderr=err)
            timer = threading.Timer(120, proc.kill)
            timer.start()
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                proc.stdout.close()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            result = subprocess.CompletedProcess(args, proc.returncode, out, err.read())
        return wall, result, usage.ru_maxrss

    @staticmethod
    def in_process(argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        code = cli.main(argv, out=out)
        return code, out.getvalue()

    @staticmethod
    def check(argv: list[str], proc, expected: tuple[int, str]) -> None:
        """The call must exit 0, print well-formed output, and print exactly
        what the library prints in process."""
        cmd = argv[0]
        if proc.returncode != 0:
            raise CheckFailed("cli", f"{cmd} exited {proc.returncode}: {proc.stderr[-200:]}")
        if cmd in JSON_COMMANDS:
            try:
                json.loads(proc.stdout)
            except ValueError:
                raise CheckFailed("cli", f"{cmd} printed unparsable JSON") from None
        elif cmd == "verify" and " properties passed" not in proc.stdout:
            raise CheckFailed("cli", "verify printed no summary line")
        if expected != (0, proc.stdout):
            raise CheckFailed("cli", f"{cmd} output differs from the in-process library")
