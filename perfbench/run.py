"""The dyadiff benchmark.

    python3 perfbench/run.py --workload metric_queries --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from `src/`.  Each
workload is a closed loop with one client in one process.  Inputs come from
`gen.py` one block at a time, and every block has the same composition, so
runs of different length or seed measure the same mix.  The timed phase runs
whole blocks until `--seconds` of op time have passed.

An op is timed from its first library call to the end of its checks.  Input
generation, the reference samples of `calibrate.py` and, for `cli_cold`, the
in-process replay that gives each call's expected output run between ops
with the clock stopped.  Reported times are scaled to a reference speed by
the median of the six reference samples around each group of ops (see
README.md).

With `--trace 0` the last line of output is a JSON object with the end-to-end
metrics of BENCHMARK.json.  With `--trace 1` the first half of the time runs
untraced and the second half with every layer function wrapped
(`layertrace.py`), and the last line holds the per-layer metrics.  The line
before it, `detail: {...}`, has every metric computed, the outcomes by layer
and exception type, and the measured workload properties; the same goes to
`perfbench/out/` together with the raw spans.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("cli_cold", "metric_queries", "heat_evolve")
# Set-up is timed in this many fresh interpreters per run (the run itself is
# one of them) and the median reported.
SETUP_SAMPLES = 3
# Tail percentile per workload: the highest of 50/60/70/75/80/90/95/99 that
# kept at least 10 samples above it in every 30 s run on the reference
# machine, and falls inside, not at the edge of, one group of
# the block's fixed mix (cli_cold: ordinary calls, metric_queries: the
# s = 0.1, t = 1e-3 rows, heat_evolve: the spread-8 jobs).  A percentile
# chosen per run from the sample count would jump between groups.
TAIL_PERCENTILE = {"cli_cold": 60, "metric_queries": 95, "heat_evolve": 75}
# Row widths of the distance-row scaling sweep in the traced metric_queries run.
ROW_WIDTHS = (8, 16, 32, 64, 128, 256)
SPREAD_BUCKETS = {"0_3": range(0, 4), "4_7": range(4, 8), "8_10": range(8, 11)}


class Tally:
    """Latencies, reference samples and outcomes of the ops of one phase.

    Ops come in groups; `reference()` is called before each group and once
    after the last, so every group sits between two samples.
    """

    def __init__(self, reference, reference_s: float):
        self.sampler, self.reference_s = reference, reference_s
        self.latencies: list[float] = []
        self.samples: list[float] = []
        self.group_starts: list[int] = []
        self.elapsed = 0.0
        self.attempted = 0
        self.failed = 0       # raised unexpectedly or failed a check
        self.documented = 0   # edge ops that stopped with a typed DyadiffError
        self.outcomes = Counter()  # "layer.ExceptionType" -> count, both kinds
        self.stats: list[tuple] = []  # (tag, op stats) of ops that passed

    def reference(self, closing: bool = False) -> None:
        if not closing:
            self.group_starts.append(len(self.latencies))
        self.samples.append(self.sampler())

    def add(self, seconds: float, outcome, stats, tag=None) -> None:
        self.latencies.append(seconds)
        self.elapsed += seconds
        self.attempted += 1
        if outcome is None:
            self.stats.append((tag, stats))
            return
        kind, where = outcome
        self.outcomes[where] += 1
        if kind == "failed":
            self.failed += 1
        else:
            self.documented += 1

    def merge_outcomes(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.documented += other.documented
        self.outcomes.update(other.outcomes)

    def scaled(self) -> list[float]:
        """Latencies scaled to the reference speed, each group by the median
        of the six samples around it."""
        out = []
        ends = self.group_starts[1:] + [len(self.latencies)]
        for g, (start, end) in enumerate(zip(self.group_starts, ends)):
            around = self.samples[max(0, g - 2): g + 4]
            factor = self.reference_s / statistics.median(around)
            out.extend(v * factor for v in self.latencies[start:end])
        return out


def layer_of(exc: BaseException) -> str:
    """The traced layer that raised `exc`, from the innermost library frame."""
    import layertrace

    frames = [f for f in traceback.extract_tb(exc.__traceback__)
              if "dyadiff" in Path(f.filename).parts]
    for frame in reversed(frames):
        if frame.name in layertrace.FUNCTION_LAYERS:
            return layertrace.FUNCTION_LAYERS[frame.name]
    return Path(frames[-1].filename).stem if frames else "bench"


def run_op(fn, op, edge: bool = False):
    """Run one op; returns (seconds, outcome, stats).  The outcome is None
    when every check passed, else (kind, "layer.ExceptionType")."""
    from dyadiff.exceptions import DyadiffError
    from workloads import CheckFailed

    stats, outcome = None, None
    start = time.perf_counter()
    try:
        stats = fn(op)
    except CheckFailed as exc:
        outcome = ("failed", f"{exc.layer}.CheckFailed")
        print(f"check failed: {exc}", file=sys.stderr)
    except Exception as exc:  # noqa: BLE001 - every op failure is counted, none stops the run
        kind = "documented" if edge and isinstance(exc, DyadiffError) else "failed"
        outcome = (kind, f"{layer_of(exc)}.{type(exc).__name__}")
        if kind == "failed":
            traceback.print_exc(file=sys.stderr)
    return time.perf_counter() - start, outcome, stats


# -- workloads -------------------------------------------------------------

class InProcess:
    """metric_queries and heat_evolve: library calls in this process."""

    setup_references = 5

    def __init__(self, name: str, seed: int):
        import calibrate
        import gen
        import workloads

        self.name, self.seed = name, seed
        self.blocks = gen.BLOCKS[name]
        self.fn = workloads.metric_row if name == "metric_queries" else workloads.heat_job
        self.reference = calibrate.sample
        self.reference_s = calibrate.REFERENCE_S
        self.next_block = 0
        self.seen = Counter()   # input properties of every op run

    def tag(self, op):
        return op["spread"] if self.name == "heat_evolve" else None

    def warm_up(self) -> None:
        # block -1 is never timed; heat_evolve skips its expensive jobs
        for op in self.blocks(self.seed, -1):
            if self.name == "metric_queries" or op["spread"] <= 5:
                run_op(self.fn, op, op.get("edge", False))

    def observe(self, op) -> None:
        import gen

        seen = self.seen
        seen["ops"] += 1
        if self.name == "heat_evolve":
            seen[f"spread_{op['spread']}"] += 1
            seen["coefficients"] += len(op["coeffs"])
            return
        seen["repeats"] += seen[(op["s"], op["t"])] > 0
        seen[(op["s"], op["t"])] += 1
        seen["edge"] += op["edge"]
        seen["pairs"] += len(op["points"])
        seen["fit_62"] += sum(gen.fits_62_bits(op["anchor"], p) for p in op["points"])

    def properties(self) -> dict:
        import gen

        seen, ops = self.seen, self.seen["ops"]
        if self.name == "heat_evolve":
            return {
                "jobs": ops,
                "spread_histogram": {k: seen[f"spread_{k}"] for k in gen.SPREADS},
                "share_spread_ge_8": sum(seen[f"spread_{k}"] for k in (8, 9, 10)) / ops,
                "coefficients_mean": seen["coefficients"] / ops,
            }
        return {
            "rows": ops,
            "share_rows_repeating_s_t": seen["repeats"] / ops,
            "share_pairs_fit_62_bits": seen["fit_62"] / seen["pairs"],
            "share_edge_rows_s_0.01": seen["edge"] / ops,
        }

    def phase(self, seconds: float, tracer=None) -> Tally:
        """Blocks until `seconds` of op time; metric_queries rows are grouped
        per block between reference samples, heat_evolve jobs one by one."""
        fn = self.fn if tracer is None else tracer.add("bench.op", "bench", self.fn)
        tally = Tally(self.reference, self.reference_s)
        while tally.elapsed < seconds:
            ops = self.blocks(self.seed, self.next_block)
            self.next_block += 1
            for i, op in enumerate(ops):
                if i == 0 or self.name == "heat_evolve":
                    tally.reference()
                self.observe(op)
                if tracer is not None:
                    tracer.tag = self.tag(op)
                tally.add(*run_op(fn, op, op.get("edge", False)), self.tag(op))
        tally.reference(closing=True)
        return tally

    def trace_metrics(self, tracer, tally: Tally) -> dict:
        import gen

        out = {}
        if self.name == "metric_queries":
            out["spectral.ball.log_psi_sq_per_call"] = tracer.per_call(
                "spectral.ball", "spectral.log_psi_sq")
            sweep = Tally(self.reference, self.reference_s)
            row = tracer.add("bench.width_sweep", "bench", self.fn)
            for width in ROW_WIDTHS:
                tracer.tag = f"width_{width}"
                rng = gen.seeded_rng("metric_width", self.seed, width)
                for cell in gen.CELLS:
                    sweep.add(*run_op(row, gen.metric_row(rng, cell, width)))
                out[f"scaling.distance_row.width_{width}.ms"] = tracer.ms_per_call(
                    "bench.width_sweep", tags={f"width_{width}"})
            tally.merge_outcomes(sweep)
            return out
        pieces: dict[int, list] = {}
        for spread, stats in tally.stats:
            pieces.setdefault(spread, []).append(stats["pieces"])
        coeffs = sum(stats["coeffs"] for _, stats in tally.stats)
        out["laplacian.to_piecewise.pieces_per_coeff"] = (
            sum(sum(v) for v in pieces.values()) / coeffs if coeffs else 0.0)
        out["laplacian.evolve_pointwise.haar_coefficient_per_call"] = tracer.per_call(
            "laplacian.evolve_pointwise", "laplacian.haar_coefficient")
        out["laplacian.haar_eigenvalue.apply_laplacian_per_call"] = tracer.per_call(
            "laplacian.haar_eigenvalue", "laplacian.apply_laplacian")
        for bucket, spreads in SPREAD_BUCKETS.items():
            for fn in ("to_piecewise", "evolve_pointwise"):
                out[f"laplacian.{fn}.ms.spread_{bucket}"] = tracer.ms_per_call(
                    f"laplacian.{fn}", tags=set(spreads))
        for k in gen.SPREADS:
            out[f"scaling.spread_{k}.pieces"] = statistics.median(pieces.get(k, [0]))
            for fn in ("to_piecewise", "evolve_pointwise"):
                out[f"scaling.spread_{k}.{fn}_ms"] = tracer.ms_per_call(f"laplacian.{fn}", tags={k})
            # the direct call on the synthesized function, not the 2-piece
            # calls inside haar_eigenvalue
            out[f"scaling.spread_{k}.apply_laplacian_ms"] = tracer.ms_per_call(
                "laplacian.apply_laplacian", tags={k}, parent="bench.op")
        return out


class CliCold:
    """cli_cold: every op is one CLI call in a fresh interpreter.

    The reference is `import scipy.integrate` in a fresh interpreter, the
    same kind of work as most of a CLI call, sampled once per block of six
    calls (it takes about 0.6 s)."""

    setup_references = 1

    def __init__(self, seed: int):
        import calibrate
        import gen
        import workloads

        OUT.mkdir(exist_ok=True)
        self.seed = seed
        self.blocks = gen.cli_block
        self.runner = workloads.CliRunner(ROOT, OUT)
        self.reference_s = calibrate.CLI_REFERENCE_S
        self.next_block = 0
        self.seen = Counter()
        self.wall_s: dict[str, list] = {}
        self.peak_rss_kb = 0

    def reference(self) -> float:
        import calibrate

        return self.runner.spawn([sys.executable, "-c", calibrate.CLI_REFERENCE])[0]

    def warm_up(self) -> None:
        # compiles the package bytecode and brings it into the page cache
        call = self.blocks(self.seed, -1)[0]
        self.runner.call(self.runner.argv(call, f"warm-{self.seed}"))

    def properties(self) -> dict:
        return {
            "calls": self.seen["calls"],
            "command_mix": {k[4:]: v for k, v in self.seen.items() if k.startswith("cmd_")},
            "evolve_spread_histogram": {
                k[7:]: v for k, v in sorted(self.seen.items()) if k.startswith("spread_")},
            "invocation": "python -c 'from dyadiff.cli import app; app()' with PYTHONPATH=src",
        }

    def phase(self, seconds: float, tracer=None) -> Tally:
        """Each call is timed as the subprocess wall time.  The in-process
        replay that gives the expected output runs after it, outside the
        timed op; `verify` repeats its arguments, so it is replayed once per
        phase."""
        replay = self.runner.in_process
        if tracer is not None:
            replay = tracer.add("bench.op", "bench", replay)
        expected: dict[tuple, tuple] = {}
        tally = Tally(self.reference, self.reference_s)
        tally.replay_s = {}

        def check(item):
            argv, proc = item
            key = tuple(argv)
            if key not in expected:
                start = time.perf_counter()
                expected[key] = replay(argv)
                tally.replay_s.setdefault(argv[0], []).append(time.perf_counter() - start)
            self.runner.check(argv, proc, expected[key])

        while tally.elapsed < seconds:
            calls = self.blocks(self.seed, self.next_block)
            name = f"cli-{self.seed}-{self.next_block}"
            self.next_block += 1
            tally.reference()
            for call in calls:
                cmd = call["cmd"]
                self.seen["calls"] += 1
                self.seen[f"cmd_{cmd}"] += 1
                if cmd == "evolve":
                    self.seen[f"spread_{call['job']['spread']}"] += 1
                argv = self.runner.argv(call, name)
                wall, proc, rss_kb = self.runner.call(argv)
                self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
                self.wall_s.setdefault(cmd, []).append(wall)
                if tracer is not None:
                    tracer.tag = cmd
                _, outcome, _ = run_op(check, (argv, proc))
                tally.add(wall, outcome, {}, cmd)
            (OUT / f"{name}.txt").unlink(missing_ok=True)
        tally.reference(closing=True)
        return tally

    def trace_metrics(self, tracer, tally: Tally) -> dict:
        import gen

        def median_spawn(code: str) -> float:
            return statistics.median(
                self.runner.spawn([sys.executable, "-c", code])[0] for _ in range(5))

        floor = median_spawn("pass")
        out = {"cli.interpreter_ms": 1e3 * floor,
               "cli.import_ms": 1e3 * (median_spawn("import dyadiff.cli") - floor)}
        for cmd in gen.CLI_COMMANDS:
            out[f"cli.{cmd}.wall_ms"] = 1e3 * statistics.median(self.wall_s.get(cmd, [0.0]))
            out[f"cli.{cmd}.work_ms"] = tracer.ms_per_call("cli.main", tags={cmd})
        for suite in ("dyadic", "spectral", "laplacian", "euclidean"):
            name = f"verify.{suite}_suite"
            calls = tracer.total(tracer.calls, name)
            out[f"verify.{suite}.s"] = tracer.total(tracer.busy, name) / calls if calls else 0.0
        return out


# -- run -------------------------------------------------------------------

def nearest_rank(values: list[float], percentile: float) -> tuple[float, int]:
    """The nearest-rank percentile of `values` and the number above it."""
    ordered = sorted(values)
    rank = math.ceil(percentile / 100.0 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def setup(workload: str, seed: int):
    """Imports, generator self-check and warm-up.  Returns the workload and
    the set-up seconds, scaled to the reference speed by the median of the
    reference samples taken right after."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import gen
    import layertrace  # noqa: F401 - its import is set-up, not op time

    block = gen.BLOCKS[workload]
    for b in (0, 1):
        if block(seed, b) != block(seed, b):
            raise RuntimeError(f"{workload}: two generations of block {b}, seed {seed} differ")
    w = CliCold(seed) if workload == "cli_cold" else InProcess(workload, seed)
    w.warm_up()
    seconds = time.perf_counter() - start
    reference = statistics.median(w.reference() for _ in range(w.setup_references))
    return w, seconds * w.reference_s / reference


def setup_samples(workload: str, seed: int, n: int) -> list[float]:
    """Scaled set-up seconds of `n` fresh interpreters."""
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def emit(metrics: dict, spec: list, tally: Tally, detail: dict, out_name: str, spans=()) -> None:
    units = {m["name"]: m["unit"] for m in spec}
    missing = [name for name in units if name not in metrics]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    detail = {"attempted": tally.attempted, "failed": tally.failed,
              "documented_errors": tally.documented,
              "ops_failed_frac": (tally.failed + tally.documented) / tally.attempted,
              "outcomes_by_layer": dict(tally.outcomes), **detail}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{out_name}.json").write_text(json.dumps({**detail, "spans": list(spans)}))
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))


def end_to_end(args, w, setup_s: float, spec: list) -> None:
    tally = w.phase(args.seconds)
    if args.workload == "cli_cold":
        rss_kb = w.peak_rss_kb  # the largest CLI call, not the reference runs
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_mb = rss_kb / 1024.0
    setups = [setup_s] + setup_samples(args.workload, args.seed, SETUP_SAMPLES - 1)
    scaled = tally.scaled()
    percentile = TAIL_PERCENTILE[args.workload]
    tail_s, above = nearest_rank(scaled, percentile)
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": tally.attempted / math.fsum(scaled),
        "latency_p50_ms": 1e3 * statistics.median(scaled),
        "latency_tail_ms": 1e3 * tail_s,
        "ops_ok_frac": (tally.attempted - tally.failed - tally.documented) / tally.attempted,
        "peak_rss_mb": rss_mb,
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "metrics": metrics,
        "setup_samples_s": setups,
        "latency_tail_percentile": percentile, "latency_samples": len(scaled),
        "latency_samples_above_tail": above,
        "reference_median_s": statistics.median(tally.samples),
        "unscaled": {"throughput_ops_s": tally.attempted / tally.elapsed,
                     "latency_p50_ms": 1e3 * statistics.median(tally.latencies),
                     "latency_tail_ms": 1e3 * nearest_rank(tally.latencies, percentile)[0]},
        "properties": w.properties(),
    }
    emit(metrics, spec, tally, detail, f"{args.workload}-seed{args.seed}-trace0")


def per_layer(args, w, spec: list) -> None:
    import layertrace

    half = args.seconds / 2.0
    untraced = w.phase(half)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        traced = w.phase(half, tracer)
        table = tracer.table()
        metrics = w.trace_metrics(tracer, traced)
    finally:
        tracer.uninstall()
    if args.workload == "cli_cold":
        # only the in-process replay of each call is traced: compare its mean
        # time per subcommand with and without tracing
        def per_cmd(tally):
            factor = tally.reference_s / statistics.median(tally.samples)
            return factor * sum(statistics.fmean(v) for v in tally.replay_s.values())

        wall = sum(sum(v) for v in traced.replay_s.values())
        overhead = per_cmd(traced) / per_cmd(untraced) - 1.0
    else:
        wall = traced.elapsed
        overhead = statistics.fmean(traced.scaled()) / statistics.fmean(untraced.scaled()) - 1.0
    traced.merge_outcomes(untraced)
    layer_self = sum(v for k, v in table.items() if k.startswith("layer.")
                     and k.endswith(".self_s") and not k.startswith("layer.bench."))
    metrics.update(table)
    metrics.update({
        "trace.overhead_frac": overhead,
        "trace.wall_s": wall,
        "trace.layer_self_frac": layer_self / wall,
        "trace.bench_overhead_frac": 1.0 - layer_self / wall,
        "trace.spans": sum(tracer.calls.values()),
    })
    for m in spec:
        metrics.setdefault(m["name"], 0.0)  # a layer this workload never calls
    detail = {"workload": args.workload, "seed": args.seed, "metrics": metrics,
              "failures_by_function": tracer.failures(), "properties": w.properties()}
    emit(metrics, spec, traced, detail, f"{args.workload}-seed{args.seed}-trace1", tracer.spans())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time the set-up alone and print it (one set-up sample)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dyadiff" / "__init__.py").is_file():
        print(f"dyadiff sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    w, setup_s = setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        per_layer(args, w, spec["per_layer"])
    else:
        end_to_end(args, w, setup_s, spec["end_to_end"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
