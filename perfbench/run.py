"""Benchmark of serodesign: one workload, one seed, one line of JSON.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload local-designs --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout, never from an
installed copy.  A run builds the workload's round of requests from the
seed, then repeats the round, one request in flight (a closed loop with a
single client), until ``--seconds`` have passed; every report is checked
against the independent oracle in ``oracle.py``.  The last line printed
is ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See README.md for what each metric means and which layer moves it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
# As in workloads.py, which imports NumPy and so is imported only after
# the BLAS pool size below is set.
WORKLOADS = ("local-designs", "worst-case", "monte-carlo")

# No matrix here is large enough for BLAS threads to help, and an idle
# pool thread spinning on the second CPU doubles process CPU time.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Fresh processes timed for setup_s; the median is reported.
SETUP_SAMPLES = 7
# A run goes on past its time until it has this many completed requests,
# so that ten of them lie beyond the p90.
MIN_TAIL_SAMPLES = 100

# Machine speed.  Identical runs here drift by 10-20% within minutes as
# other tenants load the host, in wall and CPU time alike.  A fixed
# reference kernel, timed every CALIBRATE_EVERY_S during a run, tracks that
# drift; every reported time is scaled to the kernel's nominal duration
# REFERENCE_KERNEL_S, so it reads in seconds of a machine running at that
# speed.  See README.md, "Steadiness".
REFERENCE_KERNEL_S = 0.0045
CALIBRATE_EVERY_S = 0.25

# Fixed warm-up per workload, from the shipped fixtures: the first call of
# a code path in a process runs markedly slower than later ones.
WARM_UP = {
    "local-designs": [
        ["c-optimal", "table1_row1"],
        ["budget", "table1_row1", "--moe", "0.01"],
        ["groups", "table1_row5"],
        ["check-assumptions", "table1_row1"],
    ],
    "worst-case": [["worst-case", "table1_row4", "--grid-step", "0.05"]],
    "monte-carlo": [["simulate", "table1_row1", "--replications", "10"]],
}


def pinned_env() -> dict:
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_program():
    """Import serodesign from the checkout's src/, and nothing else."""
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import serodesign
    from serodesign import cli

    where = os.path.dirname(os.path.abspath(serodesign.__file__))
    if where != os.path.join(SRC, "serodesign"):
        raise SystemExit(f"error: serodesign imported from {where}, not from {SRC}")
    return serodesign, cli


def run_cli(cli, argv: list):
    """One CLI run in-process: (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def warm_up(cli, workload: str) -> None:
    for name, fixture, *flags in WARM_UP[workload]:
        path = os.path.join(SRC, "serodesign", "fixtures", f"{fixture}.json")
        code, _ = run_cli(cli, [name, "--config", path, *flags])
        if code != 0:
            raise SystemExit(f"error: warm-up {name} {fixture} exited {code}")


class Speed:
    """Times the reference kernel; ``factor`` turns measured seconds into
    reference seconds.  The kernel is the oracle's own c-optimal solve on
    fixed inputs, so it shares the program's mix of small NumPy calls and
    interpreted loops but none of its code."""

    def __init__(self):
        import numpy as np

        import oracle
        import workloads

        self._solve = oracle.solve
        self._model = oracle.Model(workloads.fixture_model(1000.0))
        self._points = np.array([[0.05 + 0.01 * i, 0.2, 0.02] for i in range(40)])
        self.samples: list[float] = []
        self._last = -math.inf

    def sample(self) -> None:
        start = time.perf_counter()
        infos = self._model.infos_grid(self._points)
        for j in range(0, len(self._points), 4):
            self._solve(infos[:, j], self._model.u, gap=1e-12, max_iter=30)
        self._last = time.perf_counter()
        self.samples.append(self._last - start)

    def tick(self) -> None:
        if time.perf_counter() - self._last >= CALIBRATE_EVERY_S:
            self.sample()

    @property
    def factor(self) -> float:
        return REFERENCE_KERNEL_S / statistics.fmean(self.samples)


def probe_setup(workload: str) -> float:
    """Reference seconds from a fresh interpreter's first program import to warm."""
    start = time.perf_counter()
    _, cli = import_program()
    warm_up(cli, workload)
    elapsed = time.perf_counter() - start
    speed = Speed()
    for _ in range(5):
        speed.sample()
    return elapsed * speed.factor


def measure_setup(workload: str) -> float:
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe-setup", "--workload", workload],
            env=pinned_env(), cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: setup probe failed: {proc.stderr.strip()[-400:]}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------


def mle_op(sd, req):
    """Library sample-and-fit: build the model and the oracle's design, draw
    one survey, fit it.  Returns what check_mle needs."""
    doc = req.doc
    model = sd.DiseaseModel(
        tests=tuple(sd.TestSpec(**t) for t in doc["model"]["tests"]),
        nominal=doc["model"]["nominal"],
        u=doc["model"]["u"],
    )
    design = sd.design_from_fractions(req.ctx["v"], doc["budget"], sd.all_patterns(model))
    p = doc["scenario"]["point"]
    dataset = sd.sample_outcomes(design, p, model, doc["options"]["seed"])
    p_hat = sd.mle(dataset, model)
    integer_counts = {t.label: int(n) for t, n in zip(design.patterns, design.integer_counts)}
    outcome_counts = {t.label: c.tolist() for t, c in zip(dataset.patterns, dataset.counts)}
    return integer_counts, outcome_counts, p_hat


def execute(sd, cli, req, tracer=None, index=-1):
    """Run one request; returns (output or None on failure, seconds, error)."""
    if req.kind == "mle":
        root, call, args = "library", mle_op, (sd, req)
    else:
        root, call, args = "cli", run_cli, (cli, req.argv)
    start = time.perf_counter()
    try:
        result = tracer.call(index, root, call, *args) if tracer else call(*args)
    except Exception as exc:  # a crash inside the program is a failed request
        return None, time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if req.kind == "mle":
        return result, elapsed, None
    code, text = result
    if code != 0:
        return None, elapsed, f"exit status {code}"
    return json.loads(text), elapsed, None


class Tally:
    """Latencies and outcomes of the requests of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0
        self.latencies: list[float] = []
        self.wrong: list[str] = []
        self.unexpected: list[str] = []

    def record(self, req, output, elapsed, error) -> None:
        self.attempted += 1
        self.busy += elapsed
        if output is None:
            self.failed += 1
            if not req.expect_fail:
                self.unexpected.append(f"{req.kind}: {error}")
            return
        self.latencies.append(elapsed)
        try:
            req.check(output)
        except Exception as exc:  # a report the checks cannot even read is wrong too
            self.wrong.append(f"{req.kind} {req.path}: {type(exc).__name__}: {exc}")


def run_round(sd, cli, reqs, tally, tracer=None, speed=None) -> float:
    busy = tally.busy
    for i, req in enumerate(reqs):
        output, elapsed, error = execute(sd, cli, req, tracer, i)
        tally.record(req, output, elapsed, error)
        if speed is not None:
            speed.tick()
    return tally.busy - busy


def end_to_end(tally: Tally, speed: Speed, setup_s: float, rss_mb: float) -> dict:
    lat = tally.latencies
    scale = speed.factor
    return {
        "throughput": {"value": (tally.attempted - tally.failed) / (tally.busy * scale), "unit": "1/s"},
        "latency_p50_ms": {"value": 1e3 * scale * statistics.median(lat), "unit": "ms"},
        "latency_p90_ms": {"value": 1e3 * scale * statistics.quantiles(lat, n=10)[8], "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(sd, cli, reqs, seconds: float) -> tuple[Tally, Speed, float]:
    """Rounds until the time is up and the p90 has its samples; peak RSS is
    read after the first round, so it reflects a fixed amount of work however
    fast the program is."""
    tally = Tally()
    speed = Speed()
    deadline = time.perf_counter() + seconds
    run_round(sd, cli, reqs, tally, speed=speed)
    rss = peak_rss_mb()
    while time.perf_counter() < deadline or len(tally.latencies) < MIN_TAIL_SAMPLES:
        run_round(sd, cli, reqs, tally, speed=speed)
    speed.sample()
    return tally, speed, rss


def run_traced(sd, cli, reqs, seconds: float, workload: str, seed: int) -> tuple[Tally, dict]:
    """Rounds alternate untraced and traced in ABBA order until the time is
    up; layer figures come from the traced rounds, and the overhead is the
    traced rounds' time over the untraced rounds' time."""
    import tracer as tracing

    tracer = tracing.Tracer()
    tally = Tally()
    time_in = {False: [], True: []}
    table = [0, 0]
    deadline = time.perf_counter() + seconds
    r = 0
    while r < 4 or time.perf_counter() < deadline:
        traced = r % 4 in (1, 2)
        if traced:
            before = tracer.table_counts()
            tracer.install()
            try:
                time_in[True].append(run_round(sd, cli, reqs, tally, tracer))
            finally:
                tracer.uninstall()
            after = tracer.table_counts()
            table = [table[0] + after[0] - before[0], table[1] + after[1] - before[1]]
        else:
            time_in[False].append(run_round(sd, cli, reqs, tally))
        r += 1
    requests = len(reqs) * len(time_in[True])
    values = tracing.layer_metrics(tracer, requests, tuple(table))
    values["import.scipy_share"] = tracing.measure_scipy_share(pinned_env())
    overhead = statistics.fmean(time_in[True]) / statistics.fmean(time_in[False]) - 1.0
    values["trace.overhead_pct"] = 100.0 * overhead
    metrics = {k: {"value": v, "unit": tracing.METRICS[k][0]} for k, v in values.items()}
    missing = sorted(k for k in tracing.METRICS if k not in metrics)
    if missing:
        print(f"absent per-layer metrics (wrapped names gone): {', '.join(missing)}", file=sys.stderr)
    os.makedirs(OUT, exist_ok=True)
    tracer.dump(os.path.join(OUT, f"trace-{workload}-seed{seed}.json"),
                {"workload": workload, "seed": seed, "requests": requests, "metrics": metrics,
                 "absent": missing, "missing_names": sorted(tracer.missing)})
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "serodesign", "__init__.py")):
        print(f"error: no serodesign sources at {os.path.join(SRC, 'serodesign')}", file=sys.stderr)
        return 2
    if args.probe_setup:
        print(repr(probe_setup(args.workload)))
        return 0

    setup_s = None if args.trace else measure_setup(args.workload)
    sd, cli = import_program()
    warm_up(cli, args.workload)
    import workloads

    reqs = workloads.generate(args.workload, args.seed)
    work = os.path.join(OUT, f"work-{os.getpid()}")
    workloads.write_configs(reqs, work)
    try:
        if args.trace:
            tally, metrics = run_traced(sd, cli, reqs, args.seconds, args.workload, args.seed)
        else:
            tally, speed, rss = run_untraced(sd, cli, reqs, args.seconds)
            metrics = end_to_end(tally, speed, setup_s, rss)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in tally.unexpected[:5] + tally.wrong[:5]:
        print(line, file=sys.stderr)
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
