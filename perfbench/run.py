"""zdcert benchmark: seeded workloads, oracle-checked, timed end to end or traced per layer.

    python3 perfbench/run.py --workload bundled --seed 1 --seconds 30 --trace 0

Run from the repository root.  One process drives a closed loop with one
client: each operation starts after the previous one ends, and the CLI
subprocesses run one at a time between operations.  Every output is checked
against the oracles in ``oracles.py`` outside the timed region; a mismatch,
an escaped exception or a wrong CLI exit code counts as a failed operation.

``--trace 0`` reports the end-to-end metrics.  For ``--seconds`` of wall
time it interleaves operations with ``python -m zdcert`` subprocesses, the
CLI getting about a third of the busy time.  Set-up time is the median over
fresh interpreters, started between operations throughout the run, of
``import zdcert`` plus preparing the first input.

``--trace 1`` reports the per-layer metrics: CLI start-up costs, the
power-stability and class-group scaling series, then for ``--seconds`` each
input once with every public function of zdcert's modules wrapped (see
``tracing.py``) and once without, plus a few in-process ``cli.main`` calls.
Per-layer values are per operation (per call for ``cli.*``).

``BENCHMARK.json`` at the repository root names the metrics and units.
Each run writes a record with its provenance to ``.perfbench_out/`` and, when
traced, its spans as CSV.  The last line of standard output is the result
as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import oracles
import tracing
from workloads import WORKLOADS, classgroup_ds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SPEC = ROOT / "BENCHMARK.json"

CLI_SHARE = 0.35  # fraction of the busy time given to CLI subprocesses
SETUP_PROBES = 15  # fresh interpreters timed per run, one every seconds / 15
STARTUP_PROBES = 7
TRACED_CLI_CALLS = 5
SCALING_BOUNDS = (12, 24)
SCALING_REPS = 3
SCALING_PER_BUCKET = 3
SCALING_DECADES = (1, 2, 3, 4)


class BenchError(Exception):
    pass


def import_zdcert():
    """Import zdcert from this checkout's src/, never from anywhere else."""
    if not (SRC / "zdcert" / "__init__.py").is_file():
        raise BenchError(f"no zdcert sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import zdcert
    import zdcert.cli

    if Path(zdcert.__file__).resolve().parent != SRC / "zdcert":
        raise BenchError(f"imported zdcert from {zdcert.__file__}, not from {SRC}")
    return zdcert


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(args: list[str], timeout: float = 60) -> tuple[float, subprocess.CompletedProcess]:
    start = perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=timeout)
    return perf_counter() - start, proc


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); the median for q = 50."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Loop:
    """The closed loop: operations, optional CLI calls, oracle checks and failures."""

    def __init__(self, wl, inputs):
        self.wl = wl
        self.inputs = inputs
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.op_s: list[float] = []
        self.cli_s: list[float] = []
        self.op_busy = self.cli_busy = 0.0
        self.last = None  # (input, result) of the latest correct operation
        OUT.mkdir(exist_ok=True)
        self.input_path = OUT / "cli_input.json"
        self.report_path = OUT / "cli_report.json"

    def record(self, errors: list[str], what: str, x=None) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            where = what if x is None else f"{what} {json.dumps(x)}"
            self.failures.extend(f"{where}: {e}" for e in errors)

    def op(self, x, run=None) -> None:
        self.last = None
        run = run or self.wl.op
        try:
            start = perf_counter()
            res = run(x)
            self.op_s.append(perf_counter() - start)
            self.op_busy += self.op_s[-1]
            errors = self.wl.check(x, res)
        except Exception:
            errors = [traceback.format_exc(limit=3)]
        self.record(errors, "operation on", x)
        if not errors:
            self.last = (x, res)

    def cli(self, call) -> None:
        """One CLI call on the latest input; call(args) returns (seconds, exit code, stdout)."""
        x, res = self.last
        try:
            args = self.wl.cli_args(x, self.input_path, self.report_path)
            seconds, code, stdout = call(args)
            self.cli_s.append(seconds)
            self.cli_busy += seconds
            errors = self.wl.check_cli(x, res, code, stdout, self.report_path)
        except Exception:
            errors = [traceback.format_exc(limit=3)]
        self.record(errors, "CLI on", x)

    def run_for(self, seconds: float, with_cli: bool, run=None) -> None:
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            # decide on a CLI call before drawing the input it will use: deciding
            # after the operation would favour inputs whose operation ran long
            cli_due = with_cli and self.cli_busy < CLI_SHARE * (self.cli_busy + self.op_busy)
            self.op(next(self.inputs), run)
            if cli_due and self.last:
                self.cli(subprocess_cli)


def subprocess_cli(args: list[str]) -> tuple[float, int, str]:
    seconds, proc = run_child(["-m", "zdcert", *args])
    return seconds, proc.returncode, proc.stdout


def setup_probe(workload: str, seed: int) -> float:
    """Seconds this fresh interpreter spends importing zdcert and preparing its first input."""
    start = perf_counter()
    zd = import_zdcert()
    next(WORKLOADS[workload](zd, seed).inputs())
    return perf_counter() - start


def setup_sample(workload: str, seed: int) -> float:
    _, proc = run_child([str(Path(__file__).resolve()), "--setup-probe",
                         "--workload", workload, "--seed", str(seed)])
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def end_to_end(zd, workload: str, seed: int, seconds: int) -> tuple[dict, Loop]:
    wl = WORKLOADS[workload](zd, seed)
    loop = Loop(wl, wl.inputs())
    # set-up probes are spread over the run, between operations, so that
    # their median sees the same phases of machine speed as the operations
    setup_s = []
    for _ in range(SETUP_PROBES):
        setup_s.append(setup_sample(workload, seed))
        loop.run_for(seconds / SETUP_PROBES, with_cli=True)
    if not loop.op_s or not loop.cli_s:
        raise BenchError("the run completed no operation or no CLI call")
    metrics = {
        "op_ms_p50": quantile(loop.op_s, 50) * 1e3,
        "op_ms_p90": quantile(loop.op_s, 90) * 1e3,
        "ops_per_s": len(loop.op_s) / loop.op_busy,
        "cli_ms_p50": quantile(loop.cli_s, 50) * 1e3,
        "cli_ms_p90": quantile(loop.cli_s, 90) * 1e3,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, loop


def startup_metrics() -> dict[str, float]:
    def median_ms(args):
        samples = []
        for _ in range(STARTUP_PROBES):
            seconds, proc = run_child(args)
            if proc.returncode != 0:
                raise BenchError(f"{args} failed:\n{proc.stderr}")
            samples.append(seconds)
        return statistics.median(samples) * 1e3

    bare = median_ms(["-c", "pass"])
    return {"cli.interpreter_ms": bare, "cli.import_ms": median_ms(["-c", "import zdcert"]) - bare}


def scaling_metrics(zd, seed: int, loop: Loop) -> dict[str, float]:
    """ROADMAP scaling series, untraced: stability sweep by bound on the bundled
    quartics, and class_group by sign and decade of |disc|."""
    out = {}
    inp = zd.certify.parse_input(json.loads(zd.cli.bundled_dataset_path().read_text()))
    quartics = [zd.weil.frobenius_charpoly(a, p) for p, a in sorted(inp.datum.eigenvalues.items())]
    for bound in SCALING_BOUNDS:
        samples = []
        for _ in range(SCALING_REPS):
            start = perf_counter()
            reports = [zd.weil.endomorphism_stability(q, bound) for q in quartics]
            samples.append(perf_counter() - start)
            loop.record([] if all(r.stable for r in reports) else [f"unstable: {reports}"],
                        f"stability at bound {bound}")
        out[f"weil.endomorphism_stability.bound{bound}_ms"] = statistics.median(samples) * 1e3

    buckets: dict[tuple[str, int], list[int]] = {
        (sign, k): [] for sign in ("real", "imag") for k in SCALING_DECADES}
    stream = classgroup_ds(random.Random(seed))
    while any(len(ds) < SCALING_PER_BUCKET for ds in buckets.values()):
        d = next(stream)
        key = ("real" if d > 0 else "imag", len(str(abs(oracles.fundamental_disc(d)))) - 1)
        if key in buckets and len(buckets[key]) < SCALING_PER_BUCKET and d not in buckets[key]:
            buckets[key].append(d)
    for (sign, k), ds in buckets.items():
        samples = []
        for d in ds:
            start = perf_counter()
            h = zd.orders.class_group(zd.orders.maximal_order(d)).h
            samples.append(perf_counter() - start)
            want = oracles.class_number(d)
            loop.record([] if h == want else [f"h = {h}, forms give {want}"], f"class_group({d})")
        out[f"orders.class_group.{sign}.disc1e{k}_ms"] = statistics.median(samples) * 1e3
    return out


def traced(zd, workload: str, seed: int, seconds: int) -> tuple[dict, Loop, tracing.Tracer]:
    metrics = startup_metrics()
    wl = WORKLOADS[workload](zd, seed)
    loop = Loop(wl, wl.inputs())
    metrics.update(scaling_metrics(zd, seed, loop))

    # the first traced input is profiled untraced, so every function it reaches
    # must show up with calls in the trace
    first = next(loop.inputs)
    res, called = tracing.profiled_functions(wl.op, first)
    loop.record(wl.check(first, res), "profiled operation on", first)

    tracer = tracing.Tracer()
    tracer.begin_phase("op")

    def traced_op(x):
        tracer.op += 1
        return tracer.span("op", wl.op, x)

    # each input runs traced, then untraced, so both sides of trace.overhead
    # see the same inputs and the same drift in machine speed; traced goes
    # first so that the per-layer numbers come from unrepeated inputs
    plain_s, traced_s = [], []
    x = first
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        mark = len(loop.op_s)
        tracer.install()
        try:
            loop.op(x, traced_op)
        finally:
            tracer.uninstall()
        loop.op(x)
        if len(loop.op_s) == mark + 2:
            traced_s.append(loop.op_s[mark])
            plain_s.append(loop.op_s[mark + 1])
        x = next(loop.inputs)
    metrics["trace.overhead"] = quantile(traced_s, 50) / quantile(plain_s, 50)

    tracer.begin_phase("cli")

    def in_process(args):
        buf = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(buf):
            code = tracer.span("cli_call", zd.cli.main, args)
        return perf_counter() - start, code, buf.getvalue()

    if not loop.last:
        raise BenchError(f"the last traced operation failed: {loop.failures[-1]}")
    tracer.install()
    try:
        for k in range(TRACED_CLI_CALLS):
            tracer.op = -(k + 1)
            loop.cli(in_process)
    finally:
        tracer.uninstall()

    index = {name: i for i, name in enumerate(tracer.names)}
    bypassed = [name for name, fn in tracer.originals.items()
                if tracing.code_key(fn) in called and not tracer.calls["op"][index[name]]]
    if bypassed or not tracer.calls["cli"][index["cli.main"]]:
        raise BenchError(f"wrapped functions ran without being traced: {bypassed or ['cli.main']}")

    metrics.update(layer_metrics(tracer, "op", tracer.calls["op"][index["op"]], tracing.LAYERS[:-1]))
    metrics.update(layer_metrics(tracer, "cli", TRACED_CLI_CALLS, ("cli",)))
    return metrics, loop, tracer


def layer_metrics(tracer: tracing.Tracer, phase: str, n: int, layers) -> dict[str, float]:
    """calls and self_ms per unit for each traced name of the given layers, and
    each layer's self_ms and share of the phase's traced time."""
    per = tracer.per_call(phase, n)
    total_ms = sum(ms for _, ms in per.values())
    out = {}
    for layer in layers:
        names = [name for name in tracer.names if name.startswith(layer + ".")]
        for name in names:
            out[f"{name}.calls"], self_ms = per[name]
            if name in tracer.timed:
                out[f"{name}.self_ms"] = self_ms
        out[f"{layer}.self_ms"] = sum(per[name][1] for name in names)
        out[f"{layer}.share"] = out[f"{layer}.self_ms"] / total_ms if total_ms else 0.0
    return out


def provenance(workload: str, seed: int, seconds: int, trace: int) -> dict:
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "zdcert").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                    if line.startswith("model name")), cpu)
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "commit": commit, "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu, "platform": platform.platform(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    try:
        if args.setup_probe:
            print(setup_probe(args.workload, args.seed))
            return 0
        spec = json.loads(SPEC.read_text())
        declared = spec["per_layer" if args.trace else "end_to_end"]
        zd = import_zdcert()
        if args.trace:
            metrics, loop, tracer = traced(zd, args.workload, args.seed, args.seconds)
        else:
            metrics, loop = end_to_end(zd, args.workload, args.seed, args.seconds)
        missing = [m["name"] for m in declared if m["name"] not in metrics]
        if missing and not args.trace:
            raise BenchError(f"metrics declared in {SPEC.name} but not measured: {missing}")
        if missing:
            # a layer function that no longer exists does no work
            print(f"perfbench: no such traced function, reported as 0: {missing}", file=sys.stderr)
            metrics.update(dict.fromkeys(missing, 0.0))
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "provenance": provenance(args.workload, args.seed, args.seconds, args.trace),
        "attempted": loop.attempted, "failed": loop.failed,
        "error_rate": loop.failed / loop.attempted,
        "samples": {"operations": len(loop.op_s), "cli_calls": len(loop.cli_s)},
        "busy_s": {"operations": loop.op_busy, "cli": loop.cli_busy},
        "metrics": metrics,
        "failures": loop.failures[:20],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        tracer.write_spans(OUT / f"{stem}-spans.csv")
    for path in (loop.input_path, loop.report_path):
        path.unlink(missing_ok=True)

    for failure in loop.failures[:5]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(loop.op_s)} operations, {len(loop.cli_s)} CLI calls, "
          f"error_rate {record['error_rate']:g} ({loop.failed}/{loop.attempted})")
    for m in declared:
        print(f"  {m['name']:<48} {metrics[m['name']]:>14.6g} {m['unit']}")
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
