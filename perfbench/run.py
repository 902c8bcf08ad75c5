"""Benchmark of the propermaps workbench: one command, four workloads.

Run from the repository root:

    python3 perfbench/run.py --workload map-certify --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 10 --trace 1

``fiber-scan`` runs by name but is left out of BENCHMARK.json: on a shared
2-vCPU VM its spreads over five seeds (IQR over median) of ``ops_per_s``,
``op_p50_s`` and ``op_tail_s`` reached 0.14-0.2, since its dense-map
kernels slow down more than the speed probe when the host is slow, and
its runs' latencies at reference speed follow the host.  The traced
``cli-cold`` run still reaches ``xvariety`` through the CLI's ``xvariety``
commands.

Load shape: one process, a closed loop with one client (the next operation
starts when the previous one returns), BLAS/OpenMP pinned to one thread.
``cli-cold`` runs one child process at a time.  The seed only shapes the
generated inputs.

A run sets up the inputs (five times; ``setup_s`` is the median), then
runs whole passes over the workload's operations for about ``--seconds``
at reference speed, at least two, so every run measures the same mix.  The
pass count comes from the time of the first passes at reference speed, so
it does not follow the host's speed (see ``run_passes``).

Operation latencies are reported at reference speed.  On a shared 2-vCPU
VM the host's speed drifted by up to 1.7x within minutes, which no
statistic over one run can remove.  So the run reads the speed with a fixed
piece of work (``SpeedProbe``) between operations (see ``run_passes``) and
scales each latency by the probe's reference time over the median of the
readings around it.  In-process work is probed with ``calibrate``; ``cli-cold``, whose
operations are child processes, with a child that imports numpy.  ``op_p50_s``
is the median of these latencies and ``op_tail_s`` the highest percentile
with ten of them beyond it; ``ops_per_s`` is their count over their sum.
``setup_s`` is scaled the same way.  The factors and the scaled latencies are kept
in the results file; ``machine.calib_s`` reports the readings.

Every result is checked against values fixed by construction.  A mismatch
listed in ``known_defects.json`` (wrong at the parent commit) is a
known defect: it lowers ``ok_ratio`` but is not counted in ``failed``.  Any
other mismatch or exception is counted in ``failed`` and makes the run exit
with code 1.

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` the run times an untraced phase, installs the outside-in
tracer (``tracer.py``), times a traced phase, and reports the per-layer
metrics of ``layers.py`` together with ``trace.overhead_ratio``.  Full
results, spans included, are written to ``perfbench/results/``.  The last
line of standard output is always the result object.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported, here and in every child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("family-grid", "map-certify", "fiber-scan", "cli-cold")
SETUP_REPEATS = 5
MIN_PASSES = 2
PROBE_SPACING = 10
TAIL_BEYOND = 10


def _fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _import_program():
    """Import propermaps from this checkout's ``src``, and nothing else."""
    if not (SRC / "propermaps" / "__init__.py").is_file():
        _fail(f"no propermaps sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import propermaps
    if Path(propermaps.__file__).resolve().parent != SRC / "propermaps":
        _fail(f"imported propermaps from {propermaps.__file__}, not from {SRC}")
    return propermaps


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# ------------------------------------------------------------- environment
def environment() -> dict:
    import numpy
    import scipy
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref[5:]
        else:
            commit = ref
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def calibrate() -> float:
    """A fixed pure-Python plus numpy kernel; its time tracks CPU speed."""
    import numpy as np
    start = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    a = np.random.default_rng(0).standard_normal((96, 96))
    for _ in range(10):
        a = np.linalg.qr(a)[0]
    return time.perf_counter() - start


class SpeedProbe:
    """Reads the host's current speed with a fixed piece of work.

    ``factor`` turns a time measured next to some readings into the time at
    the reference speed, at which the work takes ``reference_s``.
    """

    def __init__(self, name: str, work, reference_s: float, readings: int):
        self.name, self.work = name, work
        self.reference_s, self.readings = reference_s, readings

    def read(self) -> list:
        return [self.work() for _ in range(self.readings)]

    def factor(self, readings: list) -> float:
        return self.reference_s / statistics.median(readings)


#: In-process operations follow the calibration kernel; child processes
#: (process start, dynamic loading) follow a child that imports numpy.
KERNEL_PROBE = SpeedProbe("calibrate", calibrate, 0.014, 5)
CHILD_PROBE = SpeedProbe("python -c 'import numpy'", lambda: child_wall_s("import numpy"),
                         0.18, 3)


def _run_child(code: str, extra_args=()) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *extra_args, "-c", code], cwd=ROOT,
                          env=_child_env(), capture_output=True, text=True,
                          timeout=120, check=True)


def child_import_s() -> float:
    """Wall time of ``import propermaps`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import propermaps; "
            "print(time.perf_counter() - t)")
    return float(_run_child(code).stdout.strip())


def child_wall_s(code: str) -> float:
    """Wall time of a fresh interpreter that runs ``code``."""
    start = time.perf_counter()
    _run_child(code)
    return time.perf_counter() - start


def parse_importtime(text: str, packages) -> dict:
    """Cumulative seconds per package from ``python -X importtime`` output.

    A package's time is the cumulative time of its outermost import lines,
    so submodules imported inside it are not counted twice.
    """
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((depth, name.strip(), int(cumulative) * 1e-6))
    totals = {}
    for package in packages:
        chain: list = []  # ancestors of the current line: (depth, inside package)
        total = 0.0
        for depth, name, seconds in reversed(rows):
            while chain and chain[-1][0] >= depth:
                chain.pop()
            inside = name == package or name.startswith(package + ".")
            if inside and not any(flag for _, flag in chain):
                total += seconds
            chain.append((depth, inside or any(flag for _, flag in chain)))
        totals[package] = total
    return totals


def cold_start_breakdown() -> dict:
    bare = statistics.median(child_wall_s("pass") for _ in range(SETUP_REPEATS))
    imports = []
    for _ in range(SETUP_REPEATS):
        err = _run_child("import propermaps", ("-X", "importtime")).stderr
        imports.append(parse_importtime(err, ("numpy", "scipy", "propermaps")))
    out = {"process.bare_start_s": bare}
    for package in ("numpy", "scipy", "propermaps"):
        out[f"import.{package}_s"] = statistics.median(row[package] for row in imports)
    return out


# ------------------------------------------------------------------- setup
def build_ops(workload: str, seed: int, workdir: Path, in_process_cli: bool = False):
    import workloads as wl
    if workload == "family-grid":
        return wl.family_grid(seed)
    if workload == "map-certify":
        return wl.map_certify(seed)
    if workload == "fiber-scan":
        return wl.fiber_scan(seed)
    return wl.cli_cold(seed, str(workdir), str(SRC), in_process=in_process_cli)


def timed_setup(workload: str, seed: int, workdir: Path):
    """Set up SETUP_REPEATS times; each time is a fresh-process import plus input generation.

    Each time is scaled to reference speed by the kernel probe's readings
    just before and after it, as operation latencies are; the median is
    ``setup_s``.
    """
    times, ops = [], None
    before = KERNEL_PROBE.read()
    for _ in range(SETUP_REPEATS):
        imported = child_import_s()
        start = time.perf_counter()
        built = build_ops(workload, seed, workdir)
        measured = imported + time.perf_counter() - start
        after = KERNEL_PROBE.read()
        times.append(measured * KERNEL_PROBE.factor(before + after))
        before = after
        ops = ops or built
    return ops, statistics.median(times)


# ------------------------------------------------------------------ passes
def load_known_defects(workload: str) -> dict:
    """Op id -> the checks that already fail at the parent commit."""
    with open(HERE / "known_defects.json", encoding="utf-8") as fp:
        defects = json.load(fp)[workload]["defects"]
    return {op_id: entry["checks"] for op_id, entry in defects.items()}


class Ledger:
    """Latencies and check outcomes of the operations of a phase.

    ``latencies`` are as measured; ``by_op`` holds them per operation,
    scaled to reference speed by the speed readings around them.
    """

    def __init__(self, known: dict, probe: SpeedProbe = KERNEL_PROBE):
        self.known = known
        self.probe = probe
        self.latencies: list = []
        self.by_op: dict = {}
        self.readings: list = []
        self.factors: list = []
        self.passes = 0
        self.pass_reference_s = None
        self.attempted = 0
        self.ok = 0
        self.defects: dict = {}   # op id -> mismatches, known at the parent
        self.failures: dict = {}  # op id -> mismatches, unexpected
        self.failed = 0

    def record(self, op, latency: float, factor: float, mismatches: list):
        self.latencies.append(latency)
        self.by_op.setdefault(op.id, []).append(latency * factor)
        self.attempted += 1
        if not mismatches:
            self.ok += 1
            return
        checks = {m.split(":", 1)[0] for m in mismatches}
        if checks <= set(self.known.get(op.id, ())):
            self.defects.setdefault(op.id, mismatches)
        else:
            self.failures.setdefault(op.id, mismatches)
            self.failed += 1


def run_passes(ops, order, seconds: float, ledger: Ledger, tracer=None):
    """Whole passes over ``ops`` in ``order``, about ``seconds`` long at reference speed.

    The first MIN_PASSES passes are always run, so that every operation is
    timed more than once.  Their wall time, checks and speed readings
    included, scaled to reference speed by the pass's median factor, gives
    the pass time; the pass count is ``seconds`` over it, rounded, and at
    least MIN_PASSES.  So the count, and with it the percentile that
    ``op_tail_s`` reads, hardly changes with the host's speed.

    The speed is read at the start, at the end of every pass, and after any
    operation that ends PROBE_SPACING times the last reading's cost after
    it.  Long operations thus get readings of their own, and reading costs
    about 1/PROBE_SPACING of the run at most.  Each latency is scaled by the
    readings just before and after it.
    """
    start = time.perf_counter()
    before = ledger.probe.read()
    last = time.perf_counter()
    cost = last - start
    ledger.readings += before
    reference_s, passes = 0.0, MIN_PASSES
    while ledger.passes < passes:
        pass_start, pass_factors = time.perf_counter(), []
        segment = []
        for position, index in enumerate(order):
            op = ops[index]
            if tracer is not None:
                tracer.phase, tracer.op = "timed", ledger.attempted + len(segment)
            begin = time.perf_counter()
            try:
                result = op.run()
                error = None
            except Exception as exc:
                error = f"exception: {type(exc).__name__}: {exc}"
            latency = time.perf_counter() - begin
            if tracer is not None:
                tracer.phase = "check"
            segment.append((op, latency, [error] if error else op.check(result)))
            now = time.perf_counter()
            if position == len(order) - 1 or now - last >= PROBE_SPACING * cost:
                after = ledger.probe.read()
                last = time.perf_counter()
                cost = last - now
                ledger.readings += after
                factor = ledger.probe.factor(before + after)
                ledger.factors.append(factor)
                pass_factors.append(factor)
                for done, measured, mismatches in segment:
                    ledger.record(done, measured, factor, mismatches)
                segment, before = [], after
        ledger.passes += 1
        if ledger.passes <= MIN_PASSES:
            reference_s += (time.perf_counter() - pass_start) * statistics.median(pass_factors)
            if ledger.passes == MIN_PASSES:
                ledger.pass_reference_s = reference_s / MIN_PASSES
                passes = max(MIN_PASSES, round(seconds / ledger.pass_reference_s))


def tail(samples: list):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    index = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# -------------------------------------------------------------------- runs
def run_untraced(workload, seed, seconds, workdir, order_rng):
    ops, setup_s = timed_setup(workload, seed, workdir)
    order = order_rng.permutation(len(ops)).tolist()
    probe = CHILD_PROBE if workload == "cli-cold" else KERNEL_PROBE
    ledger = Ledger(load_known_defects(workload), probe)
    run_passes(ops, order, seconds, ledger)
    samples = [x for latencies in ledger.by_op.values() for x in latencies]
    tail_s, percentile = tail(samples)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(samples) / sum(samples), "1/s"),
        "op_p50_s": (statistics.median(samples), "s"),
        "op_tail_s": (tail_s, "s"),
        "ok_ratio": (ledger.ok / ledger.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB"),
    }
    detail = {"passes": ledger.passes, "pass_reference_s": ledger.pass_reference_s,
              "ops_per_pass": len(ops),
              "op_tail_percentile": percentile, "samples": ledger.attempted,
              "speed_probe": probe.name,
              "speed_probe_s": statistics.median(ledger.readings),
              "speed_factors": ledger.factors,
              "op_latencies_reference_s": ledger.by_op}
    return ledger, metrics, detail, None


def run_traced(workload, seed, seconds, workdir, order_rng):
    import layers
    from tracer import Tracer
    tracer = Tracer(layers.TARGETS)
    tracer.install()
    ops = build_ops(workload, seed, workdir, in_process_cli=True)
    tracer.uninstall()
    order = order_rng.permutation(len(ops)).tolist()
    known = load_known_defects(workload)

    plain = Ledger(known)
    run_passes(ops, order, seconds / 2, plain)
    traced = Ledger(known)
    tracer.install()
    try:
        run_passes(ops, order, seconds / 2, traced, tracer)
    finally:
        tracer.uninstall()

    metrics = layers.metrics(tracer, traced, plain)
    metrics.update({k: (v, "s") for k, v in cold_start_breakdown().items()})
    metrics["machine.calib_s"] = (statistics.median(plain.readings + traced.readings), "s")
    ledger = Ledger(known)
    for part in (plain, traced):
        ledger.attempted += part.attempted
        ledger.ok += part.ok
        ledger.defects.update(part.defects)
        ledger.failures.update(part.failures)
        ledger.failed += part.failed
    detail = {"untraced_ops": plain.attempted, "traced_ops": traced.attempted,
              "spans": len(tracer.spans)}
    return ledger, metrics, detail, tracer


def check_declared(metrics: dict, trace: int):
    """The reported metric names must be exactly those BENCHMARK.json declares."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return
    with open(path, encoding="utf-8") as fp:
        spec = json.load(fp)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    reported = {name: unit for name, (_, unit) in metrics.items()}
    if declared != reported:
        missing = sorted(set(declared) - set(reported))
        extra = sorted(set(reported) - set(declared))
        units = sorted(n for n in set(declared) & set(reported) if declared[n] != reported[n])
        _fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, "
              f"unit mismatch {units}", code=3)


def run_one(workload: str, seed: int, seconds: float, trace: int) -> int:
    _import_program()
    sys.path.insert(0, str(HERE))
    import numpy as np
    workdir = HERE / ".work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    order_rng = np.random.default_rng([seed, 1])
    try:
        runner = run_traced if trace else run_untraced
        ledger, metrics, detail, tracer = runner(workload, seed, seconds, workdir,
                                                 order_rng)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_declared(metrics, trace)

    print(f"workload {workload}  seed {seed}  trace {trace}  "
          f"{ledger.attempted} operations")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    for op_id, mismatches in sorted(ledger.defects.items()):
        print(f"  known defect  {op_id}: {'; '.join(mismatches)}")
    for op_id, mismatches in sorted(ledger.failures.items()):
        print(f"  UNEXPECTED    {op_id}: {'; '.join(mismatches)}")

    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(), "detail": detail,
              "known_defects_seen": ledger.defects, "unexpected": ledger.failures,
              "metrics": reported}
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    out_path = results / f"{workload}-seed{seed}-trace{trace}.json"
    with open(out_path, "w", encoding="utf-8") as fp:
        if tracer is not None:
            record["span_columns"] = ["id", "parent", "name", "phase", "op",
                                      "start", "end", "error", "counts"]
            record["spans"] = [span.as_row() for span in tracer.spans]
        json.dump(record, fp)
    print(json.dumps({"environment": record["environment"], "detail": detail}))

    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": reported}))
    return 0 if ledger.failed == 0 else 1


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process, one after another."""
    code, summary = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        code = max(code, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            summary["correct"] = False
            continue
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(summary))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed phase, rounded to whole passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
