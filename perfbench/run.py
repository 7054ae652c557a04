"""reflect-lab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a reflect-lab checkout; the library is imported from
its src/ directory.  One workload runs as a closed loop of whole rounds for
at least S seconds and at least 100 latency samples, checks its outputs,
and prints a report line and then, as the last line, the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Times are taken with meter.METER, at a reference machine speed (see
meter.py); the report gives the plain wall-clock figures beside them.
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json.
With --trace 1 the same untraced loop runs first, then a traced loop over
fresh rounds gives the per-layer metrics of BENCHMARK.json; layers the
workload does not reach are measured on one smoke-size round of the
workload that does.  See perfbench/README.md.
"""

import os

# Single-threaded BLAS: the only compute threads are the engine's own.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("REFLECT_LAB_THREADS", None)

import argparse  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from time import perf_counter  # noqa: E402

from meter import METER, REFERENCE_S, kernel_seconds  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

MIN_SAMPLES = {"full": 100, "smoke": 1}
SETUP_REPEATS = {"full": 9, "smoke": 1}
# Round indices of the traced loop, apart from the untraced loop's 0, 1, ...
TRACED_ROUNDS = 1 << 20


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny rounds, used by perfbench/smoke.py")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")
    return args


def read_file(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return ""


def machine():
    cpuinfo = read_file("/proc/cpuinfo")
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = []
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(cache_dir)) if os.path.isdir(cache_dir) else []:
        base = os.path.join(cache_dir, entry)
        if entry.startswith("index"):
            caches.append("L{} {} {}".format(
                *(read_file(os.path.join(base, f)).strip() for f in ("level", "type", "size"))))
    meminfo = read_file("/proc/meminfo").split()
    mem_kb = int(meminfo[meminfo.index("MemTotal:") + 1]) if "MemTotal:" in meminfo else None
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model, "caches": caches,
            "mem_total_mb": None if mem_kb is None else mem_kb / 1024}


def source_identity():
    """The git commit when the checkout is a repository, and a hash of src/."""
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() if done.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def measure_setup(workload, repeats):
    """Median time of fresh interpreters becoming ready, and of their
    reflect_lab.cli import, at reference machine speed: the wall times are
    scaled by the mean of the meter kernel's times, run 4 times before the
    first probe and 3 times after each, as the machine's mode changes
    within a second."""
    kernels = [kernel_seconds() for _ in range(4)]
    walls, imports = [], []
    for _ in range(repeats):
        start = perf_counter()
        done = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), workload],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        walls.append(perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{done.stderr}")
        imports.append(json.loads(done.stdout.splitlines()[-1])["import_s"])
        kernels += [kernel_seconds() for _ in range(3)]
    scale = REFERENCE_S / statistics.fmean(kernels)
    return statistics.median(walls) * scale, statistics.median(imports) * scale, walls, scale


def measure(wl, seed, seconds, min_samples, tracer, first_round, workdir):
    """Closed loop of whole rounds; returns the tally, the loop's time on
    the meter and on the wall clock, the rounds run and the machine's
    slowdown over the loop."""
    from workloads import Tally

    tally = Tally()
    index = first_round
    first_kernel = len(METER.all_samples)
    METER.calibrate()
    start, wall_start = METER.now(), perf_counter()
    while True:
        wl.run_round(seed, index, index == first_round, tally, tracer, workdir)
        index += 1
        METER.checkpoint()
        if METER.now() - start >= seconds and len(tally.latencies_ms) >= min_samples:
            break
    elapsed = METER.now() - start
    wall = perf_counter() - wall_start
    wl.finish(tally)
    return tally, elapsed, wall, index - first_round, METER.slowdown(first_kernel)


def traced_layers(wl, seed, seconds, min_samples, workdir):
    from tracing import Tracer

    tracer = Tracer()
    wl.hooks(tracer)
    try:
        measured = measure(wl, seed, seconds, min_samples, tracer, TRACED_ROUNDS, workdir)
    finally:
        tracer.restore()
    layers = wl.layers(tracer, measured[0].attempted)
    return tracer, measured, layers


def summary(measured):
    """Loop figures at reference machine speed, and the wall-clock ones."""
    tally, elapsed, wall, rounds, slowdown = measured
    lat = tally.latencies_ms
    return {
        "rounds": rounds,
        "items": tally.attempted,
        "failed": tally.failed,
        "meter_s": elapsed,
        "items_per_s": tally.attempted / elapsed,
        "latency_samples": len(lat),
        "item_ms_p50": statistics.median(lat) if lat else None,
        "item_ms_p90": statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else None,
        "slowdown": slowdown,
        "wall_s": wall,
        "wall_items_per_s": tally.attempted / wall,
    }


def main(argv):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "reflect_lab", "__init__.py")):
        print(f"perfbench: no reflect_lab package under {SRC}; run from the root "
              "of a reflect-lab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)

    import numpy
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    load_start = os.getloadavg()
    setup_s, import_s, setup_walls, setup_scale = measure_setup(
        args.workload, SETUP_REPEATS[args.size])

    wl = workloads.make(args.workload, args.size)
    wl.warmup()
    min_samples = MIN_SAMPLES[args.size]
    os.makedirs(OUT, exist_ok=True)
    report = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "trace": args.trace, "latency_unit": wl.unit}
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT) as workdir:
        measured = measure(wl, args.seed, args.seconds, min_samples,
                           workloads.NullTracer(), 0, workdir)
        tally = measured[0]
        report["untraced"] = summary(measured)
        attempted, failed, reasons = tally.attempted, tally.failed, list(tally.reasons)
        report["digests"] = {"round_0": wl.digest}
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        if args.trace:
            tracer, t_measured, layers = traced_layers(
                wl, args.seed, args.seconds, min_samples, workdir)
            t_tally = t_measured[0]
            report["traced"] = summary(t_measured)
            attempted += t_tally.attempted
            failed += t_tally.failed
            reasons += t_tally.reasons
            layers["cli.import_s"] = import_s
            layers["trace.overhead"] = (report["untraced"]["items_per_s"]
                                        / report["traced"]["items_per_s"])
            report["baseline"] = wl.baseline(layers, tracer)
            sources = {}
            wanted = [m["name"] for m in spec["per_layer"]]
            for other in workloads.WORKLOADS:
                missing = [name for name in wanted if name not in layers]
                if other == args.workload or not missing:
                    continue
                filler = workloads.make(other, "smoke")
                filler.warmup()
                _, (f_tally, *_), f_layers = traced_layers(filler, args.seed, 0, 1, workdir)
                attempted += f_tally.attempted
                failed += f_tally.failed
                reasons += f_tally.reasons
                for name in missing:
                    if name in f_layers:
                        layers[name] = f_layers[name]
                        sources[name] = f"{other} (smoke round)"
            report["layer_sources"] = sources
            with gzip.open(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json.gz"),
                           "wt", encoding="utf-8") as handle:
                json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "item"],
                           "spans": tracer.spans}, handle, default=str)
            values, wanted_metrics = layers, spec["per_layer"]
        else:
            values = {
                "setup_s": setup_s,
                "items_per_s": report["untraced"]["items_per_s"],
                "item_ms_p50": report["untraced"]["item_ms_p50"],
                "item_ms_p90": report["untraced"]["item_ms_p90"],
                "peak_rss_mb": peak_rss_mb,
            }
            wanted_metrics = spec["end_to_end"]

    missing = [m["name"] for m in wanted_metrics if values.get(m["name"]) is None]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    report.update(
        setup={"median_s": setup_s, "wall_samples_s": setup_walls, "scale": setup_scale,
               "cli_import_s": import_s},
        failed_share=failed / attempted,
        failures=reasons[:20],
        provenance=dict(machine(), **source_identity(),
                        python=platform.python_version(), numpy=numpy.__version__,
                        seed=args.seed, engine_threads=wl.threads,
                        loadavg_start=load_start, loadavg_end=os.getloadavg()),
    )
    with open(os.path.join(OUT, f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, default=str)
    print(json.dumps({"report": report}, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted_metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
