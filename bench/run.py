"""Run one bubblelab benchmark workload and print its metrics.

    python3 bench/run.py --workload s2_spectrum --seed 1 --seconds 30 --trace 0

The package is imported from src/ next to this directory, never from an
installed copy. --trace 0 runs the workload's ops untraced and prints the
end-to-end metrics; --trace 1 runs the same ops with spans around every
package call, then the fixed-size layer probes, and prints the per-layer
metrics. Every metric is printed as `name value unit`; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. A result file with the machine block, per-op times, result
digests and all span totals goes to bench/results/.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("s2_spectrum", "mc_fresh", "mc_crn")
SETUP_REPEATS = 3

END_TO_END = {"ops_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
# Printed and kept in the result file but not in BENCHMARK.json: over ten
# seeds their spread reached 0.30 and 0.26 of the median on the reference
# machine, wider than the largest bound a metric there may have.
UNGATED = {"op_p50_s": "s", "cpu_s_per_op": "s"}

# One client runs one op at a time; BLAS may use every core this process may
# run on, and no more.
os.environ.setdefault("OPENBLAS_NUM_THREADS", str(len(os.sched_getaffinity(0))))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float,
                        help="run length on the reference machine; fixes the op count")
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes instead of the benchmark sizes")
    parser.add_argument("--results", type=Path, default=HERE / "results",
                        help="directory for the result file")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def load_package():
    init = SRC / "bubblelab" / "__init__.py"
    if not init.is_file():
        sys.exit(f"run.py: no bubblelab sources at {init.parent}")
    sys.path.insert(0, str(SRC))
    import bubblelab
    if Path(bubblelab.__file__).resolve() != init.resolve():
        sys.exit(f"run.py: imported bubblelab from {bubblelab.__file__}, not {init}")


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every metric a traced run prints in its JSON line."""
    from probes import PROBE_UNITS
    from workloads import COUNTS, LAYER_SPANS

    units = {}
    for name in LAYER_SPANS:
        units[f"{name}.busy_share"] = "%"
        units[f"{name}.calls"] = "count"
        units[f"{name}.errors"] = "count"
    units["cluster.detect_interfaces.busy_s"] = "s"
    units["bench.glue.busy_s"] = "s"
    units["bench.glue.busy_share"] = "%"
    units.update({name: "count" for name in COUNTS})
    units["measure.wall_hit_ratio"] = "ratio"
    units.update(PROBE_UNITS)
    units["trace.overhead_s"] = "s"
    return units


# ---------------------------------------------------------------------------
# Machine block and code fingerprint
# ---------------------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS library loaded into this process."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return {}
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = int(fn())
                break
    return out


def machine_block(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "mem_total_mb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
                                  / 2 ** 20),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(),
            "workload_seed": seed}


def code_fingerprint() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "bubblelab").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:20]


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------

def setup_samples(args, own: float) -> list[float]:
    """This process's set-up time plus that of fresh processes doing the same."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"] + (["--tiny"] if args.tiny else [])
    samples = [own]
    for _ in range(SETUP_REPEATS - 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(json.loads(done.stdout.splitlines()[-1])["setup_s"]))
    return samples


def run_ops(workload, inputs, sizes, tracer) -> tuple[list[dict], float, float]:
    """Run every op in turn; return op records, timed-phase wall and CPU seconds."""
    from tracing import ROOT
    from workloads import digest_of

    gc.collect()
    cpu0 = os.times()
    phase0 = time.perf_counter()
    records = []
    for k, inp in enumerate(inputs):
        start = time.perf_counter()
        result, error = None, None
        try:
            with tracer.span(ROOT):
                result = workload.run_op(inp, tracer.call, sizes)
        except Exception:  # op boundary: record the failure, go on with the next op
            error = traceback.format_exc(limit=4)
        wall = time.perf_counter() - start
        records.append({"index": k, "label": inp["label"], "wall_s": wall,
                        "ok": error is None, "error": error,
                        "digest": None if result is None else digest_of(result.digest),
                        "counts": {} if result is None else result.counts})
    phase = time.perf_counter() - phase0
    cpu1 = os.times()
    cpu = (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)
    return records, phase, cpu


def compare_digests(records, earlier: list[tuple[str, dict]]) -> None:
    """Fail every op whose digest differs from an earlier run of the same code."""
    for path, data in earlier:
        for rec, old in zip(records, data["ops"]):
            if rec["ok"] and old["digest"] is not None and rec["digest"] != old["digest"]:
                rec["ok"] = False
                rec["error"] = (f"digest {rec['digest']} differs from {old['digest']} "
                                f"in {path}, a run of the same code")


def earlier_runs(results: Path, stem: str, fingerprint: str) -> list[tuple[str, dict]]:
    out = []
    for path in sorted(results.glob(f"{stem}-trace*.json")):
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if data.get("fingerprint") == fingerprint:
            out.append((path.name, data))
    return out


def end_to_end_metrics(records, phase, cpu, setup) -> dict[str, float]:
    return {"ops_per_s": sum(r["ok"] for r in records) / phase,
            "op_p50_s": statistics.median(r["wall_s"] for r in records),
            "cpu_s_per_op": cpu / len(records),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup)}


def per_layer_metrics(records, tracer, probe_values) -> tuple[dict, dict, dict]:
    """(metrics for the JSON line, every span total, the trace closure)."""
    from tracing import GLUE, ROOT, SpanStats, calibrate_span_cost, summarize
    from workloads import COUNTS, LAYER_SPANS

    stats = summarize(tracer.spans)
    op_time = stats[ROOT].busy_s
    out = {}
    for name in LAYER_SPANS + (GLUE,):
        s = stats.get(name, SpanStats())
        out[f"{name}.busy_share"] = 100.0 * s.busy_s / op_time
        if name != GLUE:
            out[f"{name}.calls"] = s.calls
            out[f"{name}.errors"] = s.errors
    out["cluster.detect_interfaces.busy_s"] = stats.get(
        "cluster.detect_interfaces", SpanStats()).busy_s
    out["bench.glue.busy_s"] = stats[GLUE].busy_s

    def total(key):
        return sum(r["counts"].get(key, 0) for r in records)

    for name in COUNTS:
        out[name] = total(name)
    draws = total("measure.wall_draws")
    out["measure.wall_hit_ratio"] = total("measure.wall_hits") / draws if draws else 0.0
    out.update(probe_values)

    # What tracing adds: the root spans' own bookkeeping, measured as op wall
    # time outside them, plus the calibrated cost of each child span.
    op_wall = sum(r["wall_s"] for r in records)
    children = len(tracer.spans) - stats[ROOT].calls
    out["trace.overhead_s"] = (op_wall - op_time) + calibrate_span_cost() * children
    layers = sum(s.busy_s for name, s in stats.items() if name != ROOT)
    closure = {"op_wall_s": op_wall, "layers_plus_glue_s": layers,
               "overhead_s": out["trace.overhead_s"],
               "within_overhead": abs(op_wall - layers) <= out["trace.overhead_s"]}
    spans = {name: asdict(s) for name, s in sorted(stats.items())}
    return out, spans, closure


def main(argv=None) -> int:
    args = parse_args(argv)
    load_package()
    import probes
    from tracing import GLUE, Tracer
    from workloads import FULL, TINY, WORKLOADS

    workload = WORKLOADS[args.workload]
    sizes = TINY if args.tiny else FULL
    n_ops = workload.op_count(args.seconds)
    inputs = workload.make_inputs(args.seed, n_ops)
    own_setup = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0

    setup = setup_samples(args, own_setup) if args.trace == 0 else [own_setup]
    tracer = Tracer(enabled=bool(args.trace))
    records, phase, cpu = run_ops(workload, inputs, sizes, tracer)

    stem = f"{args.workload}-seed{args.seed}-ops{n_ops}" + ("-tiny" if args.tiny else "")
    fingerprint = code_fingerprint()
    earlier = earlier_runs(args.results, stem, fingerprint)
    compare_digests(records, earlier)
    failed = sum(not r["ok"] for r in records)

    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "ops": records, "n_ops": n_ops,
              "sizes": asdict(sizes), "fingerprint": fingerprint,
              "machine": machine_block(args.seed), "timed_phase_s": phase,
              "cpu_s": cpu, "setup_samples_s": setup}
    lines = [f"workload {args.workload} seed {args.seed}: {n_ops} ops, "
             f"{failed} failed, timed phase {phase:.3f} s"]
    if args.trace == 0:
        values = end_to_end_metrics(records, phase, cpu, setup)
        units, shown = END_TO_END, {**END_TO_END, **UNGATED}
    else:
        probe_values = probes.run_probes(sizes)
        values, spans, closure = per_layer_metrics(records, tracer, probe_values)
        units = shown = per_layer_units()
        result["spans"] = spans
        result["trace_closure"] = closure
        lines += [f"span {name} busy {s['busy_s']:.6f} s calls {s['calls']} "
                  f"errors {s['errors']}" for name, s in spans.items()]
        lines.append(f"trace closure: ops {closure['op_wall_s']:.6f} s, layers + {GLUE} "
                     f"{closure['layers_plus_glue_s']:.6f} s, tracing overhead "
                     f"{closure['overhead_s']:.6f} s, within overhead: "
                     f"{closure['within_overhead']}")
        untraced = [data for _, data in earlier if data["trace"] == 0]
        if untraced:
            delta = (closure["op_wall_s"]
                     - sum(r["wall_s"] for r in untraced[-1]["ops"])) / n_ops
            result["traced_minus_untraced_s_per_op"] = delta
            lines.append(f"traced minus untraced op wall: {delta:.6f} s per op")
    values["failed_frac"] = failed / n_ops
    shown = {**shown, "failed_frac": "ratio"}
    result["metrics"] = {name: {"value": values[name], "unit": unit}
                         for name, unit in shown.items()}
    for rec in records:
        if rec["error"]:
            lines.append(f"op {rec['index']} ({rec['label']}) failed: "
                         f"{rec['error'].strip().splitlines()[-1]}")
    notes = {"op_p50_s": f" (median of {n_ops} ops)",
             "failed_frac": f" ({failed} of {n_ops} ops)"}
    lines += [f"{name} {values[name]!r} {unit}{notes.get(name, '')}"
              for name, unit in shown.items()]

    args.results.mkdir(parents=True, exist_ok=True)
    (args.results / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, default=float) + "\n")
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": n_ops, "failed": failed,
                      "metrics": {name: result["metrics"][name] for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
