"""Run one emofuse benchmark workload and print its figures.

    python3 perfbench/run.py --workload train-small --seed 1 --seconds 55 --trace 0

With ``--trace 0`` one caller repeats timed passes in a closed loop for
``--seconds`` (at least two passes), with the workload's set-ups
interleaved with the first passes. With ``--trace 1`` one untraced and one
traced session run with the same seed; their outputs must match byte
for byte and the traced call counts must agree with the workload
(``--seconds`` is not used).

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: every ``end_to_end`` metric of BENCHMARK.json
untraced, every ``per_layer`` metric traced. The line before it records
the environment and the output values that are checked but not gated
(see README.md). Run from the repository root; the program is imported
from ``src/``, and scratch files go to ``.perfbench-work/``.
"""
from __future__ import annotations

import os

# BLAS reads these once, when numpy loads; one caller gets one core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"


def _import_program():
    """Put the checkout's own sources first on the path, or stop."""
    if not (SRC / "emofuse" / "__init__.py").is_file():
        sys.exit(f"perfbench: no emofuse sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import emofuse
    if Path(emofuse.__file__).resolve().parent != (SRC / "emofuse").resolve():
        sys.exit(f"perfbench: imported emofuse from {emofuse.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# environment

def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, if it is OpenBLAS."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(loadavg_start) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "blas_threads": _blas_threads(),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "loadavg_start": list(loadavg_start)}


# ---------------------------------------------------------------------------
# runs

def run_untraced(wl, seed, seconds, tally):
    from workloads import Session, end_to_end

    sessions, passes = [], []
    failed = False
    start = time.perf_counter()

    def want_pass():
        # a pass that would end past --seconds is not begun
        return len(passes) < wl.min_passes or (
            time.perf_counter() - start + passes[-1].wall_s <= seconds)

    try:
        # One caller in a closed loop. Each set-up runs just before one of
        # the first passes, so set-up timings sample different moments of
        # the run; set-ups left when time is up run back to back.
        while len(sessions) < wl.setups or want_pass():
            if len(sessions) < wl.setups:
                if sessions:
                    sessions[-1].close()
                sessions.append(Session(wl, seed, str(WORK), tally))
            if want_pass():
                p = sessions[-1].run_pass()
                if p is None:
                    failed = True
                    break
                passes.append(p)
    finally:
        if sessions:
            sessions[-1].close()
    setup_times = [s.setup_s for s in sessions]
    if wl.train_in_setup:
        tally.check(len({s.served_digest for s in sessions}) == 1,
                    "set-ups with one seed wrote different checkpoints")
    trainings = [t for s in sessions for t in s.trainings]
    tally.check(len({p.digest for p in passes}) <= 1,
                "passes with one seed wrote different outputs")
    metrics = {}
    if passes and trainings and not failed:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = end_to_end(wl, setup_times, trainings, passes,
                             sessions[-1].eval_corpus, peak_rss_mb)
    outputs = {
        "stage1_loss": {"value": trainings[0].stage1_loss if trainings else None,
                        "unit": "1"},
        "test_weighted_f1": {"value": passes[0].test_weighted_f1 if passes else None,
                             "unit": "1"},
    }
    info = {"passes": len(passes), "setups": len(setup_times), "trainings": len(trainings),
            "explanation_targets": wl.explanations}
    return metrics, outputs, info


def run_traced(wl, seed, tally):
    from tracer import Tracer
    from workloads import EPOCHS, EXPLAIN_SAMPLES, Session

    def session_pass():
        t0 = time.perf_counter()
        session = Session(wl, seed, str(WORK), tally)
        try:
            p = session.run_pass()
        finally:
            session.close()
        return session, p, time.perf_counter() - t0

    plain, plain_pass, plain_s = session_pass()
    tracer = Tracer()
    with tracer:
        traced, traced_pass, traced_s = session_pass()
    ok = tally.check(plain_pass is not None and traced_pass is not None
                     and plain_pass.digest == traced_pass.digest
                     and plain.served_digest == traced.served_digest,
                     "traced outputs differ from the untraced run with the same seed")
    tracer.check_coverage(explanations=wl.explanations, samples=EXPLAIN_SAMPLES,
                          trainings=1, epochs=EPOCHS)
    metrics = {}
    if ok and traced.trainings:
        metrics = tracer.per_layer(train_utt_epochs=traced.trainings[0].utt_epochs,
                                   epochs=EPOCHS, explanations=wl.explanations)
        metrics["trace_overhead_share"] = (traced_s - plain_s) / plain_s
    info = {"untraced_s": plain_s, "traced_s": traced_s}
    return metrics, {}, info


def _select(metrics, declared):
    """Order and label figures as BENCHMARK.json declares them."""
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    extra = sorted(set(metrics) - {m["name"] for m in declared})
    if extra or (metrics and missing):
        raise RuntimeError(f"benchmark computes {extra} but declares {missing}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared if m["name"] in metrics}


def main(argv=None) -> int:
    loadavg_start = os.getloadavg()
    _import_program()
    from tracer import CoverageError
    from workloads import WORKLOADS, Tally, tiny

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test size: a few dialogues, one pass")
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    wl = WORKLOADS[args.workload]
    if args.tiny:
        wl = tiny(wl)
    tally = Tally()
    WORK.mkdir(exist_ok=True)
    try:
        if args.trace:
            metrics, outputs, info = run_traced(wl, args.seed, tally)
        else:
            metrics, outputs, info = run_untraced(wl, args.seed, args.seconds, tally)
    except CoverageError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    outputs["failed_share"] = {"value": tally.failed / max(tally.attempted, 1),
                               "unit": "ratio"}
    print(json.dumps({"workload": wl.name, "seed": args.seed, "trace": args.trace,
                      "environment": environment(loadavg_start), "outputs": outputs,
                      **info, "problems": tally.problems}, sort_keys=True))
    result = _select(metrics, declared)
    print(json.dumps({"correct": tally.failed == 0 and bool(result),
                      "attempted": max(tally.attempted, 1), "failed": tally.failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
