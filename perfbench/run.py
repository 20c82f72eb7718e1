#!/usr/bin/env python3
"""symcond end-to-end benchmark.

    python3 perfbench/run.py --workload fig1_sweep --seed 1 --seconds 10 --trace 0

One process, one client, closed loop: each op calls ``symcond.cli.main``
in-process with stdout captured, the documented CLI contract, and the
next op starts when the previous one returns. Inputs come from
``bench_inputs`` (numpy only, seeded); every op's output is checked by
``bench_oracle`` outside the timed region. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` makes a traced pass (spans around every
call into a symcond module, see ``bench_trace``), replays the same ops
untraced, and reports the per-layer metrics. Times are scaled to a
reference host speed (see ``Calibration``). The last stdout line is the
result object; the line before it holds the environment fingerprint,
input hashes and details. Layer metrics and the end-to-end metric and
workload each should move are listed in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"

SETUP_REPEATS = 7
WARMUP_OPS = {"fig1_sweep": 5, "jc_wide_sweep": 3, "scenario_batch": 10}
TAIL_BEYOND = 10
# Host-speed reference: the two calibration parts take these times at the
# typical speed of the 2-vCPU Xeon VM the benchmark was tuned on; reported
# times are scaled to that speed.
INTERP_REF_S = 0.0012
BLAS_REF_S = 0.00096
# Share of each workload's op time spent in BLAS products, which host
# contention slows differently from interpreter work.
BLAS_SHARE = {"fig1_sweep": 0.0, "jc_wide_sweep": 0.7, "scenario_batch": 0.2}
CAL_WINDOW = 2  # ops on either side whose calibration samples set an op's scale
WALL_LIMIT_S = 140.0  # stop measuring early so every run exits well inside 180 s
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Times a pure-interpreter loop in the fresh interpreter before the import
# and after the load, so the sample can be scaled by the speed of the CPU
# the probe itself ran on.
SETUP_PROBE = """\
import sys, time
def loop():
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i % 7
    return time.perf_counter() - start
before = min(loop() for _ in range(3))
start = time.perf_counter()
import symcond.cli
from symcond.scenario import load_scenario
load_scenario(sys.argv[1])
elapsed = time.perf_counter() - start
print(elapsed, before, min(loop() for _ in range(3)))
"""
SETUP_LOOP_REF_S = 0.00166  # the probe's loop on the same reference host


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> int:
    """Run BLAS on one thread; must run before numpy is imported.

    On a shared 2-vCPU host a second BLAS thread made jc_wide_sweep both
    slower (7-10 against 11-12 ops/s) and less repeatable (quartile spread
    0.10 against 0.04 of the median): each product waited on whichever
    vCPU the neighbours were using.
    """
    for var in BLAS_VARS:
        os.environ[var] = "1"
    return 1


# BLAS reads its thread count when numpy loads, so this comes first.
BLAS_THREADS = pin_blas_threads()

import numpy as np  # noqa: E402

from bench_inputs import MEASURED, SCENARIO, WARMUP, WORKLOADS, Workload  # noqa: E402
from bench_oracle import (  # noqa: E402
    Case,
    OracleMismatch,
    check_run,
    check_selftest,
    check_sweep,
    check_theorems,
)
from bench_trace import LAYERS, Tracer  # noqa: E402


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": BLAS_THREADS,
        "nproc": nproc(),
        "cpu": cpu_model(),
        "git_commit": git_commit(),
        "seed": seed,
    }


class Calibration:
    """Fixed interpreter and BLAS work, timed between ops.

    The host's speed drifts by tens of percent over minutes (other tenants),
    which moves every op alike. This work never changes and touches no
    symcond code, so its time tracks only that drift: each op's time is
    divided by the speed factor measured around it (1.0 at the reference
    times above). Raw times are kept in the details line.
    """

    def __init__(self, blas_share: float) -> None:
        rng = np.random.default_rng(0)
        self.blas_share = blas_share
        self.small = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self.big = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))

    def sample(self) -> tuple[float, float]:
        """(interpreter seconds, BLAS seconds) of one pass."""
        gc.disable()  # a collection of garbage left by the op must not land here
        try:
            start = time.perf_counter()
            total = 0
            for i in range(3000):
                total += i * i % 7
            for _ in range(10):
                np.trace(np.kron(self.small, self.small) @ np.kron(self.small, self.small))
            middle = time.perf_counter()
            self.big @ self.big
            self.big @ self.big
            return middle - start, time.perf_counter() - middle
        finally:
            gc.enable()

    def factor(self, samples: list[tuple[float, float]]) -> float:
        """Host slowdown relative to the reference, from the median samples."""
        interp = statistics.median(s[0] for s in samples) / INTERP_REF_S
        blas = statistics.median(s[1] for s in samples) / BLAS_REF_S
        return (1 - self.blas_share) * interp + self.blas_share * blas


def scaled(results: list[dict], calibration: Calibration) -> list[float]:
    """Op latencies scaled to the reference host speed."""
    cal = [r["cal"] for r in results]
    return [
        r["latency"] / calibration.factor(cal[max(0, i - CAL_WINDOW): i + CAL_WINDOW + 1])
        for i, r in enumerate(results)
    ]


def setup_seconds(path: Path) -> tuple[list[float], list[float]]:
    """Cold start in fresh interpreters: import symcond.cli + load_scenario.

    Returns the raw samples and the samples scaled to the reference speed.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    raw, scaled_samples = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(path)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        elapsed, loop_before, loop_after = map(float, proc.stdout.split())
        raw.append(elapsed)
        scaled_samples.append(elapsed * SETUP_LOOP_REF_S / ((loop_before + loop_after) / 2))
    return raw, scaled_samples


class Runner:
    """Runs ops of one workload against the in-process CLI and checks them."""

    def __init__(self, cli, workload, tmp: Path, calibration: Calibration):
        self.cli = cli
        self.calibration = calibration
        self.workload = workload
        self.tmp = tmp
        self.tracer = None
        self.bundled = workload.bundled.read_bytes()
        self._bundled_case = None
        self._document = None  # the generated scenario currently on disk
        self._path = None
        self._case = None

    def _scenario(self, op) -> tuple[Path, bytes]:
        """Path and bytes of the op's scenario; a generated one is written
        once and replaced (and deleted) when a different one comes."""
        if op.document is None:
            return self.workload.bundled, self.bundled
        if op.document != self._document:
            if self._path is not None:
                self._path.unlink()
            self._path = self.tmp / f"op{op.index}.scenario"
            self._path.write_bytes(op.document)
            self._document, self._case = op.document, None
        return self._path, op.document

    def _case_for(self, document: bytes) -> Case:
        if document is self.bundled:
            if self._bundled_case is None:
                self._bundled_case = Case(document)
            return self._bundled_case
        if self._case is None:
            self._case = Case(document)
        return self._case

    def run(self, op, check: bool = True) -> dict:
        path, document = self._scenario(op) if SCENARIO in op.argv else (None, None)
        argv = [str(path) if a == SCENARIO else a for a in op.argv]
        saved = {k: os.environ.get(k) for k in op.env}
        os.environ.update(op.env)
        out, err = io.StringIO(), io.StringIO()
        failure = None
        if self.tracer is not None:
            self.tracer.op_id = op.index
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    rc = self.cli.main(argv)
                except SystemExit as exc:
                    rc = exc.code
                except Exception:
                    rc = None
                    failure = "exception: " + traceback.format_exc(limit=-3).strip().replace("\n", " | ")
                latency = time.perf_counter() - start
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
        result = {"index": op.index, "command": op.command, "latency": latency, "rows": 0, "points": 0,
                  "n": None, "sha256": hashlib.sha256(document).hexdigest() if document else None,
                  "argv": op.argv, "env": op.env}
        if failure is None and rc != 0:
            failure = f"exit code {rc}: {err.getvalue().strip()[:200]}"
        if failure is None and check:
            try:
                stdout = out.getvalue()
                if op.command == "selftest":
                    check_selftest(stdout)
                else:
                    case = self._case_for(document)
                    result["n"] = case.n
                    if op.command == "sweep":
                        result["rows"], result["points"] = check_sweep(case, op.argv, stdout)
                    elif op.command == "run":
                        result["rows"] = check_run(case, stdout)
                    else:
                        check_theorems(stdout)
            except (OracleMismatch, KeyError, ValueError, IndexError, TypeError) as exc:
                failure = f"oracle: {type(exc).__name__}: {exc}"
        result["failure"] = failure
        return result

    def measure(self, seconds: float | None, deadline: float, count: int | None = None) -> list[dict]:
        """Run measured ops until ``seconds`` of op time (or ``count`` ops)."""
        results: list[dict] = []
        busy = 0.0
        while (busy < seconds if count is None else len(results) < count) and time.monotonic() < deadline:
            cal = self.calibration.sample()
            results.append(self.run(self.workload.op(len(results), MEASURED)))
            results[-1]["cal"] = cal
            busy += results[-1]["latency"]
        return results


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND ops beyond it (fewer
    when the run has too few ops), its value, and the ops beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - TAIL_BEYOND - 1, 0)
    return 100.0 * (k + 1) / n, ordered[k], n - k - 1


def inputs_record(results: list[dict]) -> dict:
    """Hashes that show two runs used identical inputs."""
    digest = hashlib.sha256()
    for r in results:
        digest.update(json.dumps([r["argv"], r["env"], r["sha256"]]).encode() + b"\n")
    return {
        "ops": len(results),
        "ops_sha256": digest.hexdigest(),
        "scenario_sha256": list(dict.fromkeys(r["sha256"] for r in results if r["sha256"])),
    }


def end_to_end(
    results: list[dict], setup: tuple[list[float], list[float]], calibration: Calibration
) -> tuple[dict, dict]:
    raw = [r["latency"] for r in results]
    latencies = scaled(results, calibration)
    percentile, tail_s, beyond = tail(latencies)
    metrics = {
        "ops_per_s": (len(results) / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (statistics.median(setup[1]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    by_command: dict[str, list[float]] = {}
    for r, latency in zip(results, latencies):
        by_command.setdefault(r["command"], []).append(latency)
    details = {
        "op_tail": {"percentile": percentile, "ops_beyond": beyond, "ops": len(latencies)},
        "by_command": {c: {"ops": len(v), "p50_ms": statistics.median(v) * 1e3} for c, v in by_command.items()},
        "host_slowdown": calibration.factor([r["cal"] for r in results]),
        "unscaled": {
            "ops_per_s": len(raw) / sum(raw),
            "op_p50_ms": statistics.median(raw) * 1e3,
            "op_tail_ms": tail(raw)[1] * 1e3,
            "setup_s": statistics.median(setup[0]),
            "setup_samples_s": setup[0],
        },
    }
    return metrics, details


def per_layer(summary: dict, results: list[dict], untraced: list[dict], calibration: Calibration) -> dict:
    ops = len(results)
    # Span times are scaled to the reference speed like the op latencies.
    scale = 1 / calibration.factor([r["cal"] for r in results])
    calls = summary["calls_by_op"]

    def calls_in(name: str, commands: tuple[str, ...] | None = None) -> int:
        """Calls of ``name`` within ops of the given commands (default all)."""
        return sum(
            calls.get(name, {}).get(r["index"], 0)
            for r in results if commands is None or r["command"] in commands
        )

    def incl_ms(*names: str) -> float:
        return sum(summary["incl_ns"].get(n, 0) for n in names) * scale / 1e6 / ops

    rows = sum(r["rows"] for r in results)
    points = sum(r["points"] for r in results)
    metrics = {}
    for layer in LAYERS:
        entry = summary["layers"][layer]
        metrics[f"{layer}.calls_per_op"] = (entry["calls"] / ops, "count")
        metrics[f"{layer}.self_ms_per_op"] = (entry["self_ns"] * scale / 1e6 / ops, "ms")
        metrics[f"{layer}.errors_per_op"] = (entry["errors"] / ops, "count")
    row_ops = ("sweep", "run")
    metrics["engine.apply_instrument.calls_per_row"] = (
        calls_in("engine.apply_instrument", row_ops) / rows if rows else 0.0, "count")
    metrics["engine.outcome_probability.calls_per_row"] = (
        calls_in("engine.outcome_probability", row_ops) / rows if rows else 0.0, "count")
    # Computed, not measured: 3 dense n×n complex products (8n³ flop each)
    # per instrument application, over ops whose n the benchmark knows.
    flop = sum(
        calls.get("engine.apply_instrument", {}).get(r["index"], 0) * 3 * 8 * r["n"] ** 3
        for r in results if r["n"] is not None
    )
    metrics["engine.instrument_gflop_per_op"] = (flop / 1e9 / ops, "computed-Gflop")
    metrics["symmetry.decohere.calls_per_op"] = (calls_in("symmetry.decohere") / ops, "count")
    metrics["linalg.hermitian_eig.calls_per_op"] = (calls_in("linalg.hermitian_eig") / ops, "count")
    metrics["linalg.hermitian_eig.calls_per_point"] = (
        calls_in("linalg.hermitian_eig", ("sweep",)) / points if points else 0.0, "count")
    metrics["symmetry.verify.incl_ms_per_op"] = (incl_ms("symmetry.verify_theorem1", "symmetry.verify_theorem2"), "ms")
    metrics["symmetry.check_cross_elements_imaginary.incl_ms_per_op"] = (
        incl_ms("symmetry.check_cross_elements_imaginary"), "ms")
    metrics["scenario.load_scenario.incl_ms_per_op"] = (incl_ms("scenario.load_scenario"), "ms")
    metrics["objects.validate.incl_ms_per_op"] = (incl_ms("objects.validate"), "ms")
    metrics["trace.overhead_ratio"] = (sum(scaled(results, calibration)) / sum(scaled(untraced, calibration)), "ratio")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "symcond" / "cli.py").is_file():
        print(f"error: no symcond sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + WALL_LIMIT_S
    sys.path.insert(0, str(SRC))
    workload = Workload(args.workload, args.seed, ROOT)
    tmp = WORK / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        calibration = Calibration(BLAS_SHARE[args.workload])
        if args.trace == 0:
            first = tmp / "first.scenario"
            first.write_bytes(workload.first_document())
            setup = setup_seconds(first)

        import symcond.cli as cli

        if Path(cli.__file__).resolve().parent != (SRC / "symcond").resolve():
            print(f"error: symcond imported from {cli.__file__}, not {SRC}", file=sys.stderr)
            return 2
        runner = Runner(cli, workload, tmp, calibration)
        for i in range(WARMUP_OPS[args.workload]):
            runner.run(workload.op(i, WARMUP), check=False)

        details: dict = {"workload": args.workload, "trace": args.trace}
        if args.trace == 0:
            results = runner.measure(args.seconds, deadline)
            metrics, extra = end_to_end(results, setup, calibration)
            details.update(extra)
        else:
            runner.tracer = Tracer()
            runner.tracer.install()
            try:
                # Half the time traced, then the same ops replayed untraced.
                traced = runner.measure(args.seconds / 2, deadline - WALL_LIMIT_S / 2)
            finally:
                runner.tracer.uninstall()
            untraced = runner.measure(None, deadline, count=len(traced))
            if len(untraced) != len(traced):
                raise RuntimeError("untraced replay did not finish")
            summary = runner.tracer.summary()
            metrics = per_layer(summary, traced, untraced, calibration)
            spans = WORK / f"spans-{args.workload}.jsonl.gz"
            runner.tracer.write(spans)
            details["spans_file"] = str(spans.relative_to(ROOT))
            results = traced + untraced
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failures = [f"op {r['index']} ({r['command']}): {r['failure']}" for r in results if r["failure"]]
    for line in failures[:5]:
        print(line, file=sys.stderr)
    details.update(
        fingerprint=fingerprint(args.seed),
        inputs=inputs_record(results),
        fail_ratio=len(failures) / len(results),
        failures=failures[:5],
    )
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
