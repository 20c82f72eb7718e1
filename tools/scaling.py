#!/usr/bin/env python3
"""Wall time and peak memory of ``symcond run`` and ``symcond theorems``
over Jaynes-Cummings sizes, of ``symcond sweep`` over large grids, and of
``symcond selftest`` at fixed seeds.

    python3 tools/scaling.py --out BENCH_14.json
    python3 tools/scaling.py --side parent=../parent/src --side change=src --out BENCH_14.json
    python3 tools/scaling.py --sizes 2x2 --repeat 1 --out /tmp/smoke.json
    python3 tools/scaling.py --sizes 2x1024 --out big.json

Each case is a seeded JC scenario (default one-outcome-per-level pointer,
full-rank random apparatus state, conserved excitation number) written to
a temporary directory. Every (side, case, command) runs ``--repeat`` times
in a fresh interpreter with ``PYTHONPATH`` set to the side's source tree
and BLAS on one thread; the wall time and the child's own peak resident
memory (``os.wait4``) of every run are recorded, with the sha256 of its
stdout so sides can be checked for identical output, and each case's
peak RSS per n² entry (bytes), where a dense n×n complex matrix is 16.
Sides alternate within each case, so host-speed drift hits them alike.
Every child runs under a ``CHILD_ADDRESS_SPACE`` address-space limit, so
a case too large for the host fails alone (a nonzero exit, recorded as
such) instead of exhausting the machine's memory.

Two legs: a narrow system (dim_s = 2, dim_a up to 512, n up to 1024) and
a wide one (dim_s up to 128). The largest size a scenario admits,
dim_s·dim_a = 2048, runs only when asked for with ``--sizes 2x1024``.
The sweep leg runs ``symcond sweep`` of the bundled fig1 scenario (two
outcomes) at each of ``SWEEP_POINTS`` grid points, in CSV and JSON, the
same way; it runs with both JC legs, not with ``--sizes``.
``symcond selftest`` runs the same way once per ``SYMCOND_SEED`` in
``SELFTEST_SEEDS``, and a second child per seed times its own
``selftest_checks(seed)`` call after import, so the check arithmetic is
resolved apart from the ~0.13 s of interpreter start and import. The
``comparison`` section lists the distinct stdout digests of every (case
or seed, command) across sides, each side's selftest wall and compute
times (sums of the per-seed medians) relative to the first side, and
each side's sweep wall time and peak RSS per (points, format) with the
wall time relative to the first side. Timings are recorded, never gated.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # the scenario documents are written with this checkout's helpers

from symcond.sampling import random_density  # noqa: E402
from symcond.scenario import matrix_to_pairs  # noqa: E402

LEGS = {
    "narrow": ((2, 2), (2, 8), (2, 32), (2, 64), (2, 128), (2, 256), (2, 512)),
    "wide": ((4, 16), (8, 32), (16, 32), (32, 16), (128, 4)),
}
COMMANDS = ("run", "theorems")
# Grid points of the sweep leg: 4, 100,000 and 200,000 rows of the
# two-outcome fig1 scenario, the last at the MAX_SWEEP_ROWS cap.
SWEEP_POINTS = (2, 50_000, 100_000)
SWEEP_FORMATS = ("csv", "json")
FIG1 = ROOT / "src" / "symcond" / "data" / "fig1.scenario"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SCHEMA = "symcond-scaling/1"
SEED = 0  # of the generated scenarios
SELFTEST_SEEDS = (0, 1, 2, 3, 4)
# Address-space limit (bytes) of every measured child: room for a 2.8 GB
# peak RSS plus the interpreter's and BLAS's unbacked reservations.
CHILD_ADDRESS_SPACE = 5 * 2**30
# Prints the seconds one selftest_checks(seed) call takes, import excluded.
SELFTEST_TIMER = """\
import sys, time
from symcond.oracles import selftest_checks
start = time.perf_counter()
selftest_checks(int(sys.argv[1]))
print(time.perf_counter() - start)
"""


def _limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))


def scenario_document(dim_s: int, dim_a: int) -> str:
    """A JC scenario whose hypotheses hold except where the random states break them."""
    rng = np.random.default_rng([SEED, dim_s, dim_a])
    model = {
        "kind": "jaynes-cummings",
        "dim_s": dim_s,
        "dim_a": dim_a,
        "theta": 0.9,
        "apparatus_state": {"matrix": matrix_to_pairs(random_density(dim_a, rng).matrix)},
    }
    if dim_s == 2:
        system_state = {"coherent": {"polar": 0.8, "phase": 0.3}}
        observable = "sigma_z"
    else:
        system_state = {"matrix": matrix_to_pairs(random_density(dim_s, rng).matrix)}
        observable = {"matrix": matrix_to_pairs(np.diag(np.arange(dim_s, dtype=float)))}
    doc = {"model": model, "system_state": system_state, "observable": observable, "tolerance": 1e-9}
    return json.dumps(doc, sort_keys=True) + "\n"


def timed_run(argv: list[str], env: dict[str, str]) -> dict:
    """Wall seconds, peak RSS (MB) and stdout digest of one child process."""
    with tempfile.TemporaryFile() as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=env, stdout=out, stderr=subprocess.DEVNULL, preexec_fn=_limit_address_space
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        digest = hashlib.sha256(out.read()).hexdigest()
    return {
        "wall_s": round(wall, 4),
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),  # ru_maxrss is in KB on Linux
        "exit": proc.returncode,
        "stdout_sha256": digest,
    }


def summary(samples: list[dict]) -> dict:
    """Median wall time, largest peak RSS, and the distinct exit codes and digests of repeated runs."""
    return {
        "wall_s_median": statistics.median(s["wall_s"] for s in samples),
        "peak_rss_mb_max": max(s["peak_rss_mb"] for s in samples),
        "exit": sorted({s["exit"] for s in samples}),
        "stdout_sha256": sorted({s["stdout_sha256"] for s in samples}),
        "samples": samples,
    }


def selftest_compute(seed: int, env: dict[str, str]) -> float:
    """Seconds of one ``selftest_checks(seed)`` call in a fresh child, import excluded."""
    proc = subprocess.run(
        [sys.executable, "-c", SELFTEST_TIMER, str(seed)], env=env, capture_output=True, text=True, check=True
    )
    return round(float(proc.stdout), 5)


def sweep_leg(sides: dict[str, Path], env_base: dict[str, str], repeat: int, points=SWEEP_POINTS) -> dict:
    """``symcond sweep <fig1> --steps P --format F`` for every P in ``points``
    and both formats, ``repeat`` times per side, sides alternating; one
    entry per (P, F) and side, in the ``summary`` form."""
    results = {label: [] for label in sides}
    for steps in points:
        for fmt in SWEEP_FORMATS:
            runs = {label: [] for label in sides}
            for r in range(repeat):
                for label in list(sides) if r % 2 == 0 else list(reversed(sides)):
                    env = dict(env_base, PYTHONPATH=str(sides[label]))
                    argv = [sys.executable, "-m", "symcond", "sweep", str(FIG1), "--steps", str(steps)]
                    runs[label].append(timed_run([*argv, "--format", fmt], env))
            for label, samples in runs.items():
                entry = {"points": steps, "rows": 2 * steps, "format": fmt, **summary(samples)}
                results[label].append(entry)
                print(
                    f"{label:>8} sweep {steps:>6} points {fmt:<4} {entry['wall_s_median']:.3f}s/"
                    f"{entry['peak_rss_mb_max']:.0f}MB exit {entry['exit']}",
                    file=sys.stderr,
                )
    return results


def comparison(results: dict) -> dict:
    """Distinct stdout digests per (case, sweep or seed, command) across all
    sides, each side's total selftest wall and compute times relative to
    the first side's, and each side's sweep wall time and peak RSS."""
    digests: dict[str, set[str]] = {}
    for side in results.values():
        for case in side["cases"]:
            for cmd in COMMANDS:
                digests.setdefault(f"{case['dim_s']}x{case['dim_a']} {cmd}", set()).update(case[cmd]["stdout_sha256"])
        for entry in side["sweep"]:
            digests.setdefault(f"sweep {entry['points']} {entry['format']}", set()).update(entry["stdout_sha256"])
        for entry in side["selftest"]:
            digests.setdefault(f"seed {entry['seed']} selftest", set()).update(entry["stdout_sha256"])
    walls, computes = (
        {label: round(sum(e[key] for e in side["selftest"]), 4) for label, side in results.items()}
        for key in ("wall_s_median", "compute_s_median")
    )
    first = next(iter(walls))
    sweeps = {}
    for label, side in results.items():
        for entry in side["sweep"]:
            sweeps.setdefault(f"{entry['points']} {entry['format']}", {})[label] = {
                "wall_s_median": entry["wall_s_median"],
                "peak_rss_mb_max": entry["peak_rss_mb_max"],
            }
    for by_side in sweeps.values():
        base = next(iter(by_side.values()))["wall_s_median"]
        for entry in by_side.values():
            entry["wall_ratio"] = round(entry["wall_s_median"] / base, 4)
    return {
        "stdout_sha256": {key: sorted(values) for key, values in digests.items()},
        "sweep": sweeps,
        "selftest_wall_s": walls,
        "selftest_wall_ratio": {label: round(wall / walls[first], 4) for label, wall in walls.items()},
        "selftest_compute_s": computes,
        "selftest_compute_ratio": {label: round(t / computes[first], 4) for label, t in computes.items()},
    }


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": 1,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "platform": platform.platform(),
    }


def parse_sizes(text: str) -> list[tuple[str, int, int]]:
    sizes = []
    for item in text.split(","):
        ds, da = (int(v) for v in item.lower().split("x"))
        sizes.append(("custom", ds, da))
    return sizes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument(
        "--side",
        action="append",
        default=None,
        help="LABEL=SRC: a source tree to measure (repeatable; default change=<this checkout>/src)",
    )
    parser.add_argument("--sizes", default=None, help="comma-separated DSxDA list instead of both legs")
    parser.add_argument("--repeat", type=int, default=3, help="runs per (side, case, command)")
    args = parser.parse_args(argv)

    sides = {}
    for item in args.side or [f"change={ROOT / 'src'}"]:
        label, _, src = item.partition("=")
        sides[label] = Path(src).resolve()
    cases = parse_sizes(args.sizes) if args.sizes else [
        (leg, ds, da) for leg, sizes in LEGS.items() for ds, da in sizes
    ]
    env_base = dict(os.environ, **{var: "1" for var in BLAS_VARS})

    results = {label: {"cases": [], "sweep": [], "selftest": []} for label in sides}
    with tempfile.TemporaryDirectory() as tmp:
        for leg, ds, da in cases:
            path = Path(tmp) / f"jc_{ds}x{da}.scenario"
            path.write_text(scenario_document(ds, da), encoding="utf-8")
            runs = {label: {cmd: [] for cmd in COMMANDS} for label in sides}
            for r in range(args.repeat):
                order = list(sides) if r % 2 == 0 else list(reversed(sides))
                for label in order:
                    env = dict(env_base, PYTHONPATH=str(sides[label]))
                    for cmd in COMMANDS:
                        argv_ = [sys.executable, "-m", "symcond", cmd, str(path)]
                        runs[label][cmd].append(timed_run(argv_, env))
            for label in sides:
                entry = {"leg": leg, "dim_s": ds, "dim_a": da, "n": ds * da}
                for cmd, samples in runs[label].items():
                    entry[cmd] = summary(samples)
                    entry[cmd]["peak_rss_bytes_per_n2"] = round(entry[cmd]["peak_rss_mb_max"] * 2**20 / (ds * da) ** 2, 1)
                results[label]["cases"].append(entry)
                print(
                    f"{label:>8} {leg:>6} {ds:>3}x{da:<3} "
                    + " ".join(
                        f"{cmd} {entry[cmd]['wall_s_median']:.3f}s/{entry[cmd]['peak_rss_mb_max']:.0f}MB"
                        f"/{entry[cmd]['peak_rss_bytes_per_n2']:.0f}B per n² exit {entry[cmd]['exit']}"
                        for cmd in COMMANDS
                    ),
                    file=sys.stderr,
                )

    if not args.sizes:
        for label, entries in sweep_leg(sides, env_base, args.repeat).items():
            results[label]["sweep"] = entries

    for seed in SELFTEST_SEEDS:
        runs = {label: [] for label in sides}
        computes = {label: [] for label in sides}
        for r in range(args.repeat):
            for label in list(sides) if r % 2 == 0 else list(reversed(sides)):
                env = dict(env_base, PYTHONPATH=str(sides[label]), SYMCOND_SEED=str(seed))
                runs[label].append(timed_run([sys.executable, "-m", "symcond", "selftest"], env))
                computes[label].append(selftest_compute(seed, env))
        for label, samples in runs.items():
            compute = statistics.median(computes[label])
            results[label]["selftest"].append(
                {"seed": seed, **summary(samples), "compute_s": computes[label], "compute_s_median": compute}
            )
            print(
                f"{label:>8} selftest seed {seed} {statistics.median(s['wall_s'] for s in samples):.3f}s"
                f" ({compute * 1e3:.1f} ms in selftest_checks)",
                file=sys.stderr,
            )

    report = {
        "schema": SCHEMA,
        "commands": list(COMMANDS),
        "sweep_points": list(SWEEP_POINTS) if not args.sizes else [],
        "repeat": args.repeat,
        "seed": SEED,
        "selftest_seeds": list(SELFTEST_SEEDS),
        "fingerprint": fingerprint(),
        "sides": results,
        "comparison": comparison(results),
    }
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
