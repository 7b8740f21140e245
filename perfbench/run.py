"""detbundle benchmark: times pinned CLI workloads from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the program under test is
``src/detbundle``, imported with ``PYTHONPATH=src``, so nothing is built.
Workloads are in workloads.py.  One run:

1. warm-up: one untimed fresh import of every detbundle module, so that
   bytecode compilation stays out of the first sample;
2. ``--trace 0``: ``setup_s`` from repeated setup-only children, then timed
   samples of the workload (each a fresh process, tracing off) until the next
   one would end after ``--seconds``, at least two so that outputs can be
   compared byte for byte; then the accuracy co-metrics, outside the timing;
3. ``--trace 1``: one traced sample (tracer.py) and untraced samples for the
   rest of the window; per-layer metrics and the tracing overhead, i.e. the
   traced wall time minus the untraced median.

Every sample's outputs are checked (workloads.check_output) and must be
byte-identical to the first sample's.  The last line of stdout is the JSON
result; the lines before it name every metric with its unit.

The machine this was built on drifts between speed regimes some 30% apart
that last for minutes.  A fixed calibration kernel (``calibrate``; numpy and
pure Python, nothing from detbundle) is timed right before and after every
burst of setup children, and around every sample of a workload marked
``calibrated``; those times t are reported at the reference speed, as
t * CAL_REF_S / calibration time.  The raw medians are printed as well.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
# Calibration time that defines the reference speed: the median of
# ``calibrate()`` on a 2-vCPU 2.1 GHz Xeon VM, numpy 2.4.6, OpenBLAS 0.3.31.
CAL_REF_S = 0.125
MIN_SAMPLES = 2
CHILD_TIMEOUT_S = 150.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


@dataclass
class Child:
    rc: int
    wall_s: float
    rss_mib: float
    stdout: str


@dataclass
class Sample:
    wall_s: float = 0.0
    ref_s: float = 0.0
    rss_mib: float = 0.0
    problems: list[str] = field(default_factory=list)


def child_env() -> dict[str, str]:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(argv: list[str], log: Path) -> Child:
    """Run one child to completion; wall time is spawn to exit."""
    with open(log, "w") as out:
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=child_env(),
                                stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, log.read_text())


_CAL_RNG = np.random.default_rng(0)
_CAL_H = _CAL_RNG.standard_normal((200, 8, 8)) + 1j * _CAL_RNG.standard_normal((200, 8, 8))
_CAL_H = _CAL_H + np.swapaxes(_CAL_H.conj(), -1, -2)


def calibrate() -> float:
    """Seconds for a fixed kernel: batched 8x8 eigh plus a pure-Python loop."""
    t0 = perf_counter()
    for _ in range(40):
        np.linalg.eigh(_CAL_H)
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return perf_counter() - t0


def digest(out_dir: Path) -> dict[str, str]:
    return {str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


class Runner:
    def __init__(self, workload: workloads.Workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.samples: list[Sample] = []
        self.first_digest: dict[str, str] | None = None
        self.first_out: Path | None = None
        self.cal_s = calibrate() if workload.calibrated else CAL_REF_S

    def cli_argv(self, command: tuple[str, ...], out_dir: Path) -> list[str]:
        return ["-m", "detbundle", *command, "--seed", str(self.seed), "--out", str(out_dir)]

    def sample(self, trace_to: Path | None = None) -> Sample:
        """One complete workload run, every command a fresh process."""
        k = len(self.samples)
        out_dir = self.work / f"out{k}"
        s = Sample()
        cal_before = self.cal_s
        for i, command in enumerate(self.workload.commands):
            argv = self.cli_argv(command, out_dir)
            if trace_to is not None:
                argv = [str(HERE / "child.py"), "trace", str(trace_to / f"trace{i}.json"),
                        *argv[2:]]
            c = spawn(argv, self.work / f"log{k}_{i}.txt")
            s.wall_s += c.wall_s
            s.rss_mib = max(s.rss_mib, c.rss_mib)
            s.problems += workloads.check_output(command[0], c.rc, out_dir)
        if self.workload.calibrated:
            self.cal_s = calibrate()
        s.ref_s = s.wall_s * CAL_REF_S / (0.5 * (cal_before + self.cal_s))
        sums = digest(out_dir)
        if self.first_digest is None:
            self.first_digest, self.first_out = sums, out_dir
        elif sums != self.first_digest:
            s.problems.append(f"sample {k}: outputs differ from sample 0")
        else:
            shutil.rmtree(out_dir)
        self.samples.append(s)
        return s

    def fill(self, seconds: float, first: int = 0, minimum: int = MIN_SAMPLES) -> None:
        """Untraced samples until the next one would end after ``seconds``."""
        t0 = perf_counter()
        while True:
            walls = self.untraced_walls(first)
            if len(walls) >= minimum and perf_counter() - t0 + statistics.median(walls) > seconds:
                return
            self.sample()

    def untraced_walls(self, start: int = 0) -> list[float]:
        return [s.wall_s for s in self.samples[start:]]

    def untraced_ref(self, start: int = 0) -> list[float]:
        return [s.ref_s for s in self.samples[start:]]


def warm_up(work: Path) -> None:
    c = spawn(["-c", "import detbundle.cli"], work / "warmup.txt")
    if c.rc != 0:
        raise SystemExit(f"benchmark: detbundle does not import:\n{c.stdout}")


def setup_seconds(runner: Runner) -> float:
    commands = [[*cmd, "--seed", str(runner.seed)] for cmd in runner.workload.commands]
    times = []
    cal_before = calibrate()
    for k in range(SETUP_REPEATS):
        c = spawn([str(HERE / "child.py"), "setup", json.dumps(commands)],
                  runner.work / f"setup{k}.txt")
        if c.rc != 0:
            raise SystemExit(f"benchmark: setup child failed:\n{c.stdout}")
        times.append(c.wall_s)
    return statistics.median(times) * CAL_REF_S / (0.5 * (cal_before + calibrate()))


def co_metrics(runner: Runner) -> tuple[dict[str, float], list[str]]:
    """Accuracy co-metrics, from untimed runs outside the timed samples."""
    c = spawn([str(HERE / "child.py"), "probe"], runner.work / "probe.txt")
    if c.rc != 0:
        raise SystemExit(f"benchmark: transfer probe failed:\n{c.stdout}")
    metrics = json.loads(c.stdout.strip().splitlines()[-1])
    ref = runner.work / "reference"
    problems = []
    for i, command in enumerate(runner.workload.reference):
        argv = ["-m", "detbundle", *command, "--seed", str(workloads.REFERENCE_SEED),
                "--out", str(ref)]
        rc = spawn(argv, runner.work / f"reference{i}.txt").rc
        problems += [f"reference run: {p}" for p in workloads.check_output(command[0], rc, ref)]
    metrics["defect_max_density"] = workloads.defect_max_density(ref, runner.first_out)
    metrics["verify_margin"] = workloads.verify_margin(ref)
    return metrics, problems


def environment() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"env: nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} blas={blas['name']} {blas['version']} "
            + " ".join(f"{k}={v}" for k, v in PINNED.items()))


def high_percentile(values: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return "none (fewer than 11 samples)"
    return f"p{100.0 * (n - 10) / n:.0f}={sorted(values)[n - 11]:.6g}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # A terminated run still stops its child and removes its work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    missing = [p for p in ("src/detbundle/cli.py", "configs/demo.cfg", "configs/cylinder.cfg",
                           "configs/scalar_sweep.cfg") if not (ROOT / p).is_file()]
    if missing:
        print("benchmark: not a detbundle checkout, missing " + ", ".join(missing),
              file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    work = ROOT / ".perfbench" / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        print(environment())
        warm_up(work)
        runner = Runner(workload, args.seed, work)
        problems: list[str] = []
        if args.trace:
            traced = runner.sample(trace_to=work)
            runner.fill(args.seconds - traced.wall_s, first=1, minimum=MIN_SAMPLES - 1)
            traces = [json.loads((work / f"trace{i}.json").read_text())
                      for i in range(len(workload.commands))]
            problems += [f"tracer: wrappers not restored in command {i}"
                         for i, tr in enumerate(traces) if not tr["restored"]]
            metrics = tracer.layer_metrics(tracer.merge(traces))
            metrics["cli.report_bytes"] = sum(
                p.stat().st_size for p in runner.first_out.rglob("*") if p.is_file())
            metrics["trace.wall_s"] = traced.ref_s
            metrics["trace.overhead_s"] = traced.ref_s - statistics.median(runner.untraced_ref(1))
        else:
            setup = setup_seconds(runner)
            runner.fill(args.seconds)
            metrics, co_problems = co_metrics(runner)
            problems += co_problems
            metrics.update(wall_s=statistics.median(runner.untraced_ref()), setup_s=setup,
                           peak_rss_mb=statistics.median(s.rss_mib for s in runner.samples))
        units = declared_units(args.trace)
        if set(metrics) != set(units):
            raise SystemExit("benchmark: metrics differ from BENCHMARK.json: "
                             f"{sorted(set(metrics) ^ set(units))}")
        samples = runner.samples
        failed = sum(1 for s in samples if s.problems)
        for s in samples:
            problems += s.problems
        walls = runner.untraced_walls(args.trace)
        print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
              f"{len(samples)} samples, {failed} failed, fail_frac={failed / len(samples):.3f}")
        refs = runner.untraced_ref(args.trace)
        print(f"  untraced sample wall at reference speed: median {statistics.median(refs):.6g} s, "
              f"{high_percentile(refs)}, n={len(refs)}: " + " ".join(f"{w:.4g}" for w in refs))
        print(f"  untraced sample wall, raw: median {statistics.median(walls):.6g} s, "
              f"{high_percentile(walls)}, n={len(walls)}: " + " ".join(f"{w:.4g}" for w in walls))
        for name in units:
            print(f"  {name} = {metrics[name]:.6g} {units[name]}")
        for p in problems:
            print(f"  FAILED CHECK: {p}")
        result = {
            "correct": not problems,
            "attempted": len(samples),
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
