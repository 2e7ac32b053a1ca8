#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the medqnn CLI.

Run one workload (what a single measurement needs):

    python3 bench/run.py --workload pneumonia-analyze --seed 1 --seconds 45 --trace 0

or every workload, untraced and traced, writing bench/results/BENCH_<label>.json
and comparing it with the newest earlier result there:

    python3 bench/run.py --workload all --seed 1 --seconds 45 --label mychange

Each command runs as a closed loop of one client: one ``python3 -m
medqnn.cli`` subprocess at a time, each started after the previous one
exited, with at most two BLAS threads. ``--trace 0`` runs the workload's
command sequence (a pass) once untimed when the workload asks for a
warm-up, then repeats it while another pass still ends within
``--seconds`` (at least once), running a fixed calibration job between
commands every few seconds. It reports the pass time built from
per-command medians, in seconds (``wall_s``) and with each command's time
divided by the calibration job's time around it (``wall_rel``, the figure
that a slower or faster host leaves alone), the per-command times, the
median of several fresh-interpreter set-ups (``setup_s``) and the largest
child RSS. ``--trace 1`` ignores ``--seconds``: it runs one untraced and
one traced pass inside this process, the traced one with every public
function of the package wrapped (see ``spans.py`` and ``layers.py``), and
reports the per-layer metrics. The last stdout line is the JSON result.
Every command's outputs are checked, and every artifact but the manifest
must be byte-identical between passes."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter

import workloads
from spans import Tracer, instrumented

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"
WORK = ROOT / ".bench_build" / "work"
# Never more BLAS threads than cores; capped at 2 so results compare across machines.
BLAS_THREADS = min(2, os.cpu_count() or 1)
SETUP_REPEATS = 7
SLOWDOWN_FLAG = 0.20

END_TO_END_UNITS = {"wall_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}

_SETUP_PROBE = (
    "import sys\n"
    "import medqnn\n"
    "from medqnn import data\n"
    "data.load_archive(sys.argv[1], sys.argv[2])\n"
    "data.sha256_of_file(sys.argv[1])\n"
)

# A fixed job with the program's mix of work and no medqnn code, so that no
# change to the program moves it: interpreter start-up and numpy import (as
# every command), a power iteration on a 784 x 784 matrix (as pca.fit) and
# many calls on tiny arrays (as the circuit simulators).
_CALIBRATION_JOB = (
    "import numpy as np\n"
    "g = np.random.default_rng(0).normal(size=(784, 784))\n"
    "basis = np.eye(784)[:, :4]\n"
    "for _ in range(600):\n"
    "    basis, _ = np.linalg.qr(g @ basis)\n"
    "x = np.ones(4)\n"
    "for _ in range(50000):\n"
    "    x = np.tanh(x * 0.5 + 0.1)\n"
)
CALIBRATION_EVERY_S = 3.0
CALIBRATION_RUNS_MAX = 5


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv: list[str], env: dict, log: Path) -> tuple[float, float, int]:
    """(wall seconds, max RSS in MB, exit code) of one subprocess."""
    with open(log, "ab") as handle:
        start = perf_counter()
        child = subprocess.Popen(argv, env=env, stdout=handle, stderr=handle, cwd=WORK)
        try:
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:
            child.kill()
            child.wait()
            raise
        elapsed = perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, usage.ru_maxrss / 1024.0, child.returncode


class Calibration:
    """Times of the calibration job, taken between the commands of a run.

    On a shared host (measured on a 2-vCPU cloud VM) the same work runs
    faster and slower by a quarter and more over stretches of seconds to
    minutes, which no run length averages out. A command's time divided by
    the calibration job's time just before and just after it is what the
    slow stretch does not move.
    """

    def __init__(self, env: dict, log: Path):
        self.env, self.log = env, log
        self.points: list[float] = []  # each the median of the runs made at one point
        self.last = perf_counter()

    def due(self) -> bool:
        return perf_counter() - self.last >= CALIBRATION_EVERY_S

    def take(self) -> None:
        """One point; more runs after long commands, whose time it must carry."""
        runs = min(CALIBRATION_RUNS_MAX, max(1, round((perf_counter() - self.last) / CALIBRATION_EVERY_S)))
        times = []
        for _ in range(runs):
            elapsed, _, code = run_child([sys.executable, "-c", _CALIBRATION_JOB], self.env, self.log)
            if code != 0:
                raise RuntimeError(f"the calibration job exited {code}:\n{log_tail(self.log)}")
            times.append(elapsed)
        self.points.append(median(times))
        self.last = perf_counter()

    def around(self, point: int) -> float:
        """Mean of the points just before and after a command that preceded ``point``."""
        return (self.points[point - 1] + self.points[point]) / 2


def log_tail(log: Path) -> str:
    return log.read_text(encoding="utf-8", errors="replace")[-3000:]


def median(values: list[float]) -> float:
    return float(statistics.median(values))


# --- passes ------------------------------------------------------------------

class Pass:
    """Times, memory, problems and artifact digests of one command sequence."""

    def __init__(self):
        self.times: dict[str, float] = {}
        self.metric_of: dict[str, str | None] = {}  # command -> the metric its time adds to
        self.next_point: dict[str, int] = {}  # command -> the calibration point taken after it
        self.peak_rss_mb = 0.0
        self.problems: dict[str, list[str]] = {}
        self.digests: dict[str, dict[str, str]] = {}
        self.top_layers: dict[str, dict[str, float]] = {}  # traced passes only

    def record(self, command, out: Path, elapsed: float, code: int) -> None:
        self.times[command.name] = elapsed
        self.metric_of[command.name] = command.metric
        problems = [f"exit code {code}"] if code != 0 else workloads.check_outputs(command, out)
        if problems:
            self.problems[command.name] = problems
        self.digests[command.name] = workloads.artifact_digests(out) if out.is_dir() else {}

    @property
    def wall_s(self) -> float:
        return sum(self.times.values())

    def compare(self, reference: "Pass") -> None:
        """Byte-identity against an earlier pass of the same workload and seed."""
        for name, digests in self.digests.items():
            before = reference.digests.get(name, {})
            changed = sorted(k for k in digests.keys() | before.keys() if digests.get(k) != before.get(k))
            if changed:
                self.problems.setdefault(name, []).append(f"artifacts differ from the first pass: {changed[:5]}")


def typical_pass(passes: list[Pass], calibration: Calibration) -> tuple[float, float, dict[str, float]]:
    """The pass in seconds and in calibration-job times, and each per-command metric.

    All are sums of per-command medians, which keep a slow stretch of the
    host that hits part of one pass from moving the whole figure.
    """
    names = list(passes[0].times)
    seconds = {name: median([p.times[name] for p in passes]) for name in names}
    relative = {
        name: median([p.times[name] / calibration.around(p.next_point[name]) for p in passes])
        for name in names
    }
    metrics: dict[str, float] = {}
    for name, value in seconds.items():
        metric = passes[0].metric_of[name]
        if metric:
            metrics[metric] = metrics.get(metric, 0.0) + value
    return sum(seconds.values()), sum(relative.values()), metrics


def subprocess_pass(plan, out: Path, env: dict, log: Path, calibration: Calibration | None = None) -> Pass:
    result = Pass()
    for command in plan.commands(out):
        if calibration is not None and calibration.due():
            calibration.take()
        target = out / command.name
        elapsed, rss, code = run_child([sys.executable, "-m", "medqnn.cli", *command.argv], env, log)
        result.peak_rss_mb = max(result.peak_rss_mb, rss)
        result.record(command, target, elapsed, code)
        if calibration is not None:
            result.next_point[command.name] = len(calibration.points)
    return result


def _call_main(modules, argv: list[str]) -> tuple[float, int]:
    """(seconds, exit code) of ``cli.main``; a crash counts as exit code 1."""
    start = perf_counter()
    try:
        code = modules["cli"].main(argv)
    except Exception:
        traceback.print_exc()
        code = 1
    return perf_counter() - start, code


def in_process_pass(plan, out: Path, log: Path, tracer=None, hooks=None, modules=None) -> Pass:
    """One pass through ``cli.main`` in this process; traced when given a tracer."""
    result = Pass()
    for command in plan.commands(out):
        with open(log, "a", encoding="utf-8") as handle, redirect_stderr(handle):
            if tracer is None:
                elapsed, code = _call_main(modules, list(command.argv))
            else:
                own = Tracer()
                with instrumented(own, modules, hooks.table()):
                    elapsed, code = _call_main(modules, list(command.argv))
                tracer.merge(own)
                ranked = sorted(own.stats.items(), key=lambda item: -item[1].self_s)
                result.top_layers[command.name] = {name: s.self_s for name, s in ranked[:5]}
        result.record(command, out / command.name, elapsed, code)
    return result


# --- one workload ------------------------------------------------------------

def measure_setup(plan, env: dict, log: Path) -> list[float]:
    probe = [sys.executable, "-c", _SETUP_PROBE, str(plan.archive), plan.dataset]
    samples = []
    for _ in range(SETUP_REPEATS):
        elapsed, _, code = run_child(probe, env, log)
        if code != 0:
            raise RuntimeError(f"the set-up probe exited {code}:\n{log_tail(log)}")
        samples.append(elapsed)
    return samples


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    work = WORK / f"{name}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    log = work / "commands.log"
    env = child_env()
    try:
        plan = workloads.WORKLOADS[name](seed, work)
        _, _, code = run_child([sys.executable, workloads.__file__, name, str(seed), str(work)], env, log)
        if code != 0:
            raise RuntimeError(f"preparing the {name} inputs exited {code}:\n{log_tail(log)}")
        archives = json.loads((work / "archives.json").read_text(encoding="utf-8"))
        result = {"workload": name, "seed": seed, "archives": archives}
        if trace:
            passes = _traced(plan, work, log, result)
        else:
            passes = _untraced(plan, work, env, log, seconds, result)
        failed = sum(len(p.problems) for p in passes)
        attempted = sum(len(p.times) for p in passes)
        result.update(
            attempted=attempted, failed=failed, ops_failed_frac=failed / attempted,
            problems=[p.problems for p in passes if p.problems],
        )
        for problems in result["problems"]:
            for command, what in problems.items():
                print(f"FAILED {name} {command}: {'; '.join(what)}", file=sys.stderr)
        if failed:
            print(f"--- tail of the command log ---\n{log_tail(log)}", file=sys.stderr)
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _untraced(plan, work: Path, env: dict, log: Path, seconds: int, result: dict) -> list[Pass]:
    setup = measure_setup(plan, env, log)
    checked: list[Pass] = []
    if plan.warm_up:
        checked.append(subprocess_pass(plan, work / "warm_up", env, log))
    passes: list[Pass] = []
    durations: list[float] = []
    calibration = Calibration(env, log)
    start = perf_counter()
    calibration.take()
    # Start another pass only while a typical one still ends within the run.
    while not passes or perf_counter() - start + median(durations) <= seconds:
        out = work / f"pass{len(passes)}"
        began = perf_counter()
        current = subprocess_pass(plan, out, env, log, calibration)
        durations.append(perf_counter() - began)
        if checked:
            current.compare(checked[0])
            shutil.rmtree(out)
        checked.append(current)
        passes.append(current)
    calibration.take()
    wall_s, wall_rel, commands = typical_pass(passes, calibration)
    metrics = {
        "wall_rel": wall_rel,
        "setup_s": median(setup),
        "peak_rss_mb": max(p.peak_rss_mb for p in checked),
    }
    result.update(
        passes=len(passes), warm_up=plan.warm_up, setup_samples=setup, end_to_end=metrics,
        wall_s=wall_s, calibration_s=median(calibration.points), calibration_points=calibration.points,
        commands=commands, command_times=[p.times for p in passes],
    )
    return checked


def _traced(plan, work: Path, log: Path, result: dict) -> list[Pass]:
    import layers

    modules = layers.load_modules()
    plain = in_process_pass(plan, work / "untraced", log, modules=modules)
    tracer, hooks = Tracer(), layers.Hooks()
    traced = in_process_pass(plan, work / "traced", log, tracer, hooks, modules)
    traced.compare(plain)
    curves_written = len(list((work / "traced").rglob("curve_*.csv")))
    values = layers.layer_metrics(tracer, hooks, curves_written)
    values["trace.overhead_frac"] = traced.wall_s / plain.wall_s - 1.0
    result.update(
        passes=1, per_layer=values, top_layers=traced.top_layers,
        untraced_in_process_s=plain.wall_s, traced_in_process_s=traced.wall_s,
        spans={name: vars(s) for name, s in sorted(tracer.stats.items())},
    )
    return [plain, traced]


# --- reporting -------------------------------------------------------------------

def print_workload(result: dict) -> None:
    import layers

    name = result["workload"]
    print(f"== {name} (seed {result['seed']}, {result['passes']} pass(es), "
          f"{result['failed']}/{result['attempted']} commands failed)")
    for archive in result["archives"]:
        print(f"   archive {archive['name']}: {archive['train']}/{archive['val']}/{archive['test']} "
              f"images, {archive['num_classes']} classes, sha256 {archive['sha256'][:16]}")
    rows = []
    if "end_to_end" in result:
        rows += [(k, v, END_TO_END_UNITS[k]) for k, v in result["end_to_end"].items()]
        rows += [("wall_s", result["wall_s"], "s"), ("calibration_s", result["calibration_s"], "s")]
        rows += [(k, v, "s") for k, v in result["commands"].items()]
        rows.append(("ops_failed_frac", result["ops_failed_frac"], "ratio"))
    if "per_layer" in result:
        rows += [(k, result["per_layer"][k], unit) for k, unit in layers.PER_LAYER_UNITS.items()]
    for key, value, unit in rows:
        print(f"   {key:<44} {value:>16.6g} {unit}")


def result_line(result: dict, trace: bool) -> str:
    import layers

    if trace:
        metrics = {k: {"value": result["per_layer"][k], "unit": u} for k, u in layers.PER_LAYER_UNITS.items()}
    else:
        metrics = {k: {"value": result["end_to_end"][k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def blas_threads_in_use() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it is one."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment(seed: int, passes: dict[str, int]) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = None
    source = sorted((ROOT / "src" / "medqnn").glob("*.py"))
    digest = hashlib.sha256(b"".join(p.name.encode() + p.read_bytes() for p in source)).hexdigest()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads_in_use(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_rev": rev,
        "src_sha256": digest,
        "seed": seed,
        "passes": passes,
    }


def reference_timings() -> dict:
    """The figures ROADMAP's baseline quotes, measured directly and untraced."""
    import numpy as np

    from medqnn import data, models, pca, training
    from medqnn.rng import Rng

    def per_call_ms(fn, repeats: int) -> float:
        fn()
        samples = []
        for _ in range(repeats):
            start = perf_counter()
            fn()
            samples.append(perf_counter() - start)
        return 1000.0 * median(samples)

    generator = np.random.default_rng(0)
    features = generator.normal(size=(32, 4))
    labels = generator.integers(0, 2, size=32)
    out = {}
    for kind in workloads.KINDS:
        model = models.init_model(kind, 2, Rng(0))
        out[f"loss_and_grad_batch32_ms.{kind}"] = per_call_ms(
            lambda: models.loss_and_grad(model, features, labels), 20)
        if kind != "classical":
            out[f"logit_input_jacobian_ms.{kind}"] = per_call_ms(
                lambda: models.logit_input_jacobian(model, features[0]), 50)

    WORK.mkdir(parents=True, exist_ok=True)
    archive = WORK / f"reference-{os.getpid()}.npz"
    try:
        workloads.write_archive(workloads.PNEUMONIA, workloads.TRAINING_SEED, archive)
        train = data.load_archive(archive, workloads.PNEUMONIA.dataset)[0]
    finally:
        archive.unlink(missing_ok=True)
    fold_rows = training.stratified_kfold(train.labels, 3, workloads.TRAINING_SEED)[0][0]
    images = train.flat_images()[fold_rows]
    iterations = 0
    qr = np.linalg.qr

    def counting_qr(*args, **kwargs):
        nonlocal iterations
        iterations += 1
        return qr(*args, **kwargs)

    np.linalg.qr = counting_qr
    try:
        start = perf_counter()
        pca.fit(images, 4)
        out["pca_fit_fold0_s"] = perf_counter() - start
    finally:
        np.linalg.qr = qr
    out["pca_fit_fold0_rows"] = len(images)
    out["pca_fit_fold0_iterations"] = iterations
    return out


def newest_earlier(label: str) -> dict | None:
    found = []
    for path in RESULTS.glob("BENCH_*.json"):
        payload = json.loads(path.read_text(encoding="utf-8"))
        if payload.get("label") != label:
            found.append(payload)
    return max(found, key=lambda p: p["created_at"], default=None)


def print_comparison(current: dict, earlier: dict) -> None:
    import layers

    print(f"== change against {earlier['label']} ({earlier['created_at']})")
    for name, layers_now in current["layers"].items():
        before = earlier.get("layers", {}).get(name, {})
        rows = [(k, END_TO_END_UNITS[k]) for k in END_TO_END_UNITS]
        rows += [(k, u) for k, u in layers.PER_LAYER_UNITS.items()]
        for key, unit in rows:
            new = current["end_to_end"].get(name, {}).get(key, layers_now.get(key))
            old = earlier.get("end_to_end", {}).get(name, {}).get(key, before.get(key))
            if new is None or old is None:
                continue
            change = (new - old) / old if old else 0.0
            flag = "  SLOWER" if (unit == "s" or key == "wall_rel") and change > SLOWDOWN_FLAG else ""
            print(f"   {name:<18} {key:<44} {old:>12.6g} -> {new:>12.6g} {unit:<5} {change:+8.1%}{flag}")


def run_all(seed: int, seconds: int, label: str | None) -> int:
    report = {"label": label, "created_at": datetime.now(timezone.utc).isoformat(),
              "end_to_end": {}, "commands": {}, "layers": {}, "workloads": {}}
    failed = 0
    # Untraced first: the traced runs load the package into this process,
    # which would then count towards every child's peak RSS.
    for trace in (False, True):
        for name in workloads.WORKLOADS:
            result = run_workload(name, seed, seconds, trace)
            print_workload(result)
            failed += result["failed"]
            report["workloads"].setdefault(name, {})["traced" if trace else "untraced"] = result
            if trace:
                report["layers"][name] = result["per_layer"]
            else:
                report["end_to_end"][name] = result["end_to_end"]
                report["commands"][name] = {"wall_s": result["wall_s"], **result["commands"]}
    report["reference"] = reference_timings()
    print("== reference timings (untraced, in-process)")
    for key, value in report["reference"].items():
        print(f"   {key:<44} {value:>16.6g}")
    report["env"] = environment(seed, {n: w["untraced"]["passes"] for n, w in report["workloads"].items()})
    report["git_rev"] = report["env"]["git_rev"]
    earlier = newest_earlier(label)
    if earlier is not None:
        print_comparison(report, earlier)
    if label:
        RESULTS.mkdir(exist_ok=True)
        path = RESULTS / f"BENCH_{label}.json"
        path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        help=f"{', '.join(workloads.WORKLOADS)} or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", help="with --workload all: write bench/results/BENCH_<label>.json")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.label and args.workload != "all":
        parser.error("--label needs --workload all")
    missing = [p for p in ("src/medqnn/cli.py", "tests/conftest.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}; run from a medqnn checkout",
              file=sys.stderr)
        return 2
    # Before numpy is first imported here, so the traced run matches the subprocesses.
    os.environ.update({k: v for k, v in child_env().items() if k.endswith("_NUM_THREADS")})
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.label)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"env {json.dumps(environment(args.seed, {args.workload: result['passes']}))}")
    print_workload(result)
    print(result_line(result, bool(args.trace)))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
