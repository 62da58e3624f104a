"""dhseq benchmark: one run of one workload.

    python3 perfbench/run.py --workload survey --seed 1 --seconds 40 --trace 0

Run it from anywhere; it benchmarks the checkout it lives in (``src/dhseq``
next to ``perfbench/``) and exits 2 without a result when that is missing.
It drives the public CLI in-process through ``dhseq.cli.main(argv)``, single
threaded, repeating passes over the workload's operations for about ``--seconds``
seconds, and checks every operation's output (see
workloads.py). The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics:
  wall_s       one pass over the workload's operations: the sum over
               operations of the median time across passes
  setup_s      median cold start (import dhseq + build the CLI parser)
               over fresh interpreters, probed between operations
  peak_rss_mb  peak resident memory of this process after all passes

``--trace 1`` runs each operation untraced and then traced and reports the
per-layer metrics of layers.py; the spans are written to
``.perfbench/traces/<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
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
WORK = ROOT / ".perfbench"
PROBES_PER_PASS = 12
PROBE_TIMEOUT_S = 60

sys.path.insert(0, str(HERE))
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


class NoProgram(Exception):
    """This checkout has no dhseq that the benchmark can run."""


def load_program() -> dict:
    """Import dhseq from this checkout's src; return its modules by name."""
    if not (SRC / "dhseq" / "__init__.py").is_file():
        raise NoProgram(f"no dhseq package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dhseq
    from dhseq import cli, cyclotomy, gf2poly, lincomp, numtheory, sequence, theorems

    if SRC not in Path(dhseq.__file__).resolve().parents:
        raise NoProgram(f"dhseq was imported from {dhseq.__file__}, not {SRC}")
    return {m.__name__.rpartition(".")[2]: m
            for m in (cli, numtheory, cyclotomy, sequence, gf2poly, lincomp, theorems)}


def call_cli(cli, argv) -> tuple[int | str, str]:
    """Run ``cli.main(argv)`` with output captured; return (exit code, stdout).

    A raised exception becomes a string exit code, so the operation counts
    as failed and the run goes on.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - reported as a failed operation
            code = f"raised {exc!r}"
    return code, out.getvalue()


def build_ops(workload: str, seed: int, workdir: Path, cli) -> list[workloads.Op]:
    rng = random.Random(seed)
    if workload == "survey":
        return workloads.survey(workdir)
    if workload == "lincomp-large":
        return workloads.lincomp_large(workdir, rng, lambda argv: call_cli(cli, argv))
    return workloads.verify(rng)


def run_pass(cli, ops, after_op=None) -> tuple[list[float], list[str]]:
    """Time every operation once; return per-op seconds and failure reasons.
    ``after_op`` runs untimed after each operation."""
    times, failures = [], []
    for op in ops:
        start = time.perf_counter()
        code, stdout = call_cli(cli, op.argv)
        times.append(time.perf_counter() - start)
        reason = op.check(code, stdout) if isinstance(code, int) else f"exit code {code}"
        if reason:
            failures.append(f"{op.name}: {reason}")
        if after_op is not None:
            after_op()
    return times, failures


def setup_probe() -> float:
    """One cold start (import dhseq + build the CLI parser) in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-I", str(HERE / "setup_probe.py"), str(SRC)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise NoProgram(f"setup probe failed: {proc.stderr.strip()}")
    return float(proc.stdout)


def one_pass_wall(times: list[list[float]]) -> float:
    """Sum over operations of each operation's median time across passes."""
    return sum(statistics.median(per_op) for per_op in zip(*times))


def measure(cli, ops, seconds: float):
    """Untraced passes, as long as the next one, taking as long as the last,
    would end within ``seconds``; at least one.

    Cold starts are probed between operations, so that they sample the
    same stretch of time as the passes rather than one moment of it.
    Returns per-pass operation times, cold-start samples and failures.
    """
    times, setups, failures = [], [], []
    probes_per_op = -(-PROBES_PER_PASS // len(ops))

    def probe():
        setups.extend(setup_probe() for _ in range(probes_per_op))

    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        t, f = run_pass(cli, ops, probe)
        times.append(t)
        failures += f
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            return times, setups, failures


def measure_traced(modules, ops, seconds: float):
    """Traced passes, as long as the next one would end within ``seconds``;
    at least one. Each operation runs untraced and then traced, back to back,
    so the two times see the same machine load and their difference is the
    tracing overhead. Returns untraced times, traced passes as
    (wall_s, spans, counts), and failures."""
    cli = modules["cli"]
    targets = layers.targets(modules)
    untraced, traced, failures = [], [], []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        tracer = Tracer()
        plain_times, traced_times = [], []
        for op in ops:
            t, f = run_pass(cli, [op])
            plain_times += t
            failures += f
            with tracer.installed(targets):
                t, f = run_pass(cli, [op])
            traced_times += t
            failures += f
        untraced.append(plain_times)
        traced.append((sum(traced_times), tracer.spans, dict(tracer.counts)))
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            return untraced, traced, failures


def write_trace(path: Path, traced) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "passes": [
            {
                "wall_s": wall_s,
                "counts": counts,
                "spans": [[s.id, s.parent, s.name, s.start, s.end] for s in spans],
            }
            for wall_s, spans, counts in traced
        ],
        "span_fields": ["id", "parent", "name", "start", "end"],
    }
    path.write_text(json.dumps(doc))


def repeat_problems(traced) -> list[str]:
    """Calls and counts must repeat exactly between traced passes."""
    def signature(spans, counts):
        calls = {}
        for s in spans:
            calls[s.name] = calls.get(s.name, 0) + 1
        return calls, counts

    first = signature(*traced[0][1:])
    return [f"traced pass {i} counted different work than pass 0"
            for i, (_, spans, counts) in enumerate(traced[1:], 1)
            if signature(spans, counts) != first]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    # The spectral degree cap must not come from the caller's environment.
    os.environ.pop("DHSEQ_DEGREE_CAP", None)
    try:
        modules = load_program()
    except (NoProgram, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cli = modules["cli"]
    workdir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = build_ops(args.workload, args.seed, workdir, cli)
        if args.trace:
            untraced, traced, failures = measure_traced(modules, ops, args.seconds)
            metrics = layers.per_layer_metrics(traced, one_pass_wall(untraced))
            units = layers.metric_units()
            problems = repeat_problems(traced)
            write_trace(WORK / "traces" / f"{args.workload}-seed{args.seed}.json", traced)
            print(layers.self_time_table(traced), file=sys.stderr)
            attempted = len(ops) * (len(untraced) + len(traced))
        else:
            times, setups, failures = measure(cli, ops, args.seconds)
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = {
                "wall_s": one_pass_wall(times),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": peak_kb / 1024,
            }
            units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
            problems = []
            attempted = len(ops) * len(times)
            for op, *per_op in zip(ops, *times):
                print(f"{op.name:50} median {statistics.median(per_op):8.3f} s over "
                      f"{len(per_op)} passes", file=sys.stderr)
    except NoProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in failures + problems:
        print(f"FAILED {line}", file=sys.stderr)
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
