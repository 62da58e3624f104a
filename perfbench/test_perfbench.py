"""Smoke tests for the benchmark itself: every workload at toy size through
its oracles, the tracer's span arithmetic, and the metric names promised in
BENCHMARK.json.

    python3 -m pytest perfbench -q
"""

import json
import random
import shutil
import subprocess
import sys

import pytest

import layers
import run
import workloads
from tracer import Target, Tracer, layer_stats

MODULES = run.load_program()
CLI = MODULES["cli"]
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def cli_bm_L(factors) -> int:
    """L by Berlekamp-Massey, a different route from the gcd one the ops time."""
    code, out = run.call_cli(CLI, ["lincomp", "--method", "bm", "--factors",
                                   workloads.factor_arg(factors), "--default"])
    assert code == 0
    return int(out.split("=")[1])


def assert_passes(ops):
    times, failures = run.run_pass(CLI, ops)
    assert failures == []
    assert len(times) == len(ops)


def test_survey_toy(tmp_path):
    assert_passes(workloads.survey(tmp_path, max_n=100))


def test_lincomp_toy(tmp_path):
    factors = ((3, 1), (5, 1), (7, 1), (11, 1))
    L = cli_bm_L(factors)
    ops = workloads.lincomp_large(
        tmp_path, random.Random(7), lambda argv: run.call_cli(CLI, argv),
        cases=[(factors, "--default", L)], raw=(factors, L),
    )
    assert_passes(ops)
    assert (tmp_path / "raw-period.txt").read_text() != (tmp_path / "period.txt").read_text()


def test_lincomp_oracle_rejects_a_wrong_value(tmp_path):
    factors = ((3, 1), (7, 1))
    ops = workloads.lincomp_large(
        tmp_path, random.Random(1), lambda argv: run.call_cli(CLI, argv),
        cases=[(factors, "--default", cli_bm_L(factors) + 1)], raw=(factors, 0),
    )
    _, failures = run.run_pass(CLI, ops)
    assert len(failures) == 2


def test_verify_toy():
    ops = workloads.verify(random.Random(3), moduli=[((3, 1), (5, 1), (7, 1)), ((3, 1), (7, 1))])
    assert_passes(ops)


def test_verify_vectors_have_odd_sum_and_follow_the_seed():
    specs = [op.argv[-1] for op in workloads.verify(random.Random(5))]
    assert specs == [op.argv[-1] for op in workloads.verify(random.Random(5))]
    for spec in specs:
        for entry in spec.split(";"):
            _, bits = entry.split(":")
            assert bits.count("1") % 2 == 1


def test_scramble_is_a_seeded_permutation():
    bits = "1101000" * 3 + "11"
    a = workloads.scramble_period(bits, random.Random(2))
    assert a == workloads.scramble_period(bits, random.Random(2))
    assert sorted(a) == sorted(bits)


def test_closed_form_matches_the_measured_value():
    assert workloads.two_prime_closed_form(499, 503) == 750


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_is_total_minus_children():
    clock = FakeClock()
    tracer = Tracer(clock)
    ns = type("ns", (), {})()

    def d():
        clock.advance(1)

    def c():
        clock.advance(1)
        ns.d()
        clock.advance(2)

    def b():
        clock.advance(3)

    def a():
        clock.advance(1)
        ns.b()
        clock.advance(1)
        ns.c()
        clock.advance(1)

    ns.a, ns.b, ns.c, ns.d = a, b, c, d
    targets = [Target(ns, name, name) for name in "abcd"]
    with tracer.installed(targets):
        ns.a()
    assert ns.a is a
    stats = layer_stats(tracer.spans)
    assert {k: (v["total_s"], v["self_s"]) for k, v in stats.items()} == {
        "a": (10, 3), "b": (3, 3), "c": (4, 3), "d": (1, 1),
    }
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["a"].parent is None
    assert by_name["b"].parent == by_name["c"].parent == by_name["a"].id
    assert by_name["d"].parent == by_name["c"].id


def test_installed_restores_originals_after_an_error():
    ns = type("ns", (), {})()

    def boom():
        raise KeyError("x")

    ns.f = boom
    tracer = Tracer()
    with pytest.raises(KeyError):
        with tracer.installed([Target(ns, "f", "f", raises=(KeyError,))]):
            ns.f()
    assert ns.f is boom
    assert tracer.counts["f.skipped"] == 1
    assert len(tracer.spans) == 1


def traced_pass(ops):
    tracer = Tracer()
    with tracer.installed(layers.targets(MODULES)):
        times, failures = run.run_pass(CLI, ops)
    assert failures == []
    return sum(times), tracer.spans, dict(tracer.counts)


def test_traced_metrics_match_benchmark_json(tmp_path):
    ops = workloads.survey(tmp_path, max_n=60)
    traced = [traced_pass(ops), traced_pass(ops)]
    assert run.repeat_problems(traced) == []
    metrics = layers.per_layer_metrics(traced, untraced_wall_s=traced[0][0])
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    promised = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert promised == layers.metric_units()
    assert set(metrics) == set(promised)
    assert metrics["cli.survey_row.calls"] > 0
    assert metrics["survey.generate_per_row"] == (
        metrics["sequence.generate.calls"] / metrics["cli.survey_row.calls"])
    assert len(layers.targets(MODULES)) == len(layers.FUNCTIONS)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "survey", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / ".perfbench").exists()


def test_survey_oracle_rejects_a_disagreeing_row(tmp_path):
    (op,) = workloads.survey(tmp_path, max_n=40)[:1]
    assert_passes([op])
    path = tmp_path / "survey-default-all.csv"
    header, first, *rest = path.read_text().splitlines()
    cells = first.split(",")
    cells[4] = str(int(cells[4]) + 1)  # L_bm
    path.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
    assert "L_bm" in workloads.check_survey_csv(path, None)
