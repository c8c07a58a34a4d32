"""Tests of the benchmark's own machinery: run with ``PYTHONPATH=src python -m pytest bench``."""

from __future__ import annotations

import copy
import json
import signal
import sys
import threading
import time
import types
from pathlib import Path

import pytest

import run
import spec
from probe import HostProbe
from tracing import Span, Tracer, covered_length, self_times

DEFINITION = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _span(id, start, end, parent=None, thread=1, cpu=None):
    return Span(id, f"s{id}", start, end, parent, 0, thread, end - start if cpu is None else cpu)


class TestSelfTime:
    def test_covered_length_merges_overlaps_and_clips(self):
        assert covered_length(0.0, 10.0, []) == 0.0
        assert covered_length(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)]) == 4.0
        assert covered_length(2.0, 5.0, [(0.0, 3.0), (4.0, 9.0), (6.0, 8.0)]) == 2.0

    def test_nested_children_are_subtracted(self):
        spans = [_span(0, 0.0, 10.0), _span(1, 1.0, 4.0, parent=0),
                 _span(2, 5.0, 6.0, parent=0), _span(3, 2.0, 3.0, parent=1)]
        walls = {k: v[0] for k, v in self_times(spans).items()}
        assert walls == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})
        assert sum(walls.values()) == pytest.approx(10.0)

    def test_concurrent_children_subtract_their_union(self):
        # Three pool-thread children overlap inside one parent.
        spans = [_span(0, 0.0, 10.0, cpu=1.0),
                 _span(1, 1.0, 5.0, parent=0, thread=2),
                 _span(2, 2.0, 6.0, parent=0, thread=3),
                 _span(3, 8.0, 9.0, parent=0, thread=2)]
        wall, cpu = self_times(spans)[0]
        assert wall == pytest.approx(4.0)  # 10 - |[1, 6] u [8, 9]|
        # Children on other threads do not spend the parent thread's CPU.
        assert cpu == pytest.approx(1.0)

    def test_cpu_self_time_subtracts_same_thread_children(self):
        spans = [_span(0, 0.0, 10.0, cpu=8.0), _span(1, 1.0, 4.0, parent=0, cpu=2.5)]
        assert self_times(spans)[0] == pytest.approx((7.0, 5.5))


class TestTracer:
    @pytest.fixture
    def package(self, monkeypatch):
        inner = types.ModuleType("fakepkg.inner")
        outer = types.ModuleType("fakepkg.outer")

        def leaf(x):
            return x + 1

        inner.leaf = leaf
        outer.leaf = leaf  # bound by "from .inner import leaf"
        outer.top = lambda x: outer.leaf(x) * 2
        monkeypatch.setitem(sys.modules, "fakepkg", types.ModuleType("fakepkg"))
        monkeypatch.setitem(sys.modules, "fakepkg.inner", inner)
        monkeypatch.setitem(sys.modules, "fakepkg.outer", outer)
        return inner, outer, leaf

    def test_spans_parents_counts_and_restore(self, package):
        inner, outer, leaf = package
        tracer = Tracer()
        tracer.install("fakepkg", {
            "outer.top": None,
            "inner.leaf": lambda t, args, kwargs, result: t.count("leaves", result),
            "inner.gone": None,
        })
        assert outer.top(1) == 4
        assert tracer.absent == ["inner.gone"]
        top, = [s for s in tracer.spans if s.name == "outer.top"]
        child, = [s for s in tracer.spans if s.name == "inner.leaf"]
        assert child.parent == top.id and top.parent is None
        assert top.start <= child.start <= child.end <= top.end
        assert tracer.counts["leaves"] == 2
        tracer.uninstall()
        assert inner.leaf is leaf and outer.leaf is leaf

    def test_worker_thread_spans_take_the_waiting_call_as_parent(self, package):
        inner, outer, _ = package
        tracer = Tracer()
        tracer.install("fakepkg", {"outer.top": None, "inner.leaf": None})

        def waits_on_worker(x):
            worker = threading.Thread(target=inner.leaf, args=(x,))
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
            return x

        wrapped = tracer.wrap("outer.waits", waits_on_worker)
        wrapped(3)
        tracer.uninstall()
        waiting, = [s for s in tracer.spans if s.name == "outer.waits"]
        leaf, = [s for s in tracer.spans if s.name == "inner.leaf"]
        assert leaf.parent == waiting.id and leaf.thread != waiting.thread

    def test_failing_hook_does_not_break_the_call(self, package):
        inner, _, _ = package
        tracer = Tracer()
        tracer.install("fakepkg", {"inner.leaf": lambda t, a, k, r: len(r)})
        assert inner.leaf(1) == 2
        tracer.uninstall()
        assert tracer.counts["inner.leaf.hook_error"] == 1


class TestHostProbe:
    def test_samples_while_active_then_restores_the_signal(self):
        before = signal.getsignal(signal.SIGALRM)
        with HostProbe(period=0.01, steps=100) as probe:
            end = time.perf_counter() + 0.2
            while time.perf_counter() < end:
                pass
        assert len(probe.samples) >= 5
        assert probe.spent == pytest.approx(sum(probe.samples))
        assert signal.getsignal(signal.SIGALRM) is before
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


class TestSerialArgs:
    @staticmethod
    def _help(text):
        def main(argv):
            print(text)
            raise SystemExit(0)
        return main

    def test_follows_the_sweep_help(self, monkeypatch):
        workloads = pytest.importorskip("workloads")  # needs becmirror importable
        monkeypatch.setattr(workloads.cli, "main", self._help("  --workers WORKERS"))
        assert workloads.serial_args() == ["--workers", "1"]
        monkeypatch.setattr(workloads.cli, "main", self._help("  --format {csv,json}"))
        assert workloads.serial_args() == []


class TestSweepErrorRows:
    @pytest.fixture
    def workloads(self):
        return pytest.importorskip("workloads")  # needs becmirror importable

    def _check(self, workloads, statuses, expected, rc):
        import numpy as np

        plan = workloads.SweepPlan(base=None, axes=[("g_mc", np.arange(1.0, len(statuses) + 1))],
                                   effective=False, fmt="csv", stable_band=(0.0, 1.0))
        blob = "g_mc,status\n" + "".join(
            f"{i + 1.0},{status}\n" for i, status in enumerate(statuses))
        return workloads.check_sweep(plan, blob.encode(), rc,
                                     [{"status": want} for want in expected], {})

    def test_error_row_the_replay_reproduces_is_a_known_defect(self, workloads):
        statuses = ["unstable", "error:NumericalError", "unstable"]
        verdict = self._check(workloads, statuses, statuses, rc=1)
        assert (verdict.failed, verdict.known_failed) == (0, 1)

    def test_error_rows_fail_when_unexpected_too_many_or_exit_code_disagrees(self, workloads):
        statuses = ["unstable", "error:NumericalError", "unstable"]
        assert self._check(workloads, statuses, ["unstable"] * 3, rc=1).failed == 1
        assert self._check(workloads, statuses, statuses, rc=0).failed == 3
        many = ["error:NumericalError"] * (workloads.KNOWN_ERROR_POINTS + 1)
        assert self._check(workloads, many, many, rc=1).failed == len(many)


class TestDefinition:
    @pytest.fixture
    def definition(self):
        return json.loads(DEFINITION.read_text())

    def test_committed_definition_is_valid(self, definition):
        spec.validate(definition)

    @pytest.mark.parametrize("name", ["a", "wall_s", "lyapunov.solve_us", "x-1", "9z"])
    def test_name_grammar_accepts(self, name):
        assert spec.NAME_RE.fullmatch(name)

    @pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a/b", "µs", "a" * 65])
    def test_name_grammar_rejects(self, name, definition):
        assert not spec.NAME_RE.fullmatch(name)
        definition["per_layer"][0]["name"] = name
        with pytest.raises(spec.SpecError):
            spec.validate(definition)

    def test_metric_limits(self, definition):
        too_many = copy.deepcopy(definition)
        too_many["end_to_end"] += [
            {"name": f"e{i}", "unit": "s", "better": "lower", "bound": 0.1}
            for i in range(spec.MAX_END_TO_END + 1 - len(definition["end_to_end"]))
        ]
        with pytest.raises(spec.SpecError):
            spec.validate(too_many)
        too_many = copy.deepcopy(definition)
        too_many["per_layer"] += [
            {"name": f"p{i}", "unit": "us", "better": "lower"}
            for i in range(spec.MAX_PER_LAYER + 1 - len(definition["per_layer"]))
        ]
        with pytest.raises(spec.SpecError):
            spec.validate(too_many)
        assert len(definition["end_to_end"]) <= spec.MAX_END_TO_END
        assert len(definition["per_layer"]) <= spec.MAX_PER_LAYER

    def test_duplicate_name_and_loose_bound_rejected(self, definition):
        dup = copy.deepcopy(definition)
        dup["per_layer"].append(dict(dup["per_layer"][0]))
        with pytest.raises(spec.SpecError):
            spec.validate(dup)
        loose = copy.deepcopy(definition)
        loose["end_to_end"][0]["bound"] = 0.3
        with pytest.raises(spec.SpecError):
            spec.validate(loose)

    def test_result_line_carries_exactly_the_declared_metrics(self, definition):
        names = [m["name"] for m in definition["end_to_end"]]
        line = spec.result_line(definition, False, True, 3, 0, {n: 1.5 for n in names})
        doc = json.loads(line)
        assert set(doc) == {"correct", "attempted", "failed", "metrics"}
        assert set(doc["metrics"]) == set(names)
        with pytest.raises(spec.SpecError):
            spec.result_line(definition, False, True, 3, 0, {n: 1.0 for n in names[1:]})

    def test_traced_layer_metrics_are_declared(self, definition):
        declared = {m["name"] for m in definition["per_layer"]}
        values, _ = run.layer_metrics(Tracer(), 1)
        assert set(values) <= declared
