"""Checks of the benchmark's own machinery: span self-time arithmetic, the
reference comparison, and the tracer's rebinding of imported names.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import copy
import json

import pytest

from run import HERE, check
from spans import Tracer, self_times

MS = 1_000_000  # nanoseconds


def test_self_time_of_nested_spans():
    # root [0,100) holds a [10,40) and b [50,60); a holds c [20,30); b holds c [52,55)
    trace = {
        "names": ["root", "a", "b", "c"],
        "parent": [-1, 0, 1, 0, 3],
        "name": [0, 1, 3, 2, 3],
        "start": [0, 10 * MS, 20 * MS, 50 * MS, 52 * MS],
        "end": [100 * MS, 40 * MS, 30 * MS, 60 * MS, 55 * MS],
    }
    selfs = self_times(trace)
    assert selfs == pytest.approx({"root": 0.060, "a": 0.020, "b": 0.007, "c": 0.013})
    assert sum(selfs.values()) == pytest.approx(0.100)


def test_reference_check_rejects_wrong_answers():
    refs = json.loads((HERE / "references.json").read_text())["workloads"]
    for workload, answer in refs.items():
        assert check(workload, answer, refs) == []
    # minimal indices of v_n + ... + v_m, n = 1 (m = 1..8) then n = 2 (m = 2..8)
    assert [row[2] for row in refs["nil"]["rows"]] == [2, 3, 4, 4, 6, 7, 8, 7, 2, 3, 4, 4, 6, 7, 8]

    wrong = copy.deepcopy(refs["nil"])
    wrong["rows"][-1][2] += 1
    assert check("nil", wrong, refs)
    failed_suite = copy.deepcopy(refs["verify"])
    failed_suite["suites"][3][1] = False
    assert check("verify", failed_suite, refs)
    missing = {k: v for k, v in refs["lattice"].items() if k != "quotient"}
    assert check("lattice", missing, refs)


def test_tracer_rebinds_imported_names_and_restores_them(tmp_path):
    from fiblie import core, homology, nil

    original = core.square
    tracer = Tracer()

    def calls():
        report = nil.nil_index(nil.pivot_interval(1, 3))  # nil's `from .core import square`
        core.power_2k(core.v(1), 2)  # core's module-global call
        homology.homology_dim(2, (2, 1))
        return report

    with tracer.installed():
        assert nil.square is core.square is not original
        report = tracer.wrap("root", calls)()
        assert homology.chain_basis.cache_info().currsize > 0
    assert nil.square is core.square is original
    counters = tracer.counters
    assert counters["core.square.calls"] == report.index + 2
    assert counters["nil.squarings"] == report.index
    assert counters["homology.differential.calls"] == 2
    assert len(tracer.start) == sum(v for k, v in counters.items() if k.endswith(".calls"))
    tracer.write(str(tmp_path / "trace.json"), {})
    trace = json.loads((tmp_path / "trace.json").read_text())
    root_s = (trace["end"][0] - trace["start"][0]) / 1e9
    assert sum(self_times(trace).values()) == pytest.approx(root_s)
