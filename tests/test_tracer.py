"""The benchmark's layer tracer (``perfbench/spans.py``) finds every name it
patches, and the heaviest audits replay under it to their recorded output and
work counts (``perfbench/expected.json``), so a library change that drops a
patched name or moves an output byte or count fails here, not only in a
benchmark run."""

import json
import os
import subprocess
import sys

import pytest

# Module names the benchmark's scripts import or register; removed again after
# each test so that no other test sees them.
_BENCH_MODULES = ("run", "spans", "reference", "run_claim_audit", "workloads", "oracle")


@pytest.fixture
def perfbench(request, monkeypatch):
    monkeypatch.syspath_prepend(str(request.config.rootpath / "perfbench"))
    for name in _BENCH_MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    import run
    import spans

    yield run, spans
    for name in _BENCH_MODULES:
        sys.modules.pop(name, None)


def test_every_tracer_patch_resolves(perfbench):
    run, spans = perfbench
    modules = run.zinbielkit_modules(run._load_script())
    originals = {
        (module, attr): getattr(spans._resolve(modules, module), attr.partition(".")[0])
        for module, attr, _, _ in spans.PATCHES
    }
    tracer = spans.Tracer()
    tracer.install(modules)
    tracer.remove()
    assert tracer.incomplete == set()
    for (module, attr), original in originals.items():
        assert getattr(spans._resolve(modules, module), attr.partition(".")[0]) is original


# run.py's own sequence in a fresh interpreter, where a module that only a
# deferred import loads is not already in ``sys.modules`` from other tests.
_FRESH_REPLAY = """
import json, sys
sys.path[:0] = ["perfbench"]
import zinbielkit.cli
import run, spans, workloads

script = run._load_script()
modules = run.zinbielkit_modules(script)
tracer = spans.Tracer()
tracer.install(modules)
tracer.remove()
cmd = workloads.Command("check", ("check", "tests/corpus/candidate_t2_zero.json", "manin_triple"))
entries = {"cli": zinbielkit.cli.main, "script": script.main}
plain = run.replay([cmd], entries, lambda i, entry, argv: run._invoke(entry, argv))
_, traced, span_list, incomplete = run.traced_pass([cmd], entries, modules)
print(json.dumps({
    "install_incomplete": sorted(tracer.incomplete),
    "pass_incomplete": sorted(incomplete),
    "same_output": plain == traced,
    "rc": traced[0][0],
    "manin_spans": sum(s.layer == "bialgebra.manin" for s in span_list),
}))
"""


def test_tracer_patches_resolve_in_a_fresh_interpreter(request):
    root = request.config.rootpath
    paths = [str(root / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    run = subprocess.run([sys.executable, "-c", _FRESH_REPLAY], capture_output=True, text=True,
                         env=env, cwd=root, timeout=60)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result == {"install_incomplete": [], "pass_incomplete": [], "same_output": True,
                      "rc": 1, "manin_spans": 1}


def test_traced_json_audit_times_emission_in_its_own_layers(perfbench, capsys):
    run, spans = perfbench
    import zinbielkit.cli

    tracer = spans.Tracer()
    tracer.install(run.zinbielkit_modules(run._load_script()))
    try:
        argv = ["audit", "--model", "trunc-int:left:3", "--format", "json"]
        rc = tracer.run_command("cli.self", 0, run._invoke, zinbielkit.cli.main, argv)
    finally:
        tracer.remove()
    assert rc == 0
    assert capsys.readouterr().out.startswith("{\n")
    metrics = spans.layer_metrics(tracer.spans)
    # audit.json is the report built (audit_report_jsonable), then encoded
    # (json.dumps); both are timed there and not in cli.self.
    assert metrics["audit.json.calls"] == 2
    assert metrics["reports.format.calls"] > 0
    assert metrics["audit.evaluate_claim.calls"] == 12


@pytest.mark.parametrize(
    "argv",
    [
        ("audit", "--model", "trunc-int:left:12", "--format", "json"),
        ("audit", "--model", "trunc-int:right:12", "--parallel", "2"),
    ],
)
def test_dense_audits_replay_to_their_recorded_output_and_counts(perfbench, argv):
    # The failure-heavy audits of the dense-trunc workload, replayed as the
    # traced benchmark replays them: exit code, output digest and work counts
    # (audit.failures, audit.tuples, models.nnz) are the recorded ones.
    run, spans = perfbench
    import workloads
    import zinbielkit.cli

    recorded = json.loads((run.HERE / "expected.json").read_text(encoding="utf-8"))
    cmd = workloads.Command("audit", argv)
    want = run.expectation(cmd, recorded)
    assert {"audit.failures", "audit.tuples", "models.nnz"} <= want.counts.keys()
    script = run._load_script()
    entries = {"cli": zinbielkit.cli.main, "script": script.main}
    modules = run.zinbielkit_modules(script)
    _, results, span_list, incomplete = run.traced_pass([cmd], entries, modules)
    [(rc, output)] = results
    assert incomplete == set()
    assert run.mismatch(cmd, want, rc, output) is None
    assert run.count_mismatch(cmd, want, spans.command_counts(span_list).get(0, {})) is None
