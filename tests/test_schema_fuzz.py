"""Mutation fuzzer over every external document the CLI reads.

The fixtures are built at test time from one monitored ypserv1 run: a
checkpoint that carries a state image, a bundle of the same run, its
``repro.history/v1`` document, a ``repro.metrics/v1`` document, an
alert-rules file and the run's ``repro.events/v1`` stream; plus a
checkpoint of the other shape, with sections and no image, from the
same run under the ``profiler`` monitor (which the image does not
cover).  Each
example changes one field at any depth -- deletes it, retypes it (a
string, -1, null, a list, an object, a bool or a float) or truncates
it -- writes the document back and runs it through ``repro.cli.main``
with every command that reads it.  A command may succeed, report a
diverged verification (exit 1 with a ``DIVERGED`` verify line) or fail
with one ``repro: error:`` line on stderr (exit 2); it may never raise.
Every reader checks its document against the schema's field table
(``repro.common.schema``) where it enters, so a falsifying example
names a field a reader uses that its table leaves unchecked.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.runner import run_workload
from repro.cli import main
from repro.obs.alerts import default_rules, default_trend_rules
from repro.obs.checkpoint import load_checkpoint
from repro.obs.export import snapshot_document
from repro.obs.forensics import capture_bundle
from repro.obs.sink import read_jsonl
from repro.obs.stack import MonitorStackConfig, build_monitor_stack

#: what a field is retyped to.
RETYPED = ("x", -1, None, [], {}, True, 1.5)

#: ``repro inspect`` views of a bundle.
VIEWS = ([], ["--events"], ["--kind", "alert"], ["--since", "0"],
         ["--spans"], ["--groups"], ["--heap"], ["--trends"],
         ["--metrics"])


class Documents(dict):
    """``{kind: (document, commands(path, original))}`` and the
    directory they are written to; a falsifying example names it
    briefly."""

    def __repr__(self):
        return "Documents(...)"


def monitored_run(monitor, checkpoint_dir, **outputs):
    """A 40-request buggy ypserv1 run under ``monitor`` and the full
    monitoring stack, checkpointing into ``checkpoint_dir``; returns
    ``(stack, run_info)``."""
    config = MonitorStackConfig(
        monitor=monitor, sample_every=50_000, trend="theil-sen",
        history=True, checkpoint_every=10_000_000,
        checkpoint_dir=str(checkpoint_dir), **outputs)
    run_info = {"workload": "ypserv1", "monitor": monitor,
                "buggy": True, "requests": 40, "seed": 0}
    stack = build_monitor_stack(config, run_info=run_info)
    stack.start()
    try:
        run_workload("ypserv1", monitor, buggy=True, requests=40,
                     machine=stack.machine, monitor=stack.monitor,
                     request_hook=stack.request_hook)
    finally:
        stack.stop()
        stack.close()
    return stack, run_info


def resume_horizon(checkpoint):
    """``--requests`` three requests past the checkpoint's boundary."""
    return str(checkpoint["progress"]["request_index"] + 3)


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """The fuzzed documents of one monitored ypserv1 run."""
    tmp = tmp_path_factory.mktemp("documents")
    stack, run_info = monitored_run("safemem", tmp,
                                    stream=str(tmp / "events.jsonl"))
    checkpoint = load_checkpoint(stack.checkpoint_paths[0])
    assert "state" in checkpoint
    profiled, _ = monitored_run("profiler", tmp / "profiler")
    sectioned = load_checkpoint(profiled.checkpoint_paths[0])
    assert "state" not in sectioned
    bundle = capture_bundle(stack.machine, monitor=stack.monitor,
                            run_info=checkpoint["run"], trend=stack.trend)
    metrics = snapshot_document(stack.machine.metrics.snapshot(),
                                spans=stack.machine.tracer.flight_record(),
                                meta=run_info)
    rules = [rule.to_dict()
             for rule in default_rules() + default_trend_rules("cusum")]
    documents = Documents({
        "checkpoint": (checkpoint, lambda path, original: [
            ["inspect", path],
            ["resume", path, "--requests", resume_horizon(checkpoint)]]),
        "sectioned-checkpoint": (sectioned, lambda path, original: [
            ["inspect", path],
            ["resume", path, "--requests", resume_horizon(sectioned)]]),
        "bundle": (bundle, lambda path, original: [
            *(["inspect", path, *view] for view in VIEWS),
            ["diff", original, path], ["replay", path]]),
        "history": (stack.history.to_dict(), lambda path, original: [
            ["history", path], ["inspect", path]]),
        "metrics": (metrics, lambda path, original: [
            ["inspect", path], ["diff", original, path]]),
        "rules": (rules, lambda path, original: [
            ["monitor", "ypserv1", "--requests", "2", "--rules", path]]),
        "events": (read_jsonl(tmp / "events.jsonl"),
                   lambda path, original: [["inspect", path]]),
    })
    documents.directory = tmp
    return documents


@st.composite
def mutations(draw, document):
    """A path of at least one step into ``document`` and the change
    made there: ``"delete"``, ``"truncate"`` or an index into
    :data:`RETYPED`."""
    path, node = [], document
    while True:
        key = draw(st.sampled_from(sorted(node) if type(node) is dict
                                   else range(len(node))))
        path.append(key)
        node = node[key]
        if type(node) not in (dict, list) or not node \
                or draw(st.booleans()):
            break
    changes = ["delete", *range(len(RETYPED))]
    if type(node) in (str, list, dict) and node:
        changes.append("truncate")
    return path, draw(st.sampled_from(changes))


def mutated(text, path, change):
    """The document ``text`` holds, with ``change`` made at ``path``."""
    document = json.loads(text)
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if change == "delete":
        del parent[key]
    elif change == "truncate":
        value = parent[key]
        parent[key] = (dict(list(value.items())[:len(value) // 2])
                       if type(value) is dict else value[:len(value) // 2])
    else:
        parent[key] = json.loads(json.dumps(RETYPED[change]))
    return document


def write(document, path, kind):
    with open(path, "w") as stream:
        if kind == "events":
            stream.write("".join(json.dumps(record) + "\n"
                                 for record in document))
        else:
            json.dump(document, stream)


def assert_allowed_outcome(argv):
    """Exit 0, exit 1 with a ``DIVERGED`` verify line, or exit 2 with
    one ``repro: error:`` line; an exception fails the example."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv, out=out)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("repro: error: "), \
            (argv, err.getvalue())
    elif code == 1:
        assert "verify:    DIVERGED -- " in out.getvalue(), argv
    else:
        assert code == 0, (argv, code)


def check_one_mutation(documents, kind, data):
    document, commands = documents[kind]
    original = documents.directory / f"original-{kind}.json"
    if not original.exists():
        write(document, original, kind)
    path, change = data.draw(mutations(document))
    target = documents.directory / f"mutated-{kind}.json"
    write(mutated(json.dumps(document), path, change), target, kind)
    for argv in commands(str(target), str(original)):
        assert_allowed_outcome(argv)


FUZZ = settings(derandomize=True, deadline=None, database=None,
                suppress_health_check=list(HealthCheck))


@pytest.mark.parametrize("kind", ["checkpoint", "sectioned-checkpoint",
                                  "bundle"])
@settings(FUZZ, max_examples=40)
@given(data=st.data())
def test_one_mutated_field_of_a_run_document_never_raises(documents, kind,
                                                          data):
    """Checkpoints of both shapes and bundles: an example resumes or
    replays the recorded run, so these get fewer examples."""
    check_one_mutation(documents, kind, data)


@pytest.mark.parametrize("kind", ["history", "metrics", "rules", "events"])
@settings(FUZZ, max_examples=120)
@given(data=st.data())
def test_one_mutated_field_of_a_small_document_never_raises(documents,
                                                            kind, data):
    check_one_mutation(documents, kind, data)
