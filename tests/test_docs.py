"""Docs-consistency gate (tier-1).

Runs ``tools/docs_check.py`` against the real repo -- ARCHITECTURE.md
must reference only packages that exist, every subpackage must be
documented, and every intra-repo markdown link must resolve -- pins
the machine-written claim matrix in EXPERIMENTS.md to the code's claim
list so the two cannot drift, and checks OBSERVABILITY.md's metric
table against the metrics a few simulated runs register (which needs
the simulator, so the static checker does not do it).
"""

import importlib.util
import pathlib
import re

from repro.analysis.claims import (
    CLAIMS,
    ClaimResult,
    expected_experiments_block,
    render_experiments_block,
    write_experiments_block,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_docs_check():
    spec = importlib.util.spec_from_file_location(
        "docs_check", REPO_ROOT / "tools" / "docs_check.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


docs_check = _load_docs_check()


# ----------------------------------------------------------------------
# the real repo passes
# ----------------------------------------------------------------------
def test_repo_docs_are_consistent():
    problems = docs_check.run_checks()
    assert problems == [], "\n".join(problems)


#: the "Metric namespace" table of docs/OBSERVABILITY.md, up to the
#: next heading.
_METRIC_TABLE = re.compile(r"^## Metric namespace\n(.*?)^#", re.MULTILINE
                           | re.DOTALL)


def documented_metric_patterns(text):
    """``{documented name: regex}`` for every metric the table lists:
    the row's backticked prefixes times the backticked names of its
    Metrics cell (parenthesised asides left out), where ``<name>`` or
    ``<Name>`` stands for any dotted tail."""
    patterns = {}
    for line in _METRIC_TABLE.search(text).group(1).splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) != 3 or not cells[0].startswith("`"):
            continue
        for prefix in docs_check._CODE_SPAN.findall(cells[0]):
            for name in docs_check._CODE_SPAN.findall(
                    docs_check._ASIDE.sub("", cells[1])):
                documented = prefix + name
                patterns[documented] = re.compile(".+".join(
                    map(re.escape, re.split(r"<name>|<Name>", documented))))
    return patterns


def registered_metric_names(requests=12):
    """Every metric a few ypserv1 requests register: under each monitor
    of ``MONITOR_FACTORIES``, SafeMem with the profiler, trend engine
    and history, and SafeMem with allocation sampling."""
    from repro.analysis.runner import (
        CACHE_SIZE,
        DRAM_SIZE,
        MONITOR_FACTORIES,
    )
    from repro.core.sampling import SamplingPolicy
    from repro.machine.machine import Machine
    from repro.obs.stack import MonitorStackConfig, build_monitor_stack

    runs = [MonitorStackConfig(monitor=monitor)
            for monitor in sorted(MONITOR_FACTORIES)]
    runs += [
        MonitorStackConfig(sample_every=100_000, trend="cusum",
                           history=True),
        MonitorStackConfig(sampling=SamplingPolicy(rate=0.5)),
    ]
    names = set()
    for config in runs:
        machine = Machine(dram_size=DRAM_SIZE, cache_size=CACHE_SIZE,
                          cache_ways=16)
        run_info = {"workload": "ypserv1", "monitor": config.monitor,
                    "buggy": True, "requests": requests, "seed": 0}
        stack = build_monitor_stack(config, machine=machine,
                                    run_info=run_info)
        try:
            stack.run()
        finally:
            stack.close()
        names.update(machine.metrics.names())
    return names


def test_metric_table_matches_the_registered_metrics():
    """docs/OBSERVABILITY.md's metric table and the registry agree
    both ways: every metric the runs register is documented, and
    every documented metric is registered by one of them."""
    patterns = documented_metric_patterns(
        (REPO_ROOT / "docs" / "OBSERVABILITY.md").read_text())
    names = registered_metric_names()
    undocumented = sorted(
        name for name in names
        if not any(pattern.fullmatch(name)
                   for pattern in patterns.values()))
    unregistered = sorted(
        documented for documented, pattern in patterns.items()
        if not any(pattern.fullmatch(name) for name in names))
    assert (undocumented, unregistered) == ([], [])


def test_experiments_md_pins_the_generated_claim_block():
    """EXPERIMENTS.md's committed matrix == what --write-experiments-md
    would write for an all-PASS run.  Regenerate with::

        PYTHONPATH=src python -m repro validate --write-experiments-md
    """
    text = (REPO_ROOT / "EXPERIMENTS.md").read_text()
    assert expected_experiments_block() in text


# ----------------------------------------------------------------------
# the checker itself catches drift (negative cases on a tmp repo)
# ----------------------------------------------------------------------
def _fake_repo(tmp_path, architecture_text, readme_text="# hi\n"):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "ARCHITECTURE.md").write_text(architecture_text)
    (tmp_path / "README.md").write_text(readme_text)
    package = tmp_path / "src" / "repro" / "core"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    return tmp_path


def test_checker_flags_reference_to_deleted_package(tmp_path):
    root = _fake_repo(tmp_path, "uses repro.core and repro.ghost\n")
    problems = docs_check.run_checks(root)
    assert any("repro.ghost" in p for p in problems)


def test_checker_flags_dotted_module_names_in_every_tree_doc(tmp_path):
    root = _fake_repo(
        tmp_path, "repro.core\n",
        readme_text="`repro.core.leak` and repro.core.thing.Class, "
                    "schemas `repro.dump/v1` and `repro.fleet-cache/v1`\n")
    (root / "src" / "repro" / "core" / "thing.py").write_text(
        "class Class:\n    pass\n")
    problems = docs_check.check_architecture_references(root)
    assert problems == ["README.md: references repro.core.leak, which "
                        "does not exist under src/repro"]


def test_checker_flags_dotted_names_nothing_defines(tmp_path):
    """A dotted name resolves only to a module and a name that module
    binds; a package followed by a name is a facade path."""
    root = _fake_repo(
        tmp_path, "repro.core\n",
        readme_text="repro.core.thing.Class, repro.core.thing.ALIAS, "
                    "repro.core.Class, repro.core.Ghost, "
                    "repro.core.thing.Ghost and "
                    "repro.core.thing.Class.method\n")
    (root / "src" / "repro" / "core" / "thing.py").write_text(
        "from os import path as ALIAS\n\n\nclass Class:\n    pass\n")
    problems = docs_check.check_architecture_references(root)
    assert problems == [
        "README.md: references repro.core.Class, but package repro.core "
        "re-exports nothing; name the module that defines Class",
        "README.md: references repro.core.Ghost, which does not exist "
        "under src/repro",
        "README.md: references repro.core.thing.Class.method, which does "
        "not exist under src/repro",
        "README.md: references repro.core.thing.Ghost, but "
        "src/repro/core/thing.py defines no Ghost"]


def test_checker_flags_design_modules_column_only(tmp_path):
    root = _fake_repo(tmp_path, "repro.core\n")
    (root / "DESIGN.md").write_text(
        "| Experiment | Modules | Regenerated by |\n"
        "|---|---|---|\n"
        "| T2 | `core`, `core.ghost` (`table2`) | `machine.load.slow` |\n"
        "\n"
        "The metric `machine.load.slow` counts loads.\n")
    problems = docs_check.check_architecture_references(root)
    assert problems == ["DESIGN.md: references repro.core.ghost, which "
                        "does not exist under src/repro"]


def test_checker_flags_module_map_drift(tmp_path):
    """DESIGN.md's module map lists exactly the modules under
    ``src/repro``: a listed module that does not exist and a module
    the map omits are each reported."""
    root = _fake_repo(tmp_path, "repro.core\n")
    core = root / "src" / "repro" / "core"
    for name in ("leak.py", "watcher.py", "sampling.py"):
        (core / name).write_text("")
    (root / "src" / "repro" / "cli.py").write_text("")
    (root / "DESIGN.md").write_text(
        "## Module map\n\n"
        "```\n"
        "src/repro/\n"
        "  core/        leak.py      leak detection, across\n"
        "                            two lines naming no.py module\n"
        "               ghost.py     deleted long ago\n"
        "               watcher.py   the ECC watch manager\n"
        "  cli.py       python -m repro\n"
        "```\n")
    problems = docs_check.check_architecture_references(root)
    assert problems == [
        "DESIGN.md: module map lists src/repro/core/ghost.py, which does "
        "not exist",
        "DESIGN.md: module map omits src/repro/core/sampling.py"]


def test_checker_flags_undocumented_subpackage(tmp_path):
    root = _fake_repo(tmp_path, "nothing documented here\n")
    problems = docs_check.run_checks(root)
    assert any("src/repro/core" in p for p in problems)


def test_checker_flags_broken_markdown_link(tmp_path):
    root = _fake_repo(
        tmp_path, "repro.core\n",
        readme_text="see [gone](docs/MISSING.md) and "
                    "[ok](docs/ARCHITECTURE.md) and "
                    "[web](https://example.com) and [anchor](#x)\n")
    problems = docs_check.run_checks(root)
    assert problems == [
        "README.md: broken link -> docs/MISSING.md"
    ]


def test_checker_flags_dangling_code_doc_anchor(tmp_path):
    root = _fake_repo(
        tmp_path, "repro.core\n\n## Reading metrics\n")
    module = root / "src" / "repro" / "core" / "thing.py"
    module.write_text(
        'GOOD = "see docs/ARCHITECTURE.md#reading-metrics"\n'
        'BAD = "see docs/ARCHITECTURE.md#no-such-section"\n'
        'GONE = "see docs/MISSING.md#whatever"\n')
    problems = docs_check.run_checks(root)
    assert any("docs/ARCHITECTURE.md#no-such-section" in p
               for p in problems)
    assert any("docs/MISSING.md#whatever" in p for p in problems)
    assert not any("reading-metrics" in p for p in problems)


def test_checker_flags_dangling_markdown_anchor(tmp_path):
    root = _fake_repo(
        tmp_path, "repro.core\n\n## Real Section\n",
        readme_text="[ok](docs/ARCHITECTURE.md#real-section) and "
                    "[bad](docs/ARCHITECTURE.md#fake-section)\n")
    problems = docs_check.run_checks(root)
    assert problems == [
        "README.md: dangling anchor -> "
        "docs/ARCHITECTURE.md#fake-section"
    ]


def _fake_ecc_repo(tmp_path, hardware_text=None):
    root = _fake_repo(tmp_path, "repro.core and repro.ecc\n")
    ecc = root / "src" / "repro" / "ecc"
    ecc.mkdir()
    (ecc / "__init__.py").write_text("")
    (ecc / "codec.py").write_text(
        'CODECS = {\n    "secded": None,\n    "chipkill": None,\n}\n')
    (ecc / "profile.py").write_text(
        'PROFILES = {}\np = Profile(\n    name="e7500",\n)\n')
    if hardware_text is not None:
        (root / "docs" / "HARDWARE.md").write_text(hardware_text)
    return root


def test_checker_flags_missing_hardware_matrix(tmp_path):
    root = _fake_ecc_repo(tmp_path)
    problems = docs_check.run_checks(root)
    assert any("docs/HARDWARE.md: missing" in p for p in problems)


def test_checker_flags_undocumented_codec_and_stale_profile(tmp_path):
    root = _fake_ecc_repo(
        tmp_path,
        "# HW\n"
        "<!-- hw-matrix codecs: secded -->\n"
        "<!-- hw-matrix profiles: e7500 ghost-server -->\n"
        "`secded` and `e7500` and `ghost-server`\n")
    problems = docs_check.run_checks(root)
    assert any("codec `chipkill` is not in the hardware matrix" in p
               for p in problems)
    assert any("profile `ghost-server`, which is not registered" in p
               for p in problems)


def test_checker_flags_declared_but_undescribed_name(tmp_path):
    root = _fake_ecc_repo(
        tmp_path,
        "# HW\n"
        "<!-- hw-matrix codecs: secded chipkill -->\n"
        "<!-- hw-matrix profiles: e7500 -->\n"
        "`secded` and `e7500` only\n")
    problems = docs_check.run_checks(root)
    assert problems == [
        "docs/HARDWARE.md: `chipkill` is declared in the coverage "
        "marker but never described in the body"
    ]


def test_checker_accepts_consistent_hardware_matrix(tmp_path):
    root = _fake_ecc_repo(
        tmp_path,
        "# HW\n"
        "<!-- hw-matrix codecs: secded chipkill -->\n"
        "<!-- hw-matrix profiles: e7500 -->\n"
        "`secded`, `chipkill`, `e7500`\n")
    assert docs_check.run_checks(root) == []


def _fake_schema_repo(tmp_path, source_text, schemas_text=None):
    root = _fake_repo(tmp_path, "repro.core\n")
    (root / "src" / "repro" / "core" / "export.py").write_text(source_text)
    if schemas_text is not None:
        (root / "docs" / "SCHEMAS.md").write_text(schemas_text)
    return root


def test_checker_flags_undocumented_schema_tag(tmp_path):
    root = _fake_schema_repo(
        tmp_path, 'SCHEMA = "repro.mystery/v1"\n',
        schemas_text="# Schemas\n\nnothing here\n")
    problems = docs_check.run_checks(root)
    assert any("repro.mystery/v1" in p and "no" in p for p in problems)


def test_checker_flags_stale_schema_section(tmp_path):
    root = _fake_schema_repo(
        tmp_path, "SCHEMA = None\n",
        schemas_text="# Schemas\n\n## `repro.ghost/v2`\n\ngone\n")
    problems = docs_check.run_checks(root)
    assert any("repro.ghost/v2" in p and "no longer" in p
               for p in problems)


def test_checker_flags_missing_schemas_doc_when_tags_exist(tmp_path):
    root = _fake_schema_repo(tmp_path, 'SCHEMA = "repro.mystery/v1"\n')
    problems = docs_check.run_checks(root)
    assert any("docs/SCHEMAS.md: missing" in p for p in problems)


def test_checker_accepts_matching_schema_docs(tmp_path):
    root = _fake_schema_repo(
        tmp_path, 'SCHEMA = "repro.mystery/v1"\n',
        schemas_text="# Schemas\n\n## `repro.mystery/v1`\n\ndoc'd\n")
    assert docs_check.run_checks(root) == []


def _field_table_doc(tmp_path, schemas_text):
    root = _fake_repo(tmp_path, "repro.core\n")
    (root / "docs" / "SCHEMAS.md").write_text(schemas_text)
    return root


FIELD_TABLES = {"repro.x.X": ["repro.x/v1", ["a", "b.<name>.c"]],
                "repro.x.PART": ["part", ["d"]]}


def test_checker_flags_field_table_keys_missing_from_the_docs(tmp_path):
    root = _field_table_doc(
        tmp_path,
        "## `repro.x/v1` — x\n\n| Key | Type | Meaning |\n|---|---|---|\n"
        "| `a` | int | a |\n\n## Shared\n\n| Key | Type |\n|---|---|\n"
        "| `d` | int |\n")
    assert docs_check.check_field_tables(root, FIELD_TABLES) == [
        "docs/SCHEMAS.md: field table `part` has no section with a "
        "Key/Type table",
        "docs/SCHEMAS.md: `repro.x/v1` does not document key `b.<name>.c` "
        "of its field table"]


def test_checker_flags_documented_keys_the_field_table_lacks(tmp_path):
    root = _field_table_doc(
        tmp_path,
        "## `repro.x/v1` — x\n\n| Key | Type | Meaning |\n|---|---|---|\n"
        "| `a` / `b.<name>.c` | int | a |\n| `e` | int | gone |\n\n"
        "### `part` — shared\n\n| Key | Type |\n|---|---|\n| `d` | int |\n")
    assert docs_check.check_field_tables(root, FIELD_TABLES) == [
        "docs/SCHEMAS.md: `repro.x/v1` documents key `e`, which its "
        "field table does not declare"]


def test_checker_flags_keys_missing_from_either_shape_of_a_schema(
        tmp_path):
    """Two tables of one schema (named alike, defined apart) are both
    found and each checked against the section its attribute heads."""
    src = tmp_path / "src" / "repro"
    (src / "common").mkdir(parents=True)
    for package in (src, src / "common"):
        (package / "__init__.py").write_text("")
    (src / "common" / "schema.py").write_text(
        "class Table:\n"
        "    def __init__(self, name, rows):\n"
        "        self.name, self.own = name, rows\n")
    (src / "shapes.py").write_text(
        "from repro.common.schema import Table\n"
        "SECTIONED = Table('repro.y/v1', {'a': 1, 'b': 1})\n"
        "IMAGE = Table('repro.y/v1', {'a': 1, 'c': 1})\n")
    root = _field_table_doc(
        tmp_path,
        "## `repro.y/v1` — y\n\n"
        "### `SECTIONED` — with sections\n\n| Key | Type |\n|---|---|\n"
        "| `a` | int |\n\n"
        "### `IMAGE` — with an image\n\n| Key | Type |\n|---|---|\n"
        "| `a` | int |\n")
    tables = docs_check.code_field_tables(root)
    assert tables == {"repro.shapes.SECTIONED": ["repro.y/v1", ["a", "b"]],
                      "repro.shapes.IMAGE": ["repro.y/v1", ["a", "c"]]}
    assert docs_check.check_field_tables(root, tables) == [
        "docs/SCHEMAS.md: `IMAGE` does not document key `c` of its field "
        "table",
        "docs/SCHEMAS.md: `SECTIONED` does not document key `b` of its "
        "field table"]


def test_checker_flags_stack_config_table_drift(tmp_path):
    root = _fake_repo(
        tmp_path,
        "## The monitor stack (`MonitorStackConfig`)\n\n"
        "| field | what it configures |\n| --- | --- |\n"
        "| `monitor` / `gone` | monitor |\n\n## Next (`Other`)\n\n"
        "| field | what |\n| --- | --- |\n| `profile` | elsewhere |\n")
    assert docs_check.check_stack_config_table(
        root, ["monitor", "profile"]) == [
        "docs/ARCHITECTURE.md: `MonitorStackConfig` table does not list "
        "field `profile`",
        "docs/ARCHITECTURE.md: `MonitorStackConfig` table lists `gone`, "
        "which is not a field"]


def test_repo_stack_config_fields_are_found():
    fields = docs_check.stack_config_fields()
    assert {"monitor", "profile", "checkpoint_dir"} <= set(fields)


def test_checker_flags_event_kind_table_drift(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "OBSERVABILITY.md").write_text(
        "## Event log\n\n### Event kinds (`EventKind`)\n\n"
        "| kind | emitter |\n| --- | --- |\n"
        "| `watch` | the kernel |\n| `alloc` | nothing |\n\n"
        "## Next (`Other`)\n\n| kind | what |\n| --- | --- |\n"
        "| `syscall` | elsewhere |\n")
    assert docs_check.check_event_kind_table(
        tmp_path, ["watch", "syscall"]) == [
        "docs/OBSERVABILITY.md: `EventKind` table does not list kind "
        "`syscall`",
        "docs/OBSERVABILITY.md: `EventKind` table lists `alloc`, which "
        "is not a kind"]


def test_repo_event_kinds_are_found():
    kinds = docs_check.event_kinds()
    assert {"watch", "unwatch", "syscall", "panic", "trend"} <= set(kinds)
    assert "alloc" not in kinds


def test_repo_field_tables_are_found():
    tables = docs_check.code_field_tables()
    assert {"repro.checkpoint/v1", "repro.dump/v1", "repro.history/v1",
            "repro.metrics/v1", "repro.events/v1", "capture", "run",
            "machine", "monitoring", "sampling", "rule"} <= {
        name for name, _ in tables.values()}
    for shape in ("CHECKPOINT", "IMAGE_CHECKPOINT"):
        name, paths = tables[f"repro.obs.checkpoint.{shape}"]
        assert name == "repro.checkpoint/v1"
        assert "progress.request_index" in paths


def _fake_path_repo(tmp_path, readme_text):
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_x.py").write_text(
        "class TestThing:\n"
        "    def test_method(self):\n"
        "        pass\n"
        "\n"
        "\n"
        "def helper():\n"
        "    pass\n")
    (tmp_path / "README.md").write_text(readme_text)
    return tmp_path


def test_checker_flags_backticked_path_to_missing_file(tmp_path):
    root = _fake_path_repo(tmp_path, "see `tests/test_gone.py`\n")
    assert docs_check.check_path_references(root) == [
        "README.md: `tests/test_gone.py` names no file"]


def test_checker_flags_backticked_name_the_file_lacks(tmp_path):
    root = _fake_path_repo(
        tmp_path,
        "`tests/test_x.py::TestGone`, "
        "`tests/test_x.py::TestThing::test_gone` and "
        "`tests/test_x.py::helper::test_method`\n")
    problems = docs_check.check_path_references(root)
    assert len(problems) == 3, problems
    assert all("tests/test_x.py defines no" in p for p in problems)


def test_checker_accepts_backticked_paths_that_resolve(tmp_path):
    root = _fake_path_repo(
        tmp_path,
        "`tests/test_x.py`, `tests/test_x.py::TestThing`, "
        "`tests/test_x.py::TestThing::test_method`, "
        "`tests/test_x.py::test_method`, `tests/test_x.py::helper` "
        "and `python tests/test_gone.py --flag` (not a bare path)\n")
    assert docs_check.check_path_references(root) == []


def test_checker_skips_history_docs(tmp_path):
    root = _fake_path_repo(tmp_path, "# hi\n")
    (root / "CHANGES.md").write_text("moved `tests/test_gone.py`\n")
    (root / "NOTES.md").write_text("will add `tests/test_new.py`\n")
    assert docs_check.check_path_references(root) == []
    (root / "docs").mkdir()
    (root / "docs" / "GUIDE.md").write_text("`tests/test_gone.py`\n")
    assert docs_check.check_path_references(root) == [
        "docs/GUIDE.md: `tests/test_gone.py` names no file"]


def _fake_member_repo(tmp_path, readme_text):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "thing.py").write_text(
        "class Base:\n"
        "    def inherited(self):\n"
        "        pass\n"
        "\n"
        "\n"
        "class Thing(Base):\n"
        "    LIMIT = 3\n"
        "\n"
        "    def __init__(self):\n"
        "        self.count = 0\n"
        "\n"
        "    def method(self):\n"
        "        pass\n")
    (tmp_path / "README.md").write_text(readme_text)
    return tmp_path


def test_checker_flags_member_reference_drift(tmp_path):
    root = _fake_member_repo(
        tmp_path, "`Thing.gone` and `Thing.method/gone_too()`\n")
    assert docs_check.check_member_references(root) == [
        "README.md: `Thing.gone`: no class Thing under src/repro "
        "defines gone",
        "README.md: `Thing.method/gone_too()`: no class Thing under "
        "src/repro defines gone_too"]


def test_checker_accepts_member_references_that_resolve(tmp_path):
    root = _fake_member_repo(
        tmp_path,
        "`Thing.method`, `Thing.method(a, b)`, `Thing.LIMIT`, "
        "`Thing.count`, `Thing.inherited`, `Thing.method/count` and "
        "`Other.gone` (no class Other under src/repro)\n")
    assert docs_check.check_member_references(root) == []


def test_repo_member_references_resolve_but_for_removed_apis(monkeypatch):
    members = docs_check.class_members()
    assert {"_install_run", "fast_read", "lines", "resident_lines",
            "STATE_FIELDS", "load_span"} <= members["Cache"]
    assert docs_check.check_member_references(members=members) == []
    # The removed APIs the docs name are exactly the listed ones.
    monkeypatch.setattr(docs_check, "REMOVED_MEMBERS", frozenset())
    unresolved = {problem.split("`")[1] for problem in
                  docs_check.check_member_references(members=members)}
    assert unresolved == {"Machine.perf_counters()",
                          "SafeMem.statistics()"}


def test_repo_hardware_matrix_names_match_registries():
    # The scraped names must equal what the packages actually register
    # (guards the docs_check regexes themselves against refactors).
    from repro.ecc.codec import codec_names
    from repro.ecc.profile import profile_names
    assert docs_check.registered_codecs() == sorted(codec_names())
    assert docs_check.registered_profiles() == sorted(profile_names())


def test_heading_slugger_matches_github_style():
    anchors = docs_check.heading_anchors(
        "# Top Level\n"
        "## `repro.dump/v1` — forensic bundle\n"
        "### A.B. (c, d) & e_f\n")
    assert "top-level" in anchors
    assert "reprodumpv1--forensic-bundle" in anchors
    assert "ab-c-d--e_f" in anchors


# ----------------------------------------------------------------------
# the block renderer
# ----------------------------------------------------------------------
def _results(passed=True):
    return [ClaimResult(claim=claim, passed=passed, evidence="")
            for claim in CLAIMS]


def test_render_block_shows_failures():
    block = render_experiments_block(_results(passed=False))
    assert f"0/{len(CLAIMS)} claims hold" in block
    assert "FAIL" in block and "PASS" not in block


def test_write_experiments_block_replaces_in_place(tmp_path):
    target = tmp_path / "EXPERIMENTS.md"
    source = (REPO_ROOT / "EXPERIMENTS.md").read_text()
    target.write_text(source)
    write_experiments_block(_results(passed=False), target)
    updated = target.read_text()
    assert f"0/{len(CLAIMS)} claims hold" in updated
    # everything outside the markers is untouched
    assert updated.split("<!-- claim-matrix:begin")[0] == \
        source.split("<!-- claim-matrix:begin")[0]
    assert updated.split("claim-matrix:end -->")[-1] == \
        source.split("claim-matrix:end -->")[-1]


def test_write_experiments_block_requires_markers(tmp_path):
    target = tmp_path / "no-markers.md"
    target.write_text("no block here\n")
    try:
        write_experiments_block(_results(), target)
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError for missing markers")
