#!/usr/bin/env python3
"""Docs consistency checker (run in tier-1 via tests/test_docs.py).

Eleven checks keep the documentation layer from drifting away from the
code layout:

1. every dotted ``repro.…`` name in the markdown that describes the
   current tree (``TREE_DOCS``; schema tags such as ``repro.dump/v1``
   are skipped), and every name in the Modules column of DESIGN.md's
   tables (written without the ``repro.`` prefix), names a package or
   module under ``src/repro``, optionally followed by one name that
   the module defines or imports at module level (no docs for deleted
   code); a subpackage followed by a name is reported, since packages
   re-export nothing; and DESIGN.md's module map (the fenced block
   that starts with ``src/repro/``) lists exactly the modules under
   ``src/repro``, package ``__init__.py`` files aside, both ways;
2. every subpackage under ``src/repro`` is mentioned in
   ``docs/ARCHITECTURE.md`` (no undocumented subsystem);
3. every intra-repo markdown link in the repo's ``*.md`` files resolves
   to an existing file (external URLs are skipped);
4. every ``docs/<file>.md#<anchor>`` reference embedded in Python
   source (deprecation messages, error hints) points to a real heading
   in that file;
5. every cross-file ``*.md#<anchor>`` markdown link points to a real
   heading in the target file;
6. the hardware-diversity matrix in ``docs/HARDWARE.md`` covers every
   ECC codec registered in ``src/repro/ecc/codec.py`` and every
   chipset profile in ``src/repro/ecc/profile.py`` (and nothing that
   no longer exists);
7. every versioned schema string (``repro.<name>/v<N>``) appearing in
   Python source under ``src/`` has a matching ``## `repro.<name>/vN```
   section heading in ``docs/SCHEMAS.md``, and SCHEMAS.md documents no
   schema the code no longer mentions; and every named field table
   (a module-level ``NAME = Table(...)`` under ``src/repro``, a
   ``repro.common.schema.Table``) has a SCHEMAS.md section, headed by
   its backticked name (or, where tables share a name, as the two
   shapes of one schema do, by its attribute ``NAME``), whose Key/Type
   tables list exactly the key paths the code table declares;
8. every backticked ``.py`` path under ``tests/``, ``benchmarks/``,
   ``bench/``, ``tools/``, ``examples/`` or ``src/`` in the markdown
   that describes the current tree (``TREE_DOCS``) names an existing
   file, and an optional ``::Name`` or ``::Class::method`` suffix
   names a class or function defined in it (the other markdown records
   history, plans or code from other repositories, so it is skipped);
9. the field table under ``docs/ARCHITECTURE.md``'s monitor stack
   heading lists exactly the fields of ``MonitorStackConfig``
   (``dataclasses.fields``), both ways;
10. every backticked ``Class.member`` reference in ``TREE_DOCS`` (also
    ``Class.member(...)`` and ``Class.one/other``) whose class name is
    a class under ``src/repro`` names something a class of that name
    defines or inherits: a method, a class attribute or a
    ``self.<name>`` attribute (found with ``ast``).  The docs name a
    few removed APIs on purpose, to say they are gone
    (``REMOVED_MEMBERS``);
11. the event-kind table under ``docs/OBSERVABILITY.md``'s
    ``EventKind`` heading lists exactly the values of ``EventKind``'s
    members (read from ``src/repro/common/events.py`` with ``ast``),
    both ways.

Exit status is non-zero when any check fails, so the script can run as
a pre-commit hook: ``python tools/docs_check.py``.
"""

import ast
import collections
import json
import os
import pathlib
import re
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: markdown files covered by the link check.
DOC_GLOBS = ("*.md", "docs/*.md")
#: markdown files whose ``.py`` path references must resolve.
TREE_DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md",
             "docs/*.md")

#: a dotted ``repro.<pkg>[.<module>][.<name>]`` name; one that goes on
#: with ``/`` or ``-`` is a schema tag (``repro.dump/v1``,
#: ``repro.fleet-cache/v1``).
_MODULE_REF = re.compile(r"\brepro\.(\w+(?:\.\w+)*)(?![\w/-])")
#: a parenthesised aside inside a table cell.
_ASIDE = re.compile(r"\([^)]*\)")
#: DESIGN.md's module map: a fenced block starting with ``src/repro/``.
_MODULE_MAP = re.compile(r"^```\n(src/repro/\n.*?)^```",
                         re.MULTILINE | re.DOTALL)
#: a markdown heading line, its text captured.
_HEADING_LINE = re.compile(r"^#{1,6}\s+(.+?)\s*$")
_MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.+?)\s*$", re.MULTILINE)
_CODE_DOC_REF = re.compile(r"docs/([A-Za-z_]+\.md)#([A-Za-z0-9_-]+)")
_CODEC_REGISTRY = re.compile(r"^CODECS\s*=\s*\{(.*?)\}", re.MULTILINE
                             | re.DOTALL)
_DICT_KEY = re.compile(r'"([a-z0-9-]+)"\s*:')
_PROFILE_NAME = re.compile(r'\bname\s*=\s*"([a-z0-9-]+)"')
#: HARDWARE.md's machine-readable coverage declaration, e.g.
#: ``<!-- hw-matrix codecs: secded secdaec -->``.
_HW_MARKER = re.compile(r"<!--\s*hw-matrix\s+(codecs|profiles):"
                        r"\s*([a-z0-9 -]*?)\s*-->")
#: a versioned document schema tag, e.g. ``repro.checkpoint/v1``.
_SCHEMA_TAG = re.compile(r"\brepro\.[a-z-]+/v\d+\b")
#: a SCHEMAS.md section heading for one schema, e.g.
#: ``## `repro.checkpoint/v1` — checkpoint document``.
_SCHEMA_HEADING = re.compile(r"^#{2,6}\s+`(repro\.[a-z-]+/v\d+)`",
                             re.MULTILINE)
#: one inline code span of a markdown file.
_CODE_SPAN = re.compile(r"`([^`\n]+)`")
#: a code span that is a repo Python path with an optional name
#: suffix, e.g. ``tests/test_fleet.py::TestScheduler``.
_PATH_REF = re.compile(r"((?:tests|benchmarks|bench|tools|examples|src)"
                       r"/[\w./-]*\.py)((?:::\w+)*)")
#: a code span that names a class member, e.g. ``Cache._install_run``,
#: ``Cache.load(paddr, size)`` or ``Cache.fast_read/fast_write``.
_MEMBER_REF = re.compile(r"([A-Z]\w*)\.(\w+(?:/\w+)*)(?:\(.*\))?")
#: ``Class.member`` names of removed APIs, which the docs keep to say
#: they are gone.
REMOVED_MEMBERS = frozenset({"Machine.perf_counters", "SafeMem.statistics"})


def source_subpackages(src_root):
    """Subpackage names under ``src/repro`` (directories with code)."""
    package = src_root / "repro"
    return sorted(
        path.name for path in package.iterdir()
        if path.is_dir() and (path / "__init__.py").exists()
    )


def module_exists(root, dotted):
    """Is ``repro.<dotted>`` a package or module under ``src/repro``?"""
    path = root.joinpath("src", "repro", *dotted.split("."))
    return path.is_dir() or path.with_suffix(".py").is_file()


def module_level_names(path):
    """Names a module binds at module level: its functions, classes,
    assigned names and imports."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0]
                         for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names.update(name.id for target in targets
                         for name in ast.walk(target)
                         if isinstance(name, ast.Name))
    return names


def reference_problem(root, dotted):
    """Why ``repro.<dotted>`` names nothing under ``src/repro``, or
    None when it names a module, or a module and one name the module
    binds at module level (the top-level package's own names too).
    Subpackages re-export nothing, so a subpackage followed by a name
    one of its modules binds is a facade path."""
    if module_exists(root, dotted):
        return None
    *module, name = dotted.split(".")
    path = root.joinpath("src", "repro", *module)
    missing = "which does not exist under src/repro"
    if module and path.is_dir():
        if any(name in module_level_names(file)
               for file in path.glob("*.py")):
            return (f"but package repro.{'.'.join(module)} re-exports "
                    f"nothing; name the module that defines {name}")
        return missing
    file = path / "__init__.py" if path.is_dir() else path.with_suffix(".py")
    if not file.is_file():
        return missing
    if name not in module_level_names(file):
        return f"but {file.relative_to(root)} defines no {name}"
    return None


def design_module_names(text):
    """Backticked names in the Modules column of a markdown file's
    tables, parenthesised asides (experiment names) left out."""
    names, column = [], None
    for line in text.splitlines():
        if not line.startswith("|"):
            column = None
            continue
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if "Modules" in cells:
            column = cells.index("Modules")
        elif column is not None and column < len(cells):
            names += _CODE_SPAN.findall(_ASIDE.sub("", cells[column]))
    return names


def module_map_entries(text):
    """The modules DESIGN.md's module map lists, as paths relative to
    ``src/repro`` (``cache/cache.py``, ``cli.py``); empty without a
    map.  A package line (``  cache/``) opens a package; a line whose
    first word, at the package column or the module column, ends in
    ``.py`` lists a module of the open package, or at the package
    column a top-level module."""
    match = _MODULE_MAP.search(text)
    if match is None:
        return []
    entries, package = [], None
    for line in match.group(1).splitlines()[1:]:
        opened = re.match(r"  (\w+)/\s*(.*)", line)
        top = re.match(r"  (\S+\.py)\s", line)
        if opened:
            package, rest = opened.groups()
        elif top:
            package = None
            entries.append(top.group(1))
            continue
        else:
            rest = line.strip()
        module = re.match(r"(\w+\.py)\b", rest)
        if module and package is not None:
            entries.append(f"{package}/{module.group(1)}")
    return entries


def check_module_map(root, design):
    """Check 1 for DESIGN.md's module map: every listed module exists,
    and every module under ``src/repro`` is listed."""
    package = root / "src" / "repro"
    modules = {path.relative_to(package).as_posix()
               for path in package.rglob("*.py")
               if path.name != "__init__.py"}
    listed = module_map_entries(design.read_text())
    where = design.relative_to(root)
    problems = [f"{where}: module map lists src/repro/{entry}, which "
                f"does not exist" for entry in listed
                if entry not in modules]
    problems += [f"{where}: module map omits src/repro/{module}"
                 for module in sorted(modules - set(listed))]
    return problems


def check_architecture_references(root=REPO_ROOT):
    """Checks 1 + 2: module names in the docs vs the package layout."""
    problems = []
    for doc in markdown_files(root, TREE_DOCS):
        where = doc.relative_to(root)
        text = doc.read_text()
        names = sorted(set(_MODULE_REF.findall(text)))
        if doc.name == "DESIGN.md":
            names += sorted(set(design_module_names(text)) - set(names))
        for name in names:
            problem = reference_problem(root, name)
            if problem is not None:
                problems.append(f"{where}: references repro.{name}, "
                                f"{problem}")
        if doc.name == "DESIGN.md":
            problems += check_module_map(root, doc)
    architecture = root / "docs" / "ARCHITECTURE.md"
    text = architecture.read_text()
    for name in source_subpackages(root / "src"):
        if f"repro.{name}" not in text:
            problems.append(
                f"{architecture.relative_to(root)}: src/repro/{name} "
                f"is not documented (no mention of repro.{name})"
            )
    return problems


def markdown_files(root=REPO_ROOT, patterns=DOC_GLOBS):
    files = []
    for pattern in patterns:
        files.extend(sorted(root.glob(pattern)))
    return files


def intra_repo_links(text):
    """Link targets that should resolve to files in this repo."""
    targets = []
    for target in _MD_LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        target = target.split("#", 1)[0]
        if target:
            targets.append(target)
    return targets


def check_markdown_links(root=REPO_ROOT):
    """Check 3: every relative markdown link resolves."""
    problems = []
    for path in markdown_files(root):
        for target in intra_repo_links(path.read_text()):
            resolved = (path.parent / target).resolve()
            if not resolved.exists():
                problems.append(
                    f"{path.relative_to(root)}: broken link -> {target}"
                )
    return problems


def heading_anchors(text):
    """GitHub-style anchor slugs for every heading in a markdown file."""
    anchors = set()
    for title in _HEADING.findall(text):
        title = title.replace("`", "")
        slug = re.sub(r"[^\w\- ]", "", title.lower()).strip()
        anchors.add(slug.replace(" ", "-"))
    return anchors


def _anchor_exists(root, doc_name, anchor):
    path = root / "docs" / doc_name
    if not path.is_file():
        return False
    return anchor in heading_anchors(path.read_text())


def check_code_doc_anchors(root=REPO_ROOT):
    """Check 4: docs/<file>.md#<anchor> references in Python source."""
    problems = []
    for path in sorted((root / "src").rglob("*.py")):
        for doc_name, anchor in _CODE_DOC_REF.findall(path.read_text()):
            if not _anchor_exists(root, doc_name, anchor):
                problems.append(
                    f"{path.relative_to(root)}: dangling doc anchor "
                    f"-> docs/{doc_name}#{anchor}"
                )
    return problems


def check_markdown_anchors(root=REPO_ROOT):
    """Check 5: cross-file ``*.md#anchor`` links hit real headings."""
    problems = []
    for path in markdown_files(root):
        for target in _MD_LINK.findall(path.read_text()):
            if target.startswith(("http://", "https://", "mailto:",
                                  "#")):
                continue
            if "#" not in target:
                continue
            file_part, anchor = target.split("#", 1)
            resolved = (path.parent / file_part).resolve()
            if not (resolved.is_file() and resolved.suffix == ".md"):
                continue  # missing files are check 3's problem
            if anchor not in heading_anchors(resolved.read_text()):
                problems.append(
                    f"{path.relative_to(root)}: dangling anchor "
                    f"-> {target}"
                )
    return problems


def registered_codecs(root=REPO_ROOT):
    """Codec names: keys of the ``CODECS`` registry literal."""
    source = (root / "src" / "repro" / "ecc" / "codec.py").read_text()
    match = _CODEC_REGISTRY.search(source)
    return sorted(_DICT_KEY.findall(match.group(1))) if match else []


def registered_profiles(root=REPO_ROOT):
    """Profile names: literal ``name=`` kwargs in the registry."""
    source = (root / "src" / "repro" / "ecc" / "profile.py").read_text()
    return sorted(set(_PROFILE_NAME.findall(source)))


def check_hardware_matrix(root=REPO_ROOT):
    """Check 6: docs/HARDWARE.md vs the codec/profile registries.

    HARDWARE.md declares its coverage in two marker comments
    (``<!-- hw-matrix codecs: ... -->`` / ``profiles:``); the names in
    each must match the code registries exactly, and every name must
    also be mentioned (backticked) in the document body.
    """
    codec_py = root / "src" / "repro" / "ecc" / "codec.py"
    profile_py = root / "src" / "repro" / "ecc" / "profile.py"
    if not (codec_py.is_file() and profile_py.is_file()):
        return []  # repo without the ECC substrate: nothing to check
    hardware = root / "docs" / "HARDWARE.md"
    if not hardware.is_file():
        return [
            "docs/HARDWARE.md: missing (the hardware-diversity matrix "
            "must document every registered codec and profile)"
        ]
    text = hardware.read_text()
    declared = {"codecs": None, "profiles": None}
    for kind, names in _HW_MARKER.findall(text):
        declared[kind] = sorted(names.split())
    problems = []
    registered = {
        "codecs": registered_codecs(root),
        "profiles": registered_profiles(root),
    }
    for kind in ("codecs", "profiles"):
        if declared[kind] is None:
            problems.append(
                f"docs/HARDWARE.md: missing "
                f"<!-- hw-matrix {kind}: ... --> coverage marker"
            )
            continue
        missing = sorted(set(registered[kind]) - set(declared[kind]))
        stale = sorted(set(declared[kind]) - set(registered[kind]))
        for name in missing:
            problems.append(
                f"docs/HARDWARE.md: registered {kind[:-1]} "
                f"`{name}` is not in the hardware matrix"
            )
        for name in stale:
            problems.append(
                f"docs/HARDWARE.md: documents {kind[:-1]} `{name}`, "
                f"which is not registered in the code"
            )
        for name in declared[kind]:
            if name not in stale and f"`{name}`" not in text:
                problems.append(
                    f"docs/HARDWARE.md: `{name}` is declared in the "
                    f"coverage marker but never described in the body"
                )
    return problems


def source_schema_tags(root=REPO_ROOT):
    """Every ``repro.<name>/v<N>`` string in Python source under src/."""
    tags = set()
    for path in sorted((root / "src").rglob("*.py")):
        tags.update(_SCHEMA_TAG.findall(path.read_text()))
    return sorted(tags)


def documented_schema_sections(root=REPO_ROOT):
    """Schema tags with their own section heading in SCHEMAS.md."""
    schemas = root / "docs" / "SCHEMAS.md"
    if not schemas.is_file():
        return []
    return sorted(set(_SCHEMA_HEADING.findall(schemas.read_text())))


def check_schema_sections(root=REPO_ROOT):
    """Check 7: schema strings in src/ vs SCHEMAS.md section headings.

    A schema tag that ships in the code without a ``## `repro.x/vN```
    section in ``docs/SCHEMAS.md`` is an undocumented on-disk format;
    a section for a tag no code mentions is documentation for a
    format that can no longer be produced or read.
    """
    schemas = root / "docs" / "SCHEMAS.md"
    tags = source_schema_tags(root)
    if tags and not schemas.is_file():
        return [
            "docs/SCHEMAS.md: missing (every versioned schema string "
            "in src/ must be documented there)"
        ]
    documented = documented_schema_sections(root)
    problems = []
    for tag in sorted(set(tags) - set(documented)):
        problems.append(
            f"docs/SCHEMAS.md: schema `{tag}` appears in src/ but has "
            f"no `## \\`{tag}\\`` section"
        )
    for tag in sorted(set(documented) - set(tags)):
        problems.append(
            f"docs/SCHEMAS.md: documents schema `{tag}`, which no "
            f"longer appears anywhere under src/"
        )
    return problems


#: prints ``{module.ATTRIBUTE: [table name, [own key paths]]}`` for the
#: named field tables among the ``module.ATTRIBUTE`` arguments.
_TABLES_SCRIPT = """
import importlib, json, sys
tables = {}
for qualified in sys.argv[1:]:
    module, attribute = qualified.rsplit(".", 1)
    table = getattr(importlib.import_module(module), attribute)
    if table.name:
        tables[qualified] = [table.name, sorted(table.own)]
print(json.dumps(tables))
"""


def table_definitions(src):
    """``module.ATTRIBUTE`` of every module-level ``ATTRIBUTE =
    Table(...)`` under ``src/repro``, where each table is defined (not
    where it is imported)."""
    found = []
    for path in sorted((src / "repro").rglob("*.py")):
        text = path.read_text()
        if " Table(" not in text:
            continue
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        for node in ast.parse(text).body:
            if isinstance(node, ast.Assign) \
                    and isinstance(node.value, ast.Call) \
                    and isinstance(node.value.func, ast.Name) \
                    and node.value.func.id == "Table":
                found.extend(f"{module}.{target.id}"
                             for target in node.targets
                             if isinstance(target, ast.Name))
    return found


def code_field_tables(root=REPO_ROOT):
    """``{module.ATTRIBUTE: [table name, [key paths]]}`` of the code's
    named field tables (``{}`` for a tree without
    ``repro.common.schema``)."""
    src = root / "src"
    if not (src / "repro" / "common" / "schema.py").is_file():
        return {}
    return _script_output(src, _TABLES_SCRIPT, *table_definitions(src))


def _script_output(src, script, *args):
    """The JSON ``script`` prints when run on the ``src`` tree."""
    output = subprocess.run(
        [sys.executable, "-c", script, *args], check=True,
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)}).stdout
    return json.loads(output)


def documented_field_tables(text, header="| Key | Type |"):
    """``{section name: [keys]}``: the first column of every table
    whose header starts with ``header`` (Key/Type tables by default),
    under a heading whose first code span names the section."""
    tables, name, in_table = {}, None, False
    for line in text.splitlines():
        heading = _HEADING_LINE.match(line)
        if heading:
            spans = _CODE_SPAN.findall(heading.group(1))
            name, in_table = (spans[0] if spans else None), False
        elif line.startswith(header):
            in_table = name is not None
        elif in_table and line.startswith("|"):
            cell = line.strip("|").split("|")[0]
            if not set(cell.strip()) <= set("-: "):
                tables.setdefault(name, []).extend(_CODE_SPAN.findall(cell))
        else:
            in_table = False
    return tables


def check_field_tables(root=REPO_ROOT, tables=None):
    """Check 7, second half: SCHEMAS.md's Key/Type tables vs the code's
    field tables, both ways (``tables`` overrides the code's).

    Each table is documented in the section its name heads; tables
    that share a name each have the section their attribute heads.
    """
    tables = code_field_tables(root) if tables is None else tables
    schemas = root / "docs" / "SCHEMAS.md"
    if not tables:
        return []
    documented = documented_field_tables(
        schemas.read_text() if schemas.is_file() else "")
    shared = collections.Counter(name for name, _ in tables.values())
    sections = {(qualified.rsplit(".", 1)[1] if shared[name] > 1
                 else name): paths
                for qualified, (name, paths) in tables.items()}
    problems = []
    for name, paths in sorted(sections.items()):
        if name not in documented:
            problems.append(f"docs/SCHEMAS.md: field table `{name}` has "
                            f"no section with a Key/Type table")
            continue
        for key in sorted(set(paths) - set(documented[name])):
            problems.append(f"docs/SCHEMAS.md: `{name}` does not document "
                            f"key `{key}` of its field table")
        for key in sorted(set(documented[name]) - set(paths)):
            problems.append(f"docs/SCHEMAS.md: `{name}` documents key "
                            f"`{key}`, which its field table does not "
                            f"declare")
    return problems


#: prints the names of ``dataclasses.fields(MonitorStackConfig)``.
_STACK_FIELDS_SCRIPT = """
import dataclasses, json
from repro.obs.stack import MonitorStackConfig
print(json.dumps([field.name
                  for field in dataclasses.fields(MonitorStackConfig)]))
"""


def stack_config_fields(root=REPO_ROOT):
    """The field names of ``MonitorStackConfig`` (``[]`` for a tree
    without ``repro.obs.stack``)."""
    src = root / "src"
    if not (src / "repro" / "obs" / "stack.py").is_file():
        return []
    return _script_output(src, _STACK_FIELDS_SCRIPT)


def check_stack_config_table(root=REPO_ROOT, fields=None):
    """Check 9: ARCHITECTURE.md's ``MonitorStackConfig`` table vs the
    dataclass's fields, both ways (``fields`` overrides the code's)."""
    fields = stack_config_fields(root) if fields is None else fields
    if not fields:
        return []
    architecture = root / "docs" / "ARCHITECTURE.md"
    documented = documented_field_tables(
        architecture.read_text() if architecture.is_file() else "",
        header="| field |").get("MonitorStackConfig", [])
    return _table_drift("docs/ARCHITECTURE.md: `MonitorStackConfig` table",
                        fields, documented, "field")


def _table_drift(where, names, documented, what):
    """Problems with a documented table that should list exactly
    ``names``, both ways."""
    return ([f"{where} does not list {what} `{name}`"
             for name in names if name not in documented]
            + [f"{where} lists `{name}`, which is not a {what}"
               for name in documented if name not in names])


def event_kinds(root=REPO_ROOT):
    """The values of ``EventKind``'s members, in definition order
    (``[]`` for a tree without ``repro.common.events``)."""
    path = root / "src" / "repro" / "common" / "events.py"
    if not path.is_file():
        return []
    return [statement.value.value
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ClassDef) and node.name == "EventKind"
            for statement in node.body
            if isinstance(statement, ast.Assign)
            and isinstance(statement.value, ast.Constant)]


def check_event_kind_table(root=REPO_ROOT, kinds=None):
    """Check 11: OBSERVABILITY.md's ``EventKind`` table vs the enum's
    member values, both ways (``kinds`` overrides the code's)."""
    kinds = event_kinds(root) if kinds is None else kinds
    if not kinds:
        return []
    observability = root / "docs" / "OBSERVABILITY.md"
    documented = documented_field_tables(
        observability.read_text() if observability.is_file() else "",
        header="| kind |").get("EventKind", [])
    return _table_drift("docs/OBSERVABILITY.md: `EventKind` table",
                        kinds, documented, "kind")


def _defines(path, names):
    """Does ``path`` define ``names[0]`` (a class or function anywhere
    in the file), each later name directly inside the one before?"""
    kinds = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    first, *rest = names
    found = [node for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, kinds) and node.name == first]
    for name in rest:
        found = [child for node in found for child in node.body
                 if isinstance(child, kinds) and child.name == name]
    return bool(found)


def check_path_references(root=REPO_ROOT):
    """Check 8: backticked ``.py`` paths in markdown resolve."""
    problems = []
    for doc in markdown_files(root, TREE_DOCS):
        where = doc.relative_to(root)
        for span in _CODE_SPAN.findall(doc.read_text()):
            match = _PATH_REF.fullmatch(span)
            if match is None:
                continue
            path = root / match.group(1)
            names = match.group(2).split("::")[1:]
            if not path.is_file():
                problems.append(f"{where}: `{span}` names no file")
            elif names and not _defines(path, names):
                problems.append(
                    f"{where}: `{span}`: {match.group(1)} defines no "
                    f"{'::'.join(names)}")
    return problems


def _class_definitions(root):
    """``{class name: (names it defines, base class names)}`` for the
    classes under ``src/repro``, merged over classes of one name."""
    classes = {}
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            names, bases = classes.setdefault(node.name, (set(), set()))
            bases.update(base.id if isinstance(base, ast.Name) else
                         base.attr for base in node.bases
                         if isinstance(base, (ast.Name, ast.Attribute)))
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.ClassDef,
                                      ast.AsyncFunctionDef)):
                    names.add(child.name)
                targets = (child.targets if isinstance(child, ast.Assign)
                           else [child.target]
                           if isinstance(child, ast.AnnAssign) else [])
                names.update(target.id for target in targets
                             if isinstance(target, ast.Name))
            names.update(
                target.attr for target in ast.walk(node)
                if isinstance(target, ast.Attribute)
                and isinstance(target.ctx, ast.Store)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self")
    return classes


def class_members(root=REPO_ROOT):
    """``{class name: every member name}`` for the classes under
    ``src/repro``, inherited members included."""
    classes = _class_definitions(root)

    def members(name, seen):
        own, bases = classes[name]
        found = set(own)
        for base in bases - seen:
            if base in classes:
                found |= members(base, seen | {base})
        return found

    return {name: members(name, {name}) for name in classes}


def check_member_references(root=REPO_ROOT, members=None):
    """Check 10: backticked ``Class.member`` references resolve."""
    if members is None:
        members = class_members(root)
    problems = []
    for doc in markdown_files(root, TREE_DOCS):
        where = doc.relative_to(root)
        for span in _CODE_SPAN.findall(doc.read_text()):
            match = _MEMBER_REF.fullmatch(span)
            if match is None or match.group(1) not in members:
                continue
            cls = match.group(1)
            for name in match.group(2).split("/"):
                if (name not in members[cls]
                        and f"{cls}.{name}" not in REMOVED_MEMBERS):
                    problems.append(f"{where}: `{span}`: no class {cls} "
                                    f"under src/repro defines {name}")
    return problems


def run_checks(root=REPO_ROOT):
    return check_architecture_references(root) + \
        check_markdown_links(root) + \
        check_code_doc_anchors(root) + \
        check_markdown_anchors(root) + \
        check_hardware_matrix(root) + \
        check_schema_sections(root) + \
        check_field_tables(root) + \
        check_path_references(root) + \
        check_stack_config_table(root) + \
        check_member_references(root) + \
        check_event_kind_table(root)


def main():
    problems = run_checks()
    for problem in problems:
        print(f"docs-check: {problem}", file=sys.stderr)
    if problems:
        print(f"docs-check: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print(f"docs-check: OK ({len(markdown_files())} markdown files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
