"""Every public function, class and method of the package is used by the package,
every module-level constant is read by it, no public dataclass carries a
private field, every name the benchmark harness needs exists, and importing
a module loads only the package modules it needs."""

import ast
import fnmatch
import importlib
import json
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import ospfrqa

# Public names that nothing in the package refers to, and why they stay.
UNREFERENCED_ALLOWED = {
    "cli.cmd_*": "main looks each command up through globals() at call time",
    "detect.analyze_run": "the README's library call: a run's events to its series, measures "
                          "and alerts in one call",
    "rqa.recurrence_matrix": "the float path's definition of a window's recurrence matrix, "
                             "which the tests check against oracle.measures",
    "rqa.rqa_measures": "the float path's definition of a window's measures, which the tests "
                        "check against oracle.measures",
    "ingest.extract_pcap_events": "the per-record definition of reading a capture, which "
                                  "read_pcap_columns must match; library call for events",
    "sim.RunResult.logs": "library call for a run's rows named as events, which the benchmark "
                          "harness reads; simulate writes the rows as they are",
}


def public_definitions(tree: ast.Module):
    """``(qualified name, node)`` of the public module-level functions and
    classes, and of the public methods of public classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def unreferenced_names(package: Path) -> list[str]:
    """Public definitions whose name occurs nowhere in the package outside
    the definition itself, as a name, an attribute or an imported name.
    An import counts because the package root re-exports nothing: every
    import is by a module that uses the name."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    uses = defaultdict(list)  # name -> (module, line)
    for module, tree in trees.items():
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else None)
            if name is not None:
                uses[name].append((module, node.lineno))
    unused = []
    for module, tree in trees.items():
        for qualified, node in public_definitions(tree):
            if not any(m != module or not node.lineno <= line <= node.end_lineno
                       for m, line in uses[node.name]):
                unused.append(f"{module}.{qualified}")
    return unused


def test_every_public_name_is_referenced_or_allowed():
    package = Path(ospfrqa.__file__).resolve().parent
    unused = unreferenced_names(package)
    unexplained = [name for name in unused
                   if not any(fnmatch.fnmatchcase(name, pattern)
                              for pattern in UNREFERENCED_ALLOWED)]
    assert unexplained == []


def test_allowlist_has_no_stale_entries():
    package = Path(ospfrqa.__file__).resolve().parent
    unused = unreferenced_names(package)
    stale = [pattern for pattern in UNREFERENCED_ALLOWED
             if not fnmatch.filter(unused, pattern)]
    assert stale == []


def private_dataclass_fields(package: Path) -> list[str]:
    """``module.Class._field`` for each field whose name starts with ``_``
    that a public ``@dataclass`` class of the package declares."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
            if not any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
                continue
            found += [f"{path.stem}.{node.name}.{item.target.id}" for item in node.body
                      if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                      and item.target.id.startswith("_")]
    return found


def test_public_dataclasses_have_no_private_fields():
    # A private field of a public data type is state handed from one
    # function to another behind the type's documented fields.
    package = Path(ospfrqa.__file__).resolve().parent
    assert private_dataclass_fields(package) == []


CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def unread_constants(package: Path) -> list[str]:
    """``module.NAME`` for each module-level constant (an UPPER_CASE name,
    with or without a leading ``_``, assigned at the top of a module) whose
    name the package never loads, as a name or an attribute."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    reads = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign) else
                       [node.target] if isinstance(node, ast.AnnAssign) else [])
            for target in targets:
                for name in ast.walk(target):
                    if (isinstance(name, ast.Name) and CONSTANT.fullmatch(name.id)
                            and name.id not in reads):
                        unread.append(f"{module}.{name.id}")
    return unread


def test_every_module_constant_is_read():
    # A constant nothing reads is a setting that no longer sets anything.
    package = Path(ospfrqa.__file__).resolve().parent
    assert unread_constants(package) == []


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPAN_TABLES = ("incl", "self_t", "calls")  # layertrace's totals, keyed by traced function


def benchmark_names(directory: Path) -> set[str]:
    """``module.name`` for each package name that the scripts in
    ``directory`` need, read from their source without importing them:
    each attribute read on an ``ospfrqa`` module they import, each name
    they import from one, each key of ``OBSERVERS`` and each traced
    function whose time or call count ``layertrace`` looks up by name."""
    names = set()
    for path in sorted(directory.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = {}  # local name -> the dotted ospfrqa module it stands for
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "ospfrqa":
                bound.update({a.asname or a.name: f"ospfrqa.{a.name}" for a in node.names})
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ospfrqa."):
                names.update(f"{node.module[8:]}.{a.name}" for a in node.names)
            elif isinstance(node, ast.Import):
                bound.update({a.asname or "ospfrqa": a.name if a.asname else "ospfrqa"
                              for a in node.names if a.name.split(".")[0] == "ospfrqa"})
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attrs, base = [], node
                while isinstance(base, ast.Attribute):
                    attrs.insert(0, base.attr)
                    base = base.value
                if isinstance(base, ast.Name) and base.id in bound:
                    parts = bound[base.id].split(".") + attrs
                    if len(parts) >= 3:
                        names.add(f"{parts[1]}.{parts[2]}")
            elif (path.name == "layertrace.py" and isinstance(node, ast.Subscript)
                  and isinstance(node.value, ast.Name) and node.value.id in SPAN_TABLES
                  and isinstance(node.slice, ast.Constant)):
                names.add(node.slice.value)
            elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                  and any(isinstance(t, ast.Name) and t.id == "OBSERVERS" for t in node.targets)):
                names.update(key.value for key in node.value.keys)
    return names


def test_every_name_the_benchmark_needs_exists():
    # The harness lives outside the package and its tests, so without this a
    # rename could pass every test and leave a benchmark metric reading 0.
    names = benchmark_names(PERFBENCH)
    assert {"cli.main", "ingest.LsaEvent", "ingest.write_lsa_log", "ingest.extract_pcap_events",
            "sim.run", "detect.measures_for_series", "cli.cmd_detect"} <= names
    missing = [name for name in sorted(names)
               if not hasattr(importlib.import_module(f"ospfrqa.{name.split('.')[0]}"),
                              name.split(".")[1])]
    assert missing == []


def imported_modules(source: str) -> set[str]:
    """Dotted names of the modules that a source imports, by an import
    statement at any depth or by ``importlib.import_module`` or
    ``__import__`` of a literal name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.add("." * node.level + (node.module or ""))
        elif (isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant)
              and (isinstance(node.func, ast.Attribute) and node.func.attr == "import_module"
                   or isinstance(node.func, ast.Name) and node.func.id == "__import__")):
            found.add(node.args[0].value)
    return found


def test_the_oracle_imports_no_package_module():
    # The oracle is the reference that the fast paths are checked against, so
    # it must not reach them: a shared helper would agree with itself.
    assert {"ospfrqa.rqa", "ospfrqa", "ospfrqa.sim"} <= imported_modules(
        "import ospfrqa.rqa\nfrom ospfrqa import ingest\n"
        "def f():\n    importlib.import_module('ospfrqa.sim')\n")
    oracle = Path(__file__).resolve().parent / "oracle.py"
    imported = imported_modules(oracle.read_text(encoding="utf-8"))
    assert [name for name in sorted(imported) if name.split(".")[0] == "ospfrqa"] == []


# The package modules that importing each module loads, itself included.  The
# package root loads none: a list of re-exports there would load them all.
IMPORT_LAYERS = {
    "ospfrqa": [],
    "ospfrqa.ingest": ["ingest"],
    "ospfrqa.rqa": ["rqa"],
    "ospfrqa.sim": ["ingest", "sim"],
    "ospfrqa.detect": ["detect", "ingest", "rqa"],
    "ospfrqa.cli": ["cli", "detect", "ingest", "rqa", "sim"],
}


def test_each_module_loads_only_the_modules_it_needs():
    code = ("import importlib, json, sys\n"
            "loaded = {}\n"
            f"for name in {list(IMPORT_LAYERS)!r}:\n"
            "    for key in [k for k in sys.modules if k.split('.')[0] == 'ospfrqa']:\n"
            "        del sys.modules[key]\n"
            "    importlib.import_module(name)\n"
            "    loaded[name] = sorted(k[len('ospfrqa.'):] for k in sys.modules\n"
            "                          if k.startswith('ospfrqa.'))\n"
            "print(json.dumps(loaded))\n")
    src = Path(ospfrqa.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=src)
    assert json.loads(out.stdout) == IMPORT_LAYERS
