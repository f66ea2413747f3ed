"""Every public function, class and method of the package is used by the package,
every module-level constant is read by it, and no public dataclass carries a
private field."""

import ast
import fnmatch
import re
from collections import defaultdict
from pathlib import Path

import ospfrqa

# Public names that nothing in the package refers to, and why they stay.
UNREFERENCED_ALLOWED = {
    "cli.cmd_*": "main looks each command up through globals() at call time",
    "sim.topology_to_text": "wrote the shipped topo20 and topo35 topology files",
    "sim.scenario_to_json": "writes the scenario files that scenario_from_json reads",
    "rqa.RqaMeasures.as_dict": "library call for reading one window's measures by name",
    "ingest.extract_pcap_events": "the per-record definition of reading a capture, which "
                                  "read_pcap_columns must match; library call for events",
    "sim.RunResult.logs": "library call for a run's events, built from its rows on the first "
                          "read; simulate writes the rows and reads no events",
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
    the definition itself, as a name, an attribute or an imported name
    (so an ``__init__`` export counts)."""
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
