"""Every function, class and method in the package has a caller in the
package: code that only tests reach is deleted, not kept as API.

A definition counts as used when its name appears in some other place of
``src/offroad``: as a name, an attribute, or an imported name, outside the
definition's own body.  Dunder methods are called by Python itself and are
not checked.
"""

import ast
from pathlib import Path

import offroad

SRC = Path(offroad.__file__).parent

# name -> why it stays without a caller in the package
ALLOWED_UNUSED = {
    "compute_scaling_factors": "the benchmark's own tests (perfbench/test_perfbench.py) "
                               "import it; it goes when they stop",
    "error": "argparse calls it: cli._Parser overrides ArgumentParser.error so that "
             "usage errors exit 4",
}


def definitions_and_references():
    """([(file, name, first line, last line)], [(file, line, name)]) over
    the package sources."""
    defs, refs = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((path.name, node.name, node.lineno, node.end_lineno))
            if isinstance(node, ast.ClassDef):
                defs.extend((path.name, item.name, item.lineno, item.end_lineno)
                            for item in node.body if isinstance(item, ast.FunctionDef)
                            and not (item.name.startswith("__") and item.name.endswith("__")))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((path.name, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                refs.append((path.name, node.lineno, node.attr))
            elif isinstance(node, ast.alias):
                refs.append((path.name, node.lineno, node.name))
    return defs, refs


def unused_definitions():
    """(file, name, line) of each definition with no caller, found to a
    fixed point: a name used only inside unused definitions is unused too.
    Allowlisted names count as used, so what they call is kept."""
    defs, refs = definitions_and_references()
    unused = []
    while True:
        dead = [d for d in unused if d[1] not in ALLOWED_UNUSED]
        users = {}
        for file, line, name in refs:
            if not any(file == d[0] and d[2] <= line <= d[3] for d in dead):
                users.setdefault(name, []).append((file, line))
        found = [d for d in defs
                 if all(file == d[0] and d[2] <= line <= d[3]
                        for file, line in users.get(d[1], ()))]
        if found == unused:
            break
        unused = found
    return sorted((file, name, first) for file, name, first, _ in unused)


def test_every_definition_has_a_caller_in_the_package():
    unused = [f"{file}:{line}: {name}" for file, name, line in unused_definitions()
              if name not in ALLOWED_UNUSED]
    assert unused == [], "defined in src/offroad but never used there; delete them"


def test_allowlist_is_current():
    # each allowlisted name still exists and still has no caller in the
    # package; once one gains a caller, its entry goes
    assert set(ALLOWED_UNUSED) <= {name for _, name, _ in unused_definitions()}
