"""Every function, class, method and record field in the package has a
reader in the package: code that only tests reach is deleted, not kept as API.

A definition counts as used when its name appears in some other place of
``src/offroad``: as a name, an attribute, or an imported name, outside the
definition's own body.  Dunder methods are called by Python itself and are
not checked.

A field of a dataclass or NamedTuple counts as read when it is read as an
attribute outside its class body or inside one of the class's own methods.
Reads in the class's dunder methods do not count: ``__post_init__`` checks
and ``__getitem__`` copies touch every field, whether or not anything needs
it.

An option, a parameter or record field with a default, counts as set when
some call in the package passes it: by keyword, by position, through a ``*``
spread, or through a ``**`` spread whose keys may name it.  Every ``**``
spread in the package passes values of the run configuration, so it may
name only a key of some ``config._SCHEMA`` section.  An option no caller
sets is a constant.  A default that every call in the package overrides, by
keyword or by position before any spread, is never used: the parameter is
required.  A spread may leave the default, so it does not override.

The checks go by name alone, so a use of a name that several classes
define counts for each of them; such names are resolved by hand in
SHARED_NAMES.
"""

import ast
import importlib
from collections import defaultdict
from pathlib import Path

import offroad
from offroad.config import _SCHEMA

SRC = Path(offroad.__file__).parent
# the names a ``**`` spread may set: the keys of the run configuration
SPREAD_KEYS = {key for section in _SCHEMA.values() for key in section}

# name -> why it stays without a caller in the package
ALLOWED_UNUSED = {
    "compute_scaling_factors": "the tests take the route's scaling factors from it "
                               "(tests/test_global_route.py and the benchmark's own "
                               "perfbench/test_perfbench.py)",
    "error": "argparse calls it: cli._Parser overrides ArgumentParser.error so that "
             "usage errors exit 4",
}


# Class.field -> why the field stays without a reader in the package
ALLOWED_UNREAD_FIELDS = {
    "ValueFunction.converged": "perfbench reports it as global_route.converged_frac",
    "ValueFunction.sweeps": "perfbench reports it as global_route.sweeps",
    "WeatherCondition.kind": "perfbench constructs WeatherCondition(kind, limit)",
    **{f"VehicleState.{name}": "a NamedTuple: the package reads the state by unpacking"
       for name in ("x", "y", "psi", "speed", "steer")},
}

# For each name that several classes or modules define, as a function, a
# method or a record field: owner -> the code in the package that reads that
# owner's definition
_SEGMENT_KINDS = ("LineSegment", "ArcSegment")
SHARED_NAMES = {
    "length": dict.fromkeys(_SEGMENT_KINDS, "PathGeometry.__post_init__"),
    "point_at": dict.fromkeys(_SEGMENT_KINDS, "DesiredTrajectory.sample"),
    "tangent_at": dict.fromkeys(_SEGMENT_KINDS, "DesiredTrajectory.sample"),
    "curvature": dict.fromkeys(_SEGMENT_KINDS, "DesiredTrajectory.sample"),
    "total_length": {"PathGeometry": "PathGeometry.locate, DesiredTrajectory",
                     "SpeedProfile": "SpeedProfile.sample, DesiredTrajectory"},
    "sample": {"SpeedProfile": "DesiredTrajectory.sample",
               "DesiredTrajectory": "run_simulation, write_trajectory_csv"},
    "duration": {"SpeedProfile": "DesiredTrajectory.duration",
                 "DesiredTrajectory": "Scenario, run_simulation, write_trajectory_csv",
                 "Scenario": "run_simulation"},
    "start": {"RunConfig": "cli.cmd_simulate", "LineSegment": "LineSegment's own methods"},
    "goal": {"RunConfig": "cli.cmd_simulate", "DpProblem": "value_iteration, extract_route"},
    "grid": {"DpProblem": "extract_route", "RouteWeights": "build_dp_problem"},
    "waypoints": {"RunConfig": "cli.cmd_simulate",
                  "PlannedRoute": "cli, render_scene, write_route_csv"},
    **{name: {"RunConfig": "cli.cmd_simulate", "Scenario": "run_simulation"}
       for name in ("trajectory", "gains")},
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


def _is_record(node: ast.ClassDef) -> bool:
    """A dataclass or a NamedTuple."""
    for deco in node.decorator_list:
        func = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(func, ast.Name) and func.id == "dataclass":
            return True
    return any(isinstance(base, ast.Name) and base.id == "NamedTuple" for base in node.bases)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def owners_by_name():
    """{name: {owner, ...}}: the module of each module-level function and
    class, the class of each non-dunder method and record field."""
    owners = defaultdict(set)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                owners[node.name].add(path.stem)
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                    owners[item.name].add(node.name)
                elif _is_record(node) and isinstance(item, ast.AnnAssign):
                    owners[item.target.id].add(node.name)
    return owners


def unread_fields():
    """Class.field of each record field read nowhere in the package but in
    its own class's dunder methods."""
    fields, reads = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and _is_record(node):
                dunders = [(item.lineno, item.end_lineno) for item in node.body
                           if isinstance(item, ast.FunctionDef) and _is_dunder(item.name)]
                fields.extend((path.name, node.name, item.target.id, dunders)
                              for item in node.body if isinstance(item, ast.AnnAssign))
        reads.extend((path.name, node.lineno, node.attr) for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    return sorted(f"{cls}.{name}" for file, cls, name, dunders in fields
                  if all(attr != name or (file == f and any(a <= line <= b for a, b in dunders))
                         for f, line, attr in reads))


def test_every_record_field_is_read_in_the_package():
    unread = [name for name in unread_fields() if name not in ALLOWED_UNREAD_FIELDS]
    assert unread == [], "record fields nothing in src/offroad reads; delete them"


def test_field_allowlist_is_current():
    assert set(ALLOWED_UNREAD_FIELDS) <= set(unread_fields())


def test_names_several_owners_define_are_resolved_by_hand():
    # a use of a shared name counts for every definition of it, so the checks
    # above cannot tell an unused one: SHARED_NAMES names the reader of each
    # owner's definition, and a new owner of a listed name fails here too
    shared = {name: owners for name, owners in owners_by_name().items() if len(owners) > 1}
    assert shared == {name: set(readers) for name, readers in SHARED_NAMES.items()}


# owner(option) -> why the option stays although no call in the package sets it
ALLOWED_UNSET_OPTIONS = {
    "main(argv)": "the console script calls main() with no arguments; tests and "
                  "perfbench pass argv",
    "Scenario(initial_state)": "the offset-start tests (acceptance criterion 7, "
                               "tests/test_control.py, tests/test_simulate.py) start the "
                               "car off the reference",
}


def _has_default(value: ast.expr) -> bool:
    """A record field's value gives a default unless it is a ``field(...)``
    without ``default`` or ``default_factory``."""
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name) \
            and value.func.id == "field":
        return any(k.arg in ("default", "default_factory") for k in value.keywords)
    return True


def _parameter_options(owner: str, args: ast.arguments, skip: int):
    """(owner, parameter, positional index or None) of each parameter with a
    default; the first ``skip`` positional parameters are bound, not passed."""
    positional = args.posonlyargs + args.args
    first_default = len(positional) - len(args.defaults)
    out = [(owner, arg.arg, k - skip) for k, arg in enumerate(positional)
           if k >= first_default]
    out += [(owner, arg.arg, None)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
    return out


def options():
    """(owner, option, positional index or None) of each parameter with a
    default of a module-level function or a method, and of each record field
    with a default; a class's ``__init__`` parameters belong to the class, and
    a method's first parameter is bound, not passed."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                out += _parameter_options(node.name, node.args, 0)
            if not isinstance(node, ast.ClassDef):
                continue
            if _is_record(node):
                fields = [item for item in node.body if isinstance(item, ast.AnnAssign)]
                out += [(node.name, item.target.id, k) for k, item in enumerate(fields)
                        if item.value is not None and _has_default(item.value)]
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and (
                        item.name == "__init__" or not _is_dunder(item.name)):
                    out += _parameter_options(node.name if item.name == "__init__"
                                              else item.name, item.args, 1)
    return out


def calls_by_name():
    """{called name: [(positional arguments before any ``*`` spread, keyword
    names, has a ``*`` spread, the names a ``**`` spread may set)]} over the
    package."""
    calls = defaultdict(list)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = [isinstance(arg, ast.Starred) for arg in node.args]
            calls[name].append((starred.index(True) if any(starred) else len(starred),
                                {k.arg for k in node.keywords}, any(starred),
                                SPREAD_KEYS if any(k.arg is None for k in node.keywords)
                                else set()))
    return calls


def unset_options():
    calls = calls_by_name()
    return sorted(f"{owner}({name})" for owner, name, index in options()
                  if not any(name in keywords or name in spread
                             or (index is not None and (index < n or single))
                             for n, keywords, single, spread in calls[owner]))


def test_every_option_is_set_by_a_caller_in_the_package():
    unset = [name for name in unset_options() if name not in ALLOWED_UNSET_OPTIONS]
    assert unset == [], "options no call in src/offroad sets; make them constants"


def test_option_allowlist_is_current():
    assert set(ALLOWED_UNSET_OPTIONS) <= set(unset_options())


# owner(option) -> why the option keeps its default although every call in
# the package passes it
ALLOWED_OVERRIDDEN_DEFAULTS = {}


def overridden_defaults():
    """owner(option) of each default that every call in the package
    overrides, by keyword or by position before any spread; a call that
    spreads ``*`` or ``**`` may leave the default, and an owner the package
    never calls is not checked."""
    calls = calls_by_name()
    return sorted(f"{owner}({name})" for owner, name, index in options()
                  if calls[owner] and all(name in keywords or (index is not None
                                                               and index < n)
                                          for n, keywords, _, _ in calls[owner]))


def test_no_default_is_overridden_by_every_caller():
    overridden = [name for name in overridden_defaults()
                  if name not in ALLOWED_OVERRIDDEN_DEFAULTS]
    assert overridden == [], "defaults every call in src/offroad overrides; make them required"


def test_overridden_default_allowlist_is_current():
    assert set(ALLOWED_OVERRIDDEN_DEFAULTS) <= set(overridden_defaults())


# Class.field -> why the field keeps None for a number
ALLOWED_NONE_NUMBERS = {
    "Scenario.duration": "None is the trajectory's own duration, which __post_init__ "
                         "fills in once the trajectory exists",
}


def _union_members(annotation: ast.expr) -> list[str]:
    """The members of an ``a | b`` or ``Optional[a]`` annotation as text."""
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        return _union_members(annotation.left) + _union_members(annotation.right)
    if isinstance(annotation, ast.Subscript) and ast.unparse(annotation.value) == "Optional":
        return _union_members(annotation.slice) + ["None"]
    return [ast.unparse(annotation)]


def none_numbers():
    """Class.field of each record field whose annotation admits a number or
    None: None stands in for a value, so every reader branches on it."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef) and _is_record(node):
                out += [f"{node.name}.{item.target.id}" for item in node.body
                        if isinstance(item, ast.AnnAssign)
                        and "None" in (members := _union_members(item.annotation))
                        and {"float", "int"} & set(members)]
    return sorted(out)


def test_no_record_field_uses_none_for_a_number():
    # an unlimited bound is inf and a start from rest is 0.0: the number
    # itself, which the arithmetic already handles, and no None branch
    found = [name for name in none_numbers() if name not in ALLOWED_NONE_NUMBERS]
    assert found == [], "record fields that use None for a number; give the number"


def test_none_number_allowlist_is_current():
    assert set(ALLOWED_NONE_NUMBERS) <= set(none_numbers())


def error_types():
    """{name: "file:line"} of each exception class the package defines."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        classes = [node for node in ast.parse(path.read_text(encoding="utf-8")).body
                   if isinstance(node, ast.ClassDef)]
        if not classes:
            continue
        module = importlib.import_module(f"offroad.{path.stem}")
        out.update((node.name, f"{path.name}:{node.lineno}") for node in classes
                   if issubclass(getattr(module, node.name), BaseException))
    return out


def untold_error_types():
    """file:line: name of each exception class that the package only
    defines, imports and constructs: nothing catches it, maps it or checks
    it by type, so nothing tells it apart from its base."""
    errors = error_types()
    told = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        made = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        made |= {id(node.exc) for node in ast.walk(tree) if isinstance(node, ast.Raise)}
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in errors and id(node) not in made:
                told.add(name)
    return sorted(f"{where}: {name}" for name, where in errors.items() if name not in told)


def test_every_error_type_is_told_apart():
    # cli.main turns every ValueError into exit 4, so a subclass that no
    # code tells apart is a second name for ValueError: raise ValueError
    assert untold_error_types() == [], "error types nothing in src/offroad tells apart"
