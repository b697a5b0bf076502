"""The package runs on the standard library alone (dependencies = []),
every name its modules, its tests and its benchmark import is used, every
definition of the package is read by the package or exported, every test
helper and corpus is read by a test, no test names the block search's
class, every file parses as Python 3.10, the command line starts without
the modules only a directory run needs, and only two functions build a
spatial index."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "trimdecomp"
PERFBENCH = TESTS.parent / "perfbench"


def absolute_imports(path):
    """The module named by each absolute import statement of one file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_runtime_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    imported = {(p.name, m) for p in files for m in absolute_imports(p)}
    assert ("ilp.py", "fractions") in imported
    outside = sorted(
        (name, m) for name, m in imported if m.split(".")[0] not in sys.stdlib_module_names
    )
    assert outside == []


def test_cli_start_up_loads_no_process_pool_or_logging():
    # multiprocessing is imported only by a directory run with --jobs, and
    # concurrent.futures would bring logging in with it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    probe = "import sys, trimdecomp.cli; print(' '.join(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "trimdecomp.cli" in loaded
    assert not {"concurrent.futures", "logging", "multiprocessing"} & loaded


def unread_imports(path):
    """The names bound by the imports of one file that it never reads."""
    tree = ast.parse(path.read_text(), str(path))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return bound - read


def test_every_imported_name_is_read():
    # __init__.py imports only to re-export
    files = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    files += sorted(TESTS.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    assert any(p.name == "layout_io.py" for p in files)
    assert any(p.name == "helpers.py" for p in files)
    assert any(p.name == "spans.py" for p in files)
    unread = sorted((p.name, name) for p in files for name in unread_imports(p))
    assert unread == []


def names_read(node):
    """The names node reads: loaded names, attribute names, names taken by
    a from import, and string constants, as perfbench/spans.py names the
    functions it wraps."""
    read = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            read.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            read.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            read.update(alias.name for alias in sub.names)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            read.add(sub.value)
    return read


def names_defined(stmt):
    """The names a top-level statement defines: a function's or class's
    name, or the names an assignment binds (constants and type aliases)."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return set()
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def exported_names():
    """The names that __init__.py lists in __all__."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and names_defined(stmt) == {"__all__"}:
            return set(ast.literal_eval(stmt.value))
    raise AssertionError("__init__.py has no __all__")


def test_every_top_level_definition_is_read():
    # a function, class, constant or type alias counts as read only where a
    # module of the package reads it outside its own definition, or where
    # __init__.py exports it in __all__; its imports there do not count, and
    # neither do the tests and the benchmark
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    defined = set()
    read = exported_names()
    for p in modules:
        for stmt in ast.parse(p.read_text(), str(p)).body:
            own = names_defined(stmt)
            defined |= {(p.name, name) for name in own}
            read |= names_read(stmt) - own
    assert ("graphs.py", "generate_stitch_candidates") in defined
    assert ("ilp.py", "SPACING_ROWS") in defined
    assert ("ilp.py", "BlockStructure") in defined
    assert sorted((f, name) for f, name in defined if name not in read) == []


def test_every_method_is_read():
    # a non-dunder method of a class in the package counts as read only
    # where a module of the package reads it outside its own body (a
    # recursive method does not read itself); __all__ exports no method,
    # and the tests and the benchmark do not count
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    defined = set()
    read = set()
    for p in modules:
        for stmt in ast.parse(p.read_text(), str(p)).body:
            if not isinstance(stmt, ast.ClassDef):
                read |= names_read(stmt)
                continue
            read |= set().union(*map(names_read, stmt.bases + stmt.decorator_list))
            for part in stmt.body:
                own = set()
                if isinstance(part, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    own = {part.name}
                    if not part.name.startswith("__"):
                        defined.add((p.name, stmt.name, part.name))
                read |= names_read(part) - own
    assert ("ilp.py", "_CompSolver", "_select") in defined
    assert ("ilp.py", "IlpModel", "names") in defined
    assert sorted(d for d in defined if d[2] not in read) == []


def test_every_test_helper_is_read():
    # a top-level definition of a module under tests/ that holds no tests
    # (pytest reads conftest.py's fixtures by name), and each corpus that
    # corpora.CORPORA names, counts as read when a test module other than
    # this one reads it, or when a definition that counts as read does
    reads = {}
    for p in sorted(TESTS.glob("*.py")):
        if not p.name.startswith(("test_", "conftest")):
            for stmt in ast.parse(p.read_text(), str(p)).body:
                for name in names_defined(stmt):
                    reads[name] = names_read(stmt)
                    if name == "CORPORA":
                        reads[name] = set().union(*map(names_read, stmt.value.values))
                        reads.update(dict.fromkeys([key.value for key in stmt.value.keys], set()))
    assert {"_Milp", "cellrow_layout", "cellrow"} <= set(reads)
    todo = set()
    for p in sorted(TESTS.glob("test_*.py")):
        if p.name != Path(__file__).name:
            todo |= names_read(ast.parse(p.read_text(), str(p)))
    reached = set()
    while todo:
        name = todo.pop()
        if name in reads and name not in reached:
            reached.add(name)
            todo |= reads[name]
    assert sorted(set(reads) - reached) == []


def test_tests_reach_a_block_search_only_through_search():
    # a test that watches or spoils a search wraps ilp._search, so another
    # exact search changes _search's body and no test; strings do not
    # count, so the anchors of the checks above stay
    named = set()
    for p in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(p.read_text(), str(p))):
            for name in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)):
                named.add((p.name, name))
    assert ("test_ilp.py", "_search") in named
    assert sorted(f for f, name in named if name == "_CompSolver") == []


def test_every_file_parses_under_the_oldest_supported_python():
    # requires-python is >=3.10: syntax that 3.10 lacks, such as except*,
    # must not reach a tracked file
    files = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    assert len(files) >= 40
    for p in files:
        ast.parse(p.read_text(), str(p), feature_version=(3, 10))
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


def attributes_set_on_self(cls):
    """The attribute names that the methods of one class assign on self."""
    names = set()
    for sub in ast.walk(cls):
        if isinstance(sub, ast.Assign):
            targets = sub.targets
        elif isinstance(sub, (ast.AnnAssign, ast.AugAssign)):
            targets = [sub.target]
        else:
            continue
        for t in targets:
            for node in ast.walk(t):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ):
                    names.add(node.attr)
    return names


def declared_fields(cls):
    """The annotated class-body fields of one class, when it is a
    dataclass or a NamedTuple; none otherwise."""
    markers = {
        n.id if isinstance(n, ast.Name) else n.attr
        for expr in cls.decorator_list + cls.bases
        for n in ast.walk(expr)
        if isinstance(n, (ast.Name, ast.Attribute))
    }
    if not markers & {"dataclass", "NamedTuple"}:
        return set()
    return {
        stmt.target.id
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    }


def test_every_attribute_is_read():
    # an attribute that a class of the package sets on self, or a field
    # that a dataclass or NamedTuple of the package declares, counts as
    # read where any file loads it as an attribute, its own class included
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    files = modules + sorted(TESTS.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    defined = set()
    read = set()
    for p in files:
        tree = ast.parse(p.read_text(), str(p))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ClassDef) and p in modules:
                defined |= {(p.name, node.name, a) for a in attributes_set_on_self(node)}
                defined |= {(p.name, node.name, f) for f in declared_fields(node)}
    assert ("ilp.py", "_CompSolver", "cut_adj") in defined
    assert ("ilp.py", "IlpModel", "graph") in defined
    assert ("geometry.py", "Rect", "lo") in defined
    assert sorted(d for d in defined if d[2] not in read) == []


def id_orderings(path):
    """The lines of one file that order or index shapes by id: a sort
    whose key reads an .id attribute, or a dict comprehension keyed by
    <name>.id."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            keys = [kw.value for kw in node.keywords if kw.arg == "key"]
            if name in ("sorted", "sort") and any(
                isinstance(sub, ast.Attribute) and sub.attr == "id" for k in keys for sub in ast.walk(k)
            ):
                found.append(node.lineno)
        elif (
            isinstance(node, ast.DictComp)
            and isinstance(node.key, ast.Attribute)
            and isinstance(node.key.value, ast.Name)
            and node.key.attr == "id"
        ):
            found.append(node.lineno)
    return found


def test_only_the_document_orders_shapes_by_id():
    # LayoutDocument keeps its shapes in id order, and every later stage
    # names a shape by its rank there, so no other module sorts by id or
    # builds a table keyed by one
    files = sorted(SRC.glob("*.py"))
    assert id_orderings(SRC / "layout_io.py")  # the document's own sort is seen
    assert [(p.name, id_orderings(p)) for p in files if p.name != "layout_io.py" and id_orderings(p)] == []


def index_builders(path):
    """The functions of one file that construct a SpatialIndex: by name,
    or through cls in a method of the class itself."""
    tree = ast.parse(path.read_text(), str(path))
    methods = {
        id(fn)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name == "SpatialIndex"
        for fn in cls.body
    }
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        names = {"SpatialIndex", "cls"} if id(fn) in methods else {"SpatialIndex"}
        if any(
            isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) and sub.func.id in names
            for sub in ast.walk(fn)
        ):
            found.append(fn.name)
    return found


def test_only_two_functions_build_a_spatial_index():
    # each box set is swept once: the shapes' boxes in SpatialIndex.from_shapes
    # and the candidates' boxes in build_end_cut_graph; the touching cut
    # rectangles come from the end-cut graph's merge edges
    builders = sorted((p.name, name) for p in sorted(SRC.glob("*.py")) for name in index_builders(p))
    assert builders == [("geometry.py", "from_shapes"), ("graphs.py", "build_end_cut_graph")]
