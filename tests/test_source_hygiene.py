"""Static guards on the package source: no unused import, no
module-level function or class that only the tests reach, sympy
imported by the bivariate factorization alone, true division only where
it cannot make a float, the point at infinity read only at named sites,
every specrig name the benchmark's tracer reads, a reduction route that
imports no other route, and no line of src/ or tests/ longer than
MAX_LINE."""

import ast
import importlib
from pathlib import Path


TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "specrig"
TRACING = TESTS.parent / "perfbench" / "tracing.py"
MODULES = {p.stem: ast.parse(p.read_text(), str(p))
           for p in sorted(SRC.glob("*.py"))}

# kept in src/ as references for the tests; perfbench/tracing.py resolves
# them by name
TEST_REFERENCES = {("qpoly", "resultant"),
                   ("puiseux", "discriminant_valuation")}


def _bound_names(node):
    """Names an import statement binds."""
    return [(alias.asname or alias.name).split(".")[0]
            for alias in node.names]


def _loaded_names(tree, skip=None):
    """Every bare name read in tree, outside the subtree skip."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        stack.extend(ast.iter_child_nodes(node))
    return out


def test_no_unused_import():
    unused = []
    for module, tree in sorted(MODULES.items()):
        used = _loaded_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and \
                    node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{module}: {name}"
                           for name in _bound_names(node) if name not in used]
    assert not unused, f"unused imports: {unused}"


def _references_elsewhere(module, name, definition):
    """True when name is read in src/ outside its own definition: by
    name in its module, or imported from it (or read as an attribute of
    it) in another module."""
    if name in _loaded_names(MODULES[module], skip=definition):
        return True
    for other, tree in MODULES.items():
        if other == module:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and \
                    (node.module or "").split(".")[-1] == module and \
                    any(a.name == name for a in node.names):
                return True
            if isinstance(node, ast.Attribute) and node.attr == name and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id == module:
                return True
    return False


DEFINITIONS = [(module, node.name, node)
               for module, tree in sorted(MODULES.items())
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def test_every_definition_has_a_caller_in_src():
    assert TEST_REFERENCES <= {(m, n) for m, n, _ in DEFINITIONS}
    unreferenced = [f"{module}.{name}" for module, name, node in DEFINITIONS
                    if (module, name) not in TEST_REFERENCES
                    and not _references_elsewhere(module, name, node)]
    assert not unreferenced, \
        f"no reference in src/ outside their own bodies: {unreferenced}"


# the one (module, function) site allowed to import sympy: the bivariate
# factorization of the spectral curve, the last certificate of
# irreducibility_status.  A module-level import would be a site too.
SYMPY_SITES = {("rigidity", "_bipoly_to_sympy")}


def _sites(module, tree, hit):
    """(module, dotted enclosing definition) of every node for which hit
    is true; "" at module level."""
    out = set()
    stack = [(tree, "")]
    while stack:
        node, scope = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if hit(node):
            out.add((module, scope))
        stack.extend((child, scope) for child in ast.iter_child_nodes(node))
    return out


def _imports_sympy(node):
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        names = [node.module or ""]
    else:
        return False
    return any(name.split(".")[0] == "sympy" for name in names)


def test_sympy_is_imported_only_when_a_factorization_needs_it():
    found = set().union(*(_sites(module, tree, _imports_sympy)
                          for module, tree in MODULES.items()))
    assert found == SYMPY_SITES


# the (module, function) sites allowed to use "/": series.qdiv, the one
# division of the rational layer, where two ints give an int or a
# Fraction; the RatFn division and the parser's use of it; and divisions
# of explicit Fractions or tower elements.  Anywhere else, two ints would
# divide to a float.
DIVISION_SITES = {("series", "qdiv"),
                  ("ratfn", "RatFn.__rtruediv__"),
                  ("parsing", "_ExprParser._term"),
                  ("qpoly", "_factor_quadratic"),
                  ("puiseux", "_diff_nonzero")}


def _divides(node):
    return isinstance(node, (ast.BinOp, ast.AugAssign)) and \
        isinstance(node.op, ast.Div)


def test_true_division_only_at_named_sites():
    found = set().union(*(_sites(module, tree, _divides)
                          for module, tree in MODULES.items()))
    assert found == DIVISION_SITES


# the (module, definition) sites allowed to read INFINITY or the literal
# "inf": the local chart, which owns z = 1/t and its Jacobian; the
# valuation and the plain expansion at a point; the parser and the
# report's pole names; and the declared-set checks of validate_poles.
# A site covers every definition nested in it.
INFINITY_SITES = {("ratfn", "Chart"),
                  ("ratfn", "RatFn.valuation"),
                  ("ratfn", "expand_at"),
                  ("parsing", "parse_pole"),
                  ("pipeline", "_pole_str"),
                  ("matrf", "validate_poles")}


def _infinity_sites(module, tree):
    """(module, dotted enclosing definition) of every read of INFINITY
    or of the constant "inf"; the definition of INFINITY itself is not
    a read."""
    out = set()
    stack = [(node, "") for node in tree.body
             if not (isinstance(node, ast.Assign)
                     and [getattr(t, "id", None) for t in node.targets]
                     == ["INFINITY"])]
    while stack:
        node, scope = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Name) and node.id == "INFINITY" and \
                isinstance(node.ctx, ast.Load) or \
                isinstance(node, ast.Constant) and node.value == "inf":
            out.add((module, scope))
        stack.extend((child, scope) for child in ast.iter_child_nodes(node))
    return out


def _covers(site, found):
    (module, scope), (found_module, found_scope) = site, found
    return module == found_module and (found_scope == scope or
                                       found_scope.startswith(scope + "."))


def test_infinity_read_only_at_named_sites():
    found = set().union(*(_infinity_sites(module, tree)
                          for module, tree in MODULES.items()))
    stray = [f for f in found
             if not any(_covers(site, f) for site in INFINITY_SITES)]
    assert not stray, f"INFINITY or 'inf' read outside the chart: {stray}"
    unused = [site for site in INFINITY_SITES
              if not any(_covers(site, f) for f in found)]
    assert not unused, f"named sites that read no INFINITY: {unused}"


def _traced_names():
    """(module, qualified name) of every specrig name perfbench/tracing.py
    reads: the entries of its TARGETS list, taken from the source with
    ast (the benchmark is neither imported nor changed), and the names
    it imports from specrig modules."""
    tree = ast.parse(TRACING.read_text(), str(TRACING))
    targets = next(node.value for node in tree.body
                   if isinstance(node, ast.Assign)
                   and any(isinstance(t, ast.Name) and t.id == "TARGETS"
                           for t in node.targets))
    names = [(module, qual) for module, qual, _ in
             ast.literal_eval(targets)]
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and \
                (node.module or "").startswith("specrig."):
            names += [(node.module.split(".", 1)[1], alias.name)
                      for alias in node.names]
    return names


def test_traced_names_resolve():
    names = _traced_names()
    assert {("germs", "germ_equation"), ("matrf", "default_truncation"),
            ("matrf", "pole_order")} <= set(names)
    missing = []
    for module, qual in names:
        obj = importlib.import_module(f"specrig.{module}")
        for part in qual.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(f"{module}.{qual}")
    assert not missing, f"traced names missing from specrig: {missing}"


def _specrig_imports(tree):
    """The specrig modules a module imports, by relative or absolute
    name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level or module.startswith("specrig"):
                last = module.split(".")[-1]
                out |= ({last} if last and last != "specrig"
                        else {alias.name for alias in node.names})
        elif isinstance(node, ast.Import):
            out |= {alias.name.split(".")[1] for alias in node.names
                    if alias.name.startswith("specrig.")}
    return out & set(MODULES)


def test_reduction_route_reads_the_matrix_only():
    """The splitting route, and every module it reaches by import, never
    imports the Puiseux route, the local module or the germ oracle: its
    cells must come from the matrix alone to check theirs."""
    reached, todo = set(), ["splitting"]
    while todo:
        module = todo.pop()
        if module not in reached:
            reached.add(module)
            todo += _specrig_imports(MODULES[module])
    assert "tower" in reached
    assert not reached & {"puiseux", "localmod", "germs"}, sorted(reached)


MAX_LINE = 79  # PEP 8


def test_lines_fit_max_line():
    long_lines = [f"{path.relative_to(TESTS.parent)}:{number}"
                  for path in sorted(SRC.glob("*.py")) +
                  sorted(TESTS.glob("*.py"))
                  for number, line in enumerate(
                      path.read_text().splitlines(), 1)
                  if len(line) > MAX_LINE]
    assert not long_lines, f"lines over {MAX_LINE} characters: {long_lines}"
