"""Type checks, the finite-result guard and CLI output each keep their one home.

A wrong-typed object argument raises DomainError through
``quadrature_core._check_type``, and a coherent state is the r = 0
``SqueezedState``, so no module needs a hand-written ``raise TypeError``, a
centre-state union or a (CoherentState, SqueezedState) tuple.  This scan
fails on any of them in ``src/sgclone``.  A numeric result beyond the float
range is rejected only by ``quadrature_core._finite``, so no other module words
that error.  Every CLI handler returns its output, so ``cli.main`` is the one
place that writes stdout.  The e^{+-2r} rescale of a variance is written once,
in ``quadrature_core._squeezed``, and ``cloner._matched_sigma2`` is the one
isotropy decision, so ``cloner.py`` holds no ``math.exp`` and no
``is_isotropic`` test, and the old ``_times_exp`` helper is gone everywhere.
Only ``fock_oracle`` imports numpy when it is imported; ``estimation_bounds``
and ``verify`` import numpy and ``fock_oracle`` inside the functions that
draw numbers or build arrays, so their bounds and argument checks load none.
Every value class derives from ``quadrature_core._Value``, so no module imports
``dataclasses``, in a function body or not, and no class is a ``@dataclass``.
``fock_oracle._check_truncation`` is the one verdict on what the cutoff or the
default grid loses: the two truncation limits are only its arguments, but
where the default grid counts its nodes to meet one, and it alone raises
``TruncationError``; the declared squeezing range ``MAX_SQUEEZING`` and its
clamp ``_center_variances`` are gone.  Every
Fock column comes from ``fock_oracle._fock_columns``: no function calls
``squeeze_fock_matrix``, the route the columns are tested against, and the
squeezed frame of an earlier build path, ``_squeezed_frame``, is gone.  The
cascade channel reads one real spectrum, of the p generator, and turns rho by
a quarter for x, so ``_GENERATORS`` has no "x" and the quarter-turn phase
table is written once.  It averages its shifts in closed form, so
``_shift_channel`` takes no grid: ``_projector_sum`` alone reads the
Gauss-Hermite rule, through one cached table of kept nodes, ``_kept_grid``,
which holds the one call of numpy's ``hermgauss`` in the package; the masks
``_kept_nodes`` and ``_kept_mask``, the second cache ``_hermgauss`` with its
size ``_GRID_CACHE``, and ``QuadratureGrid.axis_nodes`` are gone.
``_projector_sum`` is one block with no loop, which ``_fock_columns`` writes
row by row, so no ``concatenate`` stacks it, and the chunk size ``_CHUNK``
and the ``_cascaded_density`` helper are gone.
"""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sgclone"
FORBIDDEN = {
    "raise TypeError": r"raise\s+TypeError\b",
    "CenterState": r"\bCenterState\b",
    "(CoherentState, SqueezedState)":
        r"\(\s*(CoherentState\s*,\s*SqueezedState|SqueezedState\s*,\s*CoherentState)\s*,?\s*\)",
    "@dataclass": r"@\s*(dataclasses\s*\.\s*)?dataclass\b",
}


@pytest.mark.parametrize("label", FORBIDDEN)
def test_no_ad_hoc_type_guard(label):
    sources = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "quadrature_core.py" in sources
    hits = [
        f"{path.name}:{text.count(chr(10), 0, match.start()) + 1}"
        for path in sources
        for text in [path.read_text()]
        for match in re.finditer(FORBIDDEN[label], text)
    ]
    assert not hits, f"{label} in {', '.join(hits)}"


def test_only_quadrature_core_rejects_an_overflow():
    hits = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if re.search(r"overflows? the float range", path.read_text())
    ]
    assert hits == ["quadrature_core.py"]


def test_cli_writes_stdout_only_in_main():
    writers = [
        function.name
        for function in ast.walk(ast.parse((PACKAGE / "cli.py").read_text()))
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if (isinstance(node, ast.Attribute) and node.attr == "stdout")
        or (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"
            and not any(keyword.arg == "file" for keyword in node.keywords))
    ]
    assert writers == ["main"]


#: label -> (the one module scanned, or None for every module; pattern)
SQUEEZE_RULE = {
    "math.exp in cloner.py": ("cloner.py", r"\bmath\.exp\b"),
    "is_isotropic in cloner.py": ("cloner.py", r"\bis_isotropic\b"),
    "_times_exp": (None, r"\b_times_exp\b"),
}


@pytest.mark.parametrize("label", SQUEEZE_RULE)
def test_one_squeezed_frame_rule(label):
    name, pattern = SQUEEZE_RULE[label]
    sources = [PACKAGE / name] if name else sorted(PACKAGE.glob("*.py"))
    assert sources and all(path.is_file() for path in sources)
    hits = [path.name for path in sources if re.search(pattern, path.read_text())]
    assert not hits, f"{label} in {', '.join(hits)}"


def _imported_on_import(path: Path) -> set[str]:
    """First components of the modules that ``path``'s own import statements load.

    A function body runs only when called, and a ``TYPE_CHECKING`` block never.
    """
    names, todo = set(), list(ast.parse(path.read_text()).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            todo += node.orelse
            continue
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module] if node.module else [alias.name for alias in node.names]
            names |= {module.split(".")[0] for module in modules}
        todo += ast.iter_child_nodes(node)
    return names


def test_only_fock_oracle_imports_numpy_on_import():
    imported = {path.name: _imported_on_import(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert [name for name, modules in imported.items() if "numpy" in modules] == ["fock_oracle.py"]
    assert "fock_oracle" not in imported["estimation_bounds.py"] | imported["verify.py"]


def test_no_module_imports_dataclasses():
    hits = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for module in ([node.module or ""] if isinstance(node, ast.ImportFrom)
                       else [alias.name for alias in node.names])
        if module.split(".")[0] == "dataclasses"
    ]
    assert hits == []


#: The limits that a loss to the cutoff is judged against.
TRUNCATION_LIMITS = {"DEFAULT_EPS_TRUNC", "_SQUEEZE_TAIL_TOL"}


def test_fock_oracle_has_one_truncation_verdict():
    tree = ast.parse((PACKAGE / "fock_oracle.py").read_text())
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}

    def owner(node):
        """The function that holds ``node`` (None at module level), and the innermost ``if`` test."""
        test = None
        while node in parent and not isinstance(node, ast.FunctionDef):
            node = parent[node]
            test = test or (ast.unparse(node.test) if isinstance(node, ast.If) else None)
        return getattr(node, "name", None), test

    def judged(name):
        call = parent[name]
        return isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_check_truncation"

    uses = [node for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id in TRUNCATION_LIMITS
            and isinstance(node.ctx, ast.Load)]
    assert {node.id for node in uses} == TRUNCATION_LIMITS
    # The one use outside a verdict: the default grid counts its nodes to meet the limit.
    assert [(owner(node)[0], ast.unparse(parent[node])) for node in uses if not judged(node)] \
        == [("_default_grid", "(_GRID_EPS, DEFAULT_EPS_TRUNC)")]
    raises = [owner(node) for node in ast.walk(tree)
              if isinstance(node, ast.Raise) and "TruncationError" in ast.unparse(node.exc)]
    assert raises == [("_check_truncation", "not value <= limit")]


def _calls(tree: ast.AST, name: str) -> list[ast.Call]:
    """The calls in ``tree`` of a function or method named ``name``."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and name in (getattr(node.func, attr, None) for attr in ("id", "attr"))]


def test_one_route_builds_the_fock_columns():
    sources = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "fock_oracle.py" in sources
    calls = [f"{path.name}:{node.lineno}" for path in sources
             for node in _calls(ast.parse(path.read_text()), "squeeze_fock_matrix")]
    assert calls == []
    assert [path.name for path in sources if "_squeezed_frame" in path.read_text()] == []


def _oracle_definition(name: str):
    """The module-level statement of ``fock_oracle.py`` that defines ``name``."""
    tree = ast.parse((PACKAGE / "fock_oracle.py").read_text())
    return next(node for node in tree.body if getattr(node, "name", None) == name or any(
        getattr(target, "id", None) == name for target in getattr(node, "targets", ())))


def test_cascade_shifts_read_one_spectrum():
    keys = _oracle_definition("_GENERATORS").value.keys
    assert [key.value for key in keys] == ["p", "squeeze"]


def test_quarter_turn_table_is_written_once():
    table = r"\[\s*1\s*,\s*-?1j\s*,\s*-1\s*,\s*-?1j\s*\]"
    hits = [path.name for path in sorted(PACKAGE.glob("*.py"))
            for _ in re.finditer(table, path.read_text())]
    assert hits == ["fock_oracle.py"]


def test_kept_grid_alone_reads_the_rule():
    calls = [path.name for path in sorted(PACKAGE.glob("*.py"))
             for _ in _calls(ast.parse(path.read_text()), "hermgauss")]
    assert calls == ["fock_oracle.py"]
    assert len(_calls(_oracle_definition("_kept_grid"), "hermgauss")) == 1


def test_projector_sum_is_one_block():
    loops = [ast.unparse(node) for node in ast.walk(_oracle_definition("_projector_sum"))
             if isinstance(node, (ast.For, ast.While, ast.comprehension))]
    assert loops == []


@pytest.mark.parametrize("name", [
    "_CHUNK", "_cascaded_density", "MAX_SQUEEZING", "_center_variances", "_kept_nodes", "_kept_mask",
    "_hermgauss", "_GRID_CACHE", "axis_nodes",
])
def test_removed_oracle_names_are_gone(name):
    assert [path.name for path in sorted(PACKAGE.glob("*.py"))
            if re.search(rf"\b{name}\b", path.read_text())] == []


def test_shift_channel_takes_no_grid():
    channel = _oracle_definition("_shift_channel")
    assert [arg.arg for arg in channel.args.args] == ["rho", "axis", "variance"]
    code = ast.unparse(ast.Module(body=channel.body[1:], type_ignores=[]))  # past the docstring
    assert re.findall(r"grid|axis_nodes|hermgauss", code) == []


def test_projector_sum_stacks_no_block():
    calls = [ast.unparse(node) for node in ast.walk(_oracle_definition("_projector_sum"))
             if isinstance(node, ast.Call) and "concatenate" in ast.unparse(node.func)]
    assert calls == []
