"""The public surface of `sjm` is what the package calls or the README documents.

A public function, method or dataclass field that nothing in `src/sjm` uses
and the README does not name is dead weight or a test oracle; oracles live in
`tests/oracles.py`.  Every check reads the source with `ast` only.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).parents[1]
# Every module of the package but `__init__`, which only re-exports.
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted((ROOT / "src" / "sjm").glob("*.py")) if path.stem != "__init__"}


def _names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _imported(tree: ast.Module) -> dict[str, str]:
    """Bound name -> what it names, for every module-level import."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update({(a.asname or a.name).split(".")[0]: a.name for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            prefix = "." * node.level + (node.module or "")
            bound.update({a.asname or a.name: f"{prefix}.{a.name}" for a in node.names})
    return bound


def _used(module: str, name: str) -> bool:
    """Whether a module-level def is loaded in its own module (a def is no
    Name node), or in another that imports it from there: so np.linalg.norm
    is no use of linalg.norm."""
    source = f".{module}.{name}"
    return any(name in _names(tree) and (other == module or _imported(tree).get(name) == source)
               for other, tree in MODULES.items())


def _documented() -> set[str]:
    """Every identifier in the README's code spans and code blocks."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return set(re.findall(r"[A-Za-z_]\w*",
                          " ".join(re.findall(r"```.*?```|`[^`\n]+`", readme, re.S))))


def test_every_public_function_and_method_is_used_in_src_or_named_in_the_readme():
    documented = _documented()
    attrs = {node.attr for tree in MODULES.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    unused = []
    for module, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                if not _used(module, node.name):
                    unused.append(f"{module}.{node.name}")
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                # A method is only ever reached as an attribute.
                unused += [f"{module}.{node.name}.{item.name}" for item in node.body
                           if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                           and item.name not in attrs]
    unused = [name for name in unused if name.rsplit(".", 1)[1] not in documented]
    assert not unused, "used nowhere in src/sjm, not named in README.md: " + ", ".join(unused)


def test_no_module_imports_a_name_it_never_uses():
    unused = [f"{module}.{bound}" for module, tree in MODULES.items()
              for bound in _imported(tree) if bound not in _names(tree)]
    assert not unused, "imported and never used: " + ", ".join(unused)


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def test_every_public_dataclass_field_is_read_in_src_or_named_in_the_readme():
    read = {node.attr for tree in MODULES.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{module}.{node.name}.{item.target.id}"
              for module, tree in MODULES.items() for node in tree.body
              if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
              and _is_dataclass(node)
              for item in node.body
              if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
              and item.target.id not in read]
    unread = [name for name in unread if name.rsplit(".", 1)[1] not in _documented()]
    assert not unread, "read nowhere in src/sjm, not named in README.md: " + ", ".join(unread)


# The functions that still take a matrix product through BLAS, by `@`.
BLAS_MATRIX_PRODUCTS = {"linalg.gram_matrix", "linalg.completeness_residual",
                        "multiqubit._pair_overlaps"}


def _blas_products() -> list[tuple[str, str]]:
    """(owner, product) for every `@` and every np.vdot, np.dot, np.matmul,
    np.tensordot and np.cross call in the package; the owner is the
    module-level function that holds it, else the module itself."""
    found = []
    for module, tree in MODULES.items():
        for top in tree.body:
            owner = f"{module}.{top.name}" if isinstance(top, ast.FunctionDef) else module
            for node in ast.walk(top):
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                    found.append((owner, "@"))
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
                      and node.func.attr in ("vdot", "dot", "matmul", "tensordot", "cross")):
                    found.append((owner, f"np.{node.func.attr}"))
    return found


def test_no_module_calls_a_blas_vector_product():
    # BLAS's kernel choice moves the last bits of a product from one CPU to
    # another, and its first call sizes per-thread buffers that a tight
    # memory cap cannot hold; np.cross has no user left.  An inner product is
    # `linalg.inner`'s elementwise sum, and a product of small matrices an
    # einsum.  Only the functions of BLAS_MATRIX_PRODUCTS may still use `@`.
    calls = [f"{owner}: {product}" for owner, product in _blas_products()
             if not (product == "@" and owner in BLAS_MATRIX_PRODUCTS)]
    assert not calls, "BLAS products: " + ", ".join(calls)


def test_the_blas_allow_list_names_only_functions_that_still_use_blas():
    assert {owner for owner, _ in _blas_products()} == BLAS_MATRIX_PRODUCTS
