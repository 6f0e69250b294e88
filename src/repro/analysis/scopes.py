"""Per-module analysis context: parents, scopes, qualified names.

:class:`ModuleContext` wraps one parsed source file with the lookups
every rule needs:

* **parent links** — ``ast`` has none, so one pass records them and
  :meth:`ancestors` / :meth:`enclosing_function` walk the chain;
* **qualified-name resolution** — the import table (``import x.y``,
  ``from x import y as z``, relative imports resolved against the
  module's own dotted name) feeds :meth:`resolve`, which turns a
  ``Name``/``Attribute`` chain into a dotted path such as
  ``"time.sleep"`` regardless of how the module spelled it;
* **async scope** — :meth:`in_async_function` answers "does this node
  execute on the event loop?" by finding the nearest enclosing
  function definition;
* **set-typed locals** — :meth:`set_locals` infers which local names of
  a function definitely hold ``set``/``frozenset`` values (direct
  literals/constructors/annotations only, never guesses), the basis of
  the DET iteration rule.
"""

from __future__ import annotations

import ast


class ModuleContext:
    """Everything the rules may ask about one module."""

    def __init__(self, tree: ast.Module, module: str, path: str, source: str) -> None:
        self.tree = tree
        self.module = module
        self.path = path
        self.source = source
        self._parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent
        self._imports = _import_table(tree, module)
        self._set_locals_cache: dict[ast.AST, frozenset[str]] = {}

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def parent(self, node: ast.AST) -> ast.AST | None:
        return self._parents.get(node)

    def ancestors(self, node: ast.AST):
        """Parents from the immediate one up to the module node."""
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def enclosing_function(self, node: ast.AST) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        """The nearest function definition ``node`` executes inside
        (``None`` at module or class level)."""
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None

    def in_async_function(self, node: ast.AST) -> bool:
        """True when the code at ``node`` runs on the event loop: its
        nearest enclosing function is ``async def``.  A sync ``def``
        nested inside an ``async def`` is its own (thread-runnable)
        scope, so it does not count."""
        return isinstance(self.enclosing_function(node), ast.AsyncFunctionDef)

    def enclosing_statement(self, node: ast.AST) -> ast.stmt | None:
        """The statement containing ``node`` (itself, if a statement)."""
        current: ast.AST | None = node
        while current is not None and not isinstance(current, ast.stmt):
            current = self._parents.get(current)
        return current

    def next_statement(self, node: ast.AST) -> ast.stmt | None:
        """The statement following ``node``'s enclosing statement in the
        same block, if any (the RES pool rule's acquire-then-``try``
        idiom check)."""
        statement = self.enclosing_statement(node)
        if statement is None:
            return None
        parent = self._parents.get(statement)
        if parent is None:
            return None
        for field_name in ("body", "orelse", "finalbody", "handlers"):
            block = getattr(parent, field_name, None)
            if isinstance(block, list) and statement in block:
                index = block.index(statement)
                if index + 1 < len(block):
                    following = block[index + 1]
                    return following if isinstance(following, ast.stmt) else None
        return None

    # ------------------------------------------------------------------
    # Names
    # ------------------------------------------------------------------
    def resolve(self, node: ast.AST) -> str | None:
        """Dotted path of a ``Name``/``Attribute`` chain with the head
        mapped through the import table (``None`` when the chain starts
        at anything but a plain name — a call result, subscript, ...)."""
        parts: list[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        head = self._imports.get(current.id, current.id)
        parts.append(head)
        return ".".join(reversed(parts))

    def resolve_call(self, node: ast.Call) -> str | None:
        return self.resolve(node.func)

    def is_builtin_call(self, node: ast.Call, name: str) -> bool:
        """True for a call to the *builtin* ``name`` — a bare ``Name``
        that no import rebinds (local shadowing is not tracked; the
        rules using this accept that rare false positive)."""
        return (
            isinstance(node.func, ast.Name)
            and node.func.id == name
            and node.func.id not in self._imports
        )

    # ------------------------------------------------------------------
    # Set-typed locals (DET iteration support)
    # ------------------------------------------------------------------
    def set_locals(self, fn: ast.AST) -> frozenset[str]:
        """Local names of ``fn`` that definitely hold set values.

        Only direct evidence counts: assignment from a set display /
        comprehension / ``set()`` / ``frozenset()`` call (possibly
        through ``|&-^`` operators over such values), or an explicit
        ``set``/``frozenset`` annotation.  Names also assigned anything
        else are dropped — one non-set binding makes the inference
        unsafe."""
        cached = self._set_locals_cache.get(fn)
        if cached is not None:
            return cached
        set_named: set[str] = set()
        other_named: set[str] = set()

        def scan(node: ast.AST) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    continue  # nested scopes own their names
                if isinstance(child, ast.Assign):
                    names = [
                        target.id
                        for target in child.targets
                        if isinstance(target, ast.Name)
                    ]
                    bucket = (
                        set_named
                        if self.is_set_expression(child.value, fn, _resolving=True)
                        else other_named
                    )
                    bucket.update(names)
                elif isinstance(child, ast.AnnAssign) and isinstance(
                    child.target, ast.Name
                ):
                    annotation = child.annotation
                    base = annotation.value if isinstance(annotation, ast.Subscript) else annotation
                    dotted = self.resolve(base)
                    if dotted in ("set", "frozenset", "typing.Set", "typing.FrozenSet"):
                        set_named.add(child.target.id)
                    else:
                        other_named.add(child.target.id)
                scan(child)

        scan(fn)
        result = frozenset(set_named - other_named)
        self._set_locals_cache[fn] = result
        return result

    def is_set_expression(
        self, expr: ast.AST, scope: ast.AST | None, _resolving: bool = False
    ) -> bool:
        """Does ``expr`` definitely evaluate to a set?  Structural
        evidence only (see :meth:`set_locals`); ``scope`` supplies the
        local-name inference (``None`` skips it)."""
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call):
            return self.is_builtin_call(expr, "set") or self.is_builtin_call(
                expr, "frozenset"
            )
        if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self.is_set_expression(
                expr.left, scope, _resolving
            ) or self.is_set_expression(expr.right, scope, _resolving)
        if (
            not _resolving
            and scope is not None
            and isinstance(expr, ast.Name)
        ):
            return expr.id in self.set_locals(scope)
        return False


def _import_table(tree: ast.Module, module: str) -> dict[str, str]:
    """Local name -> dotted path, from the module's import statements."""
    table: dict[str, str] = {}
    package_parts = module.split(".")[:-1] if module else []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    table[alias.asname] = alias.name
                else:
                    # ``import x.y`` binds ``x`` — to the top package.
                    table[alias.name.split(".")[0]] = alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                # Relative import: climb ``level`` packages from here.
                anchor = package_parts[: len(package_parts) - (node.level - 1)]
                base = ".".join(anchor + ([base] if base else []))
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                table[bound] = f"{base}.{alias.name}" if base else alias.name
    return table
