"""Factoring trees: the output structure of the decomposition engine.

BDS stores decomposition results in *factoring trees* whose bottom-up
construction enables on-line logic sharing (paper Section IV.C).  Here
the trees are interned in a :class:`TreeBuilder`: structurally identical
subtrees receive the same id, so sharing detection is automatic both
inside one supernode and across supernodes of the same network (all
leaves are global net names).

Node operators mirror the paper's Table I gate classes — AND, OR, XOR,
XNOR and MAJ — plus free inverters (NOT), literals and constants.  MUX
decompositions (the engine's last resort) are expanded into AND/OR/NOT
on construction, matching how BDS accounts nodes.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

#: Operators that Table I counts as network nodes.
COUNTED_OPS = ("and", "or", "xor", "xnor", "maj")

#: All operators a tree node may carry.
ALL_OPS = (*COUNTED_OPS, "not", "lit", "const0", "const1")


class TreeBuilder:
    """Interning builder for factoring trees.

    Node ids are small ints; id 0 is constant FALSE and id 1 constant
    TRUE.  Children tuples of commutative operators are sorted so that
    commuted constructions share structure.
    """

    CONST0 = 0
    CONST1 = 1

    def __init__(self) -> None:
        self._ops: list[str] = ["const0", "const1"]
        self._children: list[tuple[int, ...]] = [(), ()]
        self._payload: list[str | None] = [None, None]
        self._intern: dict[tuple, int] = {}

    # ------------------------------------------------------------------
    # Node constructors
    # ------------------------------------------------------------------
    def _node(self, op: str, children: tuple[int, ...], payload: str | None = None) -> int:
        key = (op, children, payload)
        node_id = self._intern.get(key)
        if node_id is None:
            node_id = len(self._ops)
            self._ops.append(op)
            self._children.append(children)
            self._payload.append(payload)
            self._intern[key] = node_id
        return node_id

    def const(self, value: bool) -> int:
        return self.CONST1 if value else self.CONST0

    def literal(self, name: str) -> int:
        return self._node("lit", (), name)

    def not_(self, child: int) -> int:
        if child == self.CONST0:
            return self.CONST1
        if child == self.CONST1:
            return self.CONST0
        if self._ops[child] == "not":
            return self._children[child][0]
        return self._node("not", (child,))

    def and_(self, left: int, right: int) -> int:
        if left == self.CONST0 or right == self.CONST0:
            return self.CONST0
        if left == self.CONST1:
            return right
        if right == self.CONST1:
            return left
        if left == right:
            return left
        if left > right:
            left, right = right, left
        return self._node("and", (left, right))

    def or_(self, left: int, right: int) -> int:
        if left == self.CONST1 or right == self.CONST1:
            return self.CONST1
        if left == self.CONST0:
            return right
        if right == self.CONST0:
            return left
        if left == right:
            return left
        if left > right:
            left, right = right, left
        return self._node("or", (left, right))

    def xor(self, left: int, right: int) -> int:
        if left == right:
            return self.CONST0
        if left == self.CONST0:
            return right
        if right == self.CONST0:
            return left
        if left == self.CONST1:
            return self.not_(right)
        if right == self.CONST1:
            return self.not_(left)
        # Absorb input inverters: a ^ b' == a XNOR b (matches how BDS
        # emits XNOR gates from complemented x-dominator edges).
        if self._ops[left] == "not":
            return self.xnor(self._children[left][0], right)
        if self._ops[right] == "not":
            return self.xnor(left, self._children[right][0])
        if left > right:
            left, right = right, left
        return self._node("xor", (left, right))

    def xnor(self, left: int, right: int) -> int:
        if left == right:
            return self.CONST1
        if left == self.CONST0:
            return self.not_(right)
        if right == self.CONST0:
            return self.not_(left)
        if left == self.CONST1:
            return right
        if right == self.CONST1:
            return left
        if self._ops[left] == "not":
            return self.xor(self._children[left][0], right)
        if self._ops[right] == "not":
            return self.xor(left, self._children[right][0])
        if left > right:
            left, right = right, left
        return self._node("xnor", (left, right))

    def maj(self, a: int, b: int, c: int) -> int:
        children = sorted((a, b, c))
        a, b, c = children
        if a == b:
            return a
        if b == c:
            return b
        if a == self.CONST0:
            return self.and_(b, c)
        if a == self.CONST1:
            return self.or_(b, c)
        # After sorting, constants can only sit in the first slot.
        return self._node("maj", (a, b, c))

    def mux(self, select: int, when_true: int, when_false: int) -> int:
        """Expanded immediately: ``s·t + s'·e`` (BDS counts MUX this way
        when the target library has no MUX primitive)."""
        return self.or_(
            self.and_(select, when_true),
            self.and_(self.not_(select), when_false),
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def op(self, node_id: int) -> str:
        return self._ops[node_id]

    def children(self, node_id: int) -> tuple[int, ...]:
        return self._children[node_id]

    def payload(self, node_id: int) -> str | None:
        return self._payload[node_id]

    def literal_name(self, node_id: int) -> str:
        if self._ops[node_id] != "lit":
            raise ValueError(f"node {node_id} is not a literal")
        name = self._payload[node_id]
        assert name is not None
        return name

    def __len__(self) -> int:
        return len(self._ops)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def reachable(self, roots: Iterable[int]) -> list[int]:
        """Node ids reachable from ``roots`` (each once, parents first)."""
        seen: set[int] = set()
        order: list[int] = []
        stack = list(roots)
        while stack:
            node_id = stack.pop()
            if node_id in seen:
                continue
            seen.add(node_id)
            order.append(node_id)
            stack.extend(self._children[node_id])
        return order

    def count_ops(self, roots: Iterable[int]) -> dict[str, int]:
        """Table-I style node counts (shared nodes counted once).

        Only the five counted operators appear in the result; inverters,
        literals and constants are free in the BDS accounting.
        """
        counts = {op: 0 for op in COUNTED_OPS}
        for node_id in self.reachable(roots):
            op = self._ops[node_id]
            if op in counts:
                counts[op] += 1
        return counts

    def total_nodes(self, roots: Iterable[int]) -> int:
        return sum(self.count_ops(roots).values())

    def depth(self, node_id: int) -> int:
        """Longest literal-to-root path counting counted ops and NOT as 1."""
        cache: dict[int, int] = {}

        def walk(current: int) -> int:
            cached = cache.get(current)
            if cached is not None:
                return cached
            children = self._children[current]
            if not children:
                result = 0
            else:
                result = 1 + max(walk(child) for child in children)
            cache[current] = result
            return result

        return walk(node_id)

    def support(self, node_id: int) -> set[str]:
        """Literal names reachable from ``node_id``."""
        return {
            self._payload[n]  # type: ignore[misc]
            for n in self.reachable([node_id])
            if self._ops[n] == "lit"
        }

    def eval(self, node_id: int, assignment: Mapping[str, object]) -> bool:
        """Evaluate the tree under ``assignment`` (literal name -> bool)."""
        cache: dict[int, bool] = {}

        def walk(current: int) -> bool:
            cached = cache.get(current)
            if cached is not None:
                return cached
            op = self._ops[current]
            children = self._children[current]
            if op == "const0":
                value = False
            elif op == "const1":
                value = True
            elif op == "lit":
                value = bool(assignment[self._payload[current]])
            elif op == "not":
                value = not walk(children[0])
            elif op == "and":
                value = walk(children[0]) and walk(children[1])
            elif op == "or":
                value = walk(children[0]) or walk(children[1])
            elif op == "xor":
                value = walk(children[0]) != walk(children[1])
            elif op == "xnor":
                value = walk(children[0]) == walk(children[1])
            elif op == "maj":
                total = sum(walk(child) for child in children)
                value = total >= 2
            else:  # pragma: no cover - exhaustive over ALL_OPS
                raise ValueError(f"unknown op {op!r}")
            cache[current] = value
            return value

        return walk(node_id)

    def to_expression(self, node_id: int) -> str:
        """Human-readable infix rendering (examples / debugging)."""
        op = self._ops[node_id]
        children = self._children[node_id]
        if op == "const0":
            return "0"
        if op == "const1":
            return "1"
        if op == "lit":
            return str(self._payload[node_id])
        if op == "not":
            return f"~{self.to_expression(children[0])}"
        if op == "maj":
            parts = ", ".join(self.to_expression(child) for child in children)
            return f"MAJ({parts})"
        symbol = {"and": "&", "or": "|", "xor": "^", "xnor": "=="}[op]
        rendered = f" {symbol} ".join(self.to_expression(child) for child in children)
        return f"({rendered})"


class TreeTape:
    """A :class:`TreeBuilder` stand-in that records calls for replay.

    A :class:`~repro.core.DecompositionEngine` built on a tape takes its
    decisions as usual, but each constructor call is only appended to
    :attr:`calls` and answered with the call's tape index (0 and 1 are
    the constants).  Literals are recorded by their position in
    ``inputs``.  :meth:`replay` makes the same calls in the same order
    on a real builder, under any input names, so node ids and sharing
    come out exactly as if the engine had built there.
    """

    CONST0 = 0
    CONST1 = 1

    def __init__(self, inputs: Sequence[str]) -> None:
        self._position = {name: i for i, name in enumerate(inputs)}
        #: ``(method name, arguments)`` per call; arguments are tape
        #: indices, except a literal's input position.
        self.calls: list[tuple[str, tuple[int, ...]]] = []

    def _record(self, method: str, *args: int) -> int:
        self.calls.append((method, args))
        return len(self.calls) + 1

    def literal(self, name: str) -> int:
        return self._record("literal", self._position[name])

    def not_(self, child: int) -> int:
        return self._record("not_", child)

    def and_(self, left: int, right: int) -> int:
        return self._record("and_", left, right)

    def or_(self, left: int, right: int) -> int:
        return self._record("or_", left, right)

    def xor(self, left: int, right: int) -> int:
        return self._record("xor", left, right)

    def maj(self, a: int, b: int, c: int) -> int:
        return self._record("maj", a, b, c)

    def mux(self, select: int, when_true: int, when_false: int) -> int:
        return self._record("mux", select, when_true, when_false)

    def replay(self, builder: TreeBuilder, inputs: Sequence[str], root: int) -> int:
        """Make the recorded calls on ``builder`` with input position i
        named ``inputs[i]``; return the id of tape index ``root``."""
        ids = [builder.CONST0, builder.CONST1]
        for method, args in self.calls:
            if method == "literal":
                ids.append(builder.literal(inputs[args[0]]))
            else:
                ids.append(getattr(builder, method)(*[ids[arg] for arg in args]))
        return ids[root]


def tree_from_bdd(
    builder: TreeBuilder, mgr, edge: int, name_of_level: Callable[[int], str] | None = None
) -> int:
    """Literal translation of a BDD to a MUX-expanded factoring tree.

    Used as a *reference* (e.g. to sanity-check engine output); the
    decomposition engine produces far better trees.
    """
    if name_of_level is None:
        name_of_level = mgr.name_of
    cache: dict[int, int] = {}

    def walk(e: int) -> int:
        complement = e & 1
        index = e >> 1
        if index == 0:
            result = builder.CONST1
        else:
            result = cache.get(index, -1)
            if result < 0:
                level, high, low = mgr.node_fields(index)
                select = builder.literal(name_of_level(level))
                result = builder.mux(select, walk(high), walk(low))
                cache[index] = result
        return builder.not_(result) if complement else result

    return walk(edge)
