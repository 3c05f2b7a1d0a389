"""Tiny integer expression language used by role bodies and acceptance tests.

Expressions are parsed with the stdlib ast module and restricted to
integer literals, object names, `+ - * // %`, unary minus, `not`,
comparisons (chains allowed) and `and`/`or`.  No calls, attributes,
subscripts or other literals.  The checked text is compiled on its first
`eval`, so parsing a scenario costs only the check and keeps no syntax
tree, and run by Python's evaluator without builtins; `and`/`or` yield a
bool, not the deciding operand.  Names resolve in the environment `eval`
is given.
"""

import ast

from .errors import ValidationError

_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.FloorDiv, ast.Mod)
_CMPOPS = (ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE)


class _BoolOpsYieldBool(ast.NodeTransformer):
    """Wraps each `and`/`or` in `not not (...)`."""

    def visit_BoolOp(self, node):
        self.generic_visit(node)
        return ast.UnaryOp(ast.Not(), ast.UnaryOp(ast.Not(), node))


class Expr:
    _code = None    # set by the first eval

    def __init__(self, text: str):
        self.text = text
        try:
            tree = ast.parse(text, mode="eval")
        except SyntaxError as e:
            raise ValidationError("bad expression %r: %s" % (text, e))
        self.names: tuple[str, ...] = tuple(sorted(self._collect(tree.body)))

    def _collect(self, node) -> set:
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, bool)):
                raise ValidationError("non-integer literal in %r" % self.text)
            return set()
        if isinstance(node, ast.Name):
            return {node.id}
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            return self._collect(node.left) | self._collect(node.right)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.Not)):
            return self._collect(node.operand)
        if isinstance(node, ast.Compare):
            out = self._collect(node.left)
            for op, cmp in zip(node.ops, node.comparators):
                if type(op) not in _CMPOPS:
                    raise ValidationError("operator not allowed in %r" % self.text)
                out |= self._collect(cmp)
            return out
        if isinstance(node, ast.BoolOp):
            out = set()
            for v in node.values:
                out |= self._collect(v)
            return out
        raise ValidationError("construct not allowed in expression %r" % self.text)

    def eval(self, env: dict):
        if self._code is None:
            source = self.text
            if "and" in source or "or" in source:  # else no BoolOp
                source = ast.fix_missing_locations(_BoolOpsYieldBool().visit(
                    ast.parse(source, mode="eval")))
            self._code = compile(source, "<expr>", "eval")
        return eval(self._code, {"__builtins__": {}}, env)

    def __repr__(self):
        return "Expr(%r)" % self.text
