"""Reference oracle for the compiled expression engine: a scalar tree walker.

It evaluates one point at a time with Python floats and small numpy arrays,
exactly as matdist evaluated model trees before they were compiled.  Tests
compare the compiled engine against it; nothing in the package uses it.
"""

import numpy as np

from matdist.dsl import SCALAR, BinOp, Call, IfExpr, Name, Neg, Num, Power, Transpose
from matdist.errors import EvaluationError


def walk(node, env):
    """Value of ``node`` with identifiers bound by ``env`` (floats and arrays)."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Name):
        return env[node.name]
    if isinstance(node, Neg):
        return -walk(node.arg, env)
    if isinstance(node, BinOp):
        a = walk(node.left, env)
        b = walk(node.right, env)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            if node.left.kind == SCALAR or node.right.kind == SCALAR:
                return a * b
            return a @ b
        # division; the divisor kind-checks as a scalar
        if float(b) == 0.0:
            raise EvaluationError(f"division by zero at line {node.pos[0]}, column {node.pos[1]}")
        return a / b
    if isinstance(node, Power):
        base = walk(node.base, env)
        if node.exponent < 0 and float(base) == 0.0:
            raise EvaluationError(
                f"zero raised to a negative power at line {node.pos[0]}, column {node.pos[1]}")
        return float(base) ** node.exponent
    if isinstance(node, Transpose):
        return walk(node.arg, env).T
    if isinstance(node, IfExpr):
        a = float(walk(node.lhs, env))
        b = float(walk(node.rhs, env))
        take = {"<=": a <= b, "<": a < b, ">=": a >= b, ">": a > b, "==": a == b}[node.relop]
        return walk(node.then if take else node.other, env)
    if isinstance(node, Call):
        return _call(node, [walk(a, env) for a in node.args])
    raise TypeError(f"unknown node {node!r}")


def _call(node, args):
    where = f"at line {node.pos[0]}, column {node.pos[1]}"
    name = node.func
    if name == "det":
        return float(np.linalg.det(args[0]))
    if name == "tr":
        return float(np.trace(args[0]))
    if name == "inv":
        try:
            return np.linalg.inv(args[0])
        except np.linalg.LinAlgError:
            raise EvaluationError(f"singular matrix in inv() {where}") from None
    if name == "exp":
        return float(np.exp(args[0]))
    if name == "log":
        if args[0] <= 0.0:
            raise EvaluationError(f"log of non-positive value {where}")
        return float(np.log(args[0]))
    if name == "sqrt":
        if args[0] < 0.0:
            raise EvaluationError(f"sqrt of negative value {where}")
        return float(np.sqrt(args[0]))
    if name == "abs":
        return abs(float(args[0]))
    if name == "norm2":
        return float(np.linalg.norm(args[0]))
    if name == "dot":
        return float(np.dot(args[0], args[1]))
    if name == "cross":
        return np.cross(args[0], args[1])
    if name == "outer":
        return np.outer(args[0], args[1])
    raise TypeError(f"unknown function {name!r}")


def walk_model(mdef, X, F):
    """Response of a parsed model at ``(X, F)``, flattened row-major."""
    X = np.asarray(X, dtype=float)
    env = {"X1": float(X[0]), "X2": float(X[1]), "X3": float(X[2]), "X": X,
           "F": np.asarray(F, dtype=float), "I": np.eye(3)}
    env.update((name, float(value)) for name, value in mdef.params)
    for name, node in mdef.lets:
        env[name] = walk(node, env)
    return np.atleast_1d(np.asarray(walk(mdef.response, env), dtype=float)).ravel()
