"""Expression language for user-defined constitutive responses.

A model source is UTF-8 text with ``#`` comments and three statement forms::

    param <name> = <number>
    let <name> = <expression>
    response = <expression>

Expressions know three kinds: ``scalar``, ``vector`` (length 3) and
``matrix`` (3 x 3).  The built-in identifiers are ``X1 X2 X3`` (scalars),
``X`` (vector), ``F`` (matrix) and ``I`` (matrix).  Kinds are checked
statically at parse time; evaluation failures such as division by zero are
reported as evaluation errors, never parse errors.  ``if(cond, a, b)`` is
lazy in the unselected branch.

Trees compile once (:class:`Program`) into numpy code over batches of
``(X, F)`` lanes, with exact forward-mode derivatives on request.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import EvaluationError, ModelParseError

__all__ = [
    "ModelDef",
    "parse_source",
    "parse_expression",
    "pretty_source",
    "pretty_expr",
    "evaluate_model_def",
    "MAX_SOURCE_BYTES",
    "MAX_DEPTH",
    "Program",
    "compile_model",
    "SCALAR",
    "VECTOR",
    "MATRIX",
]

MAX_SOURCE_BYTES = 64 * 1024
MAX_DEPTH = 100  # nesting of the source and depth of each tree; bounds every recursion

SCALAR = "scalar"
VECTOR = "vector3"
MATRIX = "matrix3"

_BASE_KINDS = {"X1": SCALAR, "X2": SCALAR, "X3": SCALAR, "X": VECTOR, "F": MATRIX, "I": MATRIX}

_RELOPS = ("<=", ">=", "==", "<", ">")

# function name -> list of (argument kinds, result kind)
_FUNCTIONS = {
    "det": [((MATRIX,), SCALAR)],
    "tr": [((MATRIX,), SCALAR)],
    "inv": [((MATRIX,), MATRIX)],
    "exp": [((SCALAR,), SCALAR)],
    "log": [((SCALAR,), SCALAR)],
    "sqrt": [((SCALAR,), SCALAR)],
    "abs": [((SCALAR,), SCALAR)],
    "norm2": [((VECTOR,), SCALAR)],
    "dot": [((VECTOR, VECTOR), SCALAR)],
    "cross": [((VECTOR, VECTOR), VECTOR)],
    "outer": [((VECTOR, VECTOR), MATRIX)],
}


# ---------------------------------------------------------------------------
# tokens


@dataclass(frozen=True)
class _Token:
    type: str  # num, ident, op, end
    text: str
    line: int
    col: int


_OPS = ("<=", ">=", "==", "+", "-", "*", "/", "^", "(", ")", ",", "'", "<", ">", "=")


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "\n":
            tokens.append(_Token("newline", "\n", line, col))
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            word = text[i:j]
            try:
                value = float(word)
            except ValueError:
                raise ModelParseError(f"bad number literal {word!r}", line, col) from None
            if not np.isfinite(value):
                raise ModelParseError(f"number literal {word!r} is out of range", line, col)
            tokens.append(_Token("num", word, line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for op in _OPS:
            if text.startswith(op, i):
                tokens.append(_Token("op", op, line, col))
                i += len(op)
                col += len(op)
                break
        else:
            raise ModelParseError(f"unexpected character {c!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: float
    kind: str = SCALAR
    pos: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Name:
    name: str
    kind: str
    pos: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Neg:
    arg: object
    kind: str
    pos: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object
    kind: str
    pos: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Power:
    base: object
    exponent: int
    kind: str
    pos: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Transpose:
    arg: object
    kind: str
    pos: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple
    kind: str
    pos: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class IfExpr:
    relop: str
    lhs: object
    rhs: object
    then: object
    other: object
    kind: str
    pos: tuple = field(default=(0, 0), compare=False)


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, tokens, env_kinds):
        self.tokens = tokens
        self.i = 0
        self.env = env_kinds
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text):
        tok = self.next()
        if tok.text != text:
            raise ModelParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.line, tok.col)
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise ModelParseError(message, tok.line, tok.col)

    def nest(self):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.error(f"expression nests deeper than {MAX_DEPTH} levels")

    # expr := term (("+"|"-") term)*
    def expr(self):
        self.nest()
        node = self.term()
        while self.peek().text in ("+", "-") and self.peek().type == "op":
            tok = self.next()
            rhs = self.term()
            if node.kind != rhs.kind:
                self.error(f"cannot apply {tok.text!r} to {node.kind} and {rhs.kind}", tok)
            node = BinOp(tok.text, node, rhs, node.kind, pos=(tok.line, tok.col))
        self.depth -= 1
        return node

    # term := factor (("*"|"/") factor)*
    def term(self):
        node = self.factor()
        while self.peek().text in ("*", "/") and self.peek().type == "op":
            tok = self.next()
            rhs = self.factor()
            node = self._combine(tok, node, rhs)
        return node

    def _combine(self, tok, lhs, rhs):
        if tok.text == "/":
            if rhs.kind != SCALAR:
                self.error(f"division by a {rhs.kind} is not defined", tok)
            return BinOp("/", lhs, rhs, lhs.kind, pos=(tok.line, tok.col))
        # "*": scalar scaling of anything, matrix*matrix, matrix*vector
        if lhs.kind == SCALAR:
            return BinOp("*", lhs, rhs, rhs.kind, pos=(tok.line, tok.col))
        if rhs.kind == SCALAR:
            return BinOp("*", lhs, rhs, lhs.kind, pos=(tok.line, tok.col))
        if lhs.kind == MATRIX and rhs.kind == MATRIX:
            return BinOp("*", lhs, rhs, MATRIX, pos=(tok.line, tok.col))
        if lhs.kind == MATRIX and rhs.kind == VECTOR:
            return BinOp("*", lhs, rhs, VECTOR, pos=(tok.line, tok.col))
        self.error(f"cannot multiply {lhs.kind} by {rhs.kind}", tok)

    # factor := unary ("^" integer)?
    def factor(self):
        node = self.unary()
        if self.peek().text == "^" and self.peek().type == "op":
            tok = self.next()
            sign = 1
            if self.peek().text == "-":
                self.next()
                sign = -1
            num = self.next()
            if num.type != "num" or not float(num.text).is_integer():
                self.error("exponent must be an integer", num)
            if node.kind != SCALAR:
                self.error(f"cannot raise a {node.kind} to a power", tok)
            node = Power(node, sign * int(float(num.text)), SCALAR, pos=(tok.line, tok.col))
        return node

    # unary := "-" unary | atom
    def unary(self):
        if self.peek().text == "-" and self.peek().type == "op":
            tok = self.next()
            self.nest()
            arg = self.unary()
            self.depth -= 1
            return Neg(arg, arg.kind, pos=(tok.line, tok.col))
        return self.postfix()

    def postfix(self):
        node = self.atom()
        while self.peek().text == "'" and self.peek().type == "op":
            tok = self.next()
            if node.kind != MATRIX:
                self.error(f"transpose applies to a matrix, not a {node.kind}", tok)
            node = Transpose(node, MATRIX, pos=(tok.line, tok.col))
        return node

    # atom := number | ident | call | "(" expr ")"
    def atom(self):
        tok = self.peek()
        if tok.text == "(":
            self.next()
            node = self.expr()
            self.expect(")")
            return node
        if tok.type == "num":
            self.next()
            return Num(float(tok.text), pos=(tok.line, tok.col))
        if tok.type == "ident":
            self.next()
            if self.peek().text == "(":
                return self.call(tok)
            kind = self.env.get(tok.text)
            if kind is None:
                self.error(f"unknown identifier {tok.text!r}", tok)
            return Name(tok.text, kind, pos=(tok.line, tok.col))
        self.error(f"unexpected {tok.text or 'end of input'!r}", tok)

    def call(self, name_tok):
        name = name_tok.text
        self.expect("(")
        if name == "if":
            lhs = self.expr()
            op_tok = self.next()
            if op_tok.text not in _RELOPS:
                self.error("expected a comparison operator in if(...)", op_tok)
            rhs = self.expr()
            if lhs.kind != SCALAR or rhs.kind != SCALAR:
                self.error("comparison sides must be scalars", op_tok)
            self.expect(",")
            then = self.expr()
            self.expect(",")
            other = self.expr()
            self.expect(")")
            if then.kind != other.kind:
                self.error(
                    f"if(...) branches must agree in kind ({then.kind} vs {other.kind})",
                    name_tok,
                )
            return IfExpr(op_tok.text, lhs, rhs, then, other, then.kind, pos=(name_tok.line, name_tok.col))
        sigs = _FUNCTIONS.get(name)
        if sigs is None:
            self.error(f"unknown function {name!r}", name_tok)
        args = [self.expr()]
        while self.peek().text == ",":
            self.next()
            args.append(self.expr())
        self.expect(")")
        got = tuple(a.kind for a in args)
        for want, result in sigs:
            if want == got:
                return Call(name, tuple(args), result, pos=(name_tok.line, name_tok.col))
        self.error(f"{name}() does not accept argument kinds {got}", name_tok)


def parse_expression(text):
    """Parse a single expression; returns the kind-annotated tree."""
    tokens = [t for t in _tokenize(text) if t.type != "newline"]
    parser = _Parser(tokens, _BASE_KINDS)
    node = parser.expr()
    tail = parser.peek()
    if tail.type != "end":
        parser.error(f"unexpected trailing input {tail.text!r}", tail)
    return _check_depth(node)


# ---------------------------------------------------------------------------
# file-level parsing


@dataclass(frozen=True)
class ModelDef:
    """Parsed model source: parameters, let-bindings and the response tree."""

    params: tuple  # of (name, float)
    lets: tuple  # of (name, node)
    response: object
    kind: str

    @property
    def dim(self):
        return {SCALAR: 1, VECTOR: 3, MATRIX: 9}[self.kind]


def parse_source(text):
    """Parse full model-source text into a :class:`ModelDef`."""
    if len(text.encode("utf-8")) > MAX_SOURCE_BYTES:
        raise ModelParseError(f"model source exceeds {MAX_SOURCE_BYTES} bytes")
    tokens = _tokenize(text)
    # split into statements on newlines
    lines, current = [], []
    for tok in tokens:
        if tok.type in ("newline", "end"):
            if current:
                lines.append(current)
            current = []
        else:
            current.append(tok)

    env = dict(_BASE_KINDS)
    params = []
    lets = []
    response = None
    for line in lines:
        head = line[0]
        if head.type != "ident":
            raise ModelParseError(f"statement must start with param/let/response, found {head.text!r}",
                                  head.line, head.col)
        if head.text == "param":
            if len(line) < 4 or line[1].type != "ident" or line[2].text != "=":
                raise ModelParseError("expected: param <name> = <number>", head.line, head.col)
            name = line[1].text
            _check_fresh_name(name, env, line[1])
            rest = line[3:]
            sign = 1.0
            if rest and rest[0].text == "-":
                sign = -1.0
                rest = rest[1:]
            if len(rest) != 1 or rest[0].type != "num":
                raise ModelParseError("param value must be a number", head.line, head.col)
            params.append((name, sign * float(rest[0].text)))
            env[name] = SCALAR
        elif head.text == "let":
            if len(line) < 4 or line[1].type != "ident" or line[2].text != "=":
                raise ModelParseError("expected: let <name> = <expression>", head.line, head.col)
            name = line[1].text
            _check_fresh_name(name, env, line[1])
            node = _parse_statement_expr(line[3:], env)
            lets.append((name, node))
            env[name] = node.kind
        elif head.text == "response":
            if len(line) < 3 or line[1].text != "=":
                raise ModelParseError("expected: response = <expression>", head.line, head.col)
            if response is not None:
                raise ModelParseError("more than one response statement", head.line, head.col)
            response = _parse_statement_expr(line[2:], env)
        else:
            raise ModelParseError(f"unknown statement {head.text!r}", head.line, head.col)
    if response is None:
        raise ModelParseError("model source has no response statement")
    return ModelDef(tuple(params), tuple(lets), response, response.kind)


def _check_fresh_name(name, env, tok):
    if name in _BASE_KINDS or name in _FUNCTIONS or name == "if":
        raise ModelParseError(f"{name!r} is reserved", tok.line, tok.col)
    if name in env:
        raise ModelParseError(f"{name!r} is already defined", tok.line, tok.col)


def _parse_statement_expr(tokens, env):
    parser = _Parser(list(tokens) + [_Token("end", "", 0, 0)], env)
    node = parser.expr()
    tail = parser.peek()
    if tail.type != "end":
        parser.error(f"unexpected trailing input {tail.text!r}", tail)
    return _check_depth(node)


def _check_depth(node):
    """Reject trees deeper than ``MAX_DEPTH`` (long operator chains nest too)."""
    stack = [(node, 1)]
    while stack:
        item, depth = stack.pop()
        if depth > MAX_DEPTH:
            raise ModelParseError(f"expression nests deeper than {MAX_DEPTH} levels", *item.pos)
        stack.extend((child, depth + 1) for child in _children(item))
    return node


# ---------------------------------------------------------------------------
# compiled evaluation
#
# A tree compiles once into nested closures over lane-batched arrays.  Each
# closure maps a frame to a pair ``(v, d)``.  ``v`` is the value: a leading
# lane axis and then the kind's shape (scalar ``(n,)``, vector ``(n, 3)``,
# matrix ``(n, 3, 3)``), or only the kind's shape for a value that is the
# same on every lane (literals, parameters, ``I``).  ``d`` is the
# forward-mode tangent with respect to the seeded inputs, shape
# ``(m,) + v.shape``, or None where it vanishes.  Every numpy call treats
# lanes independently, so a lane's value does not depend on the batch it
# runs in.  ``if`` evaluates each branch on its selected lanes only, so
# evaluation errors and floating-point warnings come from selected lanes.

_SHAPES = {SCALAR: (), VECTOR: (3,), MATRIX: (3, 3)}
_EYE = np.eye(3)
_EYE.flags.writeable = False
_COMPARE = {"<=": np.less_equal, "<": np.less, ">=": np.greater_equal, ">": np.greater,
            "==": np.equal}


class _Frame:
    """Named values ``(v, d)`` over ``n`` lanes with ``m`` tangent directions."""

    __slots__ = ("env", "n", "m")

    def __init__(self, env, n, m):
        self.env = env
        self.n = n
        self.m = m

    def subset(self, lanes, names):
        """Frame over the given lanes, holding only ``names`` (name, kind pairs)."""
        env = {}
        for name, kind in names:
            v, d = self.env[name]
            if np.ndim(v) > len(_SHAPES[kind]):
                v = v[lanes]
                d = None if d is None else d[:, lanes]
            env[name] = (v, d)
        return _Frame(env, len(lanes), self.m)


def _children(node):
    if isinstance(node, (Neg, Transpose)):
        return (node.arg,)
    if isinstance(node, BinOp):
        return (node.left, node.right)
    if isinstance(node, Power):
        return (node.base,)
    if isinstance(node, Call):
        return node.args
    if isinstance(node, IfExpr):
        return (node.lhs, node.rhs, node.then, node.other)
    return ()


def _names(node):
    """``(name, kind)`` of every identifier the tree reads."""
    out, stack = set(), [node]
    while stack:
        item = stack.pop()
        if isinstance(item, Name):
            out.add((item.name, item.kind))
        stack.extend(_children(item))
    return frozenset(out)


def _where(node):
    return f"at line {node.pos[0]}, column {node.pos[1]}"


def _lift(s, kind):
    """Scalar lanes (or tangents) shaped to broadcast against a value of ``kind``."""
    return s[(Ellipsis,) + (None,) * len(_SHAPES[kind])]


def _plus(a, b):
    if a is None:
        return b
    return a if b is None else a + b


def _mul(a, b):
    return None if a is None or b is None else a * b


def _dot(a, b):
    # matmul of a row by a column is one BLAS dot per lane, as np.dot on vectors
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _mv(A, x):
    return np.matmul(A, x[..., None])[..., 0]


def _bilinear(f, a, b):
    """Value and tangent of a product ``f`` that is linear in each argument."""
    (va, da), (vb, db) = a, b
    d = _plus(None if da is None else f(da, vb), None if db is None else f(va, db))
    return f(va, vb), d


def _compile(node):
    """Closure ``frame -> (value, tangent)`` for a kind-checked tree."""
    if isinstance(node, Num):
        value = np.float64(node.value)
        return lambda frame: (value, None)
    if isinstance(node, Name):
        name = node.name
        return lambda frame: frame.env[name]
    if isinstance(node, Neg):
        arg = _compile(node.arg)

        def neg(frame):
            v, d = arg(frame)
            return -v, (None if d is None else -d)
        return neg
    if isinstance(node, Transpose):
        arg = _compile(node.arg)

        def transpose(frame):
            v, d = arg(frame)
            return v.swapaxes(-1, -2), (None if d is None else d.swapaxes(-1, -2))
        return transpose
    if isinstance(node, BinOp):
        return _compile_binop(node)
    if isinstance(node, Power):
        return _compile_power(node)
    if isinstance(node, IfExpr):
        return _compile_if(node)
    if isinstance(node, Call):
        return _compile_call(node)
    raise TypeError(f"unknown node {node!r}")


def _compile_binop(node):
    left, right = _compile(node.left), _compile(node.right)
    lk, rk = node.left.kind, node.right.kind
    if node.op in "+-":
        plus = node.op == "+"

        def addsub(frame):
            (a, da), (b, db) = left(frame), right(frame)
            if not plus:
                b, db = -b, (None if db is None else -db)
            return a + b, _plus(da, db)
        return addsub
    if node.op == "/":
        message = f"division by zero {_where(node)}"

        def divide(frame):
            (a, da), (b, db) = left(frame), right(frame)
            if np.any(b == 0.0):
                raise EvaluationError(message)
            bl = _lift(b, lk)
            v = a / bl
            d = None if da is None else da / bl
            if db is not None:
                d = _plus(d, -(v * _lift(db, lk)) / bl)
            return v, d
        return divide
    # "*": scaling when either side is a scalar, else a matrix product
    if SCALAR in (lk, rk):
        def scale(x, y):
            return _lift(x, rk) * _lift(y, lk)
    else:
        scale = np.matmul if rk == MATRIX else _mv

    def product(frame):
        return _bilinear(scale, left(frame), right(frame))
    return product


def _compile_power(node):
    base = _compile(node.base)
    e = node.exponent
    message = f"zero raised to a negative power {_where(node)}"

    def power(frame):
        b, db = base(frame)
        if e < 0 and np.any(b == 0.0):
            raise EvaluationError(message)
        v = np.power(b, float(e))
        if db is None or e == 0:
            return v, None
        return v, (e * np.power(b, float(e - 1))) * db
    return power


def _compile_if(node):
    lhs, rhs = _compile(node.lhs), _compile(node.rhs)
    then, other = _compile(node.then), _compile(node.other)
    then_names, other_names = _names(node.then), _names(node.other)
    test = _COMPARE[node.relop]
    shape = _SHAPES[node.kind]

    def branch(frame):
        take = test(lhs(frame)[0], rhs(frame)[0])
        hits = np.count_nonzero(take)
        if hits == take.size:
            return then(frame)
        if hits == 0:
            return other(frame)
        lanes_t, lanes_o = np.flatnonzero(take), np.flatnonzero(~take)
        vt, dt = then(frame.subset(lanes_t, then_names))
        vo, do = other(frame.subset(lanes_o, other_names))
        v = np.empty((frame.n,) + shape, dtype=np.result_type(vt, vo))
        v[lanes_t] = vt
        v[lanes_o] = vo
        if dt is None and do is None:
            return v, None
        d = np.zeros((frame.m,) + v.shape, dtype=v.dtype)
        if dt is not None:
            d[:, lanes_t] = dt
        if do is not None:
            d[:, lanes_o] = do
        return v, d
    return branch


def _cofactor(A):
    r0, r1, r2 = A[..., 0, :], A[..., 1, :], A[..., 2, :]
    return np.stack([np.cross(r1, r2), np.cross(r2, r0), np.cross(r0, r1)], axis=-2)


def _call_det(node, A):
    a, da = A
    d = None if da is None else (_cofactor(a) * da).sum(axis=(-2, -1))
    return np.linalg.det(a), d


def _call_tr(node, A):
    a, da = A

    def tr(x):
        return x[..., 0, 0] + x[..., 1, 1] + x[..., 2, 2]
    return tr(a), (None if da is None else tr(da))


def _call_inv(node, A):
    a, da = A
    try:
        v = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        raise EvaluationError(f"singular matrix in inv() {_where(node)}") from None
    return v, (None if da is None else -(v @ da @ v))


def _call_exp(node, A):
    a, da = A
    v = np.exp(a)
    return v, _mul(da, v)


def _call_log(node, A):
    a, da = A
    if np.any(np.real(a) <= 0.0):
        raise EvaluationError(f"log of non-positive value {_where(node)}")
    return np.log(a), (None if da is None else da / a)


def _call_sqrt(node, A):
    a, da = A
    if np.any(np.real(a) < 0.0):
        raise EvaluationError(f"sqrt of negative value {_where(node)}")
    v = np.sqrt(a)
    return v, (None if da is None else da / (2.0 * v))


def _call_abs(node, A):
    # the tangent at 0 is the symmetric one, 0, as a central difference gives
    a, da = A
    return np.abs(a), _mul(da, np.sign(a))


def _call_norm2(node, A):
    # like abs, the tangent at the zero vector is taken as 0
    a, da = A
    v = np.sqrt(_dot(a, a))
    if da is None:
        return v, None
    slope = _dot(da, a)
    return v, np.divide(slope, v, out=np.zeros_like(slope), where=v != 0.0)


def _call_dot(node, A, B):
    return _bilinear(_dot, A, B)


def _call_cross(node, A, B):
    return _bilinear(np.cross, A, B)


def _call_outer(node, A, B):
    return _bilinear(lambda x, y: x[..., :, None] * y[..., None, :], A, B)


_CALLS = {
    "det": _call_det, "tr": _call_tr, "inv": _call_inv, "exp": _call_exp, "log": _call_log,
    "sqrt": _call_sqrt, "abs": _call_abs, "norm2": _call_norm2, "dot": _call_dot,
    "cross": _call_cross, "outer": _call_outer,
}


def _compile_call(node):
    args = [_compile(a) for a in node.args]
    impl = _CALLS[node.func]

    def call(frame):
        return impl(node, *[arg(frame) for arg in args])
    return call


def _lanes(a, ndim):
    a = np.asarray(a)
    if a.dtype.kind != "c":
        a = a.astype(float, copy=False)
    if a.shape[1:] != (3,) * ndim or a.ndim != ndim + 1:
        raise ValueError(f"expected lanes of shape (n{', 3' * ndim}), got {a.shape}")
    return a if a.flags.c_contiguous else np.ascontiguousarray(a)


def _inputs(Xs, Fs, m, reads):
    """Base identifiers in ``reads`` over lanes, with tangents when ``m``: along ``X1..X3``,
    then along ``F -> F (I + t E_ab)`` for ``ab`` row-major."""
    n = len(Xs)
    env = {"I": (_EYE, None)}
    dX = None
    if m and reads & {"X", "X1", "X2", "X3"}:
        dX = np.zeros((m, n, 3))
        for i in range(3):
            dX[i, :, i] = 1.0
    if "X" in reads:
        env["X"] = (Xs, dX)
    for i in range(3):
        name = f"X{i + 1}"
        if name in reads:
            env[name] = (Xs[:, i].copy(), None if dX is None else dX[:, :, i].copy())
    if Fs is None:
        env["F"] = (_EYE, None)
    elif "F" in reads:
        dF = None
        if m:
            # the tangent along E_ab is F E_ab, whose column b is column a of F
            dF = np.zeros((4, 3, n, 3, 3), dtype=Fs.dtype)
            for b in range(3):
                dF[1:, b, :, :, b] = Fs.transpose(2, 0, 1)
            dF = dF.reshape(m, n, 3, 3)
        env["F"] = (Fs, dF)
    return env


_LANE_CHUNK = 128  # lanes per forward-mode pass; results are the same bits in any chunks


class Program:
    """Trees compiled once and evaluated together over lanes of ``(X, F)``.

    ``outputs`` are kind-checked trees whose values are flattened row-major
    and concatenated per lane; ``lets`` are ``(name, tree)`` bindings
    evaluated first, in order, on every lane; ``params`` maps parameter
    names to values.  Without gradients ``F`` reads as the identity.
    """

    def __init__(self, outputs, lets=(), params=None):
        self._consts = {name: (np.float64(value), None) for name, value in (params or {}).items()}
        self._lets = [(name, _compile(node)) for name, node in lets]
        self._outputs = [(_compile(node), int(np.prod(_SHAPES[node.kind], dtype=int)))
                         for node in outputs]
        trees = [node for _, node in lets] + list(outputs)
        self._reads = {name for tree in trees for name, _ in _names(tree)}
        self.width = sum(size for _, size in self._outputs)

    def evaluate(self, Xs, Fs=None):
        """Values ``(n, width)`` at body points ``Xs (n,3)`` and gradients ``Fs (n,3,3)``."""
        return self._run(Xs, Fs, tangents=False)[0]

    def derivatives(self, Xs, Fs=None):
        """Values ``(n, width)`` and exact derivatives ``(n, width, m)``.

        The derivative axis runs over ``X1 X2 X3`` and, when gradients are
        given, then along ``F -> F (I + t E_ab)`` for ``ab`` row-major
        (``m`` = 3 or 12): the material-frame block of a model.
        Lanes run in chunks, which large tangent arrays make faster per lane.
        """
        return self._run(Xs, Fs, tangents=True)

    def _run(self, Xs, Fs, tangents):
        Xs = _lanes(Xs, 1)
        Fs = None if Fs is None else _lanes(Fs, 2)
        n = len(Xs)
        if tangents and n > _LANE_CHUNK:
            parts = [self._run(Xs[i:i + _LANE_CHUNK], None if Fs is None else Fs[i:i + _LANE_CHUNK],
                               True) for i in range(0, n, _LANE_CHUNK)]
            return tuple(map(np.concatenate, zip(*parts)))
        m = (3 if Fs is None else 12) if tangents else 0
        env = dict(self._consts)
        env.update(_inputs(Xs, Fs, m, self._reads))
        frame = _Frame(env, n, m)
        for name, fn in self._lets:
            env[name] = fn(frame)
        # values are complex only for complex inputs; slice assignment
        # spreads lane-independent values over every lane
        dtype = Xs.dtype if Fs is None else np.result_type(Xs, Fs)
        W = np.empty((n, self.width), dtype=dtype)
        D = np.zeros((m, n, self.width), dtype=dtype) if tangents else None
        start = 0
        for fn, size in self._outputs:
            v, d = fn(frame)
            W[:, start:start + size] = v.reshape(-1, size)
            if tangents and d is not None:
                D[:, :, start:start + size] = d.reshape(m, n, size)
            start += size
        return W, (None if D is None else D.transpose(1, 2, 0).copy())


def compile_model(mdef, param_values=None):
    """Compile a parsed model; ``param_values`` overrides declared parameters."""
    params = dict(mdef.params)
    for name, value in (param_values or {}).items():
        if name not in params:
            raise EvaluationError(f"model has no parameter {name!r}")
        params[name] = float(value)
    return Program([mdef.response], mdef.lets, params)


def evaluate_model_def(mdef, X, F, param_values=None):
    """Evaluate a parsed model at body point ``X`` and gradient ``F``.

    The one-lane call of the compiled engine; returns the response
    flattened row-major to a vector of length ``mdef.dim``.
    """
    X = np.asarray(X, dtype=float)
    F = np.asarray(F, dtype=float)
    return compile_model(mdef, param_values).evaluate(X[None], F[None])[0]


# ---------------------------------------------------------------------------
# pretty printing

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_POSTFIX = 5
_PREC_ATOM = 6


def _prec(node):
    if isinstance(node, BinOp):
        return _PREC_ADD if node.op in "+-" else _PREC_MUL
    if isinstance(node, Neg):
        return _PREC_NEG
    if isinstance(node, Power):
        return _PREC_POW
    if isinstance(node, Transpose):
        return _PREC_POSTFIX
    return _PREC_ATOM


def _wrap(text, need):
    return f"({text})" if need else text


def pretty_expr(node):
    """Canonical text for an expression tree; reparsing reproduces the tree."""
    if isinstance(node, Num):
        return _fmt_number(node.value)
    if isinstance(node, Name):
        return node.name
    if isinstance(node, Neg):
        # a negation argument must reparse as a complete unary: another
        # negation or a postfix/atom, never a power or a binary op
        inner = pretty_expr(node.arg)
        need = not (_prec(node.arg) == _PREC_NEG or _prec(node.arg) >= _PREC_POSTFIX)
        return "-" + _wrap(inner, need)
    if isinstance(node, BinOp):
        p = _prec(node)
        left = _wrap(pretty_expr(node.left), _prec(node.left) < p)
        right = _wrap(pretty_expr(node.right), _prec(node.right) <= p)
        return f"{left} {node.op} {right}"
    if isinstance(node, Power):
        need = not (_prec(node.base) == _PREC_NEG or _prec(node.base) >= _PREC_POSTFIX)
        base = _wrap(pretty_expr(node.base), need)
        return f"{base}^{node.exponent}"
    if isinstance(node, Transpose):
        arg = _wrap(pretty_expr(node.arg), _prec(node.arg) < _PREC_POSTFIX)
        return arg + "'"
    if isinstance(node, IfExpr):
        return (
            f"if({pretty_expr(node.lhs)} {node.relop} {pretty_expr(node.rhs)}, "
            f"{pretty_expr(node.then)}, {pretty_expr(node.other)})"
        )
    if isinstance(node, Call):
        return f"{node.func}({', '.join(pretty_expr(a) for a in node.args)})"
    raise TypeError(f"unknown node {node!r}")


def _fmt_number(value):
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def pretty_source(mdef):
    """Canonical source text for a parsed model."""
    lines = []
    for name, value in mdef.params:
        lines.append(f"param {name} = {_fmt_number(value)}")
    for name, node in mdef.lets:
        lines.append(f"let {name} = {pretty_expr(node)}")
    lines.append(f"response = {pretty_expr(mdef.response)}")
    return "\n".join(lines) + "\n"
