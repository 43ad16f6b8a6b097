"""Tiny arithmetic expression grammar for config files.

Expressions are strings over the variables r, theta, t, x1, x2 with the
usual operators, a few math functions, and the constant pi.  Parsing
goes through the ast module with a strict node whitelist, so config
files cannot execute arbitrary code.  Numeric literals are evaluated as
floats, so no power can grow an unbounded integer, and an expression
that cannot be evaluated to a real number (division by zero, overflow)
raises DataError.
"""

import ast

import numpy as np

from .errors import ConfigurationError, DataError

_FUNCTIONS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "abs": np.abs,
    "atan2": np.arctan2, "min": np.minimum, "max": np.maximum,
}
_BINARY = ("atan2", "min", "max")
_CONSTANTS = {"pi": np.pi, "e": np.e}
_VARIABLES = ("r", "theta", "t", "x1", "x2")

_ALLOWED = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant, ast.Name, ast.Call,
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.Mod, ast.USub, ast.UAdd,
    ast.Load,
)


def compile_expression(text):
    """Compile an expression string to a callable of (t, points)."""
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ConfigurationError(f"bad expression {text!r}: {exc}") from exc
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED):
            raise ConfigurationError(
                f"expression {text!r} uses disallowed syntax {type(node).__name__}")
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
                raise ConfigurationError(
                    f"expression {text!r} calls an unknown function")
            if node.keywords:
                raise ConfigurationError("keyword arguments not allowed in expressions")
            nargs = 2 if node.func.id in _BINARY else 1
            if len(node.args) != nargs:
                raise ConfigurationError(
                    f"expression {text!r}: {node.func.id} takes {nargs} argument(s)")
        if isinstance(node, ast.Name):
            if node.id not in _FUNCTIONS and node.id not in _CONSTANTS \
                    and node.id not in _VARIABLES:
                raise ConfigurationError(
                    f"expression {text!r} references unknown name {node.id!r}")
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)):
                raise ConfigurationError(f"non-numeric constant in expression {text!r}")
            try:
                node.value = float(node.value)
            except OverflowError as exc:
                raise ConfigurationError(
                    f"constant out of range in expression {text!r}") from exc
    code = compile(tree, "<config expression>", "eval")

    def fn(t, points):
        points = np.atleast_2d(np.asarray(points, float))
        x1, x2 = points[:, 0], points[:, 1]
        env = {
            "t": np.asarray(t, float),
            "x1": x1, "x2": x2,
            "r": np.hypot(x1, x2),
            "theta": np.arctan2(x2, x1),
        }
        env.update(_FUNCTIONS)
        env.update(_CONSTANTS)
        # non-finite array values are caught where the data is used
        with np.errstate(all="ignore"):
            try:
                out = np.asarray(eval(code, {"__builtins__": {}}, env), float)
            except (ArithmeticError, TypeError) as exc:
                # TypeError: a complex power such as (-8.0)**(1/3)
                raise DataError(
                    f"expression {text!r} has no real value: {exc}") from exc
        return np.broadcast_to(out, x1.shape).copy()

    fn.expression = text
    return fn


def boundary_value(spec):
    """A config boundary value: number or expression string."""
    if isinstance(spec, (int, float)):
        return float(spec)
    if isinstance(spec, str):
        return compile_expression(spec)
    raise ConfigurationError(f"boundary value must be a number or string, got {spec!r}")


def force_field(spec):
    """A config force: null, or a pair of component expressions/numbers."""
    if spec is None:
        return None
    if not (isinstance(spec, (list, tuple)) and len(spec) == 2):
        raise ConfigurationError("force must be null or a pair [f1, f2]")
    comps = []
    for entry in spec:
        if isinstance(entry, (int, float)):
            comps.append(float(entry))
        else:
            comps.append(compile_expression(entry))
    if all(isinstance(c, float) for c in comps):
        if comps[0] == 0.0 and comps[1] == 0.0:
            return None
        const = np.array(comps)
        return lambda points: np.broadcast_to(const, (len(np.atleast_2d(points)), 2)).copy()

    def f(points):
        points = np.atleast_2d(np.asarray(points, float))
        out = np.empty((len(points), 2))
        for k, c in enumerate(comps):
            if isinstance(c, float):
                out[:, k] = c
            else:
                out[:, k] = c(np.zeros(len(points)), points)
        return out
    return f
