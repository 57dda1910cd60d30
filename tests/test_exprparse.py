"""Constraint expression grammar."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chi2dual.cli import EXIT_ERROR, main
from chi2dual.exprparse import MAX_DEPTH, MAX_NODES, ExprError, compile_expression


def evaluate(text, rows, d=None):
    arr = np.asarray(rows, dtype=float)
    return compile_expression(text, d or arr.shape[1])(arr)


class TestGrammar:
    def test_coordinates_and_literals(self):
        rows = [[1.0, 10.0], [2.0, 20.0]]
        assert list(evaluate("x1", rows)) == [1.0, 2.0]
        assert list(evaluate("x2", rows)) == [10.0, 20.0]
        assert list(evaluate("3.5", rows)) == [3.5, 3.5]
        assert list(evaluate("2e-1", rows)) == [0.2, 0.2]

    def test_precedence(self):
        rows = [[2.0]]
        assert evaluate("1+2*3", rows)[0] == 7.0
        assert evaluate("(1+2)*3", rows)[0] == 9.0
        assert evaluate("8/2/2", rows)[0] == 2.0
        assert evaluate("2^3", rows)[0] == 8.0
        assert evaluate("-x1^2", rows)[0] == -4.0  # power binds tighter than minus

    def test_power_right_associative(self):
        assert evaluate("2^3^2", [[0.0]])[0] == 512.0

    def test_functions(self):
        rows = [[4.0]]
        assert evaluate("pow(x1,0.5)", rows)[0] == 2.0
        assert evaluate("exp(0)", rows)[0] == 1.0
        assert evaluate("log(exp(1))", rows)[0] == pytest.approx(1.0)
        assert evaluate("le(x1, 4)", rows)[0] == 1.0
        assert evaluate("le(x1, 3.999)", rows)[0] == 0.0

    def test_indicator_vectorized(self):
        rows = [[0.1], [0.5], [0.9]]
        assert list(evaluate("le(x1, 0.5)", rows)) == [1.0, 1.0, 0.0]

    def test_whitespace_tolerated(self):
        assert evaluate("  x1   +  1 ", [[2.0]])[0] == 3.0

    def test_unary_minus_in_exponent(self):
        assert evaluate("2^-x1", [[1.0]])[0] == 0.5
        assert evaluate("2^-x1^2", [[2.0]])[0] == 2.0**-4  # 2^(-(x1^2))


# the direct numpy evaluation each tree node stands for
OPERATORS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}
PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}
FUNCTIONS = {"pow": np.power, "exp": np.exp, "log": np.log,
             "le": lambda a, b: (a <= b).astype(float)}
ORACLE_X = np.random.default_rng(3).normal(scale=2.0, size=(9, 3))
ORACLE_X[0] = 0.0


def _extend(children):
    binary = st.tuples(st.sampled_from(sorted(OPERATORS)), children, children)
    return st.one_of(
        binary.map(lambda t: ("op", *t)),
        binary.map(lambda t: ("op", *t)),
        children.map(lambda a: ("neg", a)),
        st.tuples(st.sampled_from(["exp", "log"]), children).map(lambda t: ("call", *t)),
        st.tuples(st.sampled_from(["pow", "le"]), children, children)
        .map(lambda t: ("call", *t)),
    )


TREES = st.recursive(
    st.one_of(
        st.integers(1, ORACLE_X.shape[1]).map(lambda j: ("var", j)),
        st.sampled_from([0.0, 0.5, 2.0, 3.0, 1e-3]).map(lambda v: ("num", v)),
        st.floats(0.0, 1e3).map(lambda v: ("num", abs(v))),  # abs: no -0.0
    ),
    _extend,
    max_leaves=12,
)


def render(tree):
    """The tree as text with only the parentheses the grammar needs, and
    how tightly its top binds: 4 for an operand, an operator's precedence,
    or 2.5 for unary minus, which binds tighter than * but not than ^."""
    kind = tree[0]
    if kind == "num":
        return repr(tree[1]), 4
    if kind == "var":
        return f"x{tree[1]}", 4
    if kind == "call":
        return f"{tree[1]}({', '.join(render(arg)[0] for arg in tree[2:])})", 4
    if kind == "neg":
        return "-" + _operand(tree[1], 3), 2.5
    op, lhs, rhs = tree[1:]
    prec = PRECEDENCE[op]
    left, left_prec = render(lhs)
    if left_prec < prec or (left_prec == prec and op == "^"):
        left = f"({left})"
    return left + op + _operand(rhs, prec if op == "^" else prec + 1), prec


def _operand(tree, least):
    # where the parser reads an operand of precedence >= least, which a
    # unary minus always is
    text, prec = render(tree)
    return text if prec >= least or tree[0] == "neg" else f"({text})"


def oracle(tree, x):
    kind = tree[0]
    if kind == "num":
        return np.full(x.shape[0], tree[1])
    if kind == "var":
        return x[:, tree[1] - 1]
    if kind == "neg":
        return np.negative(oracle(tree[1], x))
    fn = OPERATORS[tree[1]] if kind == "op" else FUNCTIONS[tree[1]]
    return fn(*(oracle(arg, x) for arg in tree[2:]))


class TestOracle:
    @given(TREES)
    @settings(max_examples=300, deadline=None)
    def test_matches_direct_evaluation(self, tree):
        text, _ = render(tree)
        with np.errstate(all="ignore"):
            value = compile_expression(text, ORACLE_X.shape[1])(ORACLE_X)
            expected = oracle(tree, ORACLE_X)
        assert value.dtype == expected.dtype and value.shape == expected.shape
        assert value.tobytes() == expected.tobytes(), text

    def test_render_keeps_needed_parentheses(self):
        x1, x2, x3 = (("var", j) for j in (1, 2, 3))
        assert render(("op", "^", ("neg", x1), x2))[0] == "(-x1)^x2"
        assert render(("op", "^", ("op", "^", x1, x2), x3))[0] == "(x1^x2)^x3"
        assert render(("op", "-", x1, ("op", "-", x2, x3)))[0] == "x1-(x2-x3)"
        assert render(("op", "-", x1, ("neg", x2)))[0] == "x1--x2"
        assert render(("neg", ("op", "*", x1, x2)))[0] == "-(x1*x2)"


class TestErrors:
    def test_unknown_identifier(self):
        with pytest.raises(ExprError, match="unknown identifier"):
            compile_expression("y1", 2)

    def test_coordinate_out_of_range(self):
        with pytest.raises(ExprError, match="out of range"):
            compile_expression("x3", 2)

    def test_unknown_function(self):
        with pytest.raises(ExprError, match="unknown function"):
            compile_expression("sin(x1)", 1)

    def test_arity_mismatch(self):
        with pytest.raises(ExprError, match="argument"):
            compile_expression("pow(x1)", 1)

    def test_trailing_garbage(self):
        with pytest.raises(ExprError, match="trailing"):
            compile_expression("x1 x1", 1)

    def test_unbalanced_parens(self):
        with pytest.raises(ExprError):
            compile_expression("(x1+1", 1)

    def test_empty(self):
        with pytest.raises(ExprError):
            compile_expression("   ", 1)

    def test_bad_character(self):
        with pytest.raises(ExprError, match="unexpected character"):
            compile_expression("x1 @ 2", 1)

    @pytest.mark.parametrize(
        "text, d, message",
        [
            ("x1 @ 2", 1, "unexpected character '@' at position 2"),
            ("x1 +", 1, "unexpected end of expression in 'x1 +'"),
            ("(x1+1", 1, "unexpected end of expression in '(x1+1'"),
            ("(x1 1)", 1, "expected ')' at position 4, found '1'"),
            ("pow(x1 x1)", 1, "expected ')' at position 7, found 'x1'"),
            ("x1 * )", 1, "unexpected token ')' at position 5"),
            ("pow(x1)", 1, "pow takes 2 argument(s), got 1"),
            ("exp(x1, 2)", 1, "exp takes 1 argument(s), got 2"),
            ("x1", 0, "dimension must be >= 1, got 0"),
            ("x1 x1", 1, "trailing input 'x1' at position 3"),
        ],
    )
    def test_message(self, text, d, message):
        with pytest.raises(ExprError) as exc:
            compile_expression(text, d)
        assert str(exc.value) == message


TOO_DEEP = f"nested more than {MAX_DEPTH} levels deep at position {MAX_DEPTH}"
TOO_LONG = f"more than {MAX_NODES} operations at position {3 * MAX_NODES + 2}"  # "x1" + "+x1" * n


class TestNesting:
    rows = np.array([[2.0], [3.0]])

    @pytest.mark.parametrize(
        "opener, closer", [("(", ")"), ("-", "")], ids=["parentheses", "unary_minus"]
    )
    def test_bound(self, opener, closer):
        # the whole expression is one level, each parenthesis or unary minus one more
        depth = MAX_DEPTH - 1
        text = opener * depth + "x1" + closer * depth
        expected = self.rows[:, 0] * (-1.0 if opener == "-" and depth % 2 else 1.0)
        assert compile_expression(text, 1)(self.rows).tobytes() == expected.tobytes()
        text = opener * (depth + 1) + "x1" + closer * (depth + 1)
        with pytest.raises(ExprError) as exc:
            compile_expression(text, 1)
        assert str(exc.value) == TOO_DEEP

    def test_flat_chain_bound(self):
        # a flat chain parses in a loop but evaluates one operation inside the next
        text = "x1" + "+x1" * MAX_NODES
        expected = self.rows[:, 0] * (MAX_NODES + 1)
        assert compile_expression(text, 1)(self.rows).tobytes() == expected.tobytes()
        with pytest.raises(ExprError) as exc:
            compile_expression(text + "+x1", 1)
        assert str(exc.value) == TOO_LONG

    @pytest.mark.parametrize(
        "text, message",
        [
            ("(" * 250 + "x1" + ")" * 250, TOO_DEEP),
            ("-" * 3000 + "x1", TOO_DEEP),
            ("x1" + "+x1" * 1199, TOO_LONG),
        ],
        ids=["parentheses", "unary_minus", "flat_sum"],
    )
    def test_cli_names_file_and_constraint(self, tmp_path, capsys, text, message):
        data = tmp_path / "d.csv"
        data.write_text("x1\n0.5\n0.25\n", encoding="utf-8")
        constraints = tmp_path / "c.json"
        constraints.write_text(json.dumps({"constraints": [{"f": text, "target": 0.5}]}))
        code = main(["linear-test", "--data", str(data), "--constraints", str(constraints)])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {constraints}: constraint 0: {message}\n"
