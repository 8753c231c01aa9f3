import math
import tracemalloc

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from hhfrac.errors import (
    DomainError,
    EvaluationDomainError,
    EvaluationError,
    ExpressionError,
    ExpressionSyntaxError,
    UnknownIdentifierError,
)
from hhfrac.funcspace import (
    Add,
    Call,
    Div,
    Mul,
    Neg,
    Num,
    Pow,
    Sub,
    Var,
    _diff,
    _fold,
    _operands,
    _share,
    _Shared,
    builtin_function,
    evaluate,
    format_expression,
    mixed_partial,
    parse_expression,
    parse_function_spec,
    parse_univariate,
)

X, Y = Var("x"), Var("y")


class TestParser:
    def test_minimal_product(self):
        assert parse_expression("x*y") == Mul(X, Y)

    def test_precedence_structure(self):
        got = parse_expression("x^2*y^2 + exp(x+y)")
        want = Add(
            Mul(Pow(X, Num(2.0)), Pow(Y, Num(2.0))),
            Call("exp", (Add(X, Y),)),
        )
        assert got == want

    def test_power_right_associative(self):
        assert parse_expression("x^y^2") == Pow(X, Pow(Y, Num(2.0)))
        # oracle: evaluate both readings at (2, 1.5); right-assoc gives 2^2.25
        got = evaluate(parse_expression("x^y^2"), 2.0, 1.5)
        assert got == pytest.approx(4.756828460010884, rel=1e-13)
        assert got != pytest.approx((2.0**1.5) ** 2, rel=1e-3)

    def test_unary_minus_binds_looser_than_power(self):
        assert parse_expression("-x^2") == Neg(Pow(X, Num(2.0)))
        assert evaluate(parse_expression("-x^2"), 3.0, 0.0) == -9.0

    def test_left_associativity(self):
        assert parse_expression("x-y-1") == Sub(Sub(X, Y), Num(1.0))
        assert parse_expression("x/y/2") == Div(Div(X, Y), Num(2.0))

    def test_scientific_notation(self):
        assert parse_expression("1.5e-3") == Num(1.5e-3)
        assert parse_expression(".25") == Num(0.25)

    def test_pow_function_two_args(self):
        assert parse_expression("pow(x, 2)") == Call("pow", (X, Num(2.0)))

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError) as ei:
            parse_expression("x * zz + 1")
        assert ei.value.name == "zz"
        assert ei.value.offset == 4

    def test_syntax_error_offset_and_expected(self):
        with pytest.raises(ExpressionSyntaxError) as ei:
            parse_expression("x + * y")
        assert ei.value.offset == 4
        assert any("number" in e for e in ei.value.expected)

    def test_unbalanced_paren(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("(x + y")

    def test_wrong_arity(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("exp(x, y)")
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("pow(x)")

    def test_empty_source(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("   ")

    def test_univariate(self):
        assert parse_univariate("t^2") == Pow(Var("t"), Num(2.0))
        with pytest.raises(UnknownIdentifierError):
            parse_univariate("x")


_expr_strategy = st.recursive(
    st.one_of(
        st.builds(Num, st.floats(min_value=0.0, max_value=9.0, allow_nan=False)),
        st.sampled_from([X, Y]),
    ),
    lambda children: st.one_of(
        st.builds(Neg, children),
        st.builds(Add, children, children),
        st.builds(Sub, children, children),
        st.builds(Mul, children, children),
        st.builds(Div, children, children),
        st.builds(Pow, children, children),
        st.builds(lambda a: Call("exp", (a,)), children),
        st.builds(lambda a, b: Call("pow", (a, b)), children, children),
    ),
    max_leaves=25,
)


class TestRoundTrip:
    def test_examples(self):
        for src in ("x*y", "x^2*y^2 + exp(x+y)", "x^y^2", "-x^2",
                    "1/(x+2) - sqrt(y)", "abs(x - y) * cos(x)"):
            ast = parse_expression(src)
            assert parse_expression(format_expression(ast)) == ast

    @given(_expr_strategy)
    @settings(max_examples=300, deadline=None)
    def test_random_asts(self, ast):
        assert parse_expression(format_expression(ast)) == ast


_token_strategy = st.lists(
    st.sampled_from(["x", "y", "exp", "log", "pow", "zz", "1", "2.5", "1e3",
                     "+", "-", "*", "/", "^", "(", ")", ",", " "]),
    min_size=0, max_size=64,
)


class TestParserTotality:
    @given(_token_strategy)
    @settings(max_examples=500, deadline=None)
    def test_parse_or_positioned_error(self, tokens):
        src = "".join(tokens)
        try:
            parse_expression(src)
        except ExpressionSyntaxError as exc:
            assert 0 <= exc.offset <= len(src)
            assert exc.expected
        except UnknownIdentifierError as exc:
            assert 0 <= exc.offset <= len(src)


class TestEvaluate:
    def test_examples(self):
        assert evaluate(parse_expression("x*y"), 0.5, 0.5) == 0.25
        assert evaluate(parse_expression("exp(x+y)"), 0.0, 0.0) == 1.0
        assert evaluate(parse_expression("x^2*y^2"), 1.5, 2.0) == 9.0

    def test_purity_bit_identical(self):
        ast = parse_expression("exp(x*y) - sin(x)/cos(y) + x^0.3")
        vals = {evaluate(ast, 0.7312, 0.2281) for _ in range(10)}
        assert len(vals) == 1

    def test_array_broadcasting(self):
        ast = parse_expression("x*y + 1")
        x = np.array([[1.0], [2.0]])
        y = np.array([[3.0, 4.0]])
        np.testing.assert_allclose(evaluate(ast, x, y),
                                   [[4.0, 5.0], [7.0, 9.0]])

    def test_division_by_zero_names_subexpression(self):
        with pytest.raises(EvaluationDomainError, match=r"division by zero.*x - 1"):
            evaluate(parse_expression("y/(x-1)"), 1.0, 2.0)

    def test_log_domain(self):
        with pytest.raises(EvaluationDomainError, match="log"):
            evaluate(parse_expression("log(x-2)"), 1.0, 0.0)

    def test_sqrt_domain(self):
        with pytest.raises(EvaluationDomainError, match="sqrt"):
            evaluate(parse_expression("sqrt(x)"), -1.0, 0.0)

    def test_fractional_power_of_negative(self):
        with pytest.raises(EvaluationDomainError):
            evaluate(parse_expression("x^0.5"), -2.0, 0.0)

    def test_zero_to_negative_power(self):
        with pytest.raises(EvaluationDomainError):
            evaluate(parse_expression("x^(0-1)"), 0.0, 0.0)

    @pytest.mark.filterwarnings("error")
    def test_overflow_is_a_value_not_a_warning(self):
        # The samplers report a value that is not finite with its point, so
        # numpy's warning would only repeat it.
        x = np.array([1.0, 2.0])
        out = evaluate(parse_expression("exp(700*x*y) * x^2000 - exp(800*y)"), x, 1.0)
        assert not np.isfinite(out).any()
        assert _fold(Mul, Num(1e300), Num(1e300)) == Num(math.inf)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("src, x, message", [
        ("(x-3)^0.5", 1.0, "negative base with fractional exponent in '(x - 3.0)^0.5'"),
        ("y/(x-1)", 1.0, "division by zero in 'y / (x - 1.0)'"),
        ("log(x-2)", np.array([3.0, 1.0]), "log of a non-positive value in 'log(x - 2.0)'"),
        ("exp(x*800) + sqrt(0-x)", 1.0, "sqrt of a negative value in 'sqrt(0.0 - x)'"),
    ])
    def test_domain_errors_name_their_subexpression_without_a_warning(self, src, x, message):
        with pytest.raises(EvaluationDomainError) as ei:
            evaluate(parse_expression(src), x, 2.0)
        assert str(ei.value) == message


    @pytest.mark.parametrize("node", [Call("tan", (X,)), object()], ids=["call", "node"])
    def test_an_unknown_node_or_function_is_an_evaluation_error(self, node):
        with pytest.raises(EvaluationError, match="cannot evaluate"):
            evaluate(Add(X, node), 1.0, 2.0)


class TestMixedPartial:
    def test_bilinear_constant(self):
        f = parse_function_spec("x*y")
        assert mixed_partial(f, 0.3, 0.9) == pytest.approx(1.0, rel=1e-6)

    def test_biquadratic(self):
        f = parse_function_spec("x^2*y^2")
        assert mixed_partial(f, 1.0, 1.0) == pytest.approx(4.0, rel=1e-6)

    def test_exp_analytic(self):
        f = builtin_function("expsum")
        assert mixed_partial(f, 0.3, 0.7) == pytest.approx(math.e, rel=1e-13)

    @pytest.mark.parametrize("name, params, sym", [
        ("product", (), "x*y"),
        ("quadratic", (), "x**2 + y**2"),
        ("biquadratic", (), "(x*y)**2"),
        ("expsum", (), "exp(x + y)"),
        ("powersum", (0.5,), "sqrt(x) + sqrt(y)"),
        ("bilinear", (1.0, 2.0, -1.0, 3.0), "1 + 2*x - y + 3*x*y"),
    ])
    def test_builtin_partials_match_sympy(self, name, params, sym):
        x, y = sp.symbols("x y", real=True)
        want = sp.lambdify((x, y), sp.diff(sp.sympify(sym, locals={"x": x, "y": y}), x, y))
        rng = np.random.default_rng(11)
        xs, ys = rng.uniform(0.01, 1.0, 100), rng.uniform(0.01, 1.0, 100)
        got = np.broadcast_to(builtin_function(name, *params).mixed_partial(xs, ys), xs.shape)
        np.testing.assert_allclose(got, np.broadcast_to(want(xs, ys), xs.shape), rtol=1e-12)


def _sympy(src: str):
    """The parsed expression as a sympy expression over real x, y."""
    x, y = sp.symbols("x y", real=True)
    return sp.sympify(src.replace("^", "**"), locals={"x": x, "y": y, "abs": sp.Abs}), x, y


class TestSymbolicDerivative:
    # Points in [0.5, 1.5] x [1, 2]: away from the kink of abs(x - 2*y) and
    # inside every domain.
    CASES = (
        "-x^3*y + x/y",
        "x^2.5*y - y^3",
        "x^(0-1.5)*y^2 - (x + 1)/(y^2 + 1)",
        "x^y + pow(y, x)",
        "pow(x*y, 3) + 2^(x*y)",
        "exp(x*y)*log(x + y)",
        "sin(x)*cos(x*y) + sqrt(x + 2*y)",
        "abs(x - 2*y)*x*y",
        "log(x*y + 1)/sqrt(x + y + 1)",
        "exp(x+y)*sin(x*y)+x^3*y^2",
    )

    @pytest.mark.parametrize("src", CASES)
    def test_matches_sympy(self, src):
        sym, x, y = _sympy(src)
        ast = parse_expression(src)
        rng = np.random.default_rng(5)
        xs, ys = rng.uniform(0.5, 1.5, 50), rng.uniform(1.0, 2.0, 50)
        for got_ast, want in (
            (_diff(ast, "x"), sp.diff(sym, x)),
            (_diff(ast, "y"), sp.diff(sym, y)),
            (_diff(_diff(ast, "x"), "y"), sp.diff(sym, x, y)),
        ):
            want = want.replace(sp.DiracDelta, lambda *_: 0)  # zero off the kink
            ref = np.broadcast_to(sp.lambdify((x, y), want)(xs, ys), xs.shape)
            got = np.broadcast_to(evaluate(got_ast, xs, ys), xs.shape)
            np.testing.assert_allclose(got, ref, rtol=1e-12, err_msg=f"{src}: {want}")

    def test_parsed_function_carries_the_partial(self):
        f = parse_function_spec("exp(x+y)*sin(x*y)+x^3*y^2")
        sym, x, y = _sympy("exp(x+y)*sin(x*y)+x^3*y^2")
        want = float(sp.diff(sym, x, y).subs({x: 0.3, y: 0.7}))
        assert mixed_partial(f, 0.3, 0.7) == pytest.approx(want, rel=1e-14)

    def test_structural_zero_on_the_axes(self):
        f = parse_function_spec("x^0.5 + y^0.5")
        assert mixed_partial(f, 0.0, 0.0) == 0.0
        assert np.all(mixed_partial(f, np.array([0.0, 0.5]), np.array([0.0, 0.0])) == 0.0)

    def test_domain_violation_names_the_derivative_subexpression(self):
        f = parse_function_spec("x^0.5*y^0.5")
        with pytest.raises(EvaluationDomainError, match="zero raised to a negative power"):
            mixed_partial(f, 0.0, 0.0)

    def test_constants_fold(self):
        assert _diff(parse_expression("3*x^2 + 2*y"), "y") == Num(2.0)
        assert _diff(_diff(parse_expression("x^3 + sin(y)"), "x"), "y") == Num(0.0)

    def test_abs_differentiates_to_sign(self):
        got = _diff(parse_expression("abs(x - y)"), "x")
        assert got == Call("sign", (Sub(X, Y),))
        assert evaluate(got, np.array([0.2, 0.9]), 0.5).tolist() == [-1.0, 1.0]
        with pytest.raises(UnknownIdentifierError):
            parse_expression("sign(x)")

    @pytest.mark.parametrize("cls", [Add, Sub, Mul, Div, Pow])
    def test_fold_applies_the_identities_of_zero_and_one(self, cls):
        def reference(a, b):
            # the rules with == on whole nodes
            zero, one = Num(0.0), Num(1.0)
            if isinstance(a, Num) and isinstance(b, Num):
                try:
                    return Num(float(evaluate(cls(a, b), 0.0, 0.0)))
                except EvaluationDomainError:
                    return cls(a, b)
            if b == zero and cls in (Add, Sub) or b == one and cls in (Mul, Div, Pow):
                return a
            if a == zero and cls in (Mul, Div) or b == zero and cls is Mul:
                return zero
            if a == zero and cls in (Add, Sub):
                return b if cls is Add else Neg(b)
            if a == one and cls is Mul:
                return b
            return one if b == zero and cls is Pow else cls(a, b)

        nodes = (Num(0.0), Num(-0.0), Num(1.0), Num(2.0), X, Mul(X, Y), Neg(Y))
        for a in nodes:
            for b in nodes:
                got, want = _fold(cls, a, b), reference(a, b)
                assert format_expression(got) == format_expression(want), (a, b)


def _reference_eval(e, x, y):
    """The expression evaluated as a tree, node by node, with the same numpy
    operations as :func:`evaluate` and no domain checks."""
    if isinstance(e, Num):
        return np.float64(e.value)
    if isinstance(e, Var):
        return x if e.name == "x" else y
    if isinstance(e, Neg):
        return -_reference_eval(e.operand, x, y)
    if isinstance(e, Call):
        args = [_reference_eval(a, x, y) for a in e.args]
        with np.errstate(all="ignore"):
            return np.power(*args) if e.func == "pow" else getattr(np, e.func)(*args)
    ufunc = {Add: np.add, Sub: np.subtract, Mul: np.multiply, Div: np.divide,
             Pow: np.power}[type(e)]
    with np.errstate(all="ignore"):
        return ufunc(_reference_eval(e.left, x, y), _reference_eval(e.right, x, y))


def _shared_nodes(e, out=None) -> dict:
    """``{source of a shared node: its uses}`` in a DAG made by ``_share``."""
    out = {} if out is None else out
    if isinstance(e, _Shared):
        out[format_expression(e.expr)] = e.uses
        e = e.expr
    for o in _operands(e):
        _shared_nodes(o, out)
    return out


WORKLOAD_EXPR = "exp(x+y)*sin(x*y)+x^3*y^2"


class TestSharedDerivative:
    @pytest.mark.parametrize("src", TestSymbolicDerivative.CASES)
    def test_bit_identical_to_a_tree_evaluation(self, src):
        f = parse_function_spec(src)
        tree = _diff(_diff(parse_expression(src), "x"), "y")
        rng = np.random.default_rng(11)
        xs, ys = rng.uniform(0.5, 1.5, 40), rng.uniform(1.0, 2.0, 40)
        for x, y in ((0.7, 1.3), (xs, ys), (xs[:, None], ys[None, :])):
            want = _reference_eval(tree, np.asarray(x), np.asarray(y))
            got = mixed_partial(f, x, y)
            if np.isscalar(x):
                assert isinstance(got, float) and got == float(want)
            else:
                assert np.array_equal(got, want), src

    def test_the_workload_derivative_shares_its_repeated_subexpressions(self):
        d2 = _share(_diff(_diff(parse_expression(WORKLOAD_EXPR), "x"), "y"))
        assert _shared_nodes(d2) == {
            "exp(x + y)": 4, "sin(x * y)": 2, "cos(x * y)": 3, "x * y": 2}

    def test_zeros_of_opposite_sign_stay_apart(self):
        # (x * -0.0) * (x * 0.0) is -0.0; merging the factors would give +0.0
        dag = _share(Mul(Mul(X, Num(-0.0)), Mul(X, Num(0.0))))
        assert _shared_nodes(dag) == {}
        assert math.copysign(1.0, evaluate(dag, 1.0, 1.0)) == -1.0

    def test_each_shared_node_is_computed_once_per_call(self, monkeypatch):
        calls = {"exp": 0, "sin": 0, "cos": 0}
        for name in calls:
            def counted(arg, _ufunc=getattr(np, name), _name=name):
                calls[_name] += 1
                return _ufunc(arg)
            monkeypatch.setattr(np, name, counted)
        f = parse_function_spec(WORKLOAD_EXPR)
        g = np.linspace(0.1, 1.0, 16)
        mixed_partial(f, g[:, None], g[None, :])
        # as a tree, the derivative computes exp 4, sin 2 and cos 3 times
        assert calls == {"exp": 1, "sin": 1, "cos": 1}
        mixed_partial(f, g[:, None], g[None, :])
        assert calls == {"exp": 2, "sin": 2, "cos": 2}

    @pytest.mark.parametrize("src, x, y, shared, message", [
        ("sqrt(x*y)", -1.0, 1.0, "2.0 * sqrt(x * y)",
         "sqrt of a negative value in 'sqrt(x * y)'"),
        ("sqrt(x*y)", np.array([1.0, -1.0]), np.array([1.0, 1.0]), "2.0 * sqrt(x * y)",
         "sqrt of a negative value in 'sqrt(x * y)'"),
        ("1/(x - y)", 1.0, 1.0, "(x - y) * (x - y)",
         "division by zero in '(-1.0 * (x - y) + (x - y) * -1.0)"
         " / ((x - y) * (x - y) * ((x - y) * (x - y)))'"),
        ("sin(x)*cos(x*y) + sqrt(x + 2*y)", 0.0, -1.0, "2.0 * sqrt(x + 2.0 * y)",
         "sqrt of a negative value in 'sqrt(x + 2.0 * y)'"),
    ])
    def test_a_failing_shared_subexpression_is_named_as_in_the_tree(
            self, src, x, y, shared, message):
        tree = _diff(_diff(parse_expression(src), "x"), "y")
        assert shared in _shared_nodes(_share(tree))
        with pytest.raises(EvaluationDomainError) as from_tree:
            evaluate(tree, x, y)
        with pytest.raises(EvaluationDomainError) as from_dag:
            mixed_partial(parse_function_spec(src), x, y)
        assert str(from_dag.value) == str(from_tree.value) == message

    def test_peak_memory_on_a_broadcast_grid(self):
        # One full 256 x 256 array is 512 KiB.  Measured with numpy 2.4 on
        # this expression: the tree peaks at 3,146,304 bytes, six full arrays
        # live while cos(x * y) is computed; the DAG at 3,213,248 bytes, also
        # six, but during a broadcast multiply, for which numpy allocates a
        # 64 KiB iteration buffer.
        f = parse_function_spec(WORKLOAD_EXPR)
        tree = _diff(_diff(parse_expression(WORKLOAD_EXPR), "x"), "y")
        g = (np.arange(256) + 0.5) / 256
        x, y = g[:, None], 1.0 + g[None, :]
        mixed_partial(f, x, y)

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        tree_peak = peak(lambda: evaluate(tree, x, y))
        dag_peak = peak(lambda: mixed_partial(f, x, y))
        full = x.size * y.size * 8
        assert tree_peak < 7 * full and dag_peak < 7 * full
        assert dag_peak <= tree_peak + np.getbufsize() * 8 + 2048


class TestBuiltins:
    def test_registry_values(self):
        cases = {
            "product": ((0.5, 0.5), 0.25),
            "quadratic": ((1.0, 2.0), 5.0),
            "biquadratic": ((2.0, 3.0), 36.0),
            "expsum": ((0.0, 0.0), 1.0),
        }
        for name, ((px, py), want) in cases.items():
            assert builtin_function(name)(px, py) == pytest.approx(want, rel=1e-14)
        assert builtin_function("powersum", 0.5)(0.25, 0.0) == pytest.approx(0.5)
        assert builtin_function("bilinear", 1.0, 2.0, 3.0, 4.0)(1.0, 1.0) == 10.0

    def test_powersum_domain(self):
        f = builtin_function("powersum", 0.5)
        with pytest.raises(EvaluationError):
            f(-1.0, 0.5)
        with pytest.raises(DomainError):
            builtin_function("powersum", 1.5)

    def test_unknown_builtin(self):
        with pytest.raises(DomainError):
            builtin_function("nope")

    def test_parse_function_spec(self):
        f = parse_function_spec("builtin:powersum:0.5")
        assert f.provenance.startswith("builtin:powersum")
        g = parse_function_spec("x^2 + y^2")
        assert g.provenance == "parsed:x^2 + y^2"
        assert g(2.0, 1.0) == 5.0
        assert g.kinked is False
        k = parse_function_spec("abs(x - y)")
        assert k.kinked is True

    def test_parse_function_spec_errors(self):
        with pytest.raises(DomainError):
            parse_function_spec("builtin:powersum:abc")
        with pytest.raises(ExpressionError):
            parse_function_spec("x +* y")
