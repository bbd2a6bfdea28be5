"""Declaration-time limits of the compiled contract wrappers.

Each ``@require`` stack and each method of an ``@invariant`` class gets
one generated wrapper with the function's own signature.  The wrapper
uses a few names of its own, so a function that would clash with them
is refused when the contract is declared, not miscompiled.
"""

import pytest

from repro.core.contracts import invariant, positive, require


@pytest.mark.parametrize(
    "source",
    [
        "def f(_jg_value): return _jg_value",
        "def f(x, *, _jg_inner=1): return x",
        "def f(_enabled): return _enabled",
        "def _jg_inner(x): return x",
    ],
)
def test_require_refuses_a_name_its_wrapper_reserves(source):
    namespace = {}
    exec(source, namespace)
    func = next(v for k, v in namespace.items() if k != "__builtins__")
    parameter = next(iter(func.__code__.co_varnames))
    with pytest.raises(TypeError, match="clash with the names"):
        require(parameter, positive, "must be positive")(func)


def test_invariant_refuses_a_method_without_a_positional_instance():
    with pytest.raises(TypeError, match="take the instance positionally"):

        @invariant(lambda self: True, "always")
        class Starred:
            def method(*args):
                return args


def test_a_wrapper_keeps_every_kind_of_parameter():
    @require("b", positive, "b must be positive")
    def f(a, /, b=2.0, *rest, c, d=4, **extra):
        return a, b, rest, c, d, extra

    assert f(1, 3.0, 5, c=6, e=7) == (1, 3.0, (5,), 6, 4, {"e": 7})
    assert f(1, c=0) == (1, 2.0, (), 0, 4, {})
    with pytest.raises(ValueError, match=r"b must be positive \(got b=-1\)"):
        f(1, -1, c=0)
