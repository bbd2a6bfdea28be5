"""Runtime contracts: the dynamic twin of the jglint static rules.

jglint (:mod:`repro.lint`) proves what it can from the AST — literal
poles in [0, 1), seeded generators, unit discipline.  Values that only
exist at runtime (a pole computed from measured error, an ε folded from
efficiency surprise) need *dynamic* enforcement, and this module
provides it with zero dependencies:

* :func:`check` — an inline assertion that raises :class:`ContractError`
  (a ``ValueError``) with a precise message;
* :func:`require` — a decorator declaring a precondition on one named
  argument, stackable, introspectable via ``__contracts__``;
* :func:`invariant` — a class decorator re-checking a predicate on
  ``self`` after every public mutating method.

Contracts raise ``ContractError`` which subclasses ``ValueError``, so
existing ``pytest.raises(ValueError)`` tests and callers keep working.
Ready-made predicates for the paper's ranges (``unit_interval`` for
probabilities/ε, ``stable_pole`` for Eqns. 9–11, ``non_negative`` /
``positive`` for budgets and rates) keep call sites one line.
"""

from __future__ import annotations

import functools
import inspect
import os
from typing import Any, Callable, Dict, List, Sequence, Tuple, TypeVar

__all__ = [
    "ContractError",
    "check",
    "contracts_enabled",
    "invariant",
    "non_negative",
    "positive",
    "require",
    "set_contracts_enabled",
    "stable_pole",
    "unit_interval",
]

F = TypeVar("F", bound=Callable[..., Any])
C = TypeVar("C", bound=type)


class ContractError(ValueError):
    """A violated precondition or invariant.

    Subclasses ``ValueError`` so contracts strengthen — never change —
    the exception surface callers already handle.
    """


# Contracts sit on the per-heartbeat hot path: compiled wrappers cost
# about 15-20 % of an in-process controller step (2-3 us of 14-16 us on
# the three Table 3 machines, 2-vCPU x86 host, contracts toggled
# in-process), and jglint proves the literal-valued subset of them
# statically.  Deployments that want the cycles back — the sharded
# daemon's workers, throughput benches — can switch the dynamic checks
# off; the default is on, and the test suite always runs with them on.
# Seed the flag from the environment so spawned worker processes
# inherit the operator's choice without new plumbing.
_enabled = os.environ.get("REPRO_CONTRACTS", "1") not in (
    "0",
    "off",
    "false",
)


def contracts_enabled() -> bool:
    """Whether dynamic contract checking is currently active."""
    return _enabled


def set_contracts_enabled(enabled: bool) -> bool:
    """Toggle dynamic contract checking process-wide; return the old value.

    Disabling skips ``@require`` preconditions, ``@invariant``
    re-checks, and inline :func:`check` calls.  Decoration-time errors
    (``@require`` naming a missing parameter) are still raised — the
    switch removes the per-call work, not the declarations.
    """
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)
    return previous


def check(condition: bool, message: str) -> None:
    """Inline contract: raise :class:`ContractError` unless ``condition``."""
    if _enabled and not condition:
        raise ContractError(message)


# --- ready-made predicates for the paper's ranges ---------------------


def stable_pole(value: float) -> bool:
    """Eqn. 9 stability: a closed-loop pole must lie in [0, 1)."""
    return 0.0 <= value < 1.0


def unit_interval(value: float) -> bool:
    """Probabilities and VDBE's ε (Eqn. 2) live in [0, 1]."""
    return 0.0 <= value <= 1.0


def non_negative(value: float) -> bool:
    """Work, energy, and rates cannot be negative."""
    return value >= 0.0


def positive(value: float) -> bool:
    """Budgets, powers, and divisors must be strictly positive."""
    return value > 0.0


# --- decorators -------------------------------------------------------

#: Prefix of the names a compiled wrapper uses for itself; a decorated
#: function may not use it for its own name or a parameter's, nor name
#: either ``_enabled`` (the one global the wrapper reads).
_PREFIX = "_jg_"

_POSITIONAL = (
    inspect.Parameter.POSITIONAL_ONLY,
    inspect.Parameter.POSITIONAL_OR_KEYWORD,
)

_Contract = Tuple[str, Callable[[Any], bool], str]


def _compile(
    inner: Callable[..., Any],
    contracts: Sequence[_Contract],
    invariants: bool,
) -> Callable[..., Any]:
    """Generate one checking wrapper with ``inner``'s own signature.

    The wrapper binds its arguments the way ``inner`` does, checks each
    contract on the bound parameter in declaration order, calls
    ``inner`` and, when ``invariants`` is set, re-checks every
    ``__invariants__`` predicate of the first argument's class.  With
    contracts disabled it only forwards the call.  Generating the code
    once per declaration keeps the per-call cost to one frame and one
    predicate call per contract: no signature binding, no per-contract
    lookup loop.

    Raises ``TypeError`` when ``inner`` uses a name the wrapper
    reserves (see :data:`_PREFIX`), or when ``invariants`` is set and
    its first parameter cannot take the instance positionally.
    """
    signature = inspect.signature(inner)
    reserved = [
        name
        for name in (inner.__name__, *signature.parameters)
        if name.startswith(_PREFIX) or name == "_enabled"
    ]
    if reserved:
        raise TypeError(
            f"contracts cannot wrap {inner.__qualname__}: "
            f"{', '.join(map(repr, reserved))} clash with the names "
            f"its wrapper uses ({_PREFIX}* and _enabled)"
        )
    first = next(iter(signature.parameters.values()), None)
    if invariants and (first is None or first.kind not in _POSITIONAL):
        raise TypeError(
            f"@invariant cannot wrap {inner.__qualname__}: its first "
            "parameter must take the instance positionally"
        )
    env: Dict[str, Any] = {
        f"{_PREFIX}inner": inner,
        f"{_PREFIX}error": ContractError,
        f"{_PREFIX}type": type,
    }
    params: List[str] = []
    call: List[str] = []
    positional_only = 0
    star = False
    for spec in signature.parameters.values():
        name = spec.name
        default = ""
        if spec.default is not inspect.Parameter.empty:
            env[f"{_PREFIX}d_{name}"] = spec.default
            default = f"={_PREFIX}d_{name}"
        if spec.kind is inspect.Parameter.POSITIONAL_ONLY:
            positional_only += 1
            params.append(name + default)
            call.append(name)
        elif spec.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD:
            params.append(name + default)
            call.append(name)
        elif spec.kind is inspect.Parameter.VAR_POSITIONAL:
            star = True
            params.append(f"*{name}")
            call.append(f"*{name}")
        elif spec.kind is inspect.Parameter.KEYWORD_ONLY:
            if not star:
                star = True
                params.append("*")
            params.append(name + default)
            call.append(f"{name}={name}")
        else:
            params.append(f"**{name}")
            call.append(f"**{name}")
    if positional_only:
        params.insert(positional_only, "/")
    forward = f"{_PREFIX}inner({', '.join(call)})"
    body = ["if not _enabled:", f"    return {forward}"]
    for i, (name, _, _) in enumerate(contracts):
        body += [
            f"if not {_PREFIX}t{i}({name}):",
            f"    raise {_PREFIX}error("
            f"f'{{{_PREFIX}m{i}}} (got {name}={{{name}!r}})')",
        ]
    if invariants:
        owner = call[0]  # the instance: methods take it first
        body += [
            f"{_PREFIX}result = {forward}",
            f"{_PREFIX}cls = {_PREFIX}type({owner})",
            f"for {_PREFIX}test, {_PREFIX}text in "
            f"{_PREFIX}cls.__invariants__:",
            f"    if not {_PREFIX}test({owner}):",
            f"        raise {_PREFIX}error(",
            "            f'invariant violated on '",
            f"            f'{{{_PREFIX}cls.__name__}}: {{{_PREFIX}text}}'",
            "        )",
            f"return {_PREFIX}result",
        ]
    else:
        body.append(f"return {forward}")
    for i, (_, test, text) in enumerate(contracts):
        env[f"{_PREFIX}t{i}"] = test
        env[f"{_PREFIX}m{i}"] = text
    name = inner.__name__ if inner.__name__.isidentifier() else "wrapper"
    source = "\n".join(
        [
            f"def {_PREFIX}factory({', '.join(env)}):",
            f"    def {name}({', '.join(params)}):",
            *(f"        {line}" for line in body),
            f"    return {name}",
        ]
    )
    # Module globals: the wrapper reads ``_enabled`` live, so the
    # process-wide switch still applies to it.
    namespace: Dict[str, Any] = {}
    code = compile(source, f"<contracts of {inner.__qualname__}>", "exec")
    exec(code, globals(), namespace)
    wrapper: Callable[..., Any] = namespace[f"{_PREFIX}factory"](**env)
    return wrapper


def require(
    parameter: str,
    predicate: Callable[[Any], bool],
    message: str,
) -> Callable[[F], F]:
    """Declare a precondition on one named argument.

    The wrapped function raises :class:`ContractError` when
    ``predicate(value)`` is false for the bound ``parameter`` (its
    default applies when the caller omits it).  Stacked ``require``
    decorators share a single wrapper, compiled when the contract is
    declared with the function's own signature, so a call pays one
    frame and one predicate call per contract however many are
    declared::

        @require("pole", stable_pole, "pole must be in [0, 1)")
        @require("rate", non_negative, "rate cannot be negative")
        def step(rate: float, pole: float) -> float: ...

    Declared contracts are introspectable via ``__contracts__`` —
    a tuple of ``(parameter, predicate, message)`` triples.
    """

    def decorate(func: F) -> F:
        inner = getattr(func, "__contracts_wrapped__", func)
        contracts: Tuple[_Contract, ...] = (
            (parameter, predicate, message),
            *getattr(func, "__contracts__", ()),
        )
        if parameter not in inspect.signature(inner).parameters:
            raise TypeError(
                f"@require references {parameter!r} but "
                f"{inner.__qualname__} has no such parameter"
            )
        wrapper = functools.wraps(inner)(
            _compile(inner, contracts, invariants=False)
        )
        wrapper.__contracts__ = contracts  # type: ignore[attr-defined]
        wrapper.__contracts_wrapped__ = inner  # type: ignore[attr-defined]
        return wrapper  # type: ignore[return-value]

    return decorate


def invariant(
    predicate: Callable[[Any], bool], message: str
) -> Callable[[C], C]:
    """Class decorator: re-check ``predicate(self)`` after mutations.

    Every public method defined *on the class itself* (names not
    starting with ``_``) is wrapped to evaluate the invariant after it
    returns, and ``__init__``/``__post_init__`` are wrapped so a freshly
    constructed instance is checked too.  Properties and private
    helpers are left untouched — the invariant constrains the states
    other code can observe, not intermediate bookkeeping::

        @invariant(lambda self: 0.0 <= self.epsilon <= 1.0,
                   "epsilon must stay in [0, 1]")
        class Vdbe: ...

    A method that also declares ``@require`` preconditions gets one
    compiled wrapper that checks both.  Stacking is supported; each
    decorator appends to ``__invariants__``, which every wrapper reads
    at call time.
    """

    def decorate(cls: C) -> C:
        first_invariant = not hasattr(cls, "__invariants__")
        existing = tuple(getattr(cls, "__invariants__", ()))
        cls.__invariants__ = existing + ((predicate, message),)  # type: ignore[attr-defined]
        if not first_invariant:
            # Methods are already wrapped; the new predicate joins the
            # list every wrapped method consults.
            return cls

        # One construction hook suffices: __init__ when the class (or a
        # @dataclass applied below us) defines one, else __post_init__.
        hooks = next(
            (
                [name]
                for name in ("__init__", "__post_init__")
                if name in vars(cls)
            ),
            [],
        )
        public = [
            name
            for name, member in vars(cls).items()
            if not name.startswith("_") and inspect.isfunction(member)
        ]
        for name in hooks + public:
            method = vars(cls)[name]
            checked = _compile(
                getattr(method, "__contracts_wrapped__", method),
                getattr(method, "__contracts__", ()),
                invariants=True,
            )
            setattr(cls, name, functools.wraps(method)(checked))
        return cls

    return decorate
