"""Compiled closures vs the tree-walking interpreter.

The block path runs instructions through closures compiled once per
program (:mod:`repro.runtime.closures`); the instruction path walks the
AST (:meth:`Execution._eval` / :meth:`Execution._assign_into`).  For any
expression over any locals, globals and heap, a compiled closure must
return the tree-walker's value — or raise the same exception type with
the same message.  Compiled stores must leave the same machine state.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import StaticAnalysis
from repro.lang import ast, builder as B
from repro.lang.blocks import block_table_for
from repro.lang.errors import (
    DivisionByZero,
    InterpreterError,
    NullDereference,
    OutOfBounds,
)
from repro.lang.lower import Instr, Opcode, lower_program
from repro.runtime import DeterministicScheduler, Execution, StepEffects
from repro.runtime.closures import compile_expr, compile_instr

GLOBALS = {"g0": 3, "g1": 0, "flag": True, "s": {"a": 7, "b": 0},
           "arr": [4, 0, 2], "p": None}
LOCAL_NAMES = ["x", "y", "q", "g0"]  # ``g0`` shadows the global
VAR_NAMES = LOCAL_NAMES + ["g1", "flag", "s", "arr", "p", "undefined"]

_PROGRAM = B.program("closures", globals_=GLOBALS,
                     functions=[B.func("main", [], [B.skip()])],
                     threads=[B.thread("t0", "main")])
_COMPILED = lower_program(_PROGRAM)
_ANALYSIS = StaticAnalysis(_COMPILED)


def machine(local_specs):
    """A fresh execution whose main frame holds the given locals.

    A local spec is a plain value or ``("ptr", global)`` for a pointer
    to the same heap object as that global.
    """
    ex = Execution(_COMPILED, _ANALYSIS, DeterministicScheduler())
    thread = ex.threads["t0"]
    frame = thread.frames[-1]
    for name, spec in local_specs.items():
        if isinstance(spec, tuple):
            spec = ex.globals[spec[1]]
        frame.locals[name] = spec
    return ex, thread, frame


def outcome(fn):
    """``("ok", type, value)`` or ``("raise", type, message)``."""
    try:
        value = fn()
    except Exception as exc:  # noqa: BLE001 — the exception is the outcome
        return ("raise", type(exc), str(exc))
    return ("ok", type(value), value)


def state(ex, frame):
    heap = [(obj_id, repr(obj)) for obj_id, obj in ex.heap.objects()]
    return dict(ex.globals), dict(frame.locals), heap


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

value_specs = st.one_of(
    st.integers(min_value=-3, max_value=5),
    st.booleans(),
    st.sampled_from([1.5, -0.5, 0.0]),
    st.sampled_from([("ptr", "s"), ("ptr", "arr"), ("ptr", "p")]),
)

local_maps = st.dictionaries(st.sampled_from(LOCAL_NAMES), value_specs,
                             max_size=len(LOCAL_NAMES))

leaves = st.one_of(
    st.builds(ast.Const, st.one_of(st.integers(min_value=-2, max_value=3),
                                   st.booleans(), st.just(2.5))),
    st.just(ast.Null()),
    st.builds(ast.Var, st.sampled_from(VAR_NAMES)),
)


#: heap bases biased towards variables that may hold pointers, so
#: dereferences reach the struct/array checks rather than failing early
pointer_vars = st.sampled_from([ast.Var(n) for n in ("s", "arr", "p", "q")])
small_indices = st.builds(ast.Const, st.integers(min_value=-1, max_value=3))


def _extend(inner):
    return st.one_of(
        st.builds(ast.Bin, st.sampled_from(sorted(ast.BINARY_OPS)),
                  inner, inner),
        st.builds(ast.Un, st.sampled_from(sorted(ast.UNARY_OPS)), inner),
        st.builds(ast.Field, st.one_of(pointer_vars, inner),
                  st.sampled_from(["a", "b", "zz"])),
        st.builds(ast.Index, st.one_of(pointer_vars, inner),
                  st.one_of(small_indices, inner)),
    )


exprs = st.recursive(leaves, _extend, max_leaves=8)

lvalues = st.one_of(
    st.builds(ast.Var, st.sampled_from(VAR_NAMES + ["fresh"])),
    st.builds(ast.Field, st.one_of(pointer_vars, exprs),
              st.sampled_from(["a", "zz"])),
    st.builds(ast.Index, st.one_of(pointer_vars, exprs),
              st.one_of(small_indices, exprs)),
)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@settings(max_examples=400, deadline=None)
@given(expr=exprs, local_specs=local_maps)
def test_compiled_expression_matches_tree_walker(expr, local_specs):
    ex, thread, frame = machine(local_specs)
    closure = compile_expr(expr)
    expected = outcome(lambda: ex._eval(expr, thread, frame, []))
    assert outcome(lambda: closure(ex, thread, frame)) == expected


@settings(max_examples=200, deadline=None)
@given(target=lvalues, expr=exprs, local_specs=local_maps)
def test_compiled_assign_matches_tree_walker(target, expr, local_specs):
    instr = Instr(pc=0, op=Opcode.ASSIGN, func="main", target=target,
                  expr=expr)
    handler = compile_instr(instr, _COMPILED, _ANALYSIS)
    ref, ref_thread, ref_frame = machine(local_specs)
    ex, thread, frame = machine(local_specs)
    expected = outcome(lambda: ref._exec_assign(
        instr, ref_thread, ref_frame, StepEffects("t0", 0, 0, instr.op)))
    got = outcome(lambda: handler(ex, thread, frame,
                                  StepEffects("t0", 0, 0, instr.op)))
    assert got == expected
    assert state(ex, frame) == state(ref, ref_frame)
    assert frame.pc == ref_frame.pc


# ---------------------------------------------------------------------------
# the fault cases, pinned explicitly
# ---------------------------------------------------------------------------

FAULTS = [
    (B.div(B.v("g0"), B.c(0)), DivisionByZero, "division by zero"),
    (B.div(B.v("g0"), B.v("g1")), DivisionByZero, "division by zero"),
    (B.mod(B.v("g0"), B.c(0)), DivisionByZero, "modulo by zero"),
    (B.mod(B.v("g0"), B.v("g1")), DivisionByZero, "modulo by zero"),
    (B.field(B.v("p"), "a"), NullDereference, "null pointer dereference"),
    (B.index(B.v("arr"), B.c(3)), OutOfBounds,
     "index 3 outside array of length 3"),
    (B.index(B.v("arr"), B.c(-1)), OutOfBounds,
     "index -1 outside array of length 3"),
    (B.index(B.v("arr"), B.c(True)), InterpreterError,
     "array index True is not an integer"),
    (B.index(B.v("arr"), B.c(1.5)), InterpreterError,
     "array index 1.5 is not an integer"),
    (B.field(B.v("arr"), "a"), InterpreterError,
     "field access on non-struct array[4, 0, 2]"),
    (B.index(B.v("s"), B.c(0)), InterpreterError,
     "index access on non-array struct{a=7, b=0}"),
    (B.field(B.v("s"), "zz"), InterpreterError, "struct has no field 'zz'"),
    (B.v("undefined"), InterpreterError,
     "undefined variable 'undefined' in main"),
]


@pytest.mark.parametrize("expr,exc_type,message", FAULTS,
                         ids=[repr(f[0]) for f in FAULTS])
def test_fault_cases_match(expr, exc_type, message):
    ex, thread, frame = machine({})
    expected = outcome(lambda: ex._eval(expr, thread, frame, []))
    assert expected == ("raise", exc_type, message)
    assert outcome(lambda: compile_expr(expr)(ex, thread, frame)) == expected


def test_allocations_match():
    allocations = [B.alloc_struct(a=B.v("g0"), b=B.null()),
                   B.alloc_array(size=B.c(2), fill=B.v("g0")),
                   B.alloc_array(elements=[B.c(1), B.v("g0")]),
                   B.alloc_array(size=B.c(-1), fill=B.c(0))]
    for expr in allocations:
        ref, ref_thread, ref_frame = machine({})
        ex, thread, frame = machine({})
        expected = outcome(lambda: ref._eval(expr, ref_thread, ref_frame, []))
        assert outcome(lambda: compile_expr(expr)(ex, thread, frame)) \
            == expected
        assert state(ex, frame) == state(ref, ref_frame)


def test_wrong_arity_call_raises_reference_error():
    """Lowering accepts a call with the wrong argument count; both paths
    must fail on it with the reference interpreter's error."""
    program = B.program("arity", functions=[
        B.func("f", ["a"], [B.ret()]),
        B.func("main", [], [B.call("f")]),
    ], threads=[B.thread("t0", "main")])
    compiled = lower_program(program)
    analysis = StaticAnalysis(compiled)
    messages = []
    for blocks in (None, block_table_for(compiled, analysis)):
        ex = Execution(compiled, analysis, DeterministicScheduler(),
                       blocks=blocks)
        with pytest.raises(InterpreterError) as err:
            ex.run()
        messages.append(str(err.value))
    assert messages == ["call f: 0 args for 1 params"] * 2
