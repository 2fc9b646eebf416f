"""Per-instruction closures: the compiled form of the block path.

The instruction path (:meth:`Execution.step`) interprets each IR
instruction by walking its expression trees (:meth:`Execution._eval`)
and recording every read and write location, because tracing,
alignment and slicing consume those records.  The block path
(:meth:`Execution.run_chain`) consumes none of them, so it runs a
cheaper form of the same program: every instruction is lowered once
into a specialised closure ``h(execution, thread, frame, effects)``.

* **Expressions** become nested closures ``f(execution, thread, frame)``
  with the operator bound and constants captured at compile time — no
  ``isinstance`` dispatch, no use/def lists.
* **Variable lookup** stays dynamic (locals first, then globals) with
  the interpreter's error text; heap access keeps every dereference,
  struct/array check and fault kind of :meth:`Execution._eval`.
* **BRANCH** captures its region-exit pc, loop-counter flags and
  targets; **JUMP** / **NOP** only move the pc.
* A handler returns a true value when the chain must end right after
  it: a sync instruction (the scheduler observes it before the next
  pick) or the thread's final RETURN.

Anything the compiler does not recognise (an unknown expression kind or
operator, an ill-formed call) compiles to a call into the reference
interpreter, so it fails with exactly the reference error.

The table is built once per compiled program per process and cached on
the :class:`~repro.lang.lower.CompiledProgram` — never on the
:class:`~repro.lang.blocks.BlockTable`, which is pickled to pool
workers (closures do not pickle; workers build their own table).
"""

from ..lang import ast
from ..lang.blocks import block_table_for
from ..lang.errors import (
    AssertionFault,
    DivisionByZero,
    InterpreterError,
)
from ..lang.lower import Opcode
from ..lang.values import NULL, Pointer
from .frames import RegionEntry, ThreadStatus
from .heap import HeapArray, HeapStruct

#: ``ClosureTable.flags`` bits
REGION_WORK = 1  # region bookkeeping may fire before this pc executes
AT_ACQUIRE = 2   # the instruction is an ACQUIRE (a pre-acquire pick point)


def truthy(value):
    """The language's truth test (NULL is false, like C)."""
    if isinstance(value, Pointer):
        return value.obj_id is not None
    return bool(value)


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

def _div(left, right):
    if right == 0:
        raise DivisionByZero("division by zero")
    return left // right if isinstance(left, int) else left / right


def _mod(left, right):
    if right == 0:
        raise DivisionByZero("modulo by zero")
    return left % right


def _and(left, right):
    return truthy(left) and truthy(right)


def _or(left, right):
    return truthy(left) or truthy(right)


#: binary operator -> closure over two operand closures (both operands
#: are always evaluated, left first, as in the tree-walker)
_BIN = {
    "+": lambda l, r: lambda ex, th, fr: l(ex, th, fr) + r(ex, th, fr),
    "-": lambda l, r: lambda ex, th, fr: l(ex, th, fr) - r(ex, th, fr),
    "*": lambda l, r: lambda ex, th, fr: l(ex, th, fr) * r(ex, th, fr),
    "/": lambda l, r: lambda ex, th, fr: _div(l(ex, th, fr), r(ex, th, fr)),
    "%": lambda l, r: lambda ex, th, fr: _mod(l(ex, th, fr), r(ex, th, fr)),
    "<": lambda l, r: lambda ex, th, fr: l(ex, th, fr) < r(ex, th, fr),
    "<=": lambda l, r: lambda ex, th, fr: l(ex, th, fr) <= r(ex, th, fr),
    ">": lambda l, r: lambda ex, th, fr: l(ex, th, fr) > r(ex, th, fr),
    ">=": lambda l, r: lambda ex, th, fr: l(ex, th, fr) >= r(ex, th, fr),
    "==": lambda l, r: lambda ex, th, fr: l(ex, th, fr) == r(ex, th, fr),
    "!=": lambda l, r: lambda ex, th, fr: l(ex, th, fr) != r(ex, th, fr),
    "and": lambda l, r: lambda ex, th, fr: _and(l(ex, th, fr), r(ex, th, fr)),
    "or": lambda l, r: lambda ex, th, fr: _or(l(ex, th, fr), r(ex, th, fr)),
}

#: the same with a constant right operand captured (``i + 1``, ``i < n``,
#: ``x % 251``); ``%`` only for a non-zero constant
_BIN_CONST = {
    "+": lambda l, k: lambda ex, th, fr: l(ex, th, fr) + k,
    "-": lambda l, k: lambda ex, th, fr: l(ex, th, fr) - k,
    "*": lambda l, k: lambda ex, th, fr: l(ex, th, fr) * k,
    "%": lambda l, k: lambda ex, th, fr: l(ex, th, fr) % k,
    "<": lambda l, k: lambda ex, th, fr: l(ex, th, fr) < k,
    "<=": lambda l, k: lambda ex, th, fr: l(ex, th, fr) <= k,
    ">": lambda l, k: lambda ex, th, fr: l(ex, th, fr) > k,
    ">=": lambda l, k: lambda ex, th, fr: l(ex, th, fr) >= k,
    "==": lambda l, k: lambda ex, th, fr: l(ex, th, fr) == k,
    "!=": lambda l, k: lambda ex, th, fr: l(ex, th, fr) != k,
}

#: operators whose result is always a ``bool`` (no truth test needed)
_BOOL_OPS = frozenset(("<", "<=", ">", ">=", "==", "!=", "and", "or"))


def _is_bool_valued(expr):
    """Does evaluating ``expr`` always yield a ``bool``?"""
    if isinstance(expr, ast.Bin):
        return expr.op in _BOOL_OPS
    return isinstance(expr, ast.Un) and expr.op == "not"


def _reference_expr(expr):
    """Defer to the tree-walker (identical values and errors)."""
    def reference(ex, th, fr):
        return ex._eval(expr, th, fr, [])
    return reference


def _compile_var(name):
    def var(ex, th, fr):
        local = fr.locals
        if name in local:
            return local[name]
        shared = ex.globals
        if name in shared:
            return shared[name]
        raise InterpreterError(
            "undefined variable %r in %s" % (name, fr.func))
    return var


def _compile_field(base, name):
    def field(ex, th, fr):
        obj = ex.heap.deref(base(ex, th, fr), thread=th.name)
        if not isinstance(obj, HeapStruct):
            raise InterpreterError("field access on non-struct %r" % (obj,))
        return obj.get(name)
    return field


def _compile_index(base, index):
    def element(ex, th, fr):
        pointer = base(ex, th, fr)
        idx = index(ex, th, fr)
        obj = ex.heap.deref(pointer, thread=th.name)
        if not isinstance(obj, HeapArray):
            raise InterpreterError("index access on non-array %r" % (obj,))
        return obj.get(idx, thread=th.name)
    return element


def _compile_alloc_struct(fields):
    def alloc_struct(ex, th, fr):
        values = {}
        for name, value in fields:
            values[name] = value(ex, th, fr)
        return ex.heap.alloc_struct(values)
    return alloc_struct


def _compile_alloc_array(expr):
    if expr.elements is not None:
        elements = tuple(compile_expr(e) for e in expr.elements)

        def alloc_elements(ex, th, fr):
            return ex.heap.alloc_array([e(ex, th, fr) for e in elements])
        return alloc_elements
    size, fill = compile_expr(expr.size), compile_expr(expr.fill)

    def alloc_filled(ex, th, fr):
        n = size(ex, th, fr)
        value = fill(ex, th, fr)
        if not isinstance(n, int) or n < 0:
            raise InterpreterError("bad array size %r" % (n,))
        return ex.heap.alloc_array([value] * n)
    return alloc_filled


def compile_expr(expr):
    """``expr`` as a closure ``f(execution, thread, frame) -> value``.

    Returns what :meth:`Execution._eval` returns and raises what it
    raises (same exception type and message), without recording uses.
    """
    kind = type(expr)
    if kind is ast.Const:
        value = expr.value
        return lambda ex, th, fr: value
    if kind is ast.Null:
        return lambda ex, th, fr: NULL
    if kind is ast.Var:
        return _compile_var(expr.name)
    if kind is ast.Bin and expr.op in _BIN:
        left = compile_expr(expr.left)
        if type(expr.right) is ast.Const and expr.op in _BIN_CONST:
            k = expr.right.value
            if not (expr.op == "%" and k == 0):
                return _BIN_CONST[expr.op](left, k)
        return _BIN[expr.op](left, compile_expr(expr.right))
    if kind is ast.Un and expr.op == "not":
        operand = compile_expr(expr.operand)
        return lambda ex, th, fr: not truthy(operand(ex, th, fr))
    if kind is ast.Un and expr.op == "-":
        operand = compile_expr(expr.operand)
        return lambda ex, th, fr: -operand(ex, th, fr)
    if kind is ast.Field:
        return _compile_field(compile_expr(expr.base), expr.name)
    if kind is ast.Index:
        return _compile_index(compile_expr(expr.base),
                              compile_expr(expr.index))
    if kind is ast.AllocStruct:
        return _compile_alloc_struct(
            tuple((name, compile_expr(sub)) for name, sub in expr.fields))
    if kind is ast.AllocArray:
        return _compile_alloc_array(expr)
    return _reference_expr(expr)


def _compile_store(target):
    """An lvalue as ``store(execution, thread, frame, value)`` (Field /
    Index targets; Var targets are inlined into their ASSIGN)."""
    if type(target) is ast.Field:
        base, name = compile_expr(target.base), target.name

        def store_field(ex, th, fr, value):
            obj = ex.heap.deref(base(ex, th, fr), thread=th.name)
            if not isinstance(obj, HeapStruct):
                raise InterpreterError(
                    "field store on non-struct %r" % (obj,))
            obj.set(name, value)
        return store_field
    if type(target) is ast.Index:
        base, index = compile_expr(target.base), compile_expr(target.index)

        def store_element(ex, th, fr, value):
            pointer = base(ex, th, fr)
            idx = index(ex, th, fr)
            obj = ex.heap.deref(pointer, thread=th.name)
            if not isinstance(obj, HeapArray):
                raise InterpreterError(
                    "index store on non-array %r" % (obj,))
            obj.set(idx, value, thread=th.name)
        return store_element

    def store_reference(ex, th, fr, value):
        ex._assign_into(target, value, th, fr, [], [])
    return store_reference


# ---------------------------------------------------------------------------
# instructions
# ---------------------------------------------------------------------------

def _compile_assign(instr):
    value, nxt = compile_expr(instr.expr), instr.pc + 1
    if type(instr.target) is ast.Var:
        name = instr.target.name

        def assign_var(ex, th, fr, eff):
            v = value(ex, th, fr)
            local = fr.locals
            if name in local or name not in ex.globals:
                local[name] = v
            else:
                ex.globals[name] = v
            fr.pc = nxt
        return assign_var
    store = _compile_store(instr.target)

    def assign(ex, th, fr, eff):
        store(ex, th, fr, value(ex, th, fr))
        fr.pc = nxt
    return assign


def _truth_of(value):
    return lambda ex, th, fr: truthy(value(ex, th, fr))


def _compile_branch(instr, exit_pc):
    cond, pc = compile_expr(instr.cond), instr.pc
    t_target, f_target = instr.t_target, instr.f_target
    if not _is_bool_valued(instr.cond):
        cond = _truth_of(cond)
    if not instr.is_loop:
        def branch(ex, th, fr, eff):
            outcome = cond(ex, th, fr)
            fr.region_stack.append(
                RegionEntry(pc, outcome, exit_pc, ex.step_count))
            fr.pc = t_target if outcome else f_target
        return branch
    loop_id = instr.loop_id
    # ``for`` loops recover their count from the counter variable; only
    # ``while`` loops carry the instrumentation counter
    counted = instr.counter_var is None

    def loop_branch(ex, th, fr, eff):
        outcome = cond(ex, th, fr)
        fr.region_stack.append(
            RegionEntry(pc, outcome, exit_pc, ex.step_count, loop_id))
        if outcome:
            if counted and ex.instrument_loops:
                counters = fr.loop_counters
                counters[loop_id] = counters.get(loop_id, 0) + 1
            fr.pc = t_target
        else:
            fr.pc = f_target
    return loop_branch


def _compile_call(instr, compiled):
    fc = compiled.functions[instr.callee]  # lowering rejects unknown callees
    if len(fc.params) != len(instr.args):
        return _reference_handler(instr)
    callee, params, target = instr.callee, tuple(fc.params), instr.target
    args, return_to = tuple(compile_expr(a) for a in instr.args), instr.pc + 1

    def call(ex, th, fr, eff):
        values = [arg(ex, th, fr) for arg in args]
        th.frames.append(ex._new_frame(
            callee, zip(params, values), ret_target=target,
            return_to=return_to, call_step=ex.step_count))
    return call


def _compile_return(instr):
    value = compile_expr(instr.expr) if instr.expr is not None else None

    def ret(ex, th, fr, eff):
        v = value(ex, th, fr) if value is not None else None
        frames = th.frames
        popped = frames.pop()
        if frames:
            caller = frames[-1]
            caller.pc = popped.return_to
            if popped.ret_target is not None:
                ex._assign_into(popped.ret_target, v, th, caller, [], [])
            return False
        th.status = ThreadStatus.DONE
        return True  # thread exit ends the chain
    return ret


def _compile_sync(instr):
    lock, pc, nxt = instr.lock, instr.pc, instr.pc + 1
    if instr.op is Opcode.ACQUIRE:
        sync = ("acquire", lock)

        def acquire(ex, th, fr, eff):
            ex.locks.acquire(lock, th.name, pc=pc)
            eff.sync = sync
            fr.pc = nxt
            return True  # the observer must see the sync before a pick
        return acquire
    sync = ("release", lock)

    def release(ex, th, fr, eff):
        ex.locks.release(lock, th.name, pc=pc)
        eff.sync = sync
        fr.pc = nxt
        return True
    return release


def _compile_assert(instr):
    cond, message, pc, nxt = (compile_expr(instr.cond), instr.message,
                              instr.pc, instr.pc + 1)

    def check(ex, th, fr, eff):
        if not truthy(cond(ex, th, fr)):
            raise AssertionFault(message, pc=pc, thread=th.name)
        fr.pc = nxt
    return check


def _compile_output(instr):
    value, nxt = compile_expr(instr.expr), instr.pc + 1

    def output(ex, th, fr, eff):
        ex.output.append((th.name, value(ex, th, fr)))
        fr.pc = nxt
    return output


def _compile_jump(instr):
    target = instr.jump_target

    def jump(ex, th, fr, eff):
        fr.pc = target
    return jump


def _compile_nop(instr):
    nxt = instr.pc + 1

    def nop(ex, th, fr, eff):
        fr.pc = nxt
    return nop


def _reference_handler(instr):
    """Defer to the reference handler.  Only for instructions that cannot
    run (a call with the wrong arity): it raises the reference error."""
    def reference(ex, th, fr, eff):
        ex._execute(instr, th, fr, eff)
    return reference


def compile_instr(instr, compiled, analysis):
    """``instr`` as a handler ``h(execution, thread, frame, effects)``."""
    op = instr.op
    if op is Opcode.ASSIGN:
        return _compile_assign(instr)
    if op is Opcode.BRANCH:
        return _compile_branch(instr, analysis.region_exit(instr.pc))
    if op is Opcode.JUMP:
        return _compile_jump(instr)
    if op is Opcode.NOP:
        return _compile_nop(instr)
    if op is Opcode.CALL:
        return _compile_call(instr, compiled)
    if op is Opcode.RETURN:
        return _compile_return(instr)
    if op is Opcode.ACQUIRE or op is Opcode.RELEASE:
        return _compile_sync(instr)
    if op is Opcode.ASSERT:
        return _compile_assert(instr)
    if op is Opcode.OUTPUT:
        return _compile_output(instr)
    return _reference_handler(instr)


# ---------------------------------------------------------------------------
# the per-program table
# ---------------------------------------------------------------------------

class ClosureTable:
    """Per-pc compiled handlers plus the static facts the run loops read.

    ``handlers[pc]`` executes the instruction at ``pc``; ``flags[pc]``
    holds :data:`REGION_WORK` / :data:`AT_ACQUIRE`; ``acquire_lock[pc]``
    is the lock an ``ACQUIRE`` at ``pc`` takes (None elsewhere) — the
    runnability test of every scheduler pick.
    """

    __slots__ = ("handlers", "flags", "acquire_lock")

    def __init__(self, compiled, analysis):
        instrs = compiled.instrs
        region_work = block_table_for(compiled, analysis).region_work
        self.handlers = [compile_instr(instr, compiled, analysis)
                         for instr in instrs]
        self.acquire_lock = [instr.lock if instr.op is Opcode.ACQUIRE
                             else None for instr in instrs]
        self.flags = [(REGION_WORK if region_work[pc] else 0)
                      | (AT_ACQUIRE if lock is not None else 0)
                      for pc, lock in enumerate(self.acquire_lock)]


def closure_table_for(compiled, analysis):
    """The (cached) closure table of ``compiled``."""
    table = getattr(compiled, "_closure_table", None)
    if table is None:
        table = ClosureTable(compiled, analysis)
        compiled._closure_table = table
    return table
