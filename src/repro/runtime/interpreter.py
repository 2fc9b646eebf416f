"""The step-based interpreter.

An :class:`Execution` owns the full machine state of one run: globals,
heap, locks, threads.  A *step* executes exactly one IR instruction of
one thread; the scheduler decides which thread steps next, so any
interleaving at instruction granularity is expressible — this is the
stand-in for true multicore parallelism (DESIGN.md substitution table).

The interpreter maintains, per frame, the *region stack* required by
execution indexing (entries pushed at predicate branches, popped at the
predicate's immediate post-dominator — EI rules 3 and 4) and, when
``instrument_loops`` is set, live ``while``-loop iteration counters (the
paper's only production-run instrumentation; its cost is what Fig. 10
measures).

This module is the hottest path in the codebase — every testrun of every
schedule search funnels through it.  On the instruction path
(:meth:`Execution.step`) opcodes dispatch through a class-level table of
bound handlers rather than an ``if/elif`` chain, and
:meth:`Execution.run` resolves hook and scheduler-observer methods once
per run instead of per step.

Block execution (the macro-step path)
-------------------------------------

When an execution is given a :class:`~repro.lang.blocks.BlockTable` and
carries no hooks, :meth:`Execution.run` switches to a block-granularity
loop for schedulers that support it: one scheduler pick drives a whole
*chain* of superblocks (:meth:`Execution.run_chain`), with one batched
effects summary, scheduler observation only at chain boundaries, and the
region-stack bookkeeping skipped at every pc where it provably cannot
fire.  The chain executes per-instruction closures compiled once per
program (:mod:`repro.runtime.closures`) rather than walking expression
trees, since nothing on this path reads use/def records.  Chains break
exactly at the points where a scheduler's instruction-mode decision
could differ from "continue the same thread":
before an ``ACQUIRE`` (the pick may block or redirect), immediately
after any sync instruction (the observer must see it before the next
pick), on thread exit or failure, and at the step budget.  Schedulers
participate through two optional attributes:

``block_granular = True``
    The scheduler's per-instruction picks provably return the running
    thread at every non-boundary point (deterministic and preempting
    schedulers), so a chain may run to the next boundary outright.
``block_commit(execution, runnable, thread, span, first)``
    The scheduler commits to a number of consecutive steps of
    ``thread``, drawing its per-instruction decisions eagerly (the
    seeded multicore scheduler) so the resulting interleaving is
    byte-identical to instruction mode.

Everything observable — step counts, per-thread instruction counts,
region stacks and loop counters (hence execution indices and core
dumps), output order, failures — is byte-identical between the two
paths; runs with hooks installed (tracing, alignment) always take the
instruction path, because hooks define per-instruction observability.
"""

from dataclasses import dataclass
from typing import Optional

from ..lang import ast
from ..lang.errors import (
    DivisionByZero,
    InterpreterError,
    LockFault,
    NullDereference,
    RuntimeFault,
    AssertionFault,
)
from ..lang.lower import Opcode
from ..lang.values import NULL, Pointer
from .closures import AT_ACQUIRE, REGION_WORK, closure_table_for
from .events import (
    Failure,
    StepEffects,
    StopExecution,
    global_loc,
    heap_loc,
    local_loc,
)
from .frames import Frame, RegionEntry, ThreadState, ThreadStatus
from .heap import Heap, HeapArray, HeapStruct
from .sync import LockTable
from .waitsfor import deadlock_failure, hang_failure


class ExecutionStatus:
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    DEADLOCK = "deadlock"
    STOPPED = "stopped"


@dataclass
class RunResult:
    """Outcome of :meth:`Execution.run`."""

    status: str
    failure: Optional[Failure]
    steps: int
    output: list
    stop_reason: Optional[str] = None
    stop_payload: object = None

    @property
    def failed(self):
        return self.status == ExecutionStatus.FAILED

    @property
    def completed(self):
        return self.status == ExecutionStatus.COMPLETED


class Execution:
    """One run of a compiled program under a scheduler.

    Parameters
    ----------
    compiled:
        The :class:`~repro.lang.lower.CompiledProgram`.
    analysis:
        The :class:`~repro.analysis.StaticAnalysis` of the same program
        (region exits are needed to maintain the region stacks).
    scheduler:
        An object with ``pick(execution, runnable) -> thread_name`` and an
        optional ``observe(execution, effects)``.
    input_overrides:
        Values for globals listed in ``program.inputs``.
    instrument_loops:
        Maintain ``while``-loop iteration counters (production
        instrumentation, paper Sec. 3.2).
    hooks:
        Objects with any of ``on_before_step(execution, thread, instr)``,
        ``on_after_step(execution, effects)``,
        ``on_failure(execution, failure)``.  Hooks may raise
        :class:`StopExecution`.
    blocks:
        Optional :class:`~repro.lang.blocks.BlockTable` of ``compiled``.
        When set (and no hooks are installed), :meth:`run` macro-steps
        the execution at block granularity for schedulers that support
        it; outcomes are byte-identical to instruction granularity.
    """

    def __init__(self, compiled, analysis, scheduler, input_overrides=None,
                 instrument_loops=True, hooks=(), max_steps=1_000_000,
                 blocks=None):
        self.compiled = compiled
        self.analysis = analysis
        self.program = compiled.program
        self.scheduler = scheduler
        #: direct reference to the instruction array — ``self._instrs[pc]``
        #: skips a method call on the hottest lookups
        self._instrs = compiled.instrs
        self._thread_order = [spec.name for spec in compiled.program.threads]
        self.instrument_loops = instrument_loops
        self.hooks = list(hooks)
        self.max_steps = max_steps
        self.blocks = blocks
        #: compiled handlers of the block path and the per-pc facts the
        #: pick loops read (built once per program, shared by every run)
        self._closures = closure_table_for(compiled, analysis)
        self._acquire_lock = self._closures.acquire_lock
        #: scheduler pick count (one per dispatch round-trip) and, for
        #: commit-style schedulers, block-commit call count — the
        #: benchmark's dispatch metrics; never fed back into execution
        self.sched_picks = 0
        self.sched_commits = 0

        self.heap = Heap()
        self.globals = {}
        self._init_globals(input_overrides or {})
        self.locks = LockTable(self.program.locks)
        self.threads = {}
        self._frame_uid = 0
        self._init_threads()

        self.step_count = 0
        self.output = []
        self.status = ExecutionStatus.RUNNING
        self.failure = None
        self.stop_reason = None
        self.stop_payload = None

    # -- initialization -----------------------------------------------------

    def _init_globals(self, overrides):
        for name in overrides:
            if name not in self.program.inputs:
                raise InterpreterError(
                    "override of %r which is not a declared input" % name)
        for name, init in self.program.globals.items():
            value = overrides.get(name, init)
            self.globals[name] = self.heap.alloc_from_python(value)

    def _new_frame(self, func_name, local_values, ret_target=None,
                   return_to=None, call_step=None):
        fc = self.compiled.func_code(func_name)
        self._frame_uid += 1
        return Frame(uid=self._frame_uid, func=func_name, pc=fc.entry_pc,
                     locals=dict(local_values), ret_target=ret_target,
                     return_to=return_to, call_step=call_step)

    def _init_threads(self):
        for spec in self.program.threads:
            fc = self.compiled.func_code(spec.func)
            if len(spec.args) != len(fc.params):
                raise InterpreterError(
                    "thread %s: %d args for %d params of %s"
                    % (spec.name, len(spec.args), len(fc.params), spec.func))
            frame = self._new_frame(spec.func, zip(fc.params, spec.args))
            self.threads[spec.name] = ThreadState(name=spec.name, frames=[frame])

    # -- expression evaluation ------------------------------------------------

    def _truthy(self, value):
        if isinstance(value, Pointer):
            return not value.is_null
        return bool(value)

    def _eval(self, expr, thread, frame, uses):
        """Evaluate ``expr``; read locations are appended to ``uses``."""
        if isinstance(expr, ast.Const):
            return expr.value
        if isinstance(expr, ast.Null):
            return NULL
        if isinstance(expr, ast.Var):
            name = expr.name
            if name in frame.locals:
                uses.append(local_loc(thread.name, frame.uid, name))
                return frame.locals[name]
            if name in self.globals:
                uses.append(global_loc(name))
                return self.globals[name]
            raise InterpreterError(
                "undefined variable %r in %s" % (name, frame.func))
        if isinstance(expr, ast.Bin):
            left = self._eval(expr.left, thread, frame, uses)
            right = self._eval(expr.right, thread, frame, uses)
            return self._apply_bin(expr.op, left, right)
        if isinstance(expr, ast.Un):
            operand = self._eval(expr.operand, thread, frame, uses)
            if expr.op == "not":
                return not self._truthy(operand)
            if expr.op == "-":
                return -operand
            raise InterpreterError("unknown unary op %r" % expr.op)
        if isinstance(expr, ast.Field):
            base = self._eval(expr.base, thread, frame, uses)
            obj = self.heap.deref(base, thread=thread.name)
            if not isinstance(obj, HeapStruct):
                raise InterpreterError("field access on non-struct %r" % (obj,))
            uses.append(heap_loc(base.obj_id, expr.name))
            return obj.get(expr.name)
        if isinstance(expr, ast.Index):
            base = self._eval(expr.base, thread, frame, uses)
            idx = self._eval(expr.index, thread, frame, uses)
            obj = self.heap.deref(base, thread=thread.name)
            if not isinstance(obj, HeapArray):
                raise InterpreterError("index access on non-array %r" % (obj,))
            value = obj.get(idx, thread=thread.name)
            uses.append(heap_loc(base.obj_id, idx))
            return value
        if isinstance(expr, ast.AllocStruct):
            fields = {}
            for name, sub in expr.fields:
                fields[name] = self._eval(sub, thread, frame, uses)
            return self.heap.alloc_struct(fields)
        if isinstance(expr, ast.AllocArray):
            if expr.elements is not None:
                elements = [self._eval(e, thread, frame, uses)
                            for e in expr.elements]
            else:
                size = self._eval(expr.size, thread, frame, uses)
                fill = self._eval(expr.fill, thread, frame, uses)
                if not isinstance(size, int) or size < 0:
                    raise InterpreterError("bad array size %r" % (size,))
                elements = [fill] * size
            return self.heap.alloc_array(elements)
        raise InterpreterError("cannot evaluate %r" % (expr,))

    def _apply_bin(self, op, left, right):
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise DivisionByZero("division by zero")
            return left // right if isinstance(left, int) else left / right
        if op == "%":
            if right == 0:
                raise DivisionByZero("modulo by zero")
            return left % right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        if op == "==":
            return left == right
        if op == "!=":
            return left != right
        if op == "and":
            return self._truthy(left) and self._truthy(right)
        if op == "or":
            return self._truthy(left) or self._truthy(right)
        raise InterpreterError("unknown binary op %r" % op)

    def _assign_into(self, target, value, thread, frame, uses, defs):
        """Store ``value`` at lvalue ``target`` within ``frame``."""
        if isinstance(target, ast.Var):
            name = target.name
            if name in frame.locals:
                frame.locals[name] = value
                defs.append(local_loc(thread.name, frame.uid, name))
            elif name in self.globals:
                self.globals[name] = value
                defs.append(global_loc(name))
            else:
                frame.locals[name] = value
                defs.append(local_loc(thread.name, frame.uid, name))
            return
        if isinstance(target, ast.Field):
            base = self._eval(target.base, thread, frame, uses)
            obj = self.heap.deref(base, thread=thread.name)
            if not isinstance(obj, HeapStruct):
                raise InterpreterError("field store on non-struct %r" % (obj,))
            obj.set(target.name, value)
            defs.append(heap_loc(base.obj_id, target.name))
            return
        if isinstance(target, ast.Index):
            base = self._eval(target.base, thread, frame, uses)
            idx = self._eval(target.index, thread, frame, uses)
            obj = self.heap.deref(base, thread=thread.name)
            if not isinstance(obj, HeapArray):
                raise InterpreterError("index store on non-array %r" % (obj,))
            obj.set(idx, value, thread=thread.name)
            defs.append(heap_loc(base.obj_id, idx))
            return
        raise InterpreterError("bad assignment target %r" % (target,))

    # -- region stack maintenance (EI rules 3 & 4) -----------------------------

    def _pop_regions(self, frame, pc):
        """EI rule 4: pop regions whose immediate post-dominator is ``pc``."""
        popped_loops = set()
        stack = frame.region_stack
        while stack and stack[-1].exit_pc == pc:
            entry = stack.pop()
            if entry.loop_id is not None:
                popped_loops.add(entry.loop_id)
        if popped_loops:
            live = {entry.loop_id for entry in stack if entry.loop_id is not None}
            for loop_id in popped_loops - live:
                frame.loop_counters.pop(loop_id, None)

    # -- scheduling predicates ---------------------------------------------

    def next_acquire(self, thread):
        """The lock ``thread``'s next instruction acquires, or None."""
        frames = thread.frames
        return self._acquire_lock[frames[-1].pc] if frames else None

    def thread_runnable(self, thread):
        """READY and not blocked on a lock held by another thread."""
        if thread.status is not ThreadStatus.READY:
            return False
        lock = self.next_acquire(thread)
        # shared predicate with the waits-for builder: held-by-self
        # still runs (and faults as a re-acquire) rather than blocks
        return lock is None or self.locks.is_free_for(lock, thread.name)

    def runnable_threads(self):
        """Names of runnable threads, in canonical program order."""
        # thread_runnable inlined: this runs once per scheduler pick
        threads = self.threads
        acquire_lock = self._acquire_lock
        is_free_for = self.locks.is_free_for
        runnable = []
        for name in self._thread_order:
            thread = threads[name]
            if thread.status is ThreadStatus.READY:
                lock = acquire_lock[thread.frames[-1].pc]
                if lock is None or is_free_for(lock, name):
                    runnable.append(name)
        return runnable

    def live_threads(self):
        return [t.name for t in self.threads.values() if t.is_live()]

    # -- the step ------------------------------------------------------------

    def step(self, thread_name):
        """Execute one instruction of ``thread_name``; returns effects.

        On a simulated crash the execution transitions to FAILED and the
        failure is recorded; the partially filled effects are returned.
        """
        thread = self.threads[thread_name]
        if thread.status is not ThreadStatus.READY:
            raise InterpreterError("stepping non-ready thread %s" % thread_name)
        frame = thread.current_frame
        pc = frame.pc
        self._pop_regions(frame, pc)
        instr = self._instrs[pc]
        effects = StepEffects(thread=thread_name, step=self.step_count,
                              pc=pc, op=instr.op)
        if thread.started_at is None:
            thread.started_at = self.step_count
        top = frame.top_region()
        effects.dynamic_cd_step = top.step if top is not None else frame.call_step
        try:
            self._execute(instr, thread, frame, effects)
        except RuntimeFault as fault:
            self.failure = Failure(kind=fault.kind, pc=pc, thread=thread_name,
                                   message=fault.message)
            self.status = ExecutionStatus.FAILED
            thread.status = ThreadStatus.FAILED
        self.step_count += 1
        thread.instr_count += 1
        return effects

    # -- block execution (the macro-step path) -------------------------------

    def run_chain(self, thread_name, runnable, commit=None, limit=None):
        """Execute one scheduler-atomic chain of ``thread_name``'s blocks.

        Runs the thread's compiled handlers (:mod:`.closures`) back to
        back under a single scheduler pick, breaking exactly where the
        next pick could matter: before an ``ACQUIRE``, right after any
        sync instruction (so the observer processes it before the next
        pick), on failure, thread exit, a pending scheduler switch, the
        ``max_steps`` budget, or after ``limit`` steps (used by the
        replay engine to stop at checkpoint steps).  Returns one batched
        :class:`StepEffects` summary: ``thread``, ``step`` and ``pc`` of
        the chain's start, the ``sync`` that ended it (if any), and
        ``batch``, the executed instruction count.  The per-instruction
        fields (``uses`` / ``defs``, branch outcome, call, return,
        output value) have no consumer on this path and stay unset.

        ``commit`` is the scheduler's ``block_commit`` (or None for
        block-granular schedulers): it pre-draws the scheduler's
        per-instruction decisions over each block so interleavings stay
        byte-identical to instruction mode.  Block-granular schedulers
        never switch inside a chain, so their chain runs as one stretch
        up to the next break point without consulting the partition.
        """
        thread = self.threads[thread_name]
        frames = thread.frames
        handlers = self._closures.handlers
        flags = self._closures.flags
        spans = self.blocks.span
        pop_regions = self._pop_regions
        max_steps = self.max_steps
        # positional: this runs once per chain, and keywords double the
        # cost of the dataclass constructor
        effects = StepEffects(thread_name, self.step_count, frames[-1].pc,
                              None)
        if thread.started_at is None:
            thread.started_at = self.step_count
        first = True
        executed = 0
        while True:
            count = max_steps - self.step_count
            if limit is not None and count > limit - executed:
                count = limit - executed
            if count < 1:
                # exhausted budget: mirror the instruction loop, which
                # always executes one step before its max-steps check
                count = 1
            pending = False
            if commit is not None:
                span = spans[frames[-1].pc]
                if count > span:
                    count = span
                if count > 1 or not first:
                    self.sched_commits += 1
                    committed = commit(self, runnable, thread_name, count,
                                       first)
                    pending = committed < count
                    count = committed
                    if count == 0:
                        break
            n = 0
            stop = False
            try:
                while n < count:
                    frame = frames[-1]
                    pc = frame.pc
                    flag = flags[pc]
                    if flag:
                        if n and flag & AT_ACQUIRE:
                            break  # pre-acquire pick point
                        if flag & REGION_WORK:
                            pop_regions(frame, pc)
                    stop = handlers[pc](self, thread, frame, effects)
                    self.step_count += 1
                    n += 1
                    if stop:
                        break
            except RuntimeFault as fault:
                self.failure = Failure(kind=fault.kind, pc=pc,
                                       thread=thread_name,
                                       message=fault.message)
                self.status = ExecutionStatus.FAILED
                thread.status = ThreadStatus.FAILED
                self.step_count += 1
                thread.instr_count += n + 1
                executed += n + 1
                break
            thread.instr_count += n
            executed += n
            if commit is None or stop or pending:
                break
            first = False
            if self.step_count >= max_steps:
                break
            if limit is not None and executed >= limit:
                break
            if flags[frames[-1].pc] & AT_ACQUIRE:
                break  # pre-acquire pick point (may block or redirect)
        effects.batch = executed
        return effects

    def _run_blocks(self, commit):
        """The block-granularity run loop (one pick per chain)."""
        scheduler = self.scheduler
        observe = getattr(scheduler, "observe", None)
        pick = scheduler.pick
        try:
            while self.status == ExecutionStatus.RUNNING:
                runnable = self.runnable_threads()
                if not runnable:
                    if self.live_threads():
                        self.status = ExecutionStatus.DEADLOCK
                        self.failure = deadlock_failure(self)
                    else:
                        self.status = ExecutionStatus.COMPLETED
                    break
                self.sched_picks += 1
                name = pick(self, runnable)
                if name not in runnable:
                    raise InterpreterError(
                        "scheduler picked non-runnable thread %r" % (name,))
                effects = self.run_chain(name, runnable, commit)
                if observe is not None:
                    observe(self, effects)
                if self.failure is not None:
                    break
                if self.step_count >= self.max_steps:
                    self.status = ExecutionStatus.STOPPED
                    self.stop_reason = "max-steps"
                    if self.live_threads():
                        self.failure = hang_failure(self)
                    break
        except StopExecution as stop:  # pragma: no cover - hookless path
            self.status = ExecutionStatus.STOPPED
            self.stop_reason = stop.reason
            self.stop_payload = stop.payload
        return RunResult(status=self.status, failure=self.failure,
                         steps=self.step_count, output=list(self.output),
                         stop_reason=self.stop_reason,
                         stop_payload=self.stop_payload)

    def block_mode(self):
        """Can this run macro-step?  (blocks installed, no hooks, and a
        scheduler that is either block-granular or commit-capable.)"""
        if self.blocks is None or self.hooks:
            return False
        return (getattr(self.scheduler, "block_granular", False)
                or getattr(self.scheduler, "block_commit", None) is not None)

    def _execute(self, instr, thread, frame, effects):
        handler = self._DISPATCH.get(instr.op)
        if handler is None:
            raise InterpreterError("unknown opcode %r" % (instr.op,))
        handler(self, instr, thread, frame, effects)

    def _exec_assign(self, instr, thread, frame, effects):
        value = self._eval(instr.expr, thread, frame, effects.uses)
        self._assign_into(instr.target, value, thread, frame,
                          effects.uses, effects.defs)
        frame.pc += 1

    def _exec_branch(self, instr, thread, frame, effects):
        value = self._eval(instr.cond, thread, frame, effects.uses)
        outcome = self._truthy(value)
        effects.branch_outcome = outcome
        exit_pc = self.analysis.region_exit(instr.pc)
        frame.region_stack.append(RegionEntry(
            pred_pc=instr.pc, outcome=outcome, exit_pc=exit_pc,
            step=self.step_count,
            loop_id=instr.loop_id if instr.is_loop else None))
        if instr.is_loop and outcome and instr.counter_var is None \
                and self.instrument_loops:
            counters = frame.loop_counters
            counters[instr.loop_id] = counters.get(instr.loop_id, 0) + 1
        frame.pc = instr.t_target if outcome else instr.f_target

    def _exec_jump(self, instr, thread, frame, effects):
        frame.pc = instr.jump_target

    def _exec_nop(self, instr, thread, frame, effects):
        frame.pc += 1

    def _exec_call(self, instr, thread, frame, effects):
        args = [self._eval(a, thread, frame, effects.uses)
                for a in instr.args]
        fc = self.compiled.func_code(instr.callee)
        if len(args) != len(fc.params):
            raise InterpreterError(
                "call %s: %d args for %d params"
                % (instr.callee, len(args), len(fc.params)))
        new_frame = self._new_frame(
            instr.callee, zip(fc.params, args), ret_target=instr.target,
            return_to=instr.pc + 1, call_step=self.step_count)
        thread.frames.append(new_frame)
        effects.call = instr.callee
        effects.entered_frame = True

    def _exec_return(self, instr, thread, frame, effects):
        value = None
        if instr.expr is not None:
            value = self._eval(instr.expr, thread, frame, effects.uses)
        popped = thread.frames.pop()
        effects.ret_from = popped.func
        if thread.frames:
            caller = thread.current_frame
            caller.pc = popped.return_to
            if popped.ret_target is not None:
                self._assign_into(popped.ret_target, value, thread, caller,
                                  effects.uses, effects.defs)
        else:
            thread.status = ThreadStatus.DONE

    def _exec_acquire(self, instr, thread, frame, effects):
        self.locks.acquire(instr.lock, thread.name, pc=instr.pc)
        effects.sync = ("acquire", instr.lock)
        frame.pc += 1

    def _exec_release(self, instr, thread, frame, effects):
        self.locks.release(instr.lock, thread.name, pc=instr.pc)
        effects.sync = ("release", instr.lock)
        frame.pc += 1

    def _exec_assert(self, instr, thread, frame, effects):
        value = self._eval(instr.cond, thread, frame, effects.uses)
        if not self._truthy(value):
            raise AssertionFault(instr.message, pc=instr.pc,
                                 thread=thread.name)
        frame.pc += 1

    def _exec_output(self, instr, thread, frame, effects):
        value = self._eval(instr.expr, thread, frame, effects.uses)
        self.output.append((thread.name, value))
        effects.output_value = value
        frame.pc += 1

    #: opcode -> unbound handler; resolved once at class-definition time
    _DISPATCH = {
        Opcode.ASSIGN: _exec_assign,
        Opcode.BRANCH: _exec_branch,
        Opcode.JUMP: _exec_jump,
        Opcode.NOP: _exec_nop,
        Opcode.CALL: _exec_call,
        Opcode.RETURN: _exec_return,
        Opcode.ACQUIRE: _exec_acquire,
        Opcode.RELEASE: _exec_release,
        Opcode.ASSERT: _exec_assert,
        Opcode.OUTPUT: _exec_output,
    }

    # -- the run loop ----------------------------------------------------------

    def _bound_hook_methods(self, name):
        """Pre-resolved ``name`` methods of the hooks, in hook order."""
        methods = []
        for hook in self.hooks:
            method = getattr(hook, name, None)
            if method is not None:
                methods.append(method)
        return methods

    def run(self):
        """Drive the execution to completion, failure, deadlock, or stop.

        With a block table, no hooks, and a block-capable scheduler the
        run macro-steps at block granularity (byte-identical outcomes,
        far fewer scheduler dispatches); otherwise hook and
        scheduler-observer methods are resolved once up front and the
        per-step loop only calls pre-bound callables (hooks must be
        fully installed before ``run`` is entered).
        """
        if self.block_mode():
            return self._run_blocks(
                getattr(self.scheduler, "block_commit", None))
        before_hooks = self._bound_hook_methods("on_before_step")
        after_hooks = self._bound_hook_methods("on_after_step")
        failure_hooks = self._bound_hook_methods("on_failure")
        observe = getattr(self.scheduler, "observe", None)
        pick = self.scheduler.pick
        instrs = self._instrs
        threads = self.threads
        try:
            while self.status == ExecutionStatus.RUNNING:
                runnable = self.runnable_threads()
                if not runnable:
                    if self.live_threads():
                        self.status = ExecutionStatus.DEADLOCK
                        self.failure = deadlock_failure(self)
                    else:
                        self.status = ExecutionStatus.COMPLETED
                    break
                self.sched_picks += 1
                name = pick(self, runnable)
                if name not in runnable:
                    raise InterpreterError(
                        "scheduler picked non-runnable thread %r" % (name,))
                for before in before_hooks:
                    before(self, name, instrs[threads[name].pc])
                effects = self.step(name)
                if observe is not None:
                    observe(self, effects)
                if self.failure is not None:
                    for on_failure in failure_hooks:
                        on_failure(self, self.failure)
                    break
                for after in after_hooks:
                    after(self, effects)
                if self.step_count >= self.max_steps:
                    self.status = ExecutionStatus.STOPPED
                    self.stop_reason = "max-steps"
                    if self.live_threads():
                        self.failure = hang_failure(self)
                    break
        except StopExecution as stop:
            self.status = ExecutionStatus.STOPPED
            self.stop_reason = stop.reason
            self.stop_payload = stop.payload
        return RunResult(status=self.status, failure=self.failure,
                         steps=self.step_count, output=list(self.output),
                         stop_reason=self.stop_reason,
                         stop_payload=self.stop_payload)
