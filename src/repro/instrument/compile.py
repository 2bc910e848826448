"""Compiled fast-path for the instrumentation IR.

Lowers a :class:`~repro.instrument.ir.Module` to generated Python code
(one closure per IR function, built with ``exec``), executing 5-10x
faster than the tree-walking interpreter while producing **bit-identical**
results: the same return value, cycle count, instruction count, probe
firings, and probe timeline.

How fidelity is kept:

* Registers become Python locals, block labels become integer states in a
  ``while``/``elif`` dispatch loop, and probes are inlined as
  cycle-counter compares — but every cycle charge appears as a float
  addition in exactly the interpreter's order.  When any effective cost
  in the module is fractional (loop-unroll discounts produce ``1/k``
  charges), float addition is non-associative, so no folding happens at
  all; only when every cost module-wide is an integer (partial sums stay
  exact below 2**53) are consecutive charges folded into one constant.
* Periodic probes keep their visit counter in the probe's own ``attrs``
  dict — the same slot the interpreter mutates — so interleaving
  interpreted and compiled runs of one module stays in phase.
* The instruction-budget counter is folded per straight-line segment and
  checked at segment boundaries: a program that exhausts its budget
  raises the same :class:`~repro.instrument.interp.InterpreterError`, at
  slightly coarser granularity (the check never under-fires, because the
  segment's increment lands before the check).

Constructs the generator cannot express raise :class:`CompileUnsupported`
and the caller falls back to the interpreter — :func:`executor_for` does
this automatically.  The interpreter stays the reference the compiled
code is tested against.

The IR is snapshotted at compile time: mutating a module after compiling
it (e.g. re-running instrumentation passes) requires a fresh
:class:`CompiledModule`.
"""

from repro.instrument.interp import (
    ExecutionResult,
    Interpreter,
    InterpreterError,
    _RunState,
)
from repro.instrument.ir import OP_CYCLES

__all__ = [
    "CompileUnsupported",
    "CompiledModule",
    "executor_for",
]

#: Opcodes lowered as plain binary expressions: (template, cost).
_BINOPS = {
    "add": ("{x} + {y}", 1),
    "sub": ("{x} - {y}", 1),
    "mul": ("{x} * {y}", 3),
    "fadd": ("{x} + {y}", 3),
    "fsub": ("{x} - {y}", 3),
    "fmul": ("{x} * {y}", 4),
    "cmp_lt": ("1 if {x} < {y} else 0", 1),
    "cmp_le": ("1 if {x} <= {y} else 0", 1),
    "cmp_eq": ("1 if {x} == {y} else 0", 1),
    "cmp_ne": ("1 if {x} != {y} else 0", 1),
    "and": ("int({x}) & int({y})", 1),
    "or": ("int({x}) | int({y})", 1),
    "xor": ("int({x}) ^ int({y})", 1),
    "shl": ("int({x}) << int({y})", 1),
    "shr": ("int({x}) >> int({y})", 1),
}


def executor_for(module, memory_words=1 << 16, record_probes=True):
    """Build the fastest available executor for ``module``.

    Returns a :class:`CompiledModule` when the module compiles, else an
    :class:`~repro.instrument.interp.Interpreter`; both expose the same
    ``run(args, function, max_instructions, preempt_check)`` API and
    produce bit-identical results.
    """
    try:
        return CompiledModule(
            module, memory_words=memory_words, record_probes=record_probes
        )
    except CompileUnsupported:
        return Interpreter(
            module, memory_words=memory_words, record_probes=record_probes
        )


class CompileUnsupported(Exception):
    """The module uses a construct the code generator cannot express."""


class CompiledModule:
    """Drop-in replacement for :class:`~repro.instrument.interp.Interpreter`
    backed by generated Python code.  Same constructor, same ``run``
    signature, bit-identical :class:`ExecutionResult`."""

    MAX_DEPTH = Interpreter.MAX_DEPTH

    def __init__(self, module, memory_words=1 << 16, record_probes=True):
        self.module = module
        self.memory = [0.0] * memory_words
        self._memory_mask = memory_words - 1
        if memory_words & self._memory_mask:
            raise ValueError("memory_words must be a power of two")
        self.record_probes = record_probes
        self._fn_names = {}
        namespace = {
            "InterpreterError": InterpreterError,
            "_mem": self.memory,
        }
        integral = _module_is_integral(module)
        source = []
        for index, (name, function) in enumerate(
            sorted(module.functions.items())
        ):
            self._fn_names[name] = "_fn{}".format(index)
        for name, function in sorted(module.functions.items()):
            source.append(
                _generate_function(
                    function, self._fn_names, module, integral,
                    self._memory_mask, namespace,
                )
            )
        code = "\n".join(source)
        self._source = code
        exec(compile(code, "<ir:{}>".format(module.name), "exec"), namespace)
        self._functions = {
            name: namespace[pyname] for name, pyname in self._fn_names.items()
        }

    def run(self, args=(), function=None, max_instructions=50_000_000,
            preempt_check=None):
        """Execute ``function`` (default: the module entry) with ``args``;
        mirrors :meth:`Interpreter.run` exactly."""
        if function is None:
            function = self.module.entry_function()
        compiled = self._functions[function.name]
        if len(args) != len(function.params):
            raise InterpreterError(
                "{!r} expects {} args, got {}".format(
                    function.name, len(function.params), len(args)
                )
            )
        state = _RunState(max_instructions, preempt_check, self.record_probes)
        value = compiled(state, 0, *args)
        return ExecutionResult(
            value=value,
            cycles=int(round(state.cycles)),
            instructions=state.instructions,
            probes_fired=state.probes_fired,
            probe_times=state.probe_times,
        )


def _module_is_integral(module):
    """True when every cycle charge in the module is a whole number, in
    which case float addition is exact and charges may be folded."""
    for function in module.functions.values():
        for block in function.iter_blocks():
            for instr in block.instrs:
                for value in _instr_costs(instr):
                    if not float(value).is_integer():
                        return False
            t_attrs = block.terminator.attrs
            if "discount" in t_attrs:
                if not (1.0 / t_attrs["discount"]).is_integer():
                    return False
    return True


def _instr_costs(instr):
    if instr.op == "probe":
        yield instr.attrs.get("visit_cost", 0)
        yield instr.attrs["cost"]
        return
    if instr.op == "ext_call":
        yield instr.attrs["cost"]
        return
    if instr.op == "call":
        yield OP_CYCLES["call"]
        return
    cost = OP_CYCLES[instr.op]
    discount = instr.attrs.get("discount") if instr.attrs else None
    yield cost / discount if discount else cost


def _literal(value):
    """Source form of an immediate operand; exact for ints/floats."""
    if value is None or value is True or value is False:
        return repr(value)
    if type(value) is int:
        return repr(value)
    if type(value) is float:
        # repr() round-trips floats exactly on CPython.
        return repr(value)
    raise CompileUnsupported(
        "immediate of type {} cannot be compiled".format(type(value).__name__)
    )


class _FunctionWriter:
    """Accumulates generated lines with indentation, folding the cycle and
    instruction counters per straight-line segment when allowed."""

    def __init__(self, integral):
        self.lines = []
        self.integral = integral
        self._pending_cycles = 0.0
        self._pending_instrs = 0

    def emit(self, indent, text):
        self.lines.append("    " * indent + text)

    def charge(self, indent, value):
        """Charge ``value`` cycles.  Folds into the running segment total
        when the module is integral; otherwise emits the add immediately,
        preserving the interpreter's exact float-addition order."""
        if self.integral:
            self._pending_cycles += value
        elif value:
            self.emit(indent, "_cycles += {}".format(_literal(float(value))))

    def count_instr(self):
        self._pending_instrs += 1

    def flush(self, indent, func_name):
        """Close a straight-line segment: apply folded counters and the
        budget check before the next barrier (probe, call, terminator)."""
        if self._pending_instrs:
            self.emit(
                indent, "_ic += {}".format(self._pending_instrs)
            )
            self.emit(indent, "if _ic > _max_ic:")
            self.emit(
                indent + 1,
                "raise InterpreterError({!r})".format(
                    "instruction budget exhausted in {!r}".format(func_name)
                ),
            )
            self._pending_instrs = 0
        if self.integral and self._pending_cycles:
            self.emit(
                indent,
                "_cycles += {}".format(_literal(float(self._pending_cycles))),
            )
            self._pending_cycles = 0.0


def _generate_function(function, fn_names, module, integral, mask, namespace):
    regs = {}

    def reg(name):
        if name not in regs:
            regs[name] = "_r{}".format(len(regs))
        return regs[name]

    def operand(x):
        return reg(x) if type(x) is str else _literal(x)

    for param in function.params:
        reg(param)

    labels = {label: i for i, label in enumerate(function.block_order)}
    w = _FunctionWriter(integral)
    pyname = fn_names[function.name]
    params = "".join(", " + reg(p) for p in function.params)
    w.emit(0, "def {}(_state, _depth{}):".format(pyname, params))
    w.emit(1, "if _depth > {}:".format(CompiledModule.MAX_DEPTH))
    w.emit(2, "raise InterpreterError({!r})".format(
        "call depth exceeded in {!r}".format(function.name)))
    w.emit(1, "_cycles = _state.cycles")
    w.emit(1, "_ic = _state.instructions")
    w.emit(1, "_pf = _state.probes_fired")
    w.emit(1, "_lf = _state.last_fire")
    w.emit(1, "_max_ic = _state.max_instructions")
    w.emit(1, "_pt = _state.probe_times")
    w.emit(1, "_pc = _state.preempt_check")
    w.emit(1, "_rec = _state.record")
    w.emit(1, "_L = {}".format(labels[function.entry]))
    w.emit(1, "while True:")

    for bi, label in enumerate(function.block_order):
        block = function.blocks[label]
        branch = "if" if bi == 0 else "elif"
        w.emit(2, "{} _L == {}:".format(branch, labels[label]))
        ind = 3
        for instr in block.instrs:
            _generate_instr(
                w, ind, instr, function, fn_names, module, operand, mask,
                namespace,
            )
        w.flush(ind, function.name)
        _generate_terminator(w, ind, block.terminator, labels, operand)
    return "\n".join(w.lines) + "\n"


def _generate_instr(w, ind, instr, function, fn_names, module, operand,
                    mask, namespace):
    op = instr.op
    if op == "probe":
        attrs = instr.attrs
        w.count_instr()
        w.flush(ind, function.name)
        threshold = attrs.get("threshold")
        if threshold is not None:
            visit = attrs.get("visit_cost", 0)
            if visit:
                w.emit(ind, "_cycles += {}".format(_literal(float(visit))))
            w.emit(ind, "if _cycles - _lf >= {}:".format(_literal(threshold)))
            w.emit(ind + 1, "_lf = _cycles")
            w.emit(ind + 1, "_cycles += {}".format(
                _literal(float(attrs["cost"]))))
            w.emit(ind + 1, "_pf += 1")
            w.emit(ind + 1, "if _rec:")
            w.emit(ind + 2, "_pt.append(_cycles)")
            w.emit(ind + 1, "if _pc is not None:")
            w.emit(ind + 2, "_pc(_cycles)")
            return
        period = attrs.get("period", 1)
        if period > 1:
            # The visit counter lives in the probe's attrs dict — the
            # same slot the interpreter mutates — so compiled and
            # interpreted runs of one module share periodic phase.
            aname = "_attrs{}".format(len(namespace))
            namespace[aname] = attrs
            w.emit(ind, '_n = {}["_count"] = {}.get("_count", 0) + 1'.format(
                aname, aname))
            w.emit(ind, "if not _n % {}:".format(_literal(period)))
            w.emit(ind + 1, "_cycles += {}".format(
                _literal(float(attrs["cost"]))))
            w.emit(ind + 1, "_pf += 1")
            w.emit(ind + 1, "if _rec:")
            w.emit(ind + 2, "_pt.append(_cycles)")
            w.emit(ind + 1, "if _pc is not None:")
            w.emit(ind + 2, "_pc(_cycles)")
            return
        w.emit(ind, "_cycles += {}".format(_literal(float(attrs["cost"]))))
        w.emit(ind, "_pf += 1")
        w.emit(ind, "if _rec:")
        w.emit(ind + 1, "_pt.append(_cycles)")
        w.emit(ind, "if _pc is not None:")
        w.emit(ind + 1, "_pc(_cycles)")
        return

    if op == "ext_call":
        w.count_instr()
        w.charge(ind, instr.attrs["cost"])
        if instr.dst is not None:
            w.emit(ind, "{} = 0".format(operand(instr.dst)))
        return

    if op == "call":
        callee_name = instr.args[0]
        w.count_instr()
        w.flush(ind, function.name)
        callee = module.functions.get(callee_name)
        if callee is None:
            w.emit(ind, "raise InterpreterError({!r})".format(
                "call to unknown function {!r}".format(callee_name)))
            return
        w.emit(ind, "_cycles += {}".format(
            _literal(float(OP_CYCLES["call"]))))
        if len(instr.args) - 1 != len(callee.params):
            w.emit(ind, "raise InterpreterError({!r})".format(
                "{!r} expects {} args, got {}".format(
                    callee.name, len(callee.params), len(instr.args) - 1)))
            return
        w.emit(ind, "_state.cycles = _cycles")
        w.emit(ind, "_state.instructions = _ic")
        w.emit(ind, "_state.probes_fired = _pf")
        w.emit(ind, "_state.last_fire = _lf")
        call_args = "".join(
            ", " + operand(x) for x in instr.args[1:]
        )
        target = operand(instr.dst) if instr.dst is not None else "_d"
        w.emit(ind, "{} = {}(_state, _depth + 1{})".format(
            target, fn_names[callee_name], call_args))
        w.emit(ind, "_cycles = _state.cycles")
        w.emit(ind, "_ic = _state.instructions")
        w.emit(ind, "_pf = _state.probes_fired")
        w.emit(ind, "_lf = _state.last_fire")
        return

    w.count_instr()
    a = instr.args
    discount = instr.attrs.get("discount") if instr.attrs else None
    if op in ("li", "mov"):
        w.emit(ind, "{} = {}".format(operand(instr.dst), operand(a[0])))
        cost = 1
    elif op in _BINOPS:
        template, cost = _BINOPS[op]
        w.emit(ind, "{} = {}".format(
            operand(instr.dst),
            template.format(x=operand(a[0]), y=operand(a[1])),
        ))
    elif op == "div" or op == "fdiv":
        cost = OP_CYCLES[op]
        w.emit(ind, "_d = {}".format(operand(a[1])))
        w.emit(ind, "{} = {} / _d if _d else 0.0".format(
            operand(instr.dst), operand(a[0])))
    elif op == "load":
        w.emit(ind, "{} = _mem[int({}) & {}]".format(
            operand(instr.dst), operand(a[0]), mask))
        cost = 2
    elif op == "store":
        w.emit(ind, "_mem[int({}) & {}] = {}".format(
            operand(a[1]), mask, operand(a[0])))
        cost = 2
    else:
        raise CompileUnsupported("unhandled opcode {!r}".format(op))
    w.charge(ind, cost / discount if discount else cost)


def _generate_terminator(w, ind, terminator, labels, operand):
    t_attrs = terminator.attrs
    t_cost = 1.0 / t_attrs["discount"] if "discount" in t_attrs else 1.0
    w.emit(ind, "_cycles += {}".format(_literal(t_cost)))
    op = terminator.op
    if op == "jump":
        w.emit(ind, "_L = {}".format(labels[terminator.args[0]]))
        w.emit(ind, "continue")
        return
    if op == "br":
        cond = terminator.args[0]
        w.emit(ind, "_L = {} if {} else {}".format(
            labels[terminator.args[1]], operand(cond),
            labels[terminator.args[2]]))
        w.emit(ind, "continue")
        return
    # ret
    w.emit(ind, "_state.cycles = _cycles")
    w.emit(ind, "_state.instructions = _ic")
    w.emit(ind, "_state.probes_fired = _pf")
    w.emit(ind, "_state.last_fire = _lf")
    if terminator.args:
        w.emit(ind, "return {}".format(operand(terminator.args[0])))
    else:
        w.emit(ind, "return None")
