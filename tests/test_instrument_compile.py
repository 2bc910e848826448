"""Differential tests for the compiled IR fast-path.

The compiled backend must be bit-identical to the interpreter — same
return value, cycle count, instruction count, probe firings, probe
timeline, and preempt-check observations — across **all 24 kernels and
both probe styles**, with the full instrumentation pipeline applied.
Fractional cycle charges (unroll discounts) make float addition
non-associative, so these tests are what licenses the code generator's
constant-folding rules.
"""

import struct

import pytest

from repro.instrument.compile import (
    CompiledModule,
    CompileUnsupported,
    executor_for,
)
from repro.instrument.interp import Interpreter, InterpreterError
from repro.instrument.ir import Function, Instr, Module, Terminator
from repro.instrument.kernels import KERNELS
from repro.instrument.passes import CACHELINE_STYLE, RDTSC_STYLE
from repro.instrument.profile import (
    InstrumentationProfile,
    build_kernel_modules,
    profile_kernel,
)


def bits(value):
    """Bit-pattern identity: distinguishes NaN payloads and -0.0, which
    ``==`` would blur."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    return value


@pytest.mark.parametrize("style", [CACHELINE_STYLE, RDTSC_STYLE])
@pytest.mark.parametrize("spec", KERNELS, ids=lambda s: s.name)
def test_compiled_matches_interpreter(spec, style):
    pokes_interp, pokes_compiled = [], []
    interp = Interpreter(build_kernel_modules(spec.factory, style=style)[1])
    compiled = CompiledModule(build_kernel_modules(spec.factory, style=style)[1])
    a = interp.run(preempt_check=pokes_interp.append)
    b = compiled.run(preempt_check=pokes_compiled.append)
    assert bits(a.value) == bits(b.value)
    assert a.cycles == b.cycles
    assert a.instructions == b.instructions
    assert a.probes_fired == b.probes_fired
    assert a.probe_times == b.probe_times
    assert pokes_interp == pokes_compiled


@pytest.mark.parametrize("style", [CACHELINE_STYLE, RDTSC_STYLE])
@pytest.mark.parametrize("spec", KERNELS, ids=lambda s: s.name)
def test_profile_modules_compile(spec, style):
    """Every module profile_kernel runs compiles, so its executor_for
    never silently falls back to the interpreter."""
    for module in build_kernel_modules(spec.factory, style=style):
        assert isinstance(executor_for(module), CompiledModule)


@pytest.mark.parametrize("style", [CACHELINE_STYLE, RDTSC_STYLE])
def test_profile_kernel_identical_across_backends(style):
    spec = KERNELS[0]
    base_module, module = build_kernel_modules(spec.factory, style=style)
    base = Interpreter(base_module, record_probes=False).run()
    run = Interpreter(module).run()
    p_interp = InstrumentationProfile(
        name=base_module.name, style=style, base_cycles=base.cycles,
        instrumented_cycles=run.cycles, probe_times=run.probe_times,
        probes_fired=run.probes_fired,
    )
    p_compiled = profile_kernel(spec.factory, style=style)
    assert p_interp.base_cycles == p_compiled.base_cycles
    assert p_interp.instrumented_cycles == p_compiled.instrumented_cycles
    assert p_interp.probes_fired == p_compiled.probes_fired
    assert p_interp.probe_times == p_compiled.probe_times
    assert p_interp.max_gap_cycles == p_compiled.max_gap_cycles


def test_periodic_probe_state_shared_with_interpreter():
    """Interleaved interpreted/compiled runs of one module stay in phase:
    the compiled code mutates the same attrs["_count"] slot."""
    module = build_kernel_modules(KERNELS[0].factory)[1]
    interp = Interpreter(module)
    compiled = CompiledModule(module)
    a = interp.run()
    b = compiled.run()
    c = interp.run()
    # The second and third runs continue the same periodic phase the
    # first run left behind, whichever engine executes them.
    assert b.probes_fired == c.probes_fired
    assert a.instructions == b.instructions == c.instructions


def _tiny_module(ret=("x",)):
    module = Module("tiny")
    fn = Function("main", params=("x",))
    module.add(fn)
    block = fn.add_block("entry")
    block.append(Instr("add", "x", ("x", 1)))
    block.terminate(Terminator("ret", ret))
    return module


def test_executor_for_backends():
    executor = executor_for(_tiny_module(), record_probes=False)
    assert isinstance(executor, CompiledModule)
    reference = Interpreter(_tiny_module(), record_probes=False)
    assert executor.run(args=(41,)).value == reference.run(args=(41,)).value == 42


def test_unsupported_module_falls_back():
    # A tuple immediate has no exact source form, so the generator must
    # refuse it and executor_for must fall back to the interpreter.
    module = Module("odd")
    fn = Function("main", params=())
    module.add(fn)
    block = fn.add_block("entry")
    block.append(Instr("li", "x", ((1, 2),)))
    block.terminate(Terminator("ret", ("x",)))
    with pytest.raises(CompileUnsupported):
        CompiledModule(module)
    assert isinstance(executor_for(module), Interpreter)
    assert executor_for(module).run().value == (1, 2)


def test_entry_arg_mismatch_raises_like_interpreter():
    module = _tiny_module()
    with pytest.raises(InterpreterError):
        CompiledModule(module).run(args=(1, 2))
    with pytest.raises(InterpreterError):
        Interpreter(module).run(args=(1, 2))


def test_instruction_budget_raises_same_error():
    module = Module("loop")
    fn = Function("main", params=())
    module.add(fn)
    block = fn.add_block("entry")
    block.append(Instr("li", "x", (0,)))
    block.terminate(Terminator("jump", ("spin",)))
    spin = fn.add_block("spin")
    spin.append(Instr("add", "x", ("x", 1)))
    spin.terminate(Terminator("jump", ("spin",)))
    for engine in (Interpreter(module), CompiledModule(module)):
        with pytest.raises(InterpreterError, match="instruction budget"):
            engine.run(max_instructions=1000)


def test_call_depth_raises_same_error():
    module = Module("deep")
    fn = Function("main", params=())
    module.add(fn)
    block = fn.add_block("entry")
    block.append(Instr("call", "x", ("main",)))
    block.terminate(Terminator("ret", ("x",)))
    for engine in (Interpreter(module), CompiledModule(module)):
        with pytest.raises(InterpreterError, match="call depth exceeded"):
            engine.run()
