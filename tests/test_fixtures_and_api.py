"""Coverage for the workload fixtures and the documented public API."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

from repro import Machine, Monitor, NullMonitor, Program, SafeMem
from repro.common.errors import MonitorError
from repro.core.config import leak_only_config
from repro.machine.machine import Machine as MachineDirect
from repro.workloads.fixtures import TouchedCache


class TestPublicApi:
    def test_readme_quickstart_contract(self):
        """The exact sequence shown in the README must behave as
        documented."""
        machine = Machine()
        program = Program(machine, monitor=SafeMem())
        buf = program.malloc(100)
        program.store(buf, b"hello")
        program.free(buf)
        with pytest.raises(MonitorError) as exc_info:
            program.load(buf, 1)
        assert "use_after_free" in str(exc_info.value)

    def test_top_level_exports(self):
        import repro
        for name in repro.__all__:
            assert getattr(repro, name) is not None
        assert Machine is MachineDirect
        assert issubclass(NullMonitor, Monitor)

    def test_version_is_set(self):
        import repro
        assert repro.__version__


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def loaded_modules(statement):
    """The ``repro`` modules a fresh interpreter holds after
    ``statement``."""
    probe = (f"import sys; {statement}; print(' '.join(sorted("
             f"name for name in sys.modules if name.startswith('repro'))))")
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


class TestImportBoundary:
    """Packages re-export nothing, so a module loads only what it
    imports."""

    def test_package_inits_hold_only_their_docstring(self):
        inits = sorted((SRC / "repro").glob("*/__init__.py"))
        assert len(inits) == 12
        for init in inits:
            tree = ast.parse(init.read_text())
            assert len(tree.body) == 1 and ast.get_docstring(tree), init

    def test_import_repro_loads_no_harness(self):
        loaded = loaded_modules("import repro")
        assert "repro.core.safemem" in loaded
        for package in ("analysis", "baselines", "workloads"):
            assert not {name for name in loaded
                        if name.startswith(f"repro.{package}")}, package
        assert {name for name in loaded if name.startswith("repro.obs")} \
            == {"repro.obs", "repro.obs.metrics", "repro.obs.trace"}

    def test_monitor_stack_loads_no_optional_obs_module(self):
        loaded = loaded_modules("import repro.obs.stack")
        assert "repro.obs.stack" in loaded
        assert not loaded & {
            f"repro.obs.{name}" for name in (
                "forensics", "checkpoint", "snapshot", "sink", "history",
                "merge")}


class TestTouchedCache:
    def _program(self, monitor=None):
        machine = Machine(dram_size=32 * 1024 * 1024)
        return Program(machine, monitor=monitor,
                       heap_size=8 * 1024 * 1024)

    def test_setup_allocates_and_roots(self):
        program = self._program()
        cache = TouchedCache(site=0x1, object_size=64, count=3)
        cache.setup(program, first_global_slot=5)
        assert len(cache.addresses) == 3
        for index, address in enumerate(cache.addresses):
            assert program.get_global(5 + index) == address
            assert program.allocator.is_live(address)

    def test_churn_allocates_same_group(self):
        program = self._program(monitor=SafeMem(leak_only_config()))
        safemem = program.monitor
        cache = TouchedCache(site=0x1, object_size=64, count=2)
        cache.setup(program, first_global_slot=0)
        cache.churn(program)
        groups = safemem.leak.groups.groups()
        assert len(groups) == 1  # residents and churn share one group
        assert groups[0].total_freed == 1

    def test_touch_cadence(self):
        program = self._program()
        cache = TouchedCache(site=0x1, object_size=64, count=2,
                             touch_period=4)
        cache.setup(program, first_global_slot=0)
        loads_before = program.machine.cache.hits + \
            program.machine.cache.misses
        # Request indices hitting each entry's period slot touch it.
        cache.touch(program, 0)   # touches entry 0 (0 % 4 == 0)
        cache.touch(program, 1)   # touches entry 1 (1 % 4 == 1)
        cache.touch(program, 2)   # touches nothing
        loads_after = program.machine.cache.hits + \
            program.machine.cache.misses
        assert loads_after > loads_before

    def test_rare_entries_use_rare_period(self):
        program = self._program()
        cache = TouchedCache(site=0x1, object_size=64, count=2,
                             touch_period=2, rare_indexes=(0,),
                             rare_period=1000)
        cache.setup(program, first_global_slot=0)
        accesses = []
        original_load = program.load

        def counting_load(addr, size=8):
            accesses.append(addr)
            return original_load(addr, size)

        program.load = counting_load
        for index in range(10):
            cache.touch(program, index)
        # Entry 0 is rare (period 1000): hit only at index 0.
        rare_hits = accesses.count(cache.addresses[0])
        common_hits = accesses.count(cache.addresses[1])
        assert rare_hits <= 1
        assert common_hits >= 4

    def test_touched_now_touches_all(self):
        program = self._program()
        cache = TouchedCache(site=0x1, object_size=64, count=4)
        cache.setup(program, first_global_slot=0)
        seen = []
        original_load = program.load
        program.load = lambda addr, size=8: (
            seen.append(addr), original_load(addr, size))[1]
        cache.touched_now(program)
        assert set(seen) == set(cache.addresses)


class TestMachineRepr:
    def test_repr_mentions_size_and_mode(self):
        machine = Machine(dram_size=4 * 1024 * 1024)
        text = repr(machine)
        assert "4 MiB" in text
        assert "correct_error" in text
