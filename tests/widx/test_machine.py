"""Tests for WidxMachine wiring and accounting."""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.db.hashfn import ROBUST_HASH_32
from repro.db.node import KERNEL_LAYOUT
from repro.errors import ConfigError
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.layout import AddressSpace
from repro.widx.machine import WidxMachine
from repro.widx.programs import (coupled_walker_program, dispatcher_program,
                                 producer_program, walker_program)


def make_machine(mode="shared", walkers=2):
    space = AddressSpace()
    config = DEFAULT_CONFIG.with_widx(mode=mode, num_walkers=walkers)
    machine = WidxMachine(config, MemoryHierarchy(config), space.memory)
    return machine, space


def standard_programs():
    return (dispatcher_program(ROBUST_HASH_32, KERNEL_LAYOUT),
            walker_program(KERNEL_LAYOUT),
            producer_program())


def test_shared_mode_unit_inventory():
    machine, _ = make_machine("shared", walkers=4)
    dispatcher, walker, producer = standard_programs()
    machine.build(dispatcher, walker, producer)
    names = set(machine.units)
    assert names == {"dispatcher", "walker0", "walker1", "walker2",
                     "walker3", "producer"}


def test_private_mode_pairs_dispatchers_with_walkers():
    machine, _ = make_machine("private", walkers=2)
    dispatcher, walker, producer = standard_programs()
    machine.build(dispatcher, walker, producer)
    assert {"dispatcher0", "dispatcher1", "walker0", "walker1",
            "producer"} == set(machine.units)


def test_coupled_mode_has_no_dispatchers():
    machine, _ = make_machine("coupled", walkers=3)
    coupled = coupled_walker_program(ROBUST_HASH_32, KERNEL_LAYOUT,
                                     stride_keys=3)
    machine.build(None, coupled, producer_program())
    assert not any(name.startswith("dispatcher") for name in machine.units)
    assert sum(1 for n in machine.units if n.startswith("walker")) == 3


def test_coupled_mode_rejects_dispatcher_program():
    machine, _ = make_machine("coupled")
    dispatcher, walker, producer = standard_programs()
    with pytest.raises(ConfigError):
        machine.build(dispatcher, walker, producer)


def test_decoupled_modes_require_dispatcher():
    machine, _ = make_machine("shared")
    _, walker, producer = standard_programs()
    with pytest.raises(ConfigError):
        machine.build(None, walker, producer)


def test_run_requires_build():
    machine, _ = make_machine()
    with pytest.raises(ConfigError):
        machine.run(expected_tuples=1)


def test_configuration_cycles_scale_with_program_sizes():
    small_machine, _ = make_machine("shared", walkers=1)
    big_machine, _ = make_machine("shared", walkers=4)
    programs = standard_programs()
    small_machine.build(*programs)
    big_machine.build(*programs)
    assert (big_machine.configuration_cycles()
            > small_machine.configuration_cycles())


def test_num_units_accounting_in_config():
    shared = DEFAULT_CONFIG.with_widx(mode="shared", num_walkers=4)
    private = DEFAULT_CONFIG.with_widx(mode="private", num_walkers=4)
    coupled = DEFAULT_CONFIG.with_widx(mode="coupled", num_walkers=4)
    assert shared.widx.num_units == 6    # 4 walkers + dispatcher + producer
    assert private.widx.num_units == 9   # 4 pairs + producer
    assert coupled.widx.num_units == 5   # 4 walkers + producer
