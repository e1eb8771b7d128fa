"""Tests for the memory ops a core runs."""

from repro.cpu.ops import Compute, GatherLoad, GatherStore, Load, Store


class TestOps:
    def test_gather_load_freezes_addresses(self):
        op = GatherLoad([1, 2, 3])
        assert op.element_addrs == (1, 2, 3)

    def test_gather_store(self):
        op = GatherStore(range(4))
        assert op.element_addrs == (0, 1, 2, 3)

    def test_load_defaults(self):
        assert Load(100).size == 8

    def test_ops_hashable(self):
        assert hash(Compute(5)) == hash(Compute(5))
        assert Load(0, 8) == Load(0, 8)
