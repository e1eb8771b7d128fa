"""Tests for the ISA extension and the memory ops."""

import pytest

from repro.cpu import isa
from repro.cpu.ops import Compute, GatherLoad, GatherStore, Load, Store


class TestISA:
    def test_encode_decode_sload(self):
        word = isa.encode("sload", 3, 0xDEADBEEF)
        inst = isa.decode(word)
        assert inst.mnemonic == "sload"
        assert inst.register == 3
        assert inst.address == 0xDEADBEEF
        assert inst.is_load

    def test_encode_decode_sstore(self):
        inst = isa.decode(isa.encode("sstore", 255, 0))
        assert inst.mnemonic == "sstore" and not inst.is_load

    def test_rejects_unknown_mnemonic(self):
        with pytest.raises(ValueError):
            isa.encode("sadd", 0, 0)

    def test_rejects_bad_register(self):
        with pytest.raises(ValueError):
            isa.encode("sload", 256, 0)

    def test_rejects_wide_address(self):
        with pytest.raises(ValueError):
            isa.encode("sload", 0, 1 << 48)

    def test_rejects_non_stride_opcode(self):
        with pytest.raises(ValueError):
            isa.decode(0x00 << 56)

    def test_address_roundtrip_48_bits(self):
        addr = (1 << 48) - 1
        assert isa.decode(isa.encode("sload", 1, addr)).address == addr


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
