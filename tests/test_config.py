"""Configuration parameter tests."""

import numpy as np
import pytest

from repro.audit import AUDIT_ENV_VAR, resolve_level
from repro.config import (ConfigError, DEFAULT_PARAMETERS, SystemParameters,
                          paper_parameters)


def test_defaults_match_paper_technology():
    p = DEFAULT_PARAMETERS
    assert p.net_cycle_ns == 5.0              # 200 MB/s byte-wide link
    assert p.proc_cycle == 2                  # 100 MHz processor
    assert p.router_delay == 4                # 20 ns router
    assert p.cache_block_bytes == 32
    assert p.consumption_channels == 4        # deadlock-free bound [39]
    assert 2 <= p.iack_buffers <= 4           # paper's proposal


def test_derived_sizes():
    p = DEFAULT_PARAMETERS
    assert p.num_nodes == 64
    assert p.data_flits == 32
    assert p.control_message_flits == p.header_flits + p.control_flits
    assert p.data_message_flits == \
        p.header_flits + p.control_flits + p.data_flits


def test_paper_parameters_square_and_rect():
    p = paper_parameters(16)
    assert p.mesh_width == 16 and p.mesh_height == 16
    q = paper_parameters(8, 4)
    assert q.num_nodes == 32


def test_evolve_revalidates():
    p = DEFAULT_PARAMETERS.evolve(iack_buffers=2)
    assert p.iack_buffers == 2
    assert DEFAULT_PARAMETERS.iack_buffers == 4  # original untouched
    with pytest.raises(ValueError):
        p.evolve(iack_buffers=0)


@pytest.mark.parametrize("field,value", [
    ("mesh_width", 0),
    ("num_vnets", 1),
    ("consumption_channels", 0),
    ("vc_buffer_depth", 0),
    ("multidest_encoding", "morse"),
])
def test_validation_rejects_bad_values(field, value):
    with pytest.raises(ValueError):
        SystemParameters(**{field: value})


@pytest.mark.parametrize("field,value", [
    ("net_cycle_ns", 0.0),
    ("net_cycle_ns", -1.0),
    ("proc_cycle", 0),
    ("router_delay", -1),
    ("header_flits", 0),
    ("control_flits", -1),
    ("gather_payload_flits", -1),
    ("cache_block_bytes", 0),
    ("cache_access", -1),
    ("cache_invalidate", -2),
    ("dir_access", -1),
    ("mem_access", -5),
    ("send_overhead", -1),
    ("recv_overhead", -1),
    ("iack_deposit", -1),
    ("iack_pickup", -1),
])
def test_validation_raises_typed_config_error(field, value):
    with pytest.raises(ConfigError):
        SystemParameters(**{field: value})


@pytest.mark.parametrize("field,value,kind", [
    ("router_delay", "x", "an integer"),
    ("router_delay", 2.5, "an integer"),
    ("mesh_width", None, "an integer"),
    ("iack_buffers", True, "an integer"),
    ("net_cycle_ns", "5", "a number"),
    ("net_cycle_ns", True, "a number"),
    ("deferred_delivery", "false", "a boolean"),
    ("fault_nack", 1, "a boolean"),
    ("fault_aware_routing", np.bool_(True), "a boolean"),
    ("multidest_encoding", 3, "a string"),
    ("net_cycle_ns", float("nan"), "a number"),
    ("net_cycle_ns", float("inf"), "a number"),
    ("net_cycle_ns", -float("inf"), "a number"),
])
def test_wrong_field_type_is_a_config_error(field, value, kind):
    """Each field is checked against its annotation: a bool is no
    integer or number here, and a number is no boolean."""
    with pytest.raises(ConfigError, match=f"{field} must be {kind}"):
        SystemParameters(**{field: value})


def test_numeric_fields_take_any_integral_or_real_type():
    p = SystemParameters(mesh_width=np.int64(4), router_delay=np.int32(3),
                         net_cycle_ns=5)
    assert (p.mesh_width, p.router_delay, p.net_cycle_ns) == (4, 3, 5)
    assert SystemParameters(net_cycle_ns=np.float64(2.5)).net_cycle_ns \
        == 2.5


def test_config_error_is_a_value_error():
    """Pre-existing ``except ValueError`` call sites keep working."""
    assert issubclass(ConfigError, ValueError)
    with pytest.raises(ValueError):
        SystemParameters(mesh_width=0)


def test_audit_level_accepted_and_defaulted(monkeypatch):
    """The audit level is an argument of whatever installs a run's
    auditor, not a parameter of the modelled machine."""
    monkeypatch.delenv(AUDIT_ENV_VAR, raising=False)
    assert resolve_level() == "off"
    for level in ("off", "cheap", "full"):
        assert resolve_level(level) == level
    with pytest.raises(TypeError):
        paper_parameters(4, audit="full")
    with pytest.raises(TypeError):
        paper_parameters(4, multidest_header_flits=3)


def test_config_error_message_names_the_field():
    with pytest.raises(ConfigError, match="proc_cycle"):
        SystemParameters(proc_cycle=0)
    with pytest.raises(ConfigError, match="audit level"):
        resolve_level("loud")


def test_parameters_hashable_for_caching():
    a = paper_parameters(8)
    b = paper_parameters(8)
    assert a == b
    assert hash(a) == hash(b)
    assert a != a.evolve(iack_buffers=2)
