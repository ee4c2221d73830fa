"""Tests for the protocol registry and shared protocol contracts."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.engine.interfaces import ConcurrencyControlProtocol, InstallPolicy
from repro.exceptions import ProtocolError, UnknownProtocolError
from repro.protocols import available_protocols, make_protocol, register_protocol


EXPECTED = {
    "2pl", "2pl-hp", "ccp", "ipcp", "occ-bc", "pcp", "pcp-da", "pcp-da-checked",
    "pip-2pl", "rw-pcp", "rw-pcp-abort", "weak-pcp-da",
}


class TestRegistry:
    def test_all_protocols_registered(self):
        assert set(available_protocols()) == EXPECTED

    def test_make_protocol_returns_fresh_instances(self):
        a = make_protocol("pcp-da")
        b = make_protocol("pcp-da")
        assert a is not b

    def test_unknown_name_raises_with_choices(self):
        with pytest.raises(UnknownProtocolError) as exc:
            make_protocol("nope")
        assert "pcp-da" in str(exc.value)

    def test_kwargs_forwarded(self):
        protocol = make_protocol("pcp-da", enable_lc3=False)
        assert "LC3 off" in protocol.describe()

    def test_duplicate_registration_rejected(self):
        class Dup(ConcurrencyControlProtocol):
            name = "pcp-da"

            def decide(self, job, item, mode):  # pragma: no cover
                raise NotImplementedError

        with pytest.raises(ProtocolError):
            register_protocol(Dup)

    def test_unnamed_registration_rejected(self):
        class NoName(ConcurrencyControlProtocol):
            def decide(self, job, item, mode):  # pragma: no cover
                raise NotImplementedError

        with pytest.raises(ProtocolError):
            register_protocol(NoName)


#: Run in a fresh interpreter that imports only ``repro.protocols``:
#: which protocol modules are loaded before any is built, what every name
#: builds, and which duplicate registrations are refused.
_FRESH_REGISTRY = """
import json, sys
from repro.engine.interfaces import ConcurrencyControlProtocol
from repro.exceptions import ProtocolError
from repro.protocols import available_protocols, make_protocol, register_protocol

def loaded():
    return sorted(m for m in sys.modules if m.startswith("repro.protocols.")
                  or m == "repro.verify.lemmas")

def duplicate_refused(name):
    dup = type("Dup", (ConcurrencyControlProtocol,), {"name": name})
    try:
        register_protocol(dup)
    except ProtocolError:
        return True
    return False

names = available_protocols()
report = {"names": list(names), "loaded": loaded()}
report["refused_before"] = [duplicate_refused(n) for n in ("pcp-da", "ipcp")]
report["built"] = [make_protocol(n).name for n in names]
report["refused_after"] = [duplicate_refused(n) for n in names]
print(json.dumps(report))
"""


class TestRegistryImportOrder:
    def test_fresh_interpreter_knows_every_built_in_name(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", _FRESH_REGISTRY], capture_output=True,
            text=True, check=True, env=dict(os.environ, PYTHONPATH=src),
        )
        report = json.loads(out.stdout)
        # The names come from the built-in table: nothing is imported
        # for them, pcp-da-checked (defined in repro.verify) included.
        assert report["names"] == sorted(EXPECTED)
        assert report["loaded"] == ["repro.protocols.base"]
        assert report["refused_before"] == [True, True]
        assert report["built"] == sorted(EXPECTED)
        assert report["refused_after"] == [True] * len(EXPECTED)


class TestProtocolContracts:
    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_describe_is_nonempty(self, name):
        assert make_protocol(name).describe()

    def test_install_policies(self):
        assert make_protocol("pcp-da").install_policy is InstallPolicy.AT_COMMIT
        assert make_protocol("rw-pcp").install_policy is InstallPolicy.AT_WRITE
        assert make_protocol("ccp").install_policy is InstallPolicy.AT_WRITE
        assert make_protocol("pcp").install_policy is InstallPolicy.AT_WRITE
        assert make_protocol("2pl-hp").install_policy is InstallPolicy.AT_COMMIT

    def test_deadlock_declarations(self):
        assert not make_protocol("pcp-da").can_deadlock
        assert not make_protocol("rw-pcp").can_deadlock
        assert not make_protocol("ccp").can_deadlock
        assert not make_protocol("2pl-hp").can_deadlock
        assert not make_protocol("occ-bc").can_deadlock
        assert not make_protocol("rw-pcp-abort").can_deadlock
        assert make_protocol("pip-2pl").can_deadlock
        assert make_protocol("2pl").can_deadlock
        assert make_protocol("weak-pcp-da").can_deadlock

    def test_protocol_requires_bind_before_use(self):
        protocol = make_protocol("pcp-da")
        with pytest.raises(AssertionError):
            protocol.taskset
