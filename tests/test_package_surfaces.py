"""Lazy package surfaces and the import footprint of each entrypoint.

Every package ``__init__`` under :mod:`repro` re-exports its ``__all__``
lazily (``repro._lazy_surface``, PEP 562), so importing a layer loads
that layer and the layers below it, and nothing else.  The first class
checks that the lazy surfaces are the eager ones; the second pins, in a
fresh interpreter each, which ``repro`` modules an entrypoint loads.
"""

import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

PACKAGES = (
    "repro", "repro.core", "repro.db", "repro.engine", "repro.model",
    "repro.protocols", "repro.trace", "repro.verify", "repro.workloads",
    "repro.service", "repro.service.sharding", "repro.service.sharding.procs",
    "repro.analysis", "repro.experiments", "repro.engine.kernel",
)


def _leaf_modules():
    """Every non-package ``repro`` module, imported."""
    modules = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name != "repro.__main__" and not info.ispkg:
            modules.append(importlib.import_module(info.name))
    return modules


def _loaded(code: str) -> list:
    """The ``repro`` modules a fresh interpreter holds after ``code``."""
    probe = code + (
        "\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules"
        " if m == 'repro' or m.startswith('repro.'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        check=True, env=dict(os.environ, PYTHONPATH=SRC),
    )
    return json.loads(out.stdout)


@pytest.mark.parametrize("package", PACKAGES)
class TestLazySurface:
    def test_each_name_is_its_defining_modules_object(self, package):
        pkg = importlib.import_module(package)
        leaves = _leaf_modules()
        for name in pkg.__all__:
            value = getattr(pkg, name)
            assert vars(pkg)[name] is value  # cached after the first access
            if inspect.isclass(value) or inspect.isfunction(value):
                home = sys.modules[value.__module__]
                assert vars(home)[name] is value, name
            else:  # a constant: some module must hold this very object
                assert any(vars(m).get(name) is value for m in leaves), name

    def test_star_import_binds_every_name(self, package):
        pkg = importlib.import_module(package)
        namespace = {}
        exec(f"from {package} import *", namespace)
        for name in pkg.__all__:
            assert namespace[name] is getattr(pkg, name), name

    def test_dir_lists_all(self, package):
        pkg = importlib.import_module(package)
        assert set(dir(pkg)) >= set(pkg.__all__)

    def test_unknown_name_is_an_attribute_error(self, package):
        pkg = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(pkg, "no_such_name")
        assert not hasattr(pkg, "no_such_name")


class TestSubmoduleAccess:
    def test_submodules_resolve_as_attributes_in_a_fresh_interpreter(self):
        loaded = _loaded(
            "import repro\n"
            "repro.verify.parity.parity_battery\n"
            "repro.service.sharding.procs.ShardSupervisor\n"
            "repro.engine.kernel.Kernel\n"
            "from repro.service import wire\n"
            "from repro.service import client as client_module\n"
            "assert client_module.ServiceClient is repro.service.ServiceClient"
        )
        assert {"repro.verify.parity", "repro.service.wire",
                "repro.service.sharding.procs.supervisor"} <= set(loaded)


#: What the server path must not load: the simulator, the oracles, the
#: ledger, the analysis, the workloads, the renderers, the client side
#: and sharding, and every protocol module but the registry (PCP-DA lives
#: in ``repro.core``).
SERVER_DENYLIST = re.compile(
    r"repro\.engine\.(simulator|event_queue)$"
    r"|repro\.(verify|experiments|analysis|workloads)(\..*)?$"
    r"|repro\.stats$"
    r"|repro\.trace\.(?!recorder$).*"
    r"|repro\.db\.(serializability|serialization_graph)$"
    r"|repro\.service\.(client|loadgen|sharding)(\..*)?$"
    r"|repro\.protocols\.(?!base$).*"
)


class TestImportFootprint:
    def test_exceptions_load_only_themselves(self):
        assert _loaded("import repro.exceptions") == [
            "repro", "repro.exceptions",
        ]

    def test_blocking_analysis_loads_no_simulator_and_no_kernel(self):
        # Section 9's BTS_i / B_i bound needs the ceilings and the model.
        loaded = _loaded("import repro.analysis.blocking")
        assert [
            m for m in loaded
            if m == "repro.engine.simulator"
            or m.startswith("repro.engine.kernel")
        ] == [], loaded

    def test_server_loads_the_lock_core_and_nothing_else(self):
        loaded = _loaded("import repro.service.server")
        assert len(loaded) <= 40, loaded
        assert [m for m in loaded if SERVER_DENYLIST.match(m)] == []

    def test_shard_host_loads_the_server_path_plus_its_own(self):
        # What `python -m repro shard-host ...` imports before it serves:
        # the CLI with every subparser, then the host module.
        loaded = _loaded(
            "from repro.cli import build_parser\n"
            "build_parser().parse_args(['shard-host', '--catalog', 'c.json'])\n"
            "import repro.service.sharding.procs.host"
        )
        assert len(loaded) <= 45, loaded
        own = {
            "repro.cli", "repro.workloads", "repro.workloads.io",
            "repro.model.priorities", "repro.service.sharding",
            "repro.service.sharding.procs",
            "repro.service.sharding.procs.host",
        }
        assert [
            m for m in loaded if SERVER_DENYLIST.match(m) and m not in own
        ] == []
