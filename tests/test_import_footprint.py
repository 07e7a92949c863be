"""The package's runtime import footprint.

Every process that runs the simulator (the CLI, the examples, each bench
child) pays for what it imports, in start-up time and in resident memory.
Two guards keep that small:

* the whole package pulls in only the standard library and numpy, so a
  heavy runtime dependency cannot come back unnoticed;
* a run imports only the subsystems it arms.  The package ``__init__``s
  export lazily, and the serving layer imports :mod:`repro.obs`,
  :mod:`repro.faults` and :mod:`repro.serving.overload` on the branch that
  arms them, so a run with none of them armed never loads them.  Every
  module a run needs is loaded by the time its server is built: none is
  imported for the first time inside ``server.run``.

Each case runs in a fresh interpreter, because ``sys.modules`` of the test
process already holds everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Submodule prefixes of the subsystems an unarmed run never needs.
OBS, OVERLOAD, FAULTS, CORE = (
    "repro.obs.", "repro.serving.overload", "repro.faults.", "repro.core.",
)

_PRELUDE = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m.startswith("repro"))
"""

_EVERY_MODULE = """
before = set(sys.modules)
import pkgutil, importlib, repro
for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
    importlib.import_module(info.name)
print(json.dumps(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""

# The bench child's order: the package __init__s, then build, then run.
_RUN = """
import repro, repro.core, repro.obs, repro.parallel, repro.serving
from repro import OPT_30B, v100_nvlink_node
from repro.serving.api import make_strategy
model = OPT_30B.scaled_layers(2)
node = v100_nvlink_node(4)
{build}
built = loaded()
server.run(inputs)
print(json.dumps({{"built": built, "ran": loaded()}}))
"""

_INTRA_SERVER = """
from repro.serving.server import Server
from repro.serving.workload import general_trace
server = Server(model, node, make_strategy("intra", model, node), {kwargs})
inputs = general_trace(8, 50.0, 2, seed=0)
"""

_LIGER_CONTINUOUS = """
from repro.serving.generation import ContinuousBatchingServer, generation_workload
server = ContinuousBatchingServer(
    model, node, make_strategy("liger", model, node), max_batch=4,
    record_trace=False,
)
inputs = generation_workload(8, 50.0, gen_tokens=(2, 4), seed=0)
"""

_CLI_SERVE = """
before = set(sys.modules)
import contextlib, io
from repro import cli
with contextlib.redirect_stdout(io.StringIO()):
    status = cli.main(["--requests", "4"])
print(json.dumps({"status": status, "new": sorted(set(sys.modules) - before)}))
"""


def _probe(code: str):
    """Run ``code`` in a fresh interpreter; return its last JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _PRELUDE + code],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def _under(modules, *prefixes):
    return [m for m in modules if m.startswith(prefixes)]


def test_import_pulls_in_only_stdlib_and_numpy():
    # Modules already loaded before the import (site hooks, ``.pth`` files)
    # belong to the interpreter's start-up, not to the package.
    imported = _probe(_EVERY_MODULE)
    assert "repro" in imported
    foreign = [
        name for name in imported
        if name not in ("repro", "numpy") and name not in sys.stdlib_module_names
    ]
    assert foreign == [], f"repro pulls in non-stdlib modules: {foreign}"


def test_unarmed_intra_op_run_loads_no_liger_obs_overload_or_faults():
    seen = _probe(_RUN.format(build=_INTRA_SERVER.format(kwargs="record_trace=False")))
    assert _under(seen["ran"], CORE, OBS, OVERLOAD, FAULTS) == []
    assert "repro.parallel.intra_op" in seen["built"]
    assert seen["ran"] == seen["built"], "modules first imported inside run"


def test_unarmed_liger_continuous_run_loads_no_obs_overload_or_faults():
    seen = _probe(_RUN.format(build=_LIGER_CONTINUOUS))
    assert _under(seen["ran"], OBS, OVERLOAD, FAULTS) == []
    assert "repro.core.runtime" in seen["built"]
    assert seen["ran"] == seen["built"], "modules first imported inside run"


def test_observability_still_arms_the_bus():
    build = _INTRA_SERVER.format(kwargs="record_trace=False, observability=obs")
    build = "from repro.obs import Observability\nobs = Observability()\n" + build
    code = _RUN.format(build=build).replace(
        '"ran": loaded()', '"ran": loaded(), "events": len(obs.bus)'
    )
    seen = _probe(code)
    assert "repro.obs.observability" in seen["built"]
    assert "repro.obs.events" in seen["ran"]
    assert seen["events"] > 0


def test_cli_serve_leaves_other_subcommands_unloaded():
    seen = _probe(_CLI_SERVE)
    assert seen["status"] == 0
    for module in ("repro.experiments.figures", "multiprocessing",
                   "concurrent.futures"):
        assert module not in seen["new"]
    assert _under(seen["new"], OBS, FAULTS, OVERLOAD) == []
