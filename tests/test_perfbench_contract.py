"""The names perfbench reads off tdlab stay defined.

``perfbench/run.py`` reports ``values[name]`` for every per-layer metric in
``BENCHMARK.json``, so a renamed or deleted public function makes a traced
run die with a ``KeyError``; the tracer binds a ``cfg`` argument of every
flow in ``tracing.RK4_FLOWS`` to count RK4 steps.  Both files are only read.
"""

import ast
import importlib
import inspect
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def rk4_flows() -> tuple:
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "RK4_FLOWS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no RK4_FLOWS")


def public_function(qualified: str):
    """The function the tracer wraps as ``layer.fn``: public, and defined in ``tdlab.<layer>``."""
    layer, fn = qualified.split(".")
    obj = getattr(importlib.import_module(f"tdlab.{layer}"), fn, None)
    assert not fn.startswith("_") and inspect.isfunction(obj), f"tdlab.{layer} has no public function {fn}"
    assert obj.__module__ == f"tdlab.{layer}", f"{qualified} is defined in {obj.__module__}"
    return obj


def test_per_layer_call_counts_name_public_functions():
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    counted = [name.removesuffix(".calls") for name in names if name.endswith(".calls")]
    assert "kernel_td.split_kernel" in counted
    for qualified in counted:
        public_function(qualified)


def test_rk4_flows_take_a_cfg_parameter():
    flows = rk4_flows()
    assert "kernel_td.kernel_td_flow" in flows
    for qualified in flows:
        assert "cfg" in inspect.signature(public_function(qualified)).parameters, qualified
