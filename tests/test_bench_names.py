"""The benchmark's per-layer names must still name functions of medqnn.

``bench/layers.py`` reads spans named ``<module>.<function>`` and hooks
that read a function's positional arguments. A renamed function or a
reordered argument does not fail the benchmark: its metric just reads 0.
These tests load ``bench/layers.py`` as it is and check every name and
argument position it relies on.
"""

import importlib
import importlib.util
import inspect
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPAN_FIELDS = ("self_s", "total_s", "calls", "rows")


@pytest.fixture(scope="module")
def layers():
    sys.path.insert(0, str(BENCH))  # layers.py imports its siblings by bare name
    try:
        spec = importlib.util.spec_from_file_location("bench_layers", BENCH / "layers.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    finally:
        sys.path.remove(str(BENCH))


def traced_function(name):
    """The function a span ``<module>.<function>`` wraps, or None.

    The benchmark wraps only public functions defined in their own module.
    """
    module_name, _, function_name = name.partition(".")
    module = importlib.import_module(f"medqnn.{module_name}")
    fn = getattr(module, function_name, None)
    if function_name.startswith("_") or not inspect.isfunction(fn):
        return None
    return fn if fn.__module__ == module.__name__ else None


def positional_names(fn):
    return [
        p.name
        for p in inspect.signature(fn).parameters.values()
        if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD) and p.name != "self"
    ]


def spans_read(layers):
    """Every ``<module>.<function>`` whose span a per-layer metric reads."""
    source = (BENCH / "layers.py").read_text(encoding="utf-8")
    # metrics layer_metrics computes itself, e.g. values["gaussian.gate_build.self_s"] = ...
    computed = set(re.findall(r'values\["([^"]+)"\] =', source))
    names = set(layers.Hooks().table())
    names |= {f"gaussian.{name}" for name in layers.GATE_CONSTRUCTORS}
    for metric in set(layers.PER_LAYER_UNITS) - computed:
        parts = metric.split(".")
        if parts[-1] in SPAN_FIELDS and len(parts) >= 3 and parts[0] in layers.LAYERS:
            names.add(".".join(parts[:2]))
    # spans read by name inside layer_metrics, e.g. tracer.get(f"training.train_model.{kind}")
    names |= set(re.findall(r'tracer\.get\(f?"([a-z_]+\.[a-z_]+)', source))
    return sorted(names)


def test_every_traced_name_is_a_public_medqnn_function(layers):
    names = spans_read(layers)
    assert "models.loss_and_grad" in names and "statevector.param_shift_grad_all" in names
    missing = [name for name in names if traced_function(name) is None]
    assert missing == []


def test_hooks_read_unchanged_positional_arguments(layers):
    table = layers.Hooks().table()
    expected = {
        "models.loss_and_grad": ["model", "features"],
        "models.predict_batch": ["model", "features"],
        "models.logit_input_jacobian": ["model"],
        "statevector.run_circuit": ["circuit", "params", "inputs"],
        "training.train_model": ["kind"],
        "rng.normal_field": ["seeds", "draws"],
    }
    assert set(table) == set(expected)
    for name, hook_args in expected.items():
        assert positional_names(table[name]) == hook_args, name
        assert positional_names(traced_function(name))[: len(hook_args)] == hook_args, name
    # the training hook reads the config as the sixth argument after ``kind``
    assert positional_names(traced_function("training.train_model"))[6] == "config"
    assert positional_names(traced_function("rng.normal_field")) == ["seeds", "draws"]


def test_hooks_accept_every_argument_of_the_function_they_wrap(layers):
    """A traced call passes the hook what it passes the function, so a new
    parameter must fail here rather than raise TypeError in a traced run."""
    for name, hook in layers.Hooks().table().items():
        parameters = inspect.signature(traced_function(name)).parameters.values()
        named = [p.name for p in parameters if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
        keywords = {p.name: None for p in parameters if p.kind is p.KEYWORD_ONLY}
        hook_signature = inspect.signature(hook)
        try:
            hook_signature.bind(*named, **keywords)  # every argument by position
            hook_signature.bind(**dict.fromkeys(named), **keywords)  # and by keyword
        except TypeError as exc:
            pytest.fail(f"{name}: its hook cannot take {named} and {sorted(keywords)}: {exc}")
