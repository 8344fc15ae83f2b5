"""The benchmark tracer wraps library functions and methods by name; check
that every name it wraps still exists and that uninstall puts each binding
back, so that traced and untraced runs can alternate in one process."""

import importlib.util
import pathlib
import sys

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / \
    "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces():
    """Every binding of every loaded rkhs_oed module, by module name."""
    return {name: dict(vars(mod)) for name, mod in list(sys.modules.items())
            if (name == "rkhs_oed" or name.startswith("rkhs_oed."))
            and mod is not None}


def test_tracer_uninstall_restores_every_binding():
    tracing = _load_tracing()
    before = _namespaces()
    methods = {(cls, attr): cls.__dict__[attr]
               for cls, attr, _ in tracing.METHOD_TARGETS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for owner, attr, _ in tracing.FUNCTION_TARGETS:
            assert getattr(owner, attr) is not before[owner.__name__][attr], \
                f"{owner.__name__}.{attr} not wrapped"
        for (cls, attr), original in methods.items():
            assert cls.__dict__[attr] is not original, \
                f"{cls.__name__}.{attr} not wrapped"
    finally:
        tracer.uninstall()
    after = _namespaces()
    for name, bindings in before.items():
        changed = [key for key, value in bindings.items()
                   if after[name].get(key) is not value]
        assert not changed, f"{name}: {changed} not restored"
    for (cls, attr), original in methods.items():
        assert cls.__dict__[attr] is original, \
            f"{cls.__name__}.{attr} not restored"
