"""The benchmark's outside-only tracer still finds every name it wraps."""

import os

from maflow import geometry, verify

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_install_wraps_every_name_and_uninstall_restores(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracer

    names = tracer.POINTWISE + ("hessian_raw",)
    originals = {name: getattr(geometry, name) for name in names}
    checks = dict(verify.SINGLE_RUN_CHECKS)
    tr = tracer.Tracer()
    try:
        tr.install()   # getattr on a deleted or renamed name raises here
        wrapped = {name: getattr(geometry, name) is not fn for name, fn in originals.items()}
    finally:
        tr.uninstall()
    assert all(wrapped.values()), wrapped
    assert {name: getattr(geometry, name) for name in names} == originals
    assert verify.SINGLE_RUN_CHECKS == checks
