"""Per-layer self time of one ``BurstEngine.train_step``, measured from
outside the program.

The layers are the repo's modules: ``engine``, ``nn`` (model forward,
autograd backward, optimizer), ``attention``, ``kernels``, ``comm`` and
``lmhead``.  :func:`traced` replaces each layer's public entry points with
a timing wrapper for the duration of a ``with`` block and puts the
original objects back on exit, even when the step raises.  Nothing in
``src/`` is edited and ``repro.obs`` tracing stays off.

Self time is a wrapped call's duration minus the duration of the wrapped
calls nested inside it.  It needs a stack because the layers nest both
ways: ``Tensor.backward`` runs inside checkpoint replay, which runs inside
the outer ``Tensor.backward``, and the attention methods call kernels and
the communicator.  Every wrapped call's time lands in exactly one layer,
so the layers' self times sum to the root call (``engine.step``).
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from unittest import mock

#: The nine ``SimCommunicator`` delivery ops.
COMM_OPS = (
    "send", "exchange", "ring_shift", "all_to_all", "group_all_to_all",
    "all_gather", "reduce_scatter", "all_reduce", "broadcast",
)

#: Every layer the benchmark reports, in report order.
LAYERS = (
    "kernels.flash_fwd", "kernels.flash_bwd", "kernels.mlp",
    "attention.forward", "attention.backward", "comm", "lmhead",
    "nn.optim", "nn.forward", "nn.backward", "engine.fsdp", "engine.step",
)


class LayerTimer:
    """Accumulates self seconds and call counts per layer."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        # One entry per open wrapped call: seconds spent in its children.
        self._children_s: list[float] = []

    def wrap(self, layer: str, fn):
        stack = self._children_s
        clock = time.perf_counter

        def timed(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self.self_s[layer] += dt - stack.pop()
                self.calls[layer] += 1
                if stack:
                    stack[-1] += dt

        return timed


def hook_points(engine, backend) -> list[tuple[str, object, str]]:
    """``(layer, container, key)`` for every entry point :func:`traced`
    wraps.  A container is an instance, a class, a module or (for the
    LM-head registry) a dict."""
    import repro.engine.engine as engine_module
    from repro.lmhead import HEAD_IMPLEMENTATIONS
    from repro.nn.tensor import Tensor

    method = engine.method
    points = [
        ("engine.step", engine, "train_step"),
        ("engine.fsdp", engine_module, "log_fsdp_traffic"),
        ("nn.forward", engine.model, "forward"),
        ("nn.backward", Tensor, "backward"),
        ("nn.optim", engine.optimizer, "step"),
        ("lmhead", HEAD_IMPLEMENTATIONS, engine.config.head_impl),
        ("attention.forward", method, "forward_shards"),
        ("attention.backward", method, "backward_shards"),
        ("kernels.flash_fwd", backend, "flash_forward"),
        ("kernels.flash_bwd", backend, "flash_backward"),
        ("kernels.flash_bwd", backend, "flash_backward_tiles"),
        ("kernels.mlp", backend, "mlp_forward"),
        ("kernels.mlp", backend, "mlp_backward"),
    ]
    if hasattr(method, "make_context"):  # only context-rebuilding methods
        points.append(("attention.backward", method, "make_context"))
    points += [("comm", engine.comm, op) for op in COMM_OPS]
    return points


@contextmanager
def traced(engine, backend, timer: LayerTimer):
    """Route every hook point of ``engine`` through ``timer``; on exit
    each container holds exactly what it held before."""
    with ExitStack() as stack:
        for layer, container, key in hook_points(engine, backend):
            if isinstance(container, dict):
                wrapped = timer.wrap(layer, container[key])
                stack.enter_context(mock.patch.dict(container, {key: wrapped}))
            else:
                wrapped = timer.wrap(layer, getattr(container, key))
                stack.enter_context(mock.patch.object(container, key, wrapped))
        yield
