"""Outside-in span tracing for the traced benchmark run.

The program itself carries no instrumentation.  :class:`Instrumentation`
wraps the public entry points of each layer (``repro.pipeline``,
``repro.nn.fusion``, ``repro.layout.tiling``, ``repro.litho``, ``repro.opc``)
from here, by replacing class and module attributes for the duration of a
traced block and putting the originals back afterwards.  Untraced blocks
therefore run the program's own code objects with no wrapper in between.

A span is ``(name, start, end, parent, call)``: ``parent`` is the index of
the enclosing span (-1 at the top), ``call`` the benchmark call it belongs
to.  A span's self time is its duration minus the duration of its direct
children; the benchmark is single-threaded, so children nest strictly.

Functions imported by name into a consumer module (``extract_tiles`` into
``repro.pipeline.engine``, ``build_mask`` into ``repro.opc.engine``) are
wrapped in the consumer's namespace, where the call site looks them up.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import flops

#: ``FusedChain.label`` -> ``DOINN.summary()`` row (paper Tables 5-7).
CHAIN_ROWS = {
    "LocalPerception._stage1": "lp_conv1",
    "LocalPerception._stage2": "lp_conv2",
    "LocalPerception._stage3": "lp_conv3",
    "ImageReconstruction._up1": "ir_dconv1",
    "ImageReconstruction._up2": "ir_dconv2",
    "ImageReconstruction._up3": "ir_dconv3",
    "ImageReconstruction._refine_tail": "ir_refine",
}
#: Every ``nn.<row>`` the trace reports, in summary-table order.
NN_ROWS = ("gp",) + tuple(CHAIN_ROWS.values())
#: The four full-resolution refine-tail convs: (32<-4), (16<-32), (16<-16), (1<-16).
REFINE_OPS = ("conv1", "conv2", "conv3", "conv4")


class Tracer:
    """In-memory span recorder (one process, one thread)."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.flops: dict[str, float] = defaultdict(float)
        self.bytes: dict[str, float] = defaultdict(float)
        self.call = -1
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.call))
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self._stack.pop()
        name, start, _, parent, call = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent, call)

    def count_work(self, name: str, flop: float, nbytes: float) -> None:
        self.flops[name] += flop
        self.bytes[name] += nbytes

    # -- aggregation -------------------------------------------------------
    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """``(total seconds, self seconds, count)`` per span name."""
        child = [0.0] * len(self.spans)
        total: dict[str, float] = defaultdict(float)
        count: dict[str, int] = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            duration = end - start
            total[name] += duration
            count[name] += 1
            if parent >= 0:
                child[parent] += duration
        own: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += (end - start) - child[index]
        return total, own, count


def _spanned(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(index)

    return wrapper


class Instrumentation:
    """Installs and removes the span wrappers around each layer's entry points."""

    def __init__(self, tracer: Tracer, refine_ops: dict[int, str]) -> None:
        self.tracer = tracer
        #: ``id(op)`` -> ``conv1..4`` for the refine-tail ops of the measured graph.
        self.refine_ops = refine_ops
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, owner, attr: str, name: str) -> None:
        self._patch(owner, attr, _spanned(self.tracer, name, getattr(owner, attr)))

    def install(self) -> None:
        from repro.core.paths import GlobalPerception
        from repro.nn.fusion import FusedChain, FusedConvBNAct
        from repro.opc import engine as opc_engine
        from repro.pipeline import engine as pipeline_engine
        from repro.pipeline.executors import ModelExecutor, SimulatorExecutor
        from repro.pipeline.parallel import WorkerPoolExecutor

        tracer = self.tracer
        # repro.pipeline: public entry points and the executor hooks.
        self._wrap(pipeline_engine.InferencePipeline, "predict", "pipeline.predict")
        self._wrap(pipeline_engine.InferencePipeline, "predict_patched", "cache.patch")
        for method in ("run_batch", "run_gp", "run_reconstruction"):
            self._wrap(ModelExecutor, method, f"pipeline.{method}")
            self._wrap(WorkerPoolExecutor, method, f"pool.{method}")
        # repro.layout.tiling, looked up by the pipeline engine.
        self._wrap(pipeline_engine, "extract_tiles", "layout.extract_tiles")
        self._wrap(pipeline_engine, "stitch_cores", "layout.stitch_cores")
        # repro.litho: the golden simulator's hooks of the patched plan.
        self._wrap(SimulatorExecutor, "run_aerial", "litho.run_aerial")
        self._wrap(SimulatorExecutor, "finalize_patched", "litho.finalize")
        # repro.opc: the correction loop and its two per-iteration helpers.
        self._wrap(opc_engine.OPCEngine, "correct", "opc.correct")
        self._wrap(opc_engine, "build_mask", "opc.build_mask")
        self._wrap(opc_engine, "measure_layout_epe", "opc.measure_epe")

        # repro.nn.fusion: one span per fused chain, named by summary row,
        # with its FLOPs and bytes computed from the op shapes.
        chain_run = FusedChain.run

        def run(chain, x):
            row = CHAIN_ROWS.get(chain.label)
            if row is None:
                return chain_run(chain, x)
            flop, nbytes = flops.chain_work(chain, x.shape)
            tracer.count_work(row, flop, nbytes)
            index = tracer.begin(f"nn.{row}")
            try:
                return chain_run(chain, x)
            finally:
                tracer.end(index)

        self._patch(FusedChain, "run", run)

        op_apply = FusedConvBNAct.apply
        refine_ops = self.refine_ops

        def apply(op, buf, *args, **kwargs):
            name = refine_ops.get(id(op))
            if name is None:
                return op_apply(op, buf, *args, **kwargs)
            flop, nbytes = flops.conv_work(op, buf.shape, kwargs.get("output_padding", 0))
            tracer.count_work(f"ir_refine.{name}", flop, nbytes)
            index = tracer.begin(f"nn.ir_refine.{name}")
            try:
                return op_apply(op, buf, *args, **kwargs)
            finally:
                tracer.end(index)

        self._patch(FusedConvBNAct, "apply", apply)

        gp_forward = GlobalPerception.forward

        def forward(module, x):
            flop, nbytes = flops.gp_work(module, x.shape)
            tracer.count_work("gp", flop, nbytes)
            index = tracer.begin("nn.gp")
            try:
                return gp_forward(module, x)
            finally:
                tracer.end(index)

        self._patch(GlobalPerception, "forward", forward)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def refine_op_names(graph) -> dict[int, str]:
    """``id(op)`` -> ``conv1..4`` for the refine-tail chain of a compiled DOINN."""
    for chain in getattr(graph, "chains", ()):
        if chain.label == "ImageReconstruction._refine_tail":
            return {id(op): name for op, name in zip(chain.ops, REFINE_OPS)}
    return {}
