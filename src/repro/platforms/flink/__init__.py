"""A Nephele/PACTs-style pipelined dataflow platform ("flink").

The paper names Nephele/PACTs as a platform RHEEM "can also use as
underlying platform" (§7); this package plugs such an engine in *without
any core changes* — the extensibility requirement of §8, challenge 1:

* narrow kinds chain lazily over generators (true operator pipelining:
  one pass, no intermediate materialisation);
* every other kind materialises its input streams and runs the kernel
  of the shared operator table (:data:`repro.core.physical.table.KERNELS`);
* the cost model reflects the engine's real-world profile: mid-size
  start-up, cheap pipelined narrow operators, and — the differentiator —
  **native cheap iterations** (Flink's closed-loop iterations vs. a
  driver-loop on Spark), making it the optimizer's pick for loop-heavy
  plans at moderate scale.

Not part of the default roster; add it explicitly::

    from repro.platforms import default_platforms
    from repro.platforms.flink import FlinkPlatform

    ctx = RheemContext(platforms=default_platforms() + [FlinkPlatform()])
"""

from repro.platforms.flink.platform import FlinkCostModel, FlinkPlatform
from repro.platforms.flink.stream import DataStream

__all__ = ["DataStream", "FlinkCostModel", "FlinkPlatform"]
