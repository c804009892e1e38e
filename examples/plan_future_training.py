"""Scenario: plan the distributed setup for a future trillion-scale model.

A systems team is sizing the cluster for a hypothetical next-generation
Transformer (H = 32K, SL = 4K).  This example walks the paper's workflow:

1. estimate the tensor-parallel degree the model *needs* -- both from the
   memory-capacity model and from the historical trend estimator
   (Figure 9(b));
2. check per-device memory feasibility;
3. quantify the communication cost of that setup today and under
   hardware-evolution scenarios (Figures 10/12);
4. check whether data-parallel gradient communication still hides under
   backprop (Figure 11/13).

Run:  python examples/plan_future_training.py
"""

from __future__ import annotations

from repro import ModelConfig, ParallelConfig, mi210_node
from repro.core import scaling
from repro.core.evolution import PAPER_SCENARIOS
from repro.core.report import format_pct
from repro.core.roi import overlap_roi_timing
from repro.models import memory
from repro.models.trace import training_trace
from repro.sim.executor import execute_trace


def main() -> None:
    model = ModelConfig(
        name="next-gen-2T",
        hidden=32768,
        seq_len=4096,
        batch=1,
        num_layers=120,
        num_heads=256,
        year=2026,
    )
    testbed = mi210_node()
    device = testbed.device

    print(f"planning: {model.name} (H={model.hidden}, SL={model.seq_len}, "
          f"{model.total_params() / 1e12:.1f}T params, "
          f"{model.num_layers} layers)")

    # -- Step 1: how much tensor parallelism does this model need?
    # Pipeline parallelism (8 stages of 15 layers) bounds the TP degree,
    # as the paper notes (Section 4.3.2); capacity is then sized per stage.
    pp = 8
    stage = model.replace(num_layers=model.num_layers // pp)
    capacity_tp = memory.min_tp_degree(stage, device, checkpointing=True)
    trend_tp = scaling.required_tp(model, max_tp=1024)
    print(f"\nTP from memory capacity  : {capacity_tp} (with PP={pp})")
    print(f"TP from historical trend : {trend_tp} "
          f"(p/s = {scaling.tp_scale_factor(model):.1f})")
    tp = max(capacity_tp, 64)

    # -- Step 2: feasibility of the chosen setup.
    parallel = ParallelConfig(tp=tp, dp=8, pp=pp)
    footprint = memory.memory_footprint(model, parallel, checkpointing=True)
    print(f"\nchosen setup: TP={parallel.tp}, DP={parallel.dp}, "
          f"PP={parallel.pp}  ({parallel.world_size} devices)")
    print(f"per-device memory: {footprint.total_gb:.1f} GB of "
          f"{device.mem_capacity / 1e9:.0f} GB")

    # -- Step 3: where does the time go, today and tomorrow?  Per-layer
    # behaviour repeats identically, so a 4-layer slice of one pipeline
    # stage times quickly and its fractions hold for the full stack.
    slice_model = model.replace(num_layers=4)
    slice_parallel = ParallelConfig(tp=parallel.tp, dp=parallel.dp)
    trace = training_trace(slice_model, slice_parallel)
    print("\nserialized (TP) communication share:")
    for scenario in PAPER_SCENARIOS:
        cluster = scenario.apply(testbed)
        breakdown = execute_trace(trace, cluster).breakdown
        print(f"  {scenario.name:16s} "
              f"{format_pct(breakdown.serialized_comm_fraction)}")

    # -- Step 4: does DP gradient communication still hide?
    print("\noverlapped (DP) communication vs backprop compute slack:")
    for scenario in PAPER_SCENARIOS:
        cluster = scenario.apply(testbed)
        roi = overlap_roi_timing(slice_model, slice_parallel, cluster)
        status = "hidden" if roi.fully_hidden else "EXPOSED"
        print(f"  {scenario.name:16s} "
              f"{format_pct(roi.overlapped_pct_of_compute)} of compute "
              f"({status})")

    print("\nrecommendation: at this scale, plan for network bandwidth to "
          "scale with compute, or adopt the Section 5 techniques "
          "(in-network reduction, comm offload, fine-grained overlap).")


if __name__ == "__main__":
    main()
