"""What the benchmark measures: workloads, metric names, units, bounds.

This module is the single source for `BENCHMARK.json` (the smoke test checks
that the two agree) and for the map from each per-layer metric to the
end-to-end metric and workload it should move.

Every workload reports every end-to-end metric, so the end-to-end names are
generic.  Per workload they read as:

    workload   items_per_s                      latency_ms_p50 / _p90
    train      training samples per second      one train_model call
               (samples_per_s)
    eval       images per second, PPM files on  one `dcan eval` call
               disk to eval_report.csv
               (images_per_s)
    infer      images per second through        one predict_proba call
               predict_proba on preprocessed
               arrays (infer_images_per_s)
    explain    explained images per second      one `dcan explain` call,
                                                one image (latency_ms_*)
    gradcheck  full gradient audits per second  one `dcan gradcheck` audit
                                                (wall_s x 1000)
"""

from __future__ import annotations

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 15

# name -> (why, BLAS threads, DCA_THREADS); "nproc" is resolved at run time.
# The product of pool threads and BLAS threads never exceeds nproc.
WORKLOADS = {
    "train": ("train_model on the default config (64 px, batch 32, full attention, AdamW, "
              "unit-norm): autograd conv2d fwd+bwd, attention and optim do the work; "
              "imaging is bypassed", "nproc", 1),
    "eval": ("dcan eval in-process on 128 px PPMs, disk to eval_report.csv: per-pixel "
             "imaging (CLAHE, resize) dominates and autograd runs forward only, with no tape",
             1, "nproc"),
    "infer": ("predict_proba on preprocessed 64 px arrays on a DCA_THREADS=nproc pool: "
              "forward-only autograd, attention and model; imaging and backward are bypassed",
              1, "nproc"),
    "explain": ("dcan explain, one 64 px image per request (batch 1): per-op overhead, "
                "explain, CLAHE run twice, write_ppm, model.load and cli glue, which train "
                "never runs", 1, 1),
    "gradcheck": ("dcan gradcheck: ~3.5k forward passes of a 16 px model make per-call "
                  "autograd dispatch the whole cost, not hidden behind BLAS; grad_check "
                  "runs nowhere else", 1, 1),
}

# name, unit, better, bound (share of the parent's median)
END_TO_END = [
    ("items_per_s", "1/s", "higher", 0.25),
    ("latency_ms_p50", "ms", "lower", 0.25),
    ("latency_ms_p90", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
]

LAYERS = ["autograd", "attention", "optim", "model", "imaging", "data", "metrics",
          "explain", "train", "cli"]
CONV_SITES = ["backbone0", "backbone1", "backbone2", "dca_spatial", "dca_gate", "dca_refine"]
OPS = ["relu", "sigmoid", "spatial_softmax", "softmax_rows", "elementwise",
       "global_average_pool", "dropout", "dense"]

# Which end-to-end metric on which workload each layer metric should move.
_TRAIN = "items_per_s on train"
_INFER = "items_per_s on infer"
_EVAL = "items_per_s on eval"
_EXPLAIN = "latency_ms_p50 on explain"
_GRADCHECK = "latency_ms_p50 on gradcheck"
_SETUP = "setup_s on every workload"


def _per_layer() -> list[tuple[str, str, str, str]]:
    rows = []
    for site in CONV_SITES:
        base = f"autograd.conv2d.{site}"
        rows += [(f"{base}.fwd_ms", "ms", "lower", f"{_TRAIN}; {_INFER}"),
                 (f"{base}.bwd_ms", "ms", "lower", _TRAIN),
                 (f"{base}.gflops", "GFLOP/s", "higher", f"{_TRAIN}; {_INFER}"),
                 (f"{base}.computed_flops_per_step", "flop", "lower", _TRAIN)]
    for op in OPS:
        rows += [(f"autograd.{op}.fwd_ms", "ms", "lower", f"{_TRAIN}; {_EXPLAIN}"),
                 (f"autograd.{op}.bwd_ms", "ms", "lower", f"{_TRAIN}; {_EXPLAIN}")]
    rows += [
        ("autograd.tape_nodes_per_step", "count", "lower", f"{_TRAIN}; {_EXPLAIN}"),
        ("autograd.op_calls", "count", "lower", _GRADCHECK),
        ("autograd.op_us_mean", "us", "lower", _GRADCHECK),
        ("attention.dca_forward_ms", "ms", "lower", f"{_TRAIN}; {_EXPLAIN}"),
        ("attention.spatial_branch_ms", "ms", "lower", f"{_TRAIN}; {_EXPLAIN}"),
        ("attention.gating_branch_ms", "ms", "lower", f"{_TRAIN}; {_EXPLAIN}"),
        ("attention.refine_branch_ms", "ms", "lower", f"{_TRAIN}; {_EXPLAIN}"),
        ("optim.cross_entropy_ms", "ms", "lower", _TRAIN),
        ("optim.adamw_step_ms", "ms", "lower", _TRAIN),
        ("optim.unit_norm_project_ms", "ms", "lower", _TRAIN),
        ("model.backbone_forward_ms", "ms", "lower", f"{_INFER}; {_EXPLAIN}"),
        ("model.head_forward_ms", "ms", "lower", f"{_INFER}; {_EXPLAIN}"),
        ("model.load_ms", "ms", "lower", f"{_EVAL}; {_EXPLAIN}"),
        ("model.checkpoint_bytes", "bytes", "lower", _EXPLAIN),
        ("imaging.read_ppm_ms", "ms", "lower", f"{_EVAL}; {_EXPLAIN}"),
        ("imaging.clahe_ms", "ms", "lower", f"{_EVAL}; {_EXPLAIN}; setup_s on train"),
        ("imaging.resize_bilinear_ms", "ms", "lower", f"{_EVAL}; {_EXPLAIN}"),
        ("imaging.write_ppm_ms", "ms", "lower", f"{_EXPLAIN}; {_SETUP}"),
        ("imaging.clahe_calls_per_image", "count", "lower", f"{_EVAL}; {_EXPLAIN}"),
        ("data.generate_ms_per_image", "ms", "lower", _SETUP),
        ("data.load_dataset_ms", "ms", "lower", f"{_SETUP}; {_EVAL}"),
        ("metrics.confusion_ms", "ms", "lower", _EVAL),
        ("metrics.metrics_ms", "ms", "lower", _EVAL),
        ("explain.gradcam_pp_ms", "ms", "lower", _EXPLAIN),
        ("explain.attention_heatmap_ms", "ms", "lower", _EXPLAIN),
        ("explain.export_heatmap_ms", "ms", "lower", _EXPLAIN),
        ("train.step_ms_p50", "ms", "lower", _TRAIN),
        ("train.step_ms_p90", "ms", "lower", _TRAIN),
        ("train.load_arrays_ms_per_image", "ms", "lower", f"{_EVAL}; {_SETUP}"),
        ("train.predict_proba_ms_per_batch", "ms", "lower", f"{_INFER}; {_EVAL}"),
        ("cli.main_ms", "ms", "lower", f"{_EXPLAIN}; {_EVAL}"),
    ]
    for layer in LAYERS:
        rows.append((f"{layer}.self_ms", "ms", "lower", "the workload's items_per_s"))
    rows += [
        ("bench.self_ms", "ms", "lower", "none: the benchmark's own code"),
        ("trace.wall_ms", "ms", "lower", "none: traced wall time per request"),
        ("trace.overhead_pct", "%", "lower", "none: traced vs untraced items_per_s"),
    ]
    return rows


PER_LAYER = _per_layer()


def benchmark_json() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w[0]} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }


if __name__ == "__main__":
    import json
    print(json.dumps(benchmark_json(), indent=2))
