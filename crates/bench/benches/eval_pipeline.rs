//! Evaluation-pipeline benchmark: the wall-clock cost of the Fig. 9
//! front end — [`slc_exp::eval::prepare_all`] at tiny scale (exact runs,
//! table training and trace generation for all nine benchmarks, in
//! parallel). The batch engine's end-to-end GB/s rows are measured and
//! gated by `codec_throughput` alone.
//!
//! Writes the `BENCH_eval.json` baseline to the repo root (override the
//! path with `BENCH_EVAL_JSON`); `tools/check_bench_regression.py` gates
//! regressions against it in CI next to `BENCH_codec.json`, with
//! `tools/eval_rows.txt` pinning the row set.

use criterion::Criterion;
use slc_exp::eval::prepare_all;
use slc_workloads::{Harness, Scale};

/// Step 1+2 for every benchmark at tiny scale: the fixed cost every
/// sweep (Fig. 7/8/9, the ablation, the fault-capacity curves) pays
/// before its first scheme runs. Guards the prepare path's parallel
/// fan-out and the lazy caches' construction cost.
fn bench_prepare(c: &mut Criterion) {
    let harness = Harness::new(Scale::Tiny);
    let mut g = c.benchmark_group("eval");
    g.bench_function("prepare_all", |b| b.iter(|| prepare_all(Scale::Tiny, &harness).len()));
    g.finish();
}

fn main() {
    let mut c = Criterion::default();
    bench_prepare(&mut c);
    slc_bench::write_baseline(&c, "eval_pipeline", "BENCH_EVAL_JSON", "BENCH_eval.json");
}
