//! The lossless design sweep of Fig. 9 / §V-C: NOCOMP and E2MC on all
//! nine benchmarks at MAG 16/32/64 B with the threshold at MAG/2, through
//! `evaluate_prepared` with no TSLC variants.

use crate::trace::Tracer;
use slc_compress::Mag;
use slc_exp::eval::{evaluate_prepared, prepare_all, Eval};
use slc_sim::SimStats;
use slc_workloads::{BenchmarkArtifacts, Harness, Scale, Workload};

pub type Prepared = Vec<(Box<dyn Workload>, BenchmarkArtifacts)>;

/// The swept MAGs.
pub const MAGS: [Mag; 3] = [Mag::NARROW_16, Mag::GDDR5, Mag::WIDE_64];

/// A harness at `scale` whose inputs are drawn from `seed`.
pub fn harness(scale: Scale, seed: u64) -> Harness {
    Harness { seed, ..Harness::new(scale) }
}

/// `harness` reconfigured for `mag`.
pub fn at_mag(harness: &Harness, mag: Mag) -> Harness {
    harness.clone().with_config(harness.config.with_mag(mag))
}

/// Sweep set-up: prepare every benchmark, then warm the cached exact-run
/// sizes the E2MC baseline sweeps.
pub fn setup(t: &mut Tracer, harness: &Harness) -> Prepared {
    let prepared = t.span("exp.prepare_all_full", |_| prepare_all(harness.scale, harness));
    t.span("workloads.exact_sizing_full", |_| {
        slc_par::par_map_ref(&prepared, |(w, a)| a.exact_size_snapshots(w.as_ref()).len())
    });
    prepared
}

/// One timed repetition: the three MAG evaluations.
pub fn sweep(t: &mut Tracer, harness: &Harness, prepared: &Prepared) -> Vec<Eval> {
    MAGS.iter()
        .map(|&mag| {
            t.span("exp.sweep_mag", |_| {
                evaluate_prepared(&at_mag(harness, mag), mag.bytes() / 2, &[], prepared)
            })
        })
        .collect()
}

/// What must repeat exactly across repetitions: every E2MC baseline's
/// counters and every E2MC-vs-NOCOMP speedup.
pub fn fingerprint(evals: &[Eval]) -> Vec<(SimStats, u64)> {
    evals
        .iter()
        .flat_map(|e| e.rows.iter().map(|r| (r.baseline.clone(), r.e2mc_vs_nocomp.to_bits())))
        .collect()
}
