//! Traced mirrors of the reproduction: the calls `run_all`'s `main`
//! makes, the split of the SLC functional replay, and reference probes
//! of the compression layer.

use crate::engine::{Corpus, CODECS};
use crate::report::{median, Report};
use crate::sweep::Prepared;
use crate::trace::Tracer;
use slc_compress::bdi::Bdi;
use slc_compress::bpc::Bpc;
use slc_compress::cpack::Cpack;
use slc_compress::fpc::Fpc;
use slc_compress::rans::Rans;
use slc_compress::ratio::geometric_mean;
use slc_compress::{Block, BlockCodec, BlockCompressor, Mag, BLOCK_BYTES};
use slc_core::slc::SlcVariant;
use slc_engine::Engine;
use slc_exp::eval::{evaluate_prepared, prepare_all, Eval};
use slc_exp::{fig1, fig2, fig9, tables};
use slc_sim::mc::BurstsMap;
use slc_sim::GpuMemory;
use slc_workloads::metrics::mre;
use slc_workloads::scheme::BurstsAccumulator;
use slc_workloads::Workload;
use slc_workloads::{all_workloads, BenchmarkArtifacts, Harness, Scale, Scheme, SnapshotAnalysis};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The TSLC variants `run_all` evaluates, in its order.
pub const VARIANTS: [SlcVariant; 3] =
    [SlcVariant::TslcSimp, SlcVariant::TslcPred, SlcVariant::TslcOpt];

/// Lossy threshold of Figs. 7–8.
pub const THRESHOLD_BYTES: u32 = 16;

/// Paper reference values, as printed in the Fig. 7/8 captions of
/// `slc_exp::eval`: GM speedup per variant, TSLC-OPT GM MRE (%),
/// bandwidth, energy and EDP.
pub const PAPER_GM_SPEEDUP: [f64; 3] = [1.090, 1.098, 1.097];
pub const PAPER_GM_MRE_PCT: f64 = 0.99;
pub const PAPER_GM_BANDWIDTH: f64 = 0.86;
pub const PAPER_GM_ENERGY: f64 = 0.917;
pub const PAPER_GM_EDP: f64 = 0.825;

/// Index of TSLC-OPT in [`VARIANTS`].
const OPT: usize = 2;

/// The sequence of calls `run_all`'s `main` makes, each in a span.
/// `slc_exp::evaluate` is spelled out as the `prepare_all` +
/// `evaluate_prepared` pair it is defined as, so the two halves get spans
/// of their own.
pub fn mirror_run_all(t: &mut Tracer, scale: Scale) -> Eval {
    t.span("exp.render", |_| {
        black_box((tables::table2(), tables::table3(scale), tables::table1()))
    });
    let f1 = t.span("exp.fig1", |_| fig1::compute(scale, Mag::GDDR5));
    t.span("exp.render", |_| black_box(f1.render()));
    let f2 = t.span("exp.fig2", |_| fig2::compute(scale, Mag::GDDR5));
    t.span("exp.render", |_| black_box(f2.render()));
    let harness = Harness::new(scale);
    let eval = t.span("exp.eval", |t| {
        let prepared = t.span("exp.prepare_all", |_| prepare_all(scale, &harness));
        t.span("exp.evaluate_prepared", |_| {
            evaluate_prepared(&harness, THRESHOLD_BYTES, &VARIANTS, &prepared)
        })
    });
    t.span("exp.render", |_| black_box((eval.render_fig7(), eval.render_fig8())));
    let f9 = t.span("exp.fig9", |_| fig9::compute(scale));
    t.span("exp.render", |_| black_box(f9.render()));
    eval
}

/// Simulated results of the reproduction next to their paper gaps.
pub fn report_model(eval: &Eval, r: &mut Report) {
    r.metric("exp.gm_speedup.tslc_opt", eval.gm_speedup(OPT), "sim-x");
    r.metric("exp.gm_mre_pct.tslc_opt", eval.gm_mre(OPT), "sim-%");
    r.metric("exp.gm_bandwidth.tslc_opt", eval.gm_bandwidth(OPT), "sim-x");
    let vs_nocomp: Vec<f64> = eval.rows.iter().map(|row| row.e2mc_vs_nocomp).collect();
    r.metric("exp.gm_e2mc_vs_nocomp", geometric_mean(&vs_nocomp), "sim-x");
    r.metric("power.gm_energy.tslc_opt", eval.gm_energy(OPT), "sim-x");
    r.metric("power.gm_edp.tslc_opt", eval.gm_edp(OPT), "sim-x");
    for (v, paper) in PAPER_GM_SPEEDUP.iter().enumerate() {
        let label = VARIANTS[v].label().to_ascii_lowercase().replace('-', "_");
        r.metric(format!("exp.paper_gap.gm_speedup.{label}"), eval.gm_speedup(v) - paper, "sim-x");
    }
    r.metric("exp.paper_gap.gm_mre_pct.tslc_opt", eval.gm_mre(OPT) - PAPER_GM_MRE_PCT, "sim-%");
    r.metric(
        "exp.paper_gap.gm_bandwidth.tslc_opt",
        eval.gm_bandwidth(OPT) - PAPER_GM_BANDWIDTH,
        "sim-x",
    );
    r.metric("exp.paper_gap.gm_energy.tslc_opt", eval.gm_energy(OPT) - PAPER_GM_ENERGY, "sim-x");
    r.metric("exp.paper_gap.gm_edp.tslc_opt", eval.gm_edp(OPT) - PAPER_GM_EDP, "sim-x");
}

/// What one SLC functional pass produces.
struct Functional {
    bursts: BurstsMap,
    error_pct: f64,
    mre_pct: f64,
}

/// One SLC functional pass, driven through `Workload::execute` with a
/// staging closure around `Scheme::stage_analyzed` and
/// `BurstsAccumulator::record` so each part gets its own spans. Adds the
/// number of staged blocks to `blocks`.
fn replay(
    t: &mut Tracer,
    h: &Harness,
    w: &dyn Workload,
    a: &BenchmarkArtifacts,
    scheme: &Scheme,
    blocks: &mut u64,
) -> Functional {
    let mut acc = BurstsAccumulator::new(h.config.mag());
    let mut mem = t.span("workloads.build", |_| w.build(h.seed));
    t.span("workloads.execute", |t| {
        let mut stage = |m: &mut GpuMemory| {
            let snapshot = t
                .span("workloads.stage", |_| scheme.stage_analyzed(m))
                .expect("SLC schemes carry a trained table");
            *blocks += snapshot.entries().len() as u64;
            t.span("workloads.burst_record", |_| acc.record(scheme, &snapshot));
        };
        w.execute(&mut mem, &mut stage);
    });
    let output = t.span("workloads.output", |_| w.output(&mem));
    Functional {
        bursts: acc.into_map(),
        error_pct: w.error(&a.exact_output, &output),
        mre_pct: mre(&a.exact_output, &output) * 100.0,
    }
}

/// The serial split of the reproduction's workload layer: prepare, exact
/// sizing, the cached E2MC pass and the SLC replay (kernel replay, stage,
/// burst record) for every benchmark and variant. Each replay is checked
/// against `Harness::run_functional`. Returns the prepared benchmarks.
pub fn slc_split(t: &mut Tracer, scale: Scale, r: &mut Report) -> Prepared {
    let harness = Harness::new(scale);
    let mag = harness.config.mag();
    let mut prepared: Prepared = Vec::new();
    let mut mirrors = Vec::new();
    let mut blocks = 0u64;
    for w in all_workloads(scale) {
        let a = t.span("workloads.prepare", |_| harness.prepare(w.as_ref()));
        t.span("workloads.exact_sizing", |_| a.exact_size_snapshots(w.as_ref()).len());
        let e2mc = Scheme::E2mc(a.e2mc.clone());
        t.span("workloads.functional_e2mc", |_| harness.run_functional(w.as_ref(), &a, &e2mc));
        for v in VARIANTS {
            let scheme = Scheme::slc(a.e2mc.clone(), mag, THRESHOLD_BYTES, v);
            let m = t.span("workloads.slc_replay", |t| {
                replay(t, &harness, w.as_ref(), &a, &scheme, &mut blocks)
            });
            mirrors.push((prepared.len(), v, m));
        }
        prepared.push((w, a));
    }
    let references = slc_par::par_map_ref(&mirrors, |(i, v, _)| {
        let (w, a) = &prepared[*i];
        let scheme = Scheme::slc(a.e2mc.clone(), mag, THRESHOLD_BYTES, *v);
        harness.run_functional(w.as_ref(), a, &scheme)
    });
    for ((i, v, m), f) in mirrors.iter().zip(&references) {
        let same = m.bursts == f.bursts
            && m.error_pct.to_bits() == f.error_pct.to_bits()
            && m.mre_pct.to_bits() == f.mre_pct.to_bits();
        r.check(same, || {
            format!(
                "SLC replay mirror differs from run_functional on {} {}",
                prepared[*i].1.name,
                v.label()
            )
        });
    }
    let stage_s = t.total_s("workloads.stage");
    r.metric("workloads.prepare_s", t.total_s("workloads.prepare"), "s");
    r.metric("workloads.exact_sizing_s", t.total_s("workloads.exact_sizing"), "s");
    r.metric("workloads.functional_e2mc_s", t.total_s("workloads.functional_e2mc"), "s");
    r.metric("workloads.kernel_replay_s", t.self_s("workloads.execute"), "s");
    r.metric("workloads.stage_s", stage_s, "s");
    r.metric("workloads.stage_calls", t.count("workloads.stage") as f64, "count");
    r.metric("workloads.stage_ns_per_block", stage_s * 1e9 / blocks.max(1) as f64, "ns");
    r.metric("workloads.burst_record_s", t.total_s("workloads.burst_record"), "s");
    prepared
}

/// Fig. 1 codecs in `slc_exp::fig1::CODECS` order, with metric names.
const SIZE_CODECS: [&str; 5] = ["bdi", "fpc", "cpack", "e2mc", "bpc"];
const SIZE_SPANS: [&str; 5] = [
    "compress.size_bits.bdi",
    "compress.size_bits.fpc",
    "compress.size_bits.cpack",
    "compress.size_bits.e2mc",
    "compress.size_bits.bpc",
];

/// Compression-layer probes over the prepared benchmarks' exact images:
/// a reference `SnapshotAnalysis::capture` and the Fig. 1 per-block
/// sizing of each codec.
pub fn compress_probes(t: &mut Tracer, prepared: &Prepared, r: &mut Report) {
    for (_, a) in prepared {
        t.span("compress.analyze", |_| {
            black_box(SnapshotAnalysis::capture(&a.e2mc, &a.exact_memory))
        });
    }
    r.metric("compress.analyze_s", t.total_s("compress.analyze"), "s");
    let images: Vec<(Vec<Block>, &BenchmarkArtifacts)> = prepared
        .iter()
        .map(|(_, a)| (a.exact_memory.all_blocks().map(|(_, b)| b).collect(), a))
        .collect();
    let blocks: usize = images.iter().map(|(b, _)| b.len()).sum();
    let (bdi, fpc, cpack, bpc) = (Bdi::new(), Fpc::new(), Cpack::new(), Bpc::new());
    for (c, (name, span)) in SIZE_CODECS.iter().zip(SIZE_SPANS).enumerate() {
        for (image, a) in &images {
            let codec: &dyn BlockCompressor = match c {
                0 => &bdi,
                1 => &fpc,
                2 => &cpack,
                3 => &a.e2mc,
                _ => &bpc,
            };
            t.span(span, |_| {
                image.iter().map(|b| codec.size_bits(black_box(b)) as u64).sum::<u64>()
            });
        }
        r.metric(
            format!("compress.size_bits_ns.{name}"),
            t.total_s(span) * 1e9 / blocks as f64,
            "ns",
        );
    }
}

/// One single-threaded codec pass over `image` without the engine:
/// per-block `compress_into` / `decompress_into`, or the whole-chunk
/// coder for codecs that have one. Returns (compress s, decompress s,
/// roundtrip ok).
fn codec_pass(codec: &dyn BlockCodec, image: &[u8]) -> (f64, f64, bool) {
    let mut decoded = vec![0u8; image.len()];
    if let Some(cc) = codec.chunk_coder() {
        let t0 = Instant::now();
        let streams: Vec<Vec<u8>> = image
            .chunks(Engine::DEFAULT_CHUNK_BYTES)
            .map(|c| cc.encode_chunk(black_box(c)))
            .collect();
        let comp = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let mut ok = true;
        for (s, out) in streams.iter().zip(decoded.chunks_mut(Engine::DEFAULT_CHUNK_BYTES)) {
            ok &= cc.decode_chunk(black_box(s), out).is_ok();
        }
        let decomp = t0.elapsed().as_secs_f64();
        return (comp, decomp, ok && decoded == image);
    }
    let blocks: Vec<&Block> =
        image.chunks_exact(BLOCK_BYTES).map(|b| b.try_into().expect("exact 128 B chunk")).collect();
    let mut payload = Vec::with_capacity(image.len());
    let t0 = Instant::now();
    let coded: Vec<(usize, u32, bool)> = blocks
        .iter()
        .map(|b| {
            let at = payload.len();
            let (bits, compressed) = codec.compress_into(black_box(b), &mut payload);
            (at, bits, compressed)
        })
        .collect();
    let comp = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    for (&(at, bits, compressed), out) in coded.iter().zip(decoded.chunks_exact_mut(BLOCK_BYTES)) {
        let out: &mut Block = out.try_into().expect("exact 128 B chunk");
        codec.decompress_into(bits, compressed, black_box(&payload[at..]), out);
    }
    let decomp = t0.elapsed().as_secs_f64();
    (comp, decomp, decoded == image)
}

/// Codec-only GB/s (single thread, no engine) for each engine codec over
/// `corpus`: the median of `passes` passes.
pub fn codec_only(corpus: &Corpus<'_>, passes: usize, r: &mut Report) {
    let bytes = corpus.bytes() as f64;
    for name in CODECS {
        let mut comp = Vec::new();
        let mut decomp = Vec::new();
        for _ in 0..passes {
            let (mut c, mut d) = (0.0, 0.0);
            for i in 0..corpus.len() {
                let codec: Arc<dyn BlockCodec> = match name {
                    "bdi" => Arc::new(Bdi::new()),
                    "rans" => Arc::new(Rans::new()),
                    _ => Arc::new(corpus.tables[i].clone()),
                };
                let (pc, pd, ok) = codec_pass(codec.as_ref(), &corpus.image(i));
                r.check(ok, || {
                    format!("{name} codec-only roundtrip failed on {}", corpus.names[i])
                });
                c += pc;
                d += pd;
            }
            comp.push(c);
            decomp.push(d);
        }
        r.metric(
            format!("compress.codec_only_gbps.{name}.compress"),
            bytes / median(&comp) / 1e9,
            "GB/s",
        );
        r.metric(
            format!("compress.codec_only_gbps.{name}.decompress"),
            bytes / median(&decomp) / 1e9,
            "GB/s",
        );
    }
}
