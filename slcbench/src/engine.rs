//! The batch engine on real traffic: every benchmark's exact memory image
//! compressed with `Engine::compress` and decoded with
//! `Engine::decompress_into`, under three codecs.

use crate::report::{median, Report};
use crate::trace::Tracer;
use slc_compress::bdi::Bdi;
use slc_compress::e2mc::E2mc;
use slc_compress::rans::Rans;
use slc_engine::{frame_info, Engine};
use slc_sim::GpuMemory;
use slc_workloads::{snapshot_bytes, BenchmarkArtifacts, Workload};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine codecs, in report order.
pub const CODECS: [&str; 3] = ["bdi", "rans", "e2mc"];

/// Byte value the decode buffers are poisoned with before every pass, so
/// a decode that writes nothing cannot pass the roundtrip check.
const POISON: u8 = 0xA5;

/// The engine's input: every prepared benchmark's exact (final) memory
/// image plus the table E2MC was trained on for that benchmark. Images
/// are built from the artifacts when a round reaches them, so a
/// paper-scale corpus holds at most one extra image.
pub struct Corpus<'a> {
    pub names: Vec<String>,
    pub tables: Vec<E2mc>,
    memories: Vec<&'a GpuMemory>,
}

impl<'a> Corpus<'a> {
    pub fn new(prepared: &'a [(Box<dyn Workload>, BenchmarkArtifacts)]) -> Self {
        Self {
            names: prepared.iter().map(|(_, a)| a.name.clone()).collect(),
            tables: prepared.iter().map(|(_, a)| a.e2mc.clone()).collect(),
            memories: prepared.iter().map(|(_, a)| &a.exact_memory).collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Image `i` as the engine's input stream.
    pub fn image(&self, i: usize) -> Vec<u8> {
        snapshot_bytes(self.memories[i])
    }

    /// Total input bytes.
    pub fn bytes(&self) -> usize {
        self.memories.iter().map(|m| m.len()).sum()
    }

    /// One engine per image for `codec` (E2MC uses each benchmark's own
    /// trained table).
    pub fn engines(&self, codec: &str) -> Vec<Engine> {
        match codec {
            "bdi" => vec![Engine::new(Arc::new(Bdi::new())); self.len()],
            "rans" => vec![Engine::new(Arc::new(Rans::new())); self.len()],
            "e2mc" => self.tables.iter().map(|t| Engine::new(Arc::new(t.clone()))).collect(),
            other => panic!("unknown engine codec {other}"),
        }
    }
}

/// Pass times and container shape of one codec.
#[derive(Default)]
pub struct CodecRun {
    pub compress_s: Vec<f64>,
    pub decompress_s: Vec<f64>,
    pub container_bytes: u64,
    pub chunks: u64,
    pub raw_chunks: u64,
}

impl CodecRun {
    pub fn compress_gbps(&self, bytes: usize) -> f64 {
        bytes as f64 / median(&self.compress_s) / 1e9
    }

    pub fn decompress_gbps(&self, bytes: usize) -> f64 {
        bytes as f64 / median(&self.decompress_s) / 1e9
    }
}

/// Result of [`measure`]: per-codec runs plus per-round wall times.
pub struct EngineRun {
    pub codecs: Vec<CodecRun>,
    pub round_s: Vec<f64>,
}

/// Rounds over the corpus until at least `min_rounds` rounds ran and
/// `budget` has elapsed. A round takes each image in turn through every
/// codec: compress, then decode into a poisoned buffer. A codec's pass
/// time is the sum of its calls over the round. Every roundtrip is
/// checked (bytes and frame) and counted in `report`; a mismatch counts
/// as a failed operation.
pub fn measure(
    corpus: &Corpus<'_>,
    t: &mut Tracer,
    report: &mut Report,
    min_rounds: usize,
    budget: Duration,
) -> EngineRun {
    let engines: Vec<Vec<Engine>> =
        CODECS.iter().map(|c| t.span("engine.new", |_| corpus.engines(c))).collect();
    let mut codecs: Vec<CodecRun> = CODECS.iter().map(|_| CodecRun::default()).collect();
    let mut out = Vec::new();
    let mut round_s = Vec::new();
    let start = Instant::now();
    while round_s.len() < min_rounds || start.elapsed() < budget {
        let mut pass = vec![(0.0, 0.0); CODECS.len()];
        for run in codecs.iter_mut() {
            (run.container_bytes, run.chunks, run.raw_chunks) = (0, 0, 0);
        }
        for (i, bench) in corpus.names.iter().enumerate() {
            let img = corpus.image(i);
            out.resize(img.len(), 0);
            for (c, codec) in CODECS.iter().enumerate() {
                let engine = &engines[c][i];
                let t0 = Instant::now();
                let container = t.span("engine.compress", |_| engine.compress(black_box(&img)));
                pass[c].0 += t0.elapsed().as_secs_f64();
                out.fill(POISON);
                let t0 = Instant::now();
                let decoded = t
                    .span("engine.decompress_into", |_| {
                        engine.decompress_into(black_box(&container), &mut out)
                    })
                    .is_ok();
                pass[c].1 += t0.elapsed().as_secs_f64();
                let info = t.span("engine.frame_info", |_| frame_info(&container));
                let frame_ok = info.as_ref().is_ok_and(|f| {
                    let chunks = img.len().div_ceil(engine.chunk_bytes()) as u64;
                    f.codec == engine.codec_id()
                        && f.total_len == img.len() as u64
                        && f.container_bytes == container.len() as u64
                        && f.chunk_bytes as usize == engine.chunk_bytes()
                        && u64::from(f.chunk_count) == chunks
                        && f.raw_chunks + f.coded_chunks == f.chunk_count
                });
                let run = &mut codecs[c];
                if let Ok(f) = &info {
                    run.chunks += u64::from(f.chunk_count);
                    run.raw_chunks += u64::from(f.raw_chunks);
                }
                run.container_bytes += container.len() as u64;
                let bytes_ok = decoded && out[..] == img[..];
                report.check(frame_ok && bytes_ok, || {
                    format!(
                        "engine {codec} on {bench}: frame ok {frame_ok}, roundtrip ok {bytes_ok}"
                    )
                });
            }
        }
        for (run, (comp, decomp)) in codecs.iter_mut().zip(&pass) {
            run.compress_s.push(*comp);
            run.decompress_s.push(*decomp);
        }
        round_s.push(pass.iter().map(|(c, d)| c + d).sum());
    }
    EngineRun { codecs, round_s }
}

/// The end-to-end engine metrics: GB/s per codec and direction (input
/// bytes over the median pass time) and the container ratio.
pub fn report_metrics(corpus: &Corpus<'_>, run: &EngineRun, report: &mut Report) {
    let bytes = corpus.bytes();
    for (name, c) in CODECS.iter().zip(&run.codecs) {
        report.metric(format!("{name}.compress_gbps"), c.compress_gbps(bytes), "GB/s");
        report.metric(format!("{name}.decompress_gbps"), c.decompress_gbps(bytes), "GB/s");
        report.metric(format!("{name}.ratio"), bytes as f64 / c.container_bytes as f64, "x");
    }
}
