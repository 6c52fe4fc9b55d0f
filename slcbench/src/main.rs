//! Workload processes of the repository benchmark. `run.py` starts one of
//! these subcommands per measurement and reads the JSON object it prints
//! as its last line.
//!
//! ```text
//! slcbench engine     --small S --seed N --seconds T
//! slcbench sweep      --full S --seed N --seconds T
//! slcbench traced     --small S --full S --seed N --run-id ID --spans FILE
//! slcbench serial-ref --small S --full S --seed N --run-id ID --spans FILE
//! ```
//!
//! `engine` and `sweep` are the untraced end-to-end measurements; `traced`
//! records a span around every call into a layer and derives the
//! per-layer metrics; `serial-ref` is its single-thread reference, meant
//! to run with `SLC_PAR_THREADS=1`.

mod engine;
mod report;
mod repro;
mod sweep;
mod trace;

use engine::{Corpus, CODECS};
use report::{median, Report};
use slc_compress::ratio::geometric_mean;
use slc_exp::eval::prepare_all;
use slc_sim::SimStats;
use slc_workloads::{Scale, Scheme};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;

struct Args {
    cmd: String,
    small: Scale,
    full: Scale,
    seed: u64,
    seconds: f64,
    run_id: String,
    spans: Option<PathBuf>,
}

fn parse_scale(s: &str) -> Result<Scale, String> {
    match s {
        "tiny" => Ok(Scale::Tiny),
        "small" => Ok(Scale::Small),
        "full" => Ok(Scale::Full),
        other => Err(format!("unknown scale {other:?}")),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let cmd = it.next().ok_or("missing subcommand")?;
    let mut a = Args {
        cmd,
        small: Scale::Small,
        full: Scale::Full,
        seed: 1,
        seconds: 1.0,
        run_id: "run".to_owned(),
        spans: None,
    };
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {v}: {e}");
        match flag.as_str() {
            "--small" => a.small = parse_scale(&v)?,
            "--full" => a.full = parse_scale(&v)?,
            "--seed" => a.seed = v.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = v.parse().map_err(|e| bad(&e))?,
            "--run-id" => a.run_id = v,
            "--spans" => a.spans = Some(PathBuf::from(v)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

/// Set-ups per end-to-end run; `setup_s` is their median. The
/// paper-scale sweep's set-up takes seconds and ~1.6 GB, so it runs fewer.
const ENGINE_SETUPS: usize = 3;
const SWEEP_SETUPS: usize = 2;

/// Runs `setup` `n` times, keeping the last result (earlier ones are
/// dropped before the next starts); returns it with the median time.
fn timed_setups<T>(n: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..n {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one setup"), median(&times))
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kb.map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Every benchmark prepared at `scale` with inputs drawn from `seed`.
fn prepare(scale: Scale, seed: u64) -> sweep::Prepared {
    prepare_all(scale, &sweep::harness(scale, seed))
}

fn cmd_engine(a: &Args, r: &mut Report) {
    let (prepared, setup_s) = timed_setups(ENGINE_SETUPS, || prepare(a.small, a.seed));
    let corpus = Corpus::new(&prepared);
    let budget = Duration::from_secs_f64(a.seconds);
    let run = engine::measure(&corpus, &mut Tracer::new(&a.run_id, false), r, 3, budget);
    r.metric("setup_s", setup_s, "s");
    r.metric("wall_s", median(&run.round_s), "s");
    r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    engine::report_metrics(&corpus, &run, r);
}

fn cmd_sweep(a: &Args, r: &mut Report) {
    let h = sweep::harness(a.full, a.seed);
    let mut t = Tracer::new(&a.run_id, false);
    let (prepared, setup_s) = timed_setups(SWEEP_SETUPS, || sweep::setup(&mut t, &h));
    let start = Instant::now();
    let mut reference = None;
    let mut wall = Vec::new();
    while wall.len() < 3 || start.elapsed().as_secs_f64() < a.seconds {
        let t0 = Instant::now();
        let evals = sweep::sweep(&mut t, &h, &prepared);
        wall.push(t0.elapsed().as_secs_f64());
        let got = sweep::fingerprint(&evals);
        let first = reference.get_or_insert_with(|| got.clone());
        r.check(*first == got, || format!("sweep {} SimStats differ from the first", wall.len()));
    }
    r.metric("setup_s", setup_s, "s");
    r.metric("wall_s", median(&wall), "s");
    // Read before the engine tail below, whose buffers are not part of
    // the sweep's footprint.
    r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    // The batch engine on this workload's paper-scale memory images.
    let corpus = Corpus::new(&prepared);
    let run = engine::measure(&corpus, &mut t, r, 2, Duration::ZERO);
    engine::report_metrics(&corpus, &run, r);
}

/// Sums the E2MC baseline counters of one MAG into the `sim.*` model
/// counters.
fn report_sim_counters(stats: &[SimStats], r: &mut Report) {
    let sum = |f: fn(&SimStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    let mdc = sum(|s| s.mdc_hits + s.mdc_misses);
    let rows = sum(|s| s.row_hits + s.row_misses);
    r.metric("sim.cycles", sum(|s| s.cycles), "sim-cycles");
    r.metric("sim.total_bursts", sum(SimStats::total_bursts), "sim-bursts");
    r.metric("sim.metadata_bursts", sum(|s| s.metadata_bursts), "sim-bursts");
    r.metric("sim.mdc_miss_rate", sum(|s| s.mdc_misses) / mdc.max(1.0), "sim-ratio");
    r.metric("sim.row_hit_rate", sum(|s| s.row_hits) / rows.max(1.0), "sim-ratio");
    r.metric(
        "sim.mean_read_latency_cycles",
        sum(|s| s.read_latency_sum) / sum(|s| s.dram_reads).max(1.0),
        "sim-cycles",
    );
    r.metric("sim.queue_wait_cycles", sum(|s| s.queue_wait_cycles), "sim-cycles");
}

/// The traced paper-scale sweep: set-up, an untraced then a traced sweep
/// (their gap is the tracing overhead), then a serial mirror of
/// the sweep through `Harness::run_functional` / `run_timing` that
/// splits out simulator time.
fn traced_sweep(t: &mut Tracer, a: &Args, r: &mut Report) {
    let h = sweep::harness(a.full, a.seed);
    let prepared = sweep::setup(t, &h);
    let t0 = Instant::now();
    let plain = sweep::sweep(&mut Tracer::new(&a.run_id, false), &h, &prepared);
    let untraced_s = t0.elapsed().as_secs_f64();
    let evals = t.span("exp.sweep", |t| sweep::sweep(t, &h, &prepared));
    let traced_s = t.total_s("exp.sweep");
    r.check(sweep::fingerprint(&plain) == sweep::fingerprint(&evals), || {
        "traced sweep differs from the untraced one".to_owned()
    });
    let overhead = (traced_s / untraced_s - 1.0) * 100.0;
    r.metric("trace.overhead_pct.mag_sweep_full", overhead, "%");
    r.metric("exp.sweep_s", traced_s, "s");

    let mut ops = 0u64;
    let mut mag32 = Vec::new();
    for (m, (&mag, eval)) in sweep::MAGS.iter().zip(&evals).enumerate() {
        let hm = sweep::at_mag(&h, mag);
        for (i, (w, art)) in prepared.iter().enumerate() {
            for scheme in [Scheme::Uncompressed, Scheme::E2mc(art.e2mc.clone())] {
                let f =
                    t.span("workloads.functional", |_| hm.run_functional(w.as_ref(), art, &scheme));
                let timing = t.span("sim.run", |_| hm.run_timing(art, &f, &scheme));
                ops += art.trace.len() as u64;
                if let Scheme::E2mc(_) = scheme {
                    r.check(timing.stats == eval.rows[i].baseline, || {
                        format!("sim mirror differs from evaluate_prepared on {} mag {m}", art.name)
                    });
                    if mag == slc_compress::Mag::GDDR5 {
                        mag32.push(timing.stats);
                    }
                }
            }
        }
    }
    let sim_s = t.total_s("sim.run");
    r.metric("sim.run_s", sim_s, "s");
    r.metric("sim.passes", t.count("sim.run") as f64, "count");
    r.metric("sim.ops", ops as f64, "count");
    r.metric("sim.ns_per_op", sim_s * 1e9 / ops.max(1) as f64, "ns");
    report_sim_counters(&mag32, r);
    for (mag, eval) in sweep::MAGS.iter().zip(&evals) {
        let v: Vec<f64> = eval.rows.iter().map(|row| row.e2mc_vs_nocomp).collect();
        r.metric(format!("sim.e2mc_vs_nocomp.gm.mag{}", mag.bytes()), geometric_mean(&v), "sim-x");
    }
    if let Some(bs) = evals[1].rows.iter().find(|row| row.name == "BS") {
        r.metric("sim.e2mc_vs_nocomp.bs.mag32", bs.e2mc_vs_nocomp, "sim-x");
    }
}

/// The traced engine: untraced rounds (parallel GB/s) then traced rounds
/// with a span around every engine call.
fn traced_engine(t: &mut Tracer, a: &Args, r: &mut Report) {
    let prepared = t.span("exp.prepare_all_engine", |_| prepare(a.small, a.seed));
    let corpus = Corpus::new(&prepared);
    let plain = engine::measure(&corpus, &mut Tracer::new(&a.run_id, false), r, 3, Duration::ZERO);
    let traced = t.span("engine.measure", |t| engine::measure(&corpus, t, r, 3, Duration::ZERO));
    let bytes = corpus.bytes();
    for (name, c) in CODECS.iter().zip(&plain.codecs) {
        r.metric(format!("engine.gbps.{name}.compress"), c.compress_gbps(bytes), "GB/s");
        r.metric(format!("engine.gbps.{name}.decompress"), c.decompress_gbps(bytes), "GB/s");
        r.metric(
            format!("engine.raw_chunk_share.{name}"),
            c.raw_chunks as f64 / c.chunks.max(1) as f64,
            "ratio",
        );
    }
    r.metric(
        "engine.parse_us",
        t.total_s("engine.frame_info") * 1e6 / t.count("engine.frame_info").max(1) as f64,
        "us",
    );
    r.metric(
        "trace.overhead_pct.engine_snapshots",
        (median(&traced.round_s) / median(&plain.round_s) - 1.0) * 100.0,
        "%",
    );
    repro::codec_only(&corpus, 3, r);
}

fn cmd_traced(a: &Args, t: &mut Tracer, r: &mut Report) {
    let eval = repro::mirror_run_all(t, a.small);
    for name in ["exp.fig1", "exp.fig2", "exp.eval", "exp.fig9", "exp.render"] {
        r.metric(format!("{name}_s"), t.total_s(name), "s");
    }
    for name in ["exp.prepare_all", "exp.evaluate_prepared"] {
        r.metric(format!("{name}_s"), t.total_s(name), "s");
    }
    let mirror_s: f64 = t.spans().iter().filter(|s| s.parent.is_none()).map(|s| s.secs()).sum();
    r.metric("exp.mirror_s", mirror_s, "s");
    r.text("fig7", eval.render_fig7());
    repro::report_model(&eval, r);
    drop(eval);
    let prepared = repro::slc_split(t, a.small, r);
    repro::compress_probes(t, &prepared, r);
    drop(prepared);
    traced_engine(t, a, r);
    traced_sweep(t, a, r);
}

/// Single-thread references for the parallel layers (run it with
/// `SLC_PAR_THREADS=1`): the reproduction's prepare and evaluation, the
/// engine, and the paper-scale sweep.
fn cmd_serial_ref(a: &Args, t: &mut Tracer, r: &mut Report) {
    let h = slc_workloads::Harness::new(a.small);
    let prepared = t.span("exp.prepare_all", |_| prepare_all(a.small, &h));
    t.span("exp.evaluate_prepared", |_| {
        slc_exp::eval::evaluate_prepared(&h, repro::THRESHOLD_BYTES, &repro::VARIANTS, &prepared)
    });
    drop(prepared);
    let prepared = prepare(a.small, a.seed);
    let corpus = Corpus::new(&prepared);
    let run = engine::measure(&corpus, t, r, 2, Duration::ZERO);
    for (name, c) in CODECS.iter().zip(&run.codecs) {
        r.metric(
            format!("engine.serial_gbps.{name}.compress"),
            c.compress_gbps(corpus.bytes()),
            "GB/s",
        );
        r.metric(
            format!("engine.serial_gbps.{name}.decompress"),
            c.decompress_gbps(corpus.bytes()),
            "GB/s",
        );
    }
    drop(corpus);
    drop(prepared);
    let hf = sweep::harness(a.full, a.seed);
    let prepared = sweep::setup(t, &hf);
    t.span("exp.sweep", |t| sweep::sweep(t, &hf, &prepared));
    for name in ["exp.prepare_all", "exp.evaluate_prepared", "exp.sweep"] {
        r.metric(format!("{name}_s"), t.total_s(name), "s");
    }
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("slcbench: {e}");
            std::process::exit(2);
        }
    };
    let mut r = Report::default();
    let mut t = Tracer::new(&a.run_id, true);
    match a.cmd.as_str() {
        "engine" => cmd_engine(&a, &mut r),
        "sweep" => cmd_sweep(&a, &mut r),
        "traced" => cmd_traced(&a, &mut t, &mut r),
        "serial-ref" => cmd_serial_ref(&a, &mut t, &mut r),
        other => {
            eprintln!("slcbench: unknown subcommand {other:?}");
            std::process::exit(2);
        }
    }
    if let Some(path) = &a.spans {
        if let Err(e) = t.write_jsonl(path) {
            eprintln!("slcbench: writing spans to {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    for f in &r.failures {
        eprintln!("slcbench: FAILED {f}");
    }
    println!("{}", r.to_json());
}
