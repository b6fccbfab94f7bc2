//! The repository's benchmark: three workloads, each a closed loop of
//! one op in flight, timed from outside by calls into the public APIs
//! of `glc_gates`, `glc_ssa`, `glc_vasim`, `glc_core` and
//! `glc_service`.
//!
//! ```text
//! glc-perfbench --workload paper_table|logic_probe|serve_ensemble
//!               --seed N --seconds S --trace 0|1
//!               [--bin-dir DIR] [--out-dir DIR] [--commit REV]
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics with `--trace 0`,
//! the per-layer metrics with `--trace 1`. The line before it records
//! the host, build flags, commit, seed and op counts. `perfbench/run.py`
//! builds everything and runs this binary; see `perfbench/README.md`.

mod checks;
mod paper;
mod probe;
mod replay;
mod serve;
mod tracer;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use tracer::{Layer, Tracer};

/// Set-ups per run; `setup_s` is their median and the last one is
/// measured.
const SETUPS: usize = 5;

/// End-to-end metrics, reported with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported with `--trace 1`. A workload reports 0
/// for a layer its ops never call.
const PER_LAYER: &[(&str, &str)] = &[
    ("gates.catalog_ms", "ms"),
    ("ssa.compile_ms", "ms"),
    ("ssa.engine_ms", "ms"),
    ("ssa.harness_ms", "ms"),
    ("ssa.firings", "count"),
    ("ssa.firings_per_s", "1/s"),
    ("ssa.trace_samples", "count"),
    ("vasim.experiment_ms", "ms"),
    ("vasim.extract_ms", "ms"),
    ("vasim.record_s", "s"),
    ("core.analyze_ms", "ms"),
    ("core.verify_ms", "ms"),
    ("core.digitize_ms", "ms"),
    ("core.cases_ms", "ms"),
    ("core.variation_ms", "ms"),
    ("core.classify_ms", "ms"),
    ("core.minimize_ms", "ms"),
    ("core.samples_per_s", "1/s"),
    ("service.extend_rtt_ms", "ms"),
    ("service.query_rtt_ms", "ms"),
    ("service.extend_server_ms", "ms"),
    ("service.query_server_ms", "ms"),
    ("service.extend_wire_ms", "ms"),
    ("service.query_wire_ms", "ms"),
    ("service.shard_ms", "ms"),
    ("service.chunks", "count"),
    ("service.steals", "count"),
    ("service.reply_bytes", "B"),
    ("service.decode_ms", "ms"),
    ("ssa.replicate_ms", "ms"),
    ("ssa.accumulate_ms", "ms"),
    ("ssa.merge_ms", "ms"),
    ("ssa.finalize_ms", "ms"),
    ("vasim.noise_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Command-line arguments.
pub struct Args {
    workload: String,
    /// Seed every input of the run derives from.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Directory holding `glc-serve` and `glc-worker`.
    pub bin_dir: PathBuf,
    out_dir: PathBuf,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, false);
    let mut bin_dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(PathBuf::from))
        .unwrap_or_default();
    let mut out_dir = PathBuf::from(".bench_out");
    let mut commit = "unknown".to_string();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                }
            }
            "--bin-dir" => bin_dir = PathBuf::from(value),
            "--out-dir" => out_dir = PathBuf::from(value),
            "--commit" => commit = value,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        bin_dir,
        out_dir,
        commit,
    })
}

/// What one workload run measured.
pub struct Outcome {
    setup_s: Vec<f64>,
    op_ms: Vec<f64>,
    op_traced: Vec<bool>,
    /// Wall seconds of the timed window.
    pub window_s: f64,
    failed: u64,
    errors: Vec<String>,
    /// Peak resident set of the working processes, when the workload
    /// measures it itself.
    pub peak_rss_mb: Option<f64>,
    /// Per-layer metric values (traced run).
    pub layers: BTreeMap<&'static str, f64>,
    /// Span totals by name (traced run).
    pub layer_table: BTreeMap<&'static str, Layer>,
}

impl Outcome {
    /// An outcome holding the set-up times.
    pub fn new(setup_s: Vec<f64>) -> Self {
        Outcome {
            setup_s,
            op_ms: Vec::new(),
            op_traced: Vec::new(),
            window_s: 0.0,
            failed: 0,
            errors: Vec::new(),
            peak_rss_mb: None,
            layers: BTreeMap::new(),
            layer_table: BTreeMap::new(),
        }
    }

    /// Records one attempted op's latency.
    pub fn record(&mut self, ms: f64, traced: bool) {
        self.op_ms.push(ms);
        self.op_traced.push(traced);
    }

    /// Records one op's check; a failed check fails the op.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(message) = result {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(message);
            }
        }
    }

    /// Ops attempted.
    pub fn attempted(&self) -> usize {
        self.op_ms.len()
    }

    /// Ops run with spans recorded.
    pub fn traced_ops(&self) -> usize {
        self.op_traced.iter().filter(|&&t| t).count()
    }
}

/// Runs `f`, returning its result and wall seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Runs `setup` [`SETUPS`] times, dropping each result before the next
/// starts; returns the last result and every set-up's wall seconds.
pub fn setups<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let (result, secs) = timed(&mut setup);
        last = Some(result?);
        times.push(secs);
    }
    Ok((last.expect("SETUPS > 0"), times))
}

/// Runs whole rounds until `seconds` have passed; returns the window's
/// wall seconds. Every run therefore attempts whole rounds of the same
/// ops.
pub fn rounds(
    seconds: f64,
    mut round: impl FnMut(usize) -> Result<(), String>,
) -> Result<f64, String> {
    let start = Instant::now();
    let mut index = 0;
    loop {
        round(index)?;
        index += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            return Ok(start.elapsed().as_secs_f64());
        }
    }
}

/// The seed of op input `index` in a run seeded `seed`.
pub fn op_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ index as u64
}

/// Interpolated quantile `q` of `values` (linear between order
/// statistics).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Mean milliseconds per op of the spans called `name`.
pub fn layer_ms(layers: &BTreeMap<&'static str, Layer>, name: &str, ops: f64) -> f64 {
    layers.get(name).map_or(0.0, |l| l.total_s) * 1e3 / ops.max(1.0)
}

/// `VmHWM` (peak resident set) of process `pid`, in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_string(s: &str) -> String {
    serde_json::to_string(s).unwrap_or_else(|_| "\"?\"".into())
}

fn write_trace_files(args: &Args, tracer: &Tracer, outcome: &Outcome) -> std::io::Result<String> {
    std::fs::create_dir_all(&args.out_dir)?;
    let stem = format!("{}-seed{}", args.workload, args.seed);
    tracer.write_jsonl(&args.out_dir.join(format!("spans-{stem}.jsonl")))?;
    let ops = outcome.traced_ops().max(1) as f64;
    let total_self: f64 = outcome.layer_table.values().map(|l| l.self_s).sum();
    let mut table = format!(
        "{:<22} {:>9} {:>13} {:>13} {:>7}\n",
        "span", "calls", "self ms/op", "total ms/op", "self %"
    );
    for (name, layer) in &outcome.layer_table {
        table += &format!(
            "{:<22} {:>9} {:>13.4} {:>13.4} {:>6.2}%\n",
            name,
            layer.calls,
            layer.self_s * 1e3 / ops,
            layer.total_s * 1e3 / ops,
            100.0 * layer.self_s / total_self.max(1e-12)
        );
    }
    std::fs::write(args.out_dir.join(format!("layers-{stem}.txt")), &table)?;
    Ok(table)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let mut tracer = Tracer::new();
    let mut outcome = match args.workload.as_str() {
        "paper_table" => paper::run(&args, &mut tracer)?,
        "logic_probe" => probe::run(&args, &mut tracer)?,
        "serve_ensemble" => serve::run(&args, &mut tracer)?,
        other => return Err(format!("unknown workload `{other}`")),
    };
    let attempted = outcome.attempted();
    let metrics: BTreeMap<&str, f64> = if args.trace {
        let latencies = |traced: bool| -> Vec<f64> {
            outcome
                .op_ms
                .iter()
                .zip(&outcome.op_traced)
                .filter(|&(_, &t)| t == traced)
                .map(|(&ms, _)| ms)
                .collect()
        };
        let (on, off) = (latencies(true), latencies(false));
        outcome.layers.insert(
            "trace.overhead_pct",
            100.0 * (median(&on) / median(&off) - 1.0),
        );
        let table = write_trace_files(&args, &tracer, &outcome)
            .map_err(|e| format!("writing spans: {e}"))?;
        eprint!("{table}");
        PER_LAYER
            .iter()
            .map(|&(name, _)| (name, outcome.layers.get(name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        let rss = outcome
            .peak_rss_mb
            .or_else(|| peak_rss_mb("self"))
            .ok_or("cannot read peak resident set")?;
        BTreeMap::from([
            ("setup_s", median(&outcome.setup_s)),
            (
                "ops_per_s",
                (attempted as u64 - outcome.failed) as f64 / outcome.window_s,
            ),
            ("op_ms_p50", quantile(&outcome.op_ms, 0.5)),
            ("op_ms_p90", quantile(&outcome.op_ms, 0.9)),
            ("peak_rss_mb", rss),
        ])
    };

    let units: BTreeMap<&str, &str> = END_TO_END.iter().chain(PER_LAYER).copied().collect();
    let errors: Vec<String> = outcome.errors.iter().map(|e| json_string(e)).collect();
    println!(
        "{{\"run\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"attempted\":{attempted},\"failed\":{},\"setups\":{},\"window_s\":{},\"cpu\":{},\"nproc\":{},\"rustflags\":{},\"commit\":{},\"errors\":[{}]}}}}",
        json_string(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        outcome.failed,
        outcome.setup_s.len(),
        outcome.window_s,
        json_string(&cpu_model()),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_string(env!("PERFBENCH_RUSTFLAGS")),
        json_string(&args.commit),
        errors.join(",")
    );
    if let Some((name, _)) = metrics.iter().find(|(_, value)| !value.is_finite()) {
        return Err(format!("metric {name} is not finite"));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "{}:{{\"value\":{value},\"unit\":{}}}",
                json_string(name),
                json_string(units[name])
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{},\"metrics\":{{{}}}}}",
        attempted > 0 && outcome.failed == 0,
        outcome.failed,
        body.join(",")
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("glc-perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
