//! `paper_table`: the catalog at the paper's protocol (hold 1000 t.u.,
//! threshold 15, `FOV_UD` 0.25, `Direct`), one circuit per op, on one
//! thread. An op is `Experiment::run` (compile, schedule, engine, trace,
//! extraction), `LogicAnalyzer::analyze` and `verify`.

use crate::replay::{analyze_stages, engine_only, reports_bitwise, sweep_schedule};
use crate::tracer::Tracer;
use crate::{checks, layer_ms, median, op_seed, rounds, setups, timed, Args, Outcome};
use glc_core::analyze::{AnalyzerConfig, LogicAnalyzer, LogicReport};
use glc_core::{verify, AnalogData, Verdict};
use glc_gates::catalog::{self, CircuitEntry};
use glc_ssa::{CompiledModel, Direct};
use glc_vasim::{Experiment, ExperimentConfig, ExperimentResult};
use std::collections::BTreeMap;

/// The paper's threshold (molecules), also the applied input level.
pub const THRESHOLD: f64 = 15.0;
/// The paper's acceptable fraction of variation.
pub const FOV_UD: f64 = 0.25;
/// Catalog circuits the paper-path workloads leave out. `book_and`
/// fails verification under `Direct` at the paper protocol on some
/// seeds (its `11` combination settles too late), so keeping it would
/// make the failed share depend on the seed.
pub const LEFT_OUT: &[&str] = &["book_and"];

/// The catalog circuits the paper-path workloads run.
pub fn circuits() -> Vec<CircuitEntry> {
    catalog::all()
        .into_iter()
        .filter(|entry| !LEFT_OUT.contains(&entry.id.as_str()))
        .collect()
}

/// The paper-protocol analyzer.
pub fn analyzer() -> LogicAnalyzer {
    LogicAnalyzer::new(AnalyzerConfig::new(THRESHOLD).fov_ud(FOV_UD))
}

/// Sums the traced replays add up.
#[derive(Default)]
struct Counts {
    replays: u64,
    firings: u64,
    trace_samples: u64,
    analyzed_samples: u64,
}

fn op(
    tracer: &mut Tracer,
    entry: &CircuitEntry,
    seed: u64,
) -> Result<(ExperimentResult, LogicReport, Verdict), String> {
    tracer.span("op", |t| {
        let config = ExperimentConfig::paper_protocol(entry.inputs.len(), THRESHOLD);
        let result = t
            .span("vasim.experiment", |_| {
                Experiment::new(config).run(&entry.model, &entry.inputs, &entry.output, seed)
            })
            .map_err(|e| format!("{}: experiment: {e}", entry.id))?;
        let report = t
            .span("core.analyze", |_| analyzer().analyze(&result.data))
            .map_err(|e| format!("{}: analyze: {e}", entry.id))?;
        let verdict = t.span("core.verify", |_| verify(&report, &entry.expected));
        Ok((result, report, verdict))
    })
}

/// The op again through `CompiledModel::new`, an engine-only pass over
/// the same schedule, the series extraction from the op's trace and the
/// five Algorithm 1 stages; each must reproduce the op. What
/// `Experiment::run` spends outside compile, engine and extraction is
/// the schedule runner and trace recorder.
fn replay(
    tracer: &mut Tracer,
    entry: &CircuitEntry,
    seed: u64,
    result: &ExperimentResult,
    report: &LogicReport,
    counts: &mut Counts,
) -> Result<(), String> {
    tracer.span("replay", |t| {
        let config = ExperimentConfig::paper_protocol(entry.inputs.len(), THRESHOLD);
        let compiled = t
            .span("ssa.compile", |_| CompiledModel::new(&entry.model))
            .map_err(|e| e.to_string())?;
        let slots: Vec<usize> = entry
            .inputs
            .iter()
            .map(|name| {
                compiled
                    .species_slot(name)
                    .ok_or_else(|| format!("no input slot {name}"))
            })
            .collect::<Result<_, _>>()?;
        let (schedule, t_end) = sweep_schedule(
            &slots,
            config.hold_time,
            config.repeats,
            config.input_high,
            config.input_low,
        );
        let (state, firings) = t
            .span("ssa.engine", |_| {
                engine_only(&compiled, &schedule, &mut Direct::new(), t_end, seed)
            })
            .map_err(|e| e.to_string())?;
        let trace = &result.trace;
        let extracted = t.span("vasim.extract", |_| {
            let series = |name: &String| {
                (
                    name.clone(),
                    trace.series(name).unwrap_or_default().to_vec(),
                )
            };
            AnalogData::new(
                entry.inputs.iter().map(series).collect(),
                series(&entry.output),
            )
        });
        let extracted = extracted.map_err(|e| e.to_string())?;

        let last = trace.len().checked_sub(1).ok_or("empty trace")?;
        let final_row: Vec<f64> = (0..compiled.species_count())
            .map(|s| trace.series_at(s)[last])
            .collect();
        checks::slices_bitwise(
            "engine-only final state",
            &state.values[..compiled.species_count()],
            &final_row,
        )?;
        let data = &result.data;
        for j in 0..data.input_count() {
            checks::slices_bitwise("extracted input", extracted.input(j), data.input(j))?;
        }
        checks::slices_bitwise("extracted output", extracted.output(), data.output())?;
        let inputs: Vec<&[f64]> = (0..data.input_count()).map(|j| data.input(j)).collect();
        let staged = analyze_stages(
            t,
            &data.input_names(),
            &inputs,
            (data.output_name(), data.output()),
            THRESHOLD,
            FOV_UD,
        );
        reports_bitwise(&staged, report)?;
        counts.replays += 1;
        counts.firings += firings;
        counts.trace_samples += trace.len() as u64;
        counts.analyzed_samples += data.len() as u64;
        Ok(())
    })
}

/// Runs the workload.
pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut catalog_ms = Vec::new();
    let (entries, setup_s) = setups(|| {
        let (entries, catalog_s) = timed(circuits);
        catalog_ms.push(catalog_s * 1e3);
        // Warm-up pass: every circuit once, untimed.
        for (circuit, entry) in entries.iter().enumerate() {
            op(&mut Tracer::new(), entry, op_seed(args.seed, circuit))?;
        }
        Ok(entries)
    })?;

    let mut outcome = Outcome::new(setup_s);
    let mut counts = Counts::default();
    let mut op_id = 0u64;
    let window = rounds(args.seconds, |round| {
        let traced = args.trace && round % 2 == 1;
        for (circuit, entry) in entries.iter().enumerate() {
            let seed = op_seed(args.seed, circuit);
            tracer.set_on(traced);
            tracer.set_op(op_id);
            op_id += 1;
            let (result, secs) = timed(|| op(tracer, entry, seed));
            outcome.record(secs * 1e3, traced);
            // Checked here, outside the op's timing, so that nothing an
            // op returns outlives it and memory stays flat with the op
            // count.
            outcome.check(result.and_then(|(result, report, verdict)| {
                let replayed = if args.trace {
                    replay(tracer, entry, seed, &result, &report, &mut counts)
                } else {
                    Ok(())
                };
                replayed
                    .and_then(|()| checks::verdict(&report, &verdict, &entry.expected))
                    .map_err(|e| format!("{}: {e}", entry.id))
            }));
        }
        Ok(())
    })?;
    outcome.window_s = window;
    tracer.set_on(false);

    if args.trace {
        let layers = tracer.layers();
        let ops = outcome.traced_ops() as f64;
        let ms = |name: &str| layer_ms(&layers, name, ops);
        // Replays follow every op of a traced run, spans cover only the
        // traced rounds: counts are per replay, times per traced op.
        let replayed = counts.replays as f64;
        let seconds = |name: &str| layers.get(name).map_or(0.0, |l| l.total_s) / ops;
        let per_op = |count: u64| count as f64 / replayed;
        outcome.layers = BTreeMap::from([
            ("gates.catalog_ms", median(&catalog_ms)),
            ("ssa.compile_ms", ms("ssa.compile")),
            ("ssa.engine_ms", ms("ssa.engine")),
            (
                "ssa.harness_ms",
                ms("vasim.experiment") - ms("ssa.compile") - ms("ssa.engine") - ms("vasim.extract"),
            ),
            ("ssa.firings", per_op(counts.firings)),
            (
                "ssa.firings_per_s",
                per_op(counts.firings) / seconds("ssa.engine"),
            ),
            ("ssa.trace_samples", per_op(counts.trace_samples)),
            ("vasim.extract_ms", ms("vasim.extract")),
            ("vasim.experiment_ms", ms("vasim.experiment")),
            ("core.analyze_ms", ms("core.analyze")),
            ("core.verify_ms", ms("core.verify")),
            ("core.digitize_ms", ms("core.digitize")),
            ("core.cases_ms", ms("core.cases")),
            ("core.variation_ms", ms("core.variation")),
            ("core.classify_ms", ms("core.classify")),
            ("core.minimize_ms", ms("core.minimize")),
            (
                "core.samples_per_s",
                per_op(counts.analyzed_samples) / seconds("core.analyze"),
            ),
        ]);
        outcome.layer_table = layers;
    }
    Ok(outcome)
}
