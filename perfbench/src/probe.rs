//! `logic_probe`: Algorithm 1 alone on large logged data. Set-up
//! records one sweep per circuit at the paper protocol on a 10× finer
//! grid (`sample_dt` 0.1, 160 001 samples per 3-input series); an op is
//! `LogicAnalyzer::analyze_each` over every non-input species of one
//! circuit (the paper's analysis of intermediate components) plus
//! `verify` of the output's report. The engine runs only in set-up.

use crate::paper::{analyzer, circuits, FOV_UD, THRESHOLD};
use crate::replay::{analyze_stages, reports_bitwise};
use crate::tracer::Tracer;
use crate::{checks, layer_ms, median, op_seed, rounds, setups, timed, Args, Outcome};
use glc_core::analyze::LogicReport;
use glc_core::{verify, TruthTable, Verdict};
use glc_gates::catalog::CircuitEntry;
use glc_vasim::{Experiment, ExperimentConfig};
use std::collections::BTreeMap;

/// Sampling interval of the recorded sweeps.
pub const SAMPLE_DT: f64 = 0.1;

/// One circuit's recorded sweep.
struct Recording {
    id: String,
    expected: TruthTable,
    inputs: Vec<(String, Vec<f64>)>,
    /// Every non-input species; the circuit output is `outputs[output]`.
    outputs: Vec<(String, Vec<f64>)>,
    output: usize,
}

fn record(entries: Vec<CircuitEntry>, seed: u64) -> Result<Vec<Recording>, String> {
    entries
        .into_iter()
        .enumerate()
        .map(|(i, entry)| {
            let config = ExperimentConfig::paper_protocol(entry.inputs.len(), THRESHOLD)
                .sample_dt(SAMPLE_DT);
            let result = Experiment::new(config)
                .run(&entry.model, &entry.inputs, &entry.output, op_seed(seed, i))
                .map_err(|e| format!("{}: experiment: {e}", entry.id))?;
            let trace = result.trace;
            let series = |name: &String| {
                (
                    name.clone(),
                    trace.series(name).unwrap_or_default().to_vec(),
                )
            };
            let inputs = entry.inputs.iter().map(series).collect();
            let outputs: Vec<(String, Vec<f64>)> = trace
                .species()
                .iter()
                .filter(|name| !entry.inputs.contains(name))
                .map(series)
                .collect();
            let output = outputs
                .iter()
                .position(|(name, _)| *name == entry.output)
                .ok_or_else(|| format!("{}: output not recorded", entry.id))?;
            Ok(Recording {
                id: entry.id,
                expected: entry.expected,
                inputs,
                outputs,
                output,
            })
        })
        .collect()
}

fn op(tracer: &mut Tracer, rec: &Recording) -> Result<(Vec<LogicReport>, Verdict), String> {
    tracer.span("op", |t| {
        let reports = t
            .span("core.analyze", |_| {
                analyzer().analyze_each(&rec.inputs, &rec.outputs)
            })
            .map_err(|e| format!("{}: analyze_each: {e}", rec.id))?;
        let verdict = t.span("core.verify", |_| {
            verify(&reports[rec.output], &rec.expected)
        });
        Ok((reports, verdict))
    })
}

/// Every report again through the five public stages.
fn replay(tracer: &mut Tracer, rec: &Recording, reports: &[LogicReport]) -> Result<(), String> {
    tracer.span("replay", |t| {
        let names: Vec<String> = rec.inputs.iter().map(|(name, _)| name.clone()).collect();
        let inputs: Vec<&[f64]> = rec.inputs.iter().map(|(_, s)| s.as_slice()).collect();
        for ((name, series), report) in rec.outputs.iter().zip(reports) {
            let staged = analyze_stages(t, &names, &inputs, (name, series), THRESHOLD, FOV_UD);
            reports_bitwise(&staged, report)?;
        }
        Ok(())
    })
}

/// Runs the workload.
pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut catalog_ms = Vec::new();
    let mut record_s = Vec::new();
    let (recordings, setup_s) = setups(|| {
        let (entries, catalog_s) = timed(circuits);
        catalog_ms.push(catalog_s * 1e3);
        let (recordings, secs) = timed(|| record(entries, args.seed));
        record_s.push(secs);
        let recordings = recordings?;
        for rec in &recordings {
            op(&mut Tracer::new(), rec)?;
        }
        Ok(recordings)
    })?;

    let mut outcome = Outcome::new(setup_s);
    let mut analyzed = 0usize;
    let mut op_id = 0u64;
    let window = rounds(args.seconds, |round| {
        let traced = args.trace && round % 2 == 1;
        for rec in &recordings {
            tracer.set_on(traced);
            tracer.set_op(op_id);
            op_id += 1;
            let (result, secs) = timed(|| op(tracer, rec));
            outcome.record(secs * 1e3, traced);
            // Checked here, outside the op's timing, so that nothing an
            // op returns outlives it and memory stays flat with the op
            // count.
            let len = rec.inputs[0].1.len();
            analyzed += len * rec.outputs.len();
            outcome.check(result.and_then(|(reports, verdict)| {
                let replayed = if args.trace {
                    replay(tracer, rec, &reports)
                } else {
                    Ok(())
                };
                replayed
                    .and_then(|()| checks::verdict(&reports[rec.output], &verdict, &rec.expected))
                    .and_then(|()| {
                        reports
                            .iter()
                            .try_for_each(|report| checks::report_properties(report, len, FOV_UD))
                    })
                    .map_err(|e| format!("{}: {e}", rec.id))
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
        let analyzed = analyzed as f64 / outcome.attempted() as f64;
        let analyze_s = layers.get("core.analyze").map_or(0.0, |l| l.total_s) / ops;
        outcome.layers = BTreeMap::from([
            ("gates.catalog_ms", median(&catalog_ms)),
            ("vasim.record_s", median(&record_s)),
            ("core.analyze_ms", ms("core.analyze")),
            ("core.verify_ms", ms("core.verify")),
            ("core.digitize_ms", ms("core.digitize")),
            ("core.cases_ms", ms("core.cases")),
            ("core.variation_ms", ms("core.variation")),
            ("core.classify_ms", ms("core.classify")),
            ("core.minimize_ms", ms("core.minimize")),
            ("core.samples_per_s", analyzed / analyze_s),
        ]);
        outcome.layer_table = layers;
    }
    Ok(outcome)
}
