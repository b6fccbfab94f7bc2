//! Replays of calls that hide a layer inside them.
//!
//! `ScheduleRunner::run` drives the engine and records the trace in one
//! call, and `LogicAnalyzer::analyze` runs all five stages of
//! Algorithm 1 in one call. The traced run times those layers by
//! repeating the op through the public pieces and checks that the
//! pieces reproduce the op's result bit for bit.

use crate::tracer::Tracer;
use glc_core::analyze::{ComboReport, LogicReport};
use glc_core::boolexpr::{combo_string, BoolExpr};
use glc_core::cases::CaseAnalysis;
use glc_core::digitize::digitize;
use glc_core::filters::classify;
use glc_core::{qmc, variation};
use glc_ssa::{CompiledModel, Engine, InputSchedule, Observer, SimError, State};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Counts `on_advance` calls: one per reaction firing, plus one at each
/// segment's horizon.
#[derive(Debug, Default)]
struct FiringCounter(u64);

impl Observer for FiringCounter {
    fn on_advance(&mut self, _t_new: f64, _values: &[f64]) {
        self.0 += 1;
    }
}

/// The sweep schedule `Experiment` builds: every input combination in
/// counting order, each held `hold_time`, the sweep repeated `repeats`
/// times. Returns the schedule and its end time.
pub fn sweep_schedule(
    slots: &[usize],
    hold_time: f64,
    repeats: usize,
    high: f64,
    low: f64,
) -> (InputSchedule, f64) {
    let n = slots.len();
    let mut schedule = InputSchedule::new();
    let mut t = 0.0;
    for _ in 0..repeats {
        for combo in 0..1usize << n {
            for (j, &slot) in slots.iter().enumerate() {
                let level = if (combo >> (n - 1 - j)) & 1 == 1 {
                    high
                } else {
                    low
                };
                schedule.set(t, slot, level);
            }
            t += hold_time;
        }
    }
    (schedule, t)
}

/// `ScheduleRunner::run`'s segment loop with a [`FiringCounter`] in
/// place of the trace recorder: the engine's work alone. Returns the
/// final state and the observer count.
///
/// # Errors
///
/// Engine errors.
pub fn engine_only(
    model: &CompiledModel,
    schedule: &InputSchedule,
    engine: &mut dyn Engine,
    t_end: f64,
    seed: u64,
) -> Result<(State, u64), SimError> {
    let mut state = model.initial_state();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut counter = FiringCounter::default();
    let mut boundaries: Vec<f64> = schedule
        .event_times()
        .into_iter()
        .filter(|&t| t < t_end)
        .collect();
    boundaries.push(t_end);
    schedule.apply_range(-f64::EPSILON, f64::MIN_POSITIVE, &mut state);
    let mut segment_start = 0.0;
    for &boundary in &boundaries {
        if boundary > segment_start {
            engine.run(model, &mut state, boundary, &mut rng, &mut counter)?;
        }
        if boundary < t_end {
            let width = (boundary.abs() * f64::EPSILON).max(f64::MIN_POSITIVE);
            schedule.apply_range(
                boundary.max(f64::MIN_POSITIVE),
                boundary + width,
                &mut state,
            );
        }
        segment_start = boundary;
    }
    Ok((state, counter.0))
}

/// Algorithm 1 through its public stages, one span per stage, for the
/// configuration the workloads use (one shared threshold, minimized
/// expression, unobserved combinations read as 0).
pub fn analyze_stages(
    tracer: &mut Tracer,
    input_names: &[String],
    inputs: &[&[f64]],
    output: (&str, &[f64]),
    threshold: f64,
    fov_ud: f64,
) -> LogicReport {
    let n = inputs.len();
    let (digital_inputs, digital_output) = tracer.span("core.digitize", |_| {
        let ins: Vec<Vec<bool>> = inputs.iter().map(|s| digitize(s, threshold)).collect();
        (ins, digitize(output.1, threshold))
    });
    let cases = tracer.span("core.cases", |_| {
        CaseAnalysis::analyze(&digital_inputs, &digital_output)
    });
    let stats = tracer.span("core.variation", |_| variation::analyze(&cases));
    let combos: Vec<ComboReport> = tracer.span("core.classify", |_| {
        stats
            .iter()
            .map(|s| ComboReport {
                combo: s.combo,
                label: combo_string(s.combo, n),
                case_count: s.case_count,
                high_count: s.high_count,
                variation_count: s.variation_count,
                fov_est: s.fov_est(),
                outcome: classify(s, fov_ud),
            })
            .collect()
    });
    let minterms: Vec<usize> = combos
        .iter()
        .filter(|c| c.outcome.is_high())
        .map(|c| c.combo)
        .collect();
    let cubes = tracer.span("core.minimize", |_| qmc::minimize(n, &minterms, &[]));
    let penalty: f64 = combos
        .iter()
        .filter(|c| c.outcome.is_high())
        .map(|c| c.fov_est)
        .sum::<f64>()
        / (1usize << n) as f64;
    LogicReport {
        input_names: input_names.to_vec(),
        output_name: output.0.to_string(),
        combos,
        minterms,
        expression: BoolExpr::from_cubes(input_names.to_vec(), cubes),
        fitness: 100.0 - penalty * 100.0,
    }
}

/// Two reports are equal, floating-point fields bit for bit.
pub fn reports_bitwise(replay: &LogicReport, op: &LogicReport) -> Result<(), String> {
    let floats_equal = replay.fitness.to_bits() == op.fitness.to_bits()
        && replay.combos.len() == op.combos.len()
        && replay
            .combos
            .iter()
            .zip(&op.combos)
            .all(|(a, b)| a.fov_est.to_bits() == b.fov_est.to_bits());
    if replay != op || !floats_equal {
        return Err(format!(
            "{}: stage replay does not reproduce analyze",
            op.output_name
        ));
    }
    Ok(())
}
