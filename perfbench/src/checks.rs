//! Output checks, run outside the timed window.
//!
//! Every check compares against something the program did not produce
//! in this run: the catalog's intended truth table, properties
//! Algorithm 1 must have by definition, the replicate counts the
//! benchmark itself requested, or an f64 mean the benchmark computes
//! from raw traces. None compares against a stored copy of earlier
//! output.

use glc_core::analyze::LogicReport;
use glc_core::filters::FilterOutcome;
use glc_core::{TruthTable, Verdict};
use glc_ssa::Trace;

/// The extracted function equals the intended one, and `verify` says
/// so too.
pub fn verdict(
    report: &LogicReport,
    verdict: &Verdict,
    expected: &TruthTable,
) -> Result<(), String> {
    let extracted = report.truth_table();
    if extracted.inputs() != expected.inputs() {
        return Err(format!(
            "{}: {} inputs extracted, {} intended",
            report.output_name,
            extracted.inputs(),
            expected.inputs()
        ));
    }
    let wrong: Vec<usize> = (0..expected.rows())
        .filter(|&m| extracted.value(m) != expected.value(m))
        .collect();
    if !wrong.is_empty() {
        return Err(format!(
            "{}: extracted function differs from the intended one at combinations {wrong:?}",
            report.output_name
        ));
    }
    if !verdict.equivalent {
        return Err(format!(
            "{}: verify rejects a function equal to the intended one",
            report.output_name
        ));
    }
    Ok(())
}

/// Properties every Algorithm 1 report on a `series_len`-sample series
/// must have: one row per combination, case counts summing to the
/// series length, `High_O ≤ Case_I`, outcomes that follow eqs. (1) and
/// (2) from the counts, minterms that are exactly the combinations
/// classified high, and an expression that evaluates to that set.
pub fn report_properties(
    report: &LogicReport,
    series_len: usize,
    fov_ud: f64,
) -> Result<(), String> {
    let name = &report.output_name;
    let n = report.input_names.len();
    let rows = 1usize << n;
    if report.combos.len() != rows || report.combos.iter().enumerate().any(|(i, c)| c.combo != i) {
        return Err(format!(
            "{name}: expected one row per combination 0..{rows}"
        ));
    }
    let cases: usize = report.combos.iter().map(|c| c.case_count).sum();
    if cases != series_len {
        return Err(format!(
            "{name}: case counts sum to {cases}, series has {series_len} samples"
        ));
    }
    for c in &report.combos {
        if c.high_count > c.case_count {
            return Err(format!(
                "{name}: combination {} has High_O {} > Case_I {}",
                c.combo, c.high_count, c.case_count
            ));
        }
        let high = c.case_count > 0
            && (c.variation_count as f64 / c.case_count as f64) <= fov_ud
            && 2 * c.high_count > c.case_count;
        if high != (c.outcome == FilterOutcome::High) {
            return Err(format!(
                "{name}: combination {} classified {:?} against its counts",
                c.combo, c.outcome
            ));
        }
    }
    let high: Vec<usize> = report
        .combos
        .iter()
        .filter(|c| c.outcome == FilterOutcome::High)
        .map(|c| c.combo)
        .collect();
    if report.minterms != high {
        return Err(format!(
            "{name}: minterms {:?} but combinations {high:?} classified high",
            report.minterms
        ));
    }
    if let Some(m) = (0..rows).find(|&m| report.expression.eval_combo(m) != high.contains(&m)) {
        return Err(format!(
            "{name}: expression `{}` disagrees with the minterms at {m}",
            report.expression
        ));
    }
    Ok(())
}

/// A reply's replicate count equals the sum of the extends sent.
pub fn replicate_count(session: &str, reported: u64, extends: &[u64]) -> Result<(), String> {
    let sent: u64 = extends.iter().sum();
    if reported != sent {
        return Err(format!(
            "{session}: {reported} replicates reported, {sent} extended"
        ));
    }
    Ok(())
}

/// A served mean agrees with a plain f64 mean of the same replicates'
/// traces, species by species and sample by sample.
pub fn mean_matches(served: &Trace, plain: &[(String, Vec<f64>)]) -> Result<(), String> {
    for (species, expected) in plain {
        let got = served
            .series(species)
            .ok_or_else(|| format!("served mean lacks species `{species}`"))?;
        if got.len() != expected.len() {
            return Err(format!(
                "{species}: {} samples served, {} expected",
                got.len(),
                expected.len()
            ));
        }
        for (k, (a, b)) in got.iter().zip(expected).enumerate() {
            if (a - b).abs() > 1e-9 * b.abs().max(1.0) {
                return Err(format!("{species}[{k}]: served mean {a} vs plain mean {b}"));
            }
        }
    }
    Ok(())
}

/// Equal bit for bit; a NaN matches any NaN, since NaN payloads do
/// not survive the JSON number layer.
fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Two traces are equal bit for bit.
pub fn traces_bitwise(what: &str, got: &Trace, expected: &Trace) -> Result<(), String> {
    if got.species() != expected.species() || got.len() != expected.len() {
        return Err(format!("{what}: trace shape differs"));
    }
    for (s, species) in expected.species().iter().enumerate() {
        let (a, b) = (got.series_at(s), expected.series_at(s));
        if let Some(k) = (0..a.len()).find(|&k| !same(a[k], b[k])) {
            return Err(format!(
                "{what}: {species}[{k}] is {} , expected {}",
                a[k], b[k]
            ));
        }
    }
    Ok(())
}

/// Two f64 slices are equal bit for bit.
pub fn slices_bitwise(what: &str, got: &[f64], expected: &[f64]) -> Result<(), String> {
    if got.len() != expected.len() {
        return Err(format!(
            "{what}: {} values, expected {}",
            got.len(),
            expected.len()
        ));
    }
    match (0..got.len()).find(|&k| !same(got[k], expected[k])) {
        Some(k) => Err(format!(
            "{what}[{k}]: {} , expected {}",
            got[k], expected[k]
        )),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glc_core::analyze::{AnalyzerConfig, LogicAnalyzer};
    use glc_core::{verify, AnalogData, BoolExpr};

    /// A clean 2-input AND sweep: each combination held 50 samples.
    fn and_report() -> (LogicReport, usize) {
        let (mut a, mut b, mut y) = (Vec::new(), Vec::new(), Vec::new());
        for combo in 0..4usize {
            for _ in 0..50 {
                a.push(if combo & 2 != 0 { 30.0 } else { 0.0 });
                b.push(if combo & 1 != 0 { 30.0 } else { 0.0 });
                y.push(if combo == 3 { 30.0 } else { 0.0 });
            }
        }
        let data =
            AnalogData::new(vec![("A".into(), a), ("B".into(), b)], ("Y".into(), y)).unwrap();
        let report = LogicAnalyzer::new(AnalyzerConfig::new(15.0))
            .analyze(&data)
            .unwrap();
        (report, 200)
    }

    #[test]
    fn genuine_results_pass() {
        let (report, len) = and_report();
        let and = TruthTable::from_minterms(2, &[3]);
        verdict(&report, &verify(&report, &and), &and).unwrap();
        report_properties(&report, len, 0.25).unwrap();
        replicate_count("s", 24, &[8, 8, 8]).unwrap();
    }

    #[test]
    fn flipped_minterm_is_rejected() {
        let (mut report, len) = and_report();
        let and = TruthTable::from_minterms(2, &[3]);
        report.minterms = vec![2, 3];
        report.expression = BoolExpr::from_minterms(report.input_names.clone(), &[2, 3]);
        let forged_verdict = verify(&report, &and);
        assert!(verdict(&report, &forged_verdict, &and).is_err());
        assert!(report_properties(&report, len, 0.25).is_err());
        // A forged verdict alone is caught against the truth table too.
        let (report, _) = and_report();
        let or = TruthTable::from_minterms(2, &[1, 2, 3]);
        assert!(verdict(&report, &verify(&report, &and), &or).is_err());
    }

    #[test]
    fn forged_counts_are_rejected() {
        let (mut report, len) = and_report();
        report.combos[1].case_count += 1;
        assert!(report_properties(&report, len, 0.25).is_err());
        let (mut report, len) = and_report();
        report.combos[3].high_count = report.combos[3].case_count + 1;
        assert!(report_properties(&report, len, 0.25).is_err());
        let (mut report, len) = and_report();
        report.expression = BoolExpr::from_minterms(report.input_names.clone(), &[0, 3]);
        assert!(report_properties(&report, len, 0.25).is_err());
    }

    #[test]
    fn short_replicate_count_is_rejected() {
        assert!(replicate_count("s", 16, &[8, 8, 8]).is_err());
    }

    #[test]
    fn perturbed_mean_is_rejected() {
        let mut served = Trace::new(vec!["X".into()], 1.0, 0.0);
        for v in [1.0, 2.5, 4.0] {
            served.push_row(&[v]);
        }
        let plain = vec![("X".to_string(), vec![1.0, 2.5, 4.0])];
        mean_matches(&served, &plain).unwrap();
        traces_bitwise("q", &served, &served.clone()).unwrap();
        let mut forged = Trace::new(vec!["X".into()], 1.0, 0.0);
        for v in [1.0, 2.5 + 1e-6, 4.0] {
            forged.push_row(&[v]);
        }
        assert!(mean_matches(&forged, &plain).is_err());
        assert!(traces_bitwise("q", &forged, &served).is_err());
        assert!(slices_bitwise("q", &[2.5f64.next_up()], &[2.5]).is_err());
    }
}
