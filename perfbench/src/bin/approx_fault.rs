//! Reproduces a fault the benchmark keeps out of its workloads: on the
//! five book circuits, `TauLeap` and `Langevin` at the documented bench
//! step 0.02 (and at 0.005) fail verification at the paper protocol,
//! while `Direct` verifies. Cello circuits are shown for contrast.
//!
//! Run from the repository root:
//! `cargo run --release --manifest-path perfbench/Cargo.toml --bin approx_fault`

use glc_core::analyze::{AnalyzerConfig, LogicAnalyzer};
use glc_core::verify;
use glc_gates::catalog;
use glc_ssa::{Direct, Engine, Langevin, TauLeap};
use glc_vasim::{Experiment, ExperimentConfig};

/// An engine's name and a way to build a fresh one.
type EngineMaker = (&'static str, Box<dyn Fn() -> Box<dyn Engine>>);

fn main() {
    let engines: Vec<EngineMaker> = vec![
        ("Direct", Box::new(|| Box::new(Direct::new()))),
        (
            "TauLeap(0.02)",
            Box::new(|| Box::new(TauLeap::new(0.02).expect("valid step"))),
        ),
        (
            "Langevin(0.02)",
            Box::new(|| Box::new(Langevin::new(0.02).expect("valid step"))),
        ),
        (
            "TauLeap(0.005)",
            Box::new(|| Box::new(TauLeap::new(0.005).expect("valid step"))),
        ),
        (
            "Langevin(0.005)",
            Box::new(|| Box::new(Langevin::new(0.005).expect("valid step"))),
        ),
    ];
    let analyzer = LogicAnalyzer::new(AnalyzerConfig::new(15.0).fov_ud(0.25));
    for id in [
        "book_not",
        "book_nor",
        "book_nand",
        "book_or",
        "book_and",
        "cello_0x1C",
        "cello_0x41",
    ] {
        let entry = catalog::by_id(id).expect("catalog circuit");
        for (name, make) in &engines {
            let config = ExperimentConfig::paper_protocol(entry.inputs.len(), 15.0);
            let outcome = Experiment::new(config)
                .run_with_engine(
                    &entry.model,
                    &entry.inputs,
                    &entry.output,
                    2017,
                    make().as_mut(),
                )
                .map_err(|e| e.to_string())
                .and_then(|result| analyzer.analyze(&result.data).map_err(|e| e.to_string()));
            let line = match outcome {
                Ok(report) => {
                    let verdict = verify(&report, &entry.expected);
                    format!(
                        "{} = {}  {}",
                        report.output_name,
                        report.expression,
                        if verdict.equivalent {
                            "verified"
                        } else {
                            "FAILS verification"
                        }
                    )
                }
                Err(message) => format!("error: {message}"),
            };
            println!("{id:<11} {name:<16} {line}");
        }
    }
}
