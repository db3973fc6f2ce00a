//! `experiments` — every "table and figure" of the reproduction. The paper
//! is theory; its evaluation artifacts are its theorems, worked examples
//! and complexity claims, and each experiment asserts the claim it prints.
//!
//! ```text
//! cargo run --release -p inflog-bench --bin experiments            # all ten
//! cargo run --release -p inflog-bench --bin experiments -- e4      # one
//! cargo run --release -p inflog-bench --bin experiments -- --full  # larger grids
//! ```
//!
//! Each experiment runs under `catch_unwind`, so a failed assertion marks
//! its claim FAIL without hiding the others. The run ends with a claim →
//! paper element → PASS/FAIL table and exits non-zero if any claim failed.

mod e10_complexity_scaling;
mod e1_fixpoint_structure;
mod e2_np_normal_form;
mod e3_unique_fixpoint;
mod e4_least_fixpoint;
mod e5_succinct_coloring;
mod e6_inflationary;
mod e7_fo_ifp;
mod e8_distance_query;
mod e9_hierarchy;
mod report;

use report::{banner, Table};
use std::panic::catch_unwind;
use std::process::ExitCode;

/// One experiment: the claim it checks and the paper element it comes from.
struct Experiment {
    id: &'static str,
    claim: &'static str,
    paper: &'static str,
    /// Prints the experiment's tables and panics if the claim fails;
    /// `true` selects the larger `--full` grids.
    run: fn(bool),
}

const EXPERIMENTS: [Experiment; 10] = [
    Experiment {
        id: "e1",
        claim: "pi_1 has 1 fixpoint on L_n, 2 on even C_n, 0 on odd C_n, 2^n on G_n",
        paper: "Section 2 example",
        run: e1_fixpoint_structure::run,
    },
    Experiment {
        id: "e2",
        claim: "fixpoint existence decides SAT and compiled ESO properties",
        paper: "Theorem 1, Example 1",
        run: e2_np_normal_form::run,
    },
    Experiment {
        id: "e3",
        claim: "fixpoints of (pi_SAT, D(I)) biject with the models of I",
        paper: "Theorem 2",
        run: e3_unique_fixpoint::run,
    },
    Experiment {
        id: "e4",
        claim: "the FONP oracle algorithm decides least-fixpoint existence",
        paper: "Theorem 3",
        run: e4_least_fixpoint::run,
    },
    Experiment {
        id: "e5",
        claim: "3-colorability is fixpoint existence, explicit and succinct",
        paper: "Lemma 1, Theorem 4",
        run: e5_succinct_coloring::run,
    },
    Experiment {
        id: "e6",
        claim: "inflationary DATALOG is total, polynomially bounded, = lfp on DATALOG",
        paper: "Section 4",
        run: e6_inflationary::run,
    },
    Experiment {
        id: "e7",
        claim: "inflationary DATALOG = existential FO+IFP, both directions",
        paper: "Proposition 1",
        run: e7_fo_ifp::run,
    },
    Experiment {
        id: "e8",
        claim: "the distance program computes the distance query; stratified differs",
        paper: "Proposition 2",
        run: e8_distance_query::run,
    },
    Experiment {
        id: "e9",
        claim: "DATALOG < stratified < inflationary, each step witnessed",
        paper: "Section 5",
        run: e9_hierarchy::run,
    },
    Experiment {
        id: "e10",
        claim: "polynomial in the data, exponential in the program",
        paper: "Section 3, Theorem 4",
        run: e10_complexity_scaling::run,
    },
];

fn main() -> ExitCode {
    let mut full = false;
    let mut selected = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--full" {
            full = true;
        } else if let Some(e) = EXPERIMENTS.iter().find(|e| e.id == arg) {
            selected.push(e);
        } else {
            eprintln!("experiments: unknown argument `{arg}`");
            eprintln!("usage: experiments [--full] [e1 ... e10]");
            return ExitCode::from(2);
        }
    }
    if selected.is_empty() {
        selected = EXPERIMENTS.iter().collect();
    }

    let passed = run_all(&selected, full);
    println!("\nclaims:");
    let mut t = Table::new(&["experiment", "claim", "paper", "status"]);
    for (e, &ok) in selected.iter().zip(&passed) {
        t.row(&[&e.id, &e.claim, &e.paper, &if ok { "PASS" } else { "FAIL" }]);
    }
    t.print();
    if passed.iter().all(|&ok| ok) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs each experiment in turn; a panic fails that experiment's claim
/// only (the default hook has already printed its message).
fn run_all(experiments: &[&Experiment], full: bool) -> Vec<bool> {
    experiments
        .iter()
        .map(|e| {
            banner(&e.id.to_uppercase(), e.claim, e.paper);
            catch_unwind(|| (e.run)(full)).is_ok()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn experiment(id: &'static str, run: fn(bool)) -> Experiment {
        Experiment {
            id,
            claim: "",
            paper: "",
            run,
        }
    }

    #[test]
    fn a_failed_claim_does_not_hide_the_others() {
        let fails = experiment("x1", |_| panic!("claim violated"));
        let holds = experiment("x2", |_| {});
        assert_eq!(run_all(&[&fails, &holds], false), [false, true]);
    }
}
