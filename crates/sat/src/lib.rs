//! # inflog-sat
//!
//! A from-scratch SAT solving substrate for the **inflog** reproduction of
//! *"Why Not Negation by Fixpoint?"*.
//!
//! The paper's §3 results all live in NP-land: fixpoint existence for a
//! fixed DATALOG¬ program is NP-computable ("guess relations of size `n^s`
//! and verify"), unique-fixpoint is US-complete (counting accepting
//! computations), and the least-fixpoint FONP algorithm makes first-order
//! queries *to an NP oracle*. This crate is that oracle, implemented
//! honestly:
//!
//! * [`cnf`] — literals, clauses, CNF builders and Tseitin gate encodings;
//! * [`solver`] — a CDCL solver (two-watched literals, VSIDS-style activity,
//!   first-UIP clause learning, Luby restarts, phase saving, **assumption
//!   solving** for the FONP per-tuple queries);
//! * [`dpll`] — a plain DPLL baseline plus exhaustive-enumeration ground
//!   truths for testing (and the naive/CDCL ablation bench);
//! * [`enumerate`] — model enumeration/counting over a projection set with
//!   blocking clauses (the US-class "unique solution" machinery);
//! * [`dimacs`] — DIMACS CNF I/O;
//! * [`gen`] — workload generators (random k-SAT, pigeonhole).

pub mod cnf;
pub mod dimacs;
pub mod dpll;
pub mod enumerate;
pub mod gen;
pub mod solver;

pub use cnf::{Clause, Cnf, Lit, Var};
pub use dpll::{brute_force_count, brute_force_sat, dpll_sat};
pub use enumerate::{count_models, enumerate_models, has_unique_model, CountResult};
pub use solver::{SolveResult, Solver};
