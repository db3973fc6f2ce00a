//! # inflog-rewrite
//!
//! Program-to-program **demand transformations**: given a goal atom (a point
//! query like `Win('v3')` or `S('v0', y)`), rewrite a DATALOG¬ program so
//! that bottom-up evaluation computes only the *cone* of tuples the goal can
//! depend on, instead of the whole fixpoint.
//!
//! One rewrite, [`magic::rewrite_cone`], serves every program: a
//! two-phase **demand-cone restriction** whose demand crosses negations.
//! Phase one is a *positive* demand program (magic predicates, the exact
//! guarded rules of negation-free predicates, and a positivized
//! over-approximation of the others) whose least fixpoint is the set of
//! subgoals the query can reach through positive *and* negative
//! dependencies. Phase two guards the adorned rules of the remaining
//! predicates with the materialized phase-one relations; it is stratified
//! whenever the input is. Soundness rests on the *relevance* property of
//! the well-founded semantics, which is the perfect model on stratified
//! programs: the truth value of an atom depends only on the ground rules in
//! its dependency cone.
//!
//! The rewrite is purely syntactic ([`inflog_syntax::Program`] →
//! [`inflog_syntax::Program`]); evaluation lives in `inflog-eval`
//! (`eval::query`). Generated predicates use `#`-separated names
//! (`S#bf`, `M#S#bf`, `P#S#bf`) that the concrete syntax cannot produce, so
//! they can never collide with user predicates of a parsed program.

pub mod adorn;
pub mod magic;

pub use adorn::{adorned_name, magic_name, pot_name, Adornment};
pub use magic::{rewrite_cone, ConeRewrite};
