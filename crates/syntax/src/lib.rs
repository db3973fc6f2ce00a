//! # inflog-syntax
//!
//! Syntax for DATALOG¬ programs as defined in §2 of *"Why Not Negation by
//! Fixpoint?"*: finite sets of rules
//!
//! ```text
//! t0 <- t1, t2, ..., tr
//! ```
//!
//! where the body literals are equalities `x = y`, inequalities `x != y`,
//! atomic formulas `Q(x1,...,xn)`, or negated atomic formulas `!Q(x1,...,xn)`,
//! and the head is an atomic formula.
//!
//! Two paper-driven departures from "textbook" Datalog syntax:
//!
//! * **Heads may contain constants** — Theorem 4's input-gate rules are
//!   `Gi(z1,...,1,...,zn) <- .`;
//! * **Rules need not be safe/range-restricted** — the paper's pivotal rule is
//!   `T(z) <- !Q(u), !T(w)`, all of whose variables occur only under
//!   negation. Its semantics is domain-grounded (variables range over the
//!   universe `A`), so the engine accepts such rules; [`validate()`](validate()) reports
//!   them as *warnings* rather than errors.
//!
//! Concrete syntax accepted by [`parse_program`]:
//!
//! ```text
//! % transitive closure (the paper's pi_3)
//! S(x, y) :- E(x, y).
//! S(x, y) :- E(x, z), S(z, y).
//! % negation, inequality, constants:
//! T(x)    :- E(y, x), !T(y).
//! P(x)    :- x != y, V(y).
//! G1(z, 1).           % fact-style rule with a constant head
//! ```
//!
//! Predicates start with an uppercase letter; variables with a lowercase
//! letter or `_`; constants are numbers or `'quoted'` identifiers. `:-` and
//! `<-` are interchangeable; `%` and `//` start comments.

pub mod ast;
pub mod builder;
pub mod depgraph;
pub mod lexer;
pub mod parser;
pub mod validate;

pub use ast::{Atom, Literal, Program, Rule, Term};
pub use builder::{atom, cst, fact, neg, pos, rule, var, ProgramBuilder};
pub use depgraph::{Component, DepGraph};
pub use parser::{parse_atom, parse_program, ParseError};
pub use validate::{validate, SafetyWarning, ValidationError};
