//! The flat register-machine executor: rule plans lowered to a
//! [`RuleProgram`] of sequential [`Op`]s, driven by an **iterative** VM.
//!
//! The tree executor (kept as the debug-build oracle in `tree`)
//! interprets the [`Step`](crate::plan::Step) tree recursively, paying a
//! dynamic `match` per step per candidate plus a save/restore of the
//! `bound` bitmap around every scan candidate. Lowering
//! ([`plan::lower`](crate::plan::lower)) eliminates both statically:
//!
//! * boundness is decided **at lowering time** — every scan column becomes a
//!   fixed [`ColAction`] (bind a register, check a register, check a
//!   constant, or skip an index-guaranteed key column), so the VM never
//!   tracks a `bound` array at all;
//! * the step tree's recursion becomes explicit **jump targets**: every op
//!   carries the pc of its innermost enclosing loop (`fail`), and the VM
//!   runs a flat program counter over a small stack of loop cursors;
//! * the inner scan/probe loops are **arity-monomorphized** for arities
//!   1–4 — the inline-`Tuple` fast path — with a generic fallback above,
//!   so the per-candidate unification loop fully unrolls;
//! * a **loop-invariant suffix** ([`Hoist`]) runs once per collecting run:
//!   on the first arrival at its pc the VM runs the suffix to completion
//!   into one flat buffer of the registers it binds, in the suffix's own
//!   loop order, and from then on a replay cursor stands in for the
//!   suffix and only copies rows into registers. The domain-grounded tail
//!   of the paper's unsafe rules stops being re-run for every binding of
//!   the positive join above it. An outer nest that never arrives builds
//!   no buffer.
//!
//! The VM's iteration order is identical to the tree executor's by
//! construction (same dense order, same posting order, same filter points),
//! so its output is bit-identical — same tuples, same insertion order. The
//! replay keeps this: the suffix reads no register bound above it, and the
//! relations it reads do not change during a run, so every arrival would
//! have run it to the same rows in the same order — the replay hands each
//! outer binding exactly those rows, and the emits, their order and their
//! count (what [`Budget::max_tuples`](crate::Budget::max_tuples) counts)
//! stay the same. Building the rows emits nothing; the build polls
//! deadline and cancellation every few thousand rows, as the emit path
//! does. Check plans' witness searches keep the plain path: they stop at
//! the first witness, so building every row first could cost more than
//! it saves.
//! The VM is the only executor that runs; debug builds cross-check every
//! VM application against the tree oracle (see
//! [`operator`](crate::operator)), and release builds compile no tree
//! code.

use crate::index::{Index, IndexSet};
use crate::interp::Interp;
use crate::operator::{DeltaSource, EvalContext};
use crate::plan::{PredRef, Source};
use inflog_core::{Const, Relation, Tuple};
use std::fmt;

/// Sentinel jump target: no enclosing loop — failing here ends the run.
pub const END: u32 = u32::MAX;

/// What a scan does with one column of a candidate tuple. Decided at
/// lowering time from the static binding pattern, so the VM's inner loop
/// has no boundness bookkeeping left.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColAction {
    /// Fresh variable: write the column into register `r`.
    Bind(u32),
    /// Already-bound variable: the column must equal register `r`.
    CheckReg(u32),
    /// Constant term: the column must equal this constant.
    CheckConst(Const),
    /// Index key column: equality is guaranteed by the probe, skip it.
    Skip,
}

/// A value operand: a register or an immediate constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValSrc {
    /// Register (variable slot).
    Reg(u32),
    /// Immediate constant.
    Imm(Const),
}

#[inline]
fn value(src: ValSrc, vals: &[Const]) -> Const {
    match src {
        ValSrc::Reg(r) => vals[r as usize],
        ValSrc::Imm(c) => c,
    }
}

/// One op of a lowered rule program. Ops run in sequence; loop ops
/// (`ScanEdb`/`ScanIdb`/`ProbeIndex`/`Domain`) open a cursor and every op
/// carries the explicit jump target `fail` — the pc of its innermost
/// enclosing loop, [`END`] at top level — taken when the op fails or (for
/// loop ops) exhausts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Loop over an EDB relation's dense tuples (or the EDB-shaped delta).
    ScanEdb {
        /// EDB relation id.
        rel: u32,
        /// Full relation or the application's delta interpretation.
        source: Source,
        /// Per-column unification actions (length = atom arity).
        cols: Box<[ColAction]>,
        /// Enclosing-loop pc.
        fail: u32,
    },
    /// Loop over an IDB relation's dense tuples (or the per-round delta).
    ScanIdb {
        /// IDB relation id.
        rel: u32,
        /// Full relation or the application's delta interpretation.
        source: Source,
        /// Per-column unification actions (length = atom arity).
        cols: Box<[ColAction]>,
        /// Enclosing-loop pc.
        fail: u32,
    },
    /// Keyed loop: build the key from `key`, probe the persistent
    /// hash-join index, loop its postings (falling back to a filtered
    /// linear scan when no index is registered).
    ProbeIndex {
        /// Relation to probe.
        pred: PredRef,
        /// Full relation or the application's delta interpretation.
        source: Source,
        /// Key columns (strictly ascending).
        key_cols: Box<[usize]>,
        /// Key value sources, aligned with `key_cols`.
        key: Box<[ValSrc]>,
        /// Per-column unification actions; key columns are [`ColAction::Skip`].
        cols: Box<[ColAction]>,
        /// Enclosing-loop pc.
        fail: u32,
    },
    /// Loop register `reg` over the universe `0..|A|`.
    Domain {
        /// Register to range.
        reg: u32,
        /// Enclosing-loop pc.
        fail: u32,
    },
    /// Membership test with all argument values known.
    FilterPos {
        /// Relation to test.
        pred: PredRef,
        /// Argument value sources.
        args: Box<[ValSrc]>,
        /// Enclosing-loop pc.
        fail: u32,
    },
    /// Non-membership test against the negation context.
    FilterNeg {
        /// Relation to test.
        pred: PredRef,
        /// Argument value sources.
        args: Box<[ValSrc]>,
        /// Enclosing-loop pc.
        fail: u32,
    },
    /// Unconditionally write a value into a register.
    BindEq {
        /// Destination register.
        reg: u32,
        /// Value source.
        from: ValSrc,
    },
    /// Equality test between two values.
    FilterEq {
        /// Left operand.
        a: ValSrc,
        /// Right operand.
        b: ValSrc,
        /// Enclosing-loop pc.
        fail: u32,
    },
    /// Inequality test between two values.
    FilterNeq {
        /// Left operand.
        a: ValSrc,
        /// Right operand.
        b: ValSrc,
        /// Enclosing-loop pc.
        fail: u32,
    },
    /// Build the head tuple from the program's head sources and emit it,
    /// then resume the innermost loop.
    Emit {
        /// Enclosing-loop pc.
        fail: u32,
    },
}

impl Op {
    /// Whether this op opens a loop (scans, probes, domain ranges).
    pub(crate) fn is_loop(&self) -> bool {
        matches!(
            self,
            Op::ScanEdb { .. } | Op::ScanIdb { .. } | Op::ProbeIndex { .. } | Op::Domain { .. }
        )
    }

    /// The fail target of a loop op (the enclosing loop's pc, or [`END`]).
    fn loop_fail(&self) -> u32 {
        match self {
            Op::ScanEdb { fail, .. }
            | Op::ScanIdb { fail, .. }
            | Op::ProbeIndex { fail, .. }
            | Op::Domain { fail, .. } => *fail,
            _ => unreachable!("loop_fail on a non-loop op"),
        }
    }

    /// Calls `read` with every register this op reads — probe keys,
    /// checked columns, filter arguments, operands; not [`Op::Emit`]'s head
    /// — and `write` with every register it writes. Lowering writes each
    /// register at most once along the op sequence, and never a pre-bound
    /// one: only an unbound variable is bound.
    pub(crate) fn visit_regs(&self, read: &mut impl FnMut(u32), write: &mut impl FnMut(u32)) {
        let mut src = |v: &ValSrc| {
            if let ValSrc::Reg(r) = *v {
                read(r);
            }
        };
        match self {
            Op::ScanEdb { cols, .. } | Op::ScanIdb { cols, .. } | Op::ProbeIndex { cols, .. } => {
                if let Op::ProbeIndex { key, .. } = self {
                    key.iter().for_each(&mut src);
                }
                for col in cols.iter() {
                    match *col {
                        ColAction::Bind(r) => write(r),
                        ColAction::CheckReg(r) => src(&ValSrc::Reg(r)),
                        ColAction::CheckConst(_) | ColAction::Skip => {}
                    }
                }
            }
            Op::Domain { reg, .. } => write(*reg),
            Op::FilterPos { args, .. } | Op::FilterNeg { args, .. } => args.iter().for_each(src),
            Op::BindEq { reg, from } => {
                src(from);
                write(*reg);
            }
            Op::FilterEq { a, b, .. } | Op::FilterNeq { a, b, .. } => {
                src(a);
                src(b);
            }
            Op::Emit { .. } => {}
        }
    }
}

/// A lowered rule plan: a flat op sequence over a fixed register file,
/// ending in [`Op::Emit`]. Produced by [`plan::lower`](crate::plan::lower),
/// stored inside every [`Plan`](crate::plan::Plan) — re-planning re-lowers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleProgram {
    /// The op sequence (always ends with [`Op::Emit`]).
    pub ops: Vec<Op>,
    /// Head tuple value sources.
    pub head: Box<[ValSrc]>,
    /// Register-file size (the rule's variable-slot count).
    pub num_regs: usize,
    /// The loop-invariant suffix, if the program has one: a collecting
    /// run computes it once and replays it for every outer binding.
    pub hoist: Option<Hoist>,
}

/// A program's **loop-invariant suffix**: the ops from `pc` up to the
/// emit read no register written before `pc`, so every arrival at `pc`
/// runs them to the same bindings in the same order. Decided statically
/// by [`plan::lower`](crate::plan::lower).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hoist {
    /// The suffix's first op, a loop with another loop before it.
    pub pc: u32,
    /// The registers the suffix writes, in op order: one replay row.
    pub regs: Box<[u32]>,
}

impl fmt::Display for ValSrc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValSrc::Reg(r) => write!(f, "r{r}"),
            ValSrc::Imm(c) => write!(f, "{c}"),
        }
    }
}

impl fmt::Display for ColAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColAction::Bind(r) => write!(f, "bind r{r}"),
            ColAction::CheckReg(r) => write!(f, "=r{r}"),
            ColAction::CheckConst(c) => write!(f, "={c}"),
            ColAction::Skip => write!(f, "skip"),
        }
    }
}

fn fmt_pred(pred: PredRef, source: Source, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if source == Source::Delta {
        write!(f, "Δ")?;
    }
    match pred {
        PredRef::Edb(i) => write!(f, "edb{i}"),
        PredRef::Idb(i) => write!(f, "idb{i}"),
    }
}

fn fmt_list<T: fmt::Display>(items: &[T], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "[")?;
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "{item}")?;
    }
    write!(f, "]")
}

fn fmt_fail(fail: u32, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if fail == END {
        write!(f, " fail=end")
    } else {
        write!(f, " fail={fail:02}")
    }
}

impl fmt::Display for RuleProgram {
    /// Stable textual form, pinned by the golden IR tests and printed by
    /// `INFLOG_DUMP_IR=1` at compile time.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "program regs={}", self.num_regs)?;
        for (pc, op) in self.ops.iter().enumerate() {
            write!(f, "  {pc:02}: ")?;
            match op {
                Op::ScanEdb {
                    rel,
                    source,
                    cols,
                    fail,
                } => {
                    write!(f, "scan ")?;
                    fmt_pred(PredRef::Edb(*rel as usize), *source, f)?;
                    write!(f, " cols=")?;
                    fmt_list(cols, f)?;
                    fmt_fail(*fail, f)?;
                }
                Op::ScanIdb {
                    rel,
                    source,
                    cols,
                    fail,
                } => {
                    write!(f, "scan ")?;
                    fmt_pred(PredRef::Idb(*rel as usize), *source, f)?;
                    write!(f, " cols=")?;
                    fmt_list(cols, f)?;
                    fmt_fail(*fail, f)?;
                }
                Op::ProbeIndex {
                    pred,
                    source,
                    key_cols,
                    key,
                    cols,
                    fail,
                } => {
                    write!(f, "probe ")?;
                    fmt_pred(*pred, *source, f)?;
                    write!(f, " key=[")?;
                    for (i, (c, k)) in key_cols.iter().zip(key.iter()).enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{c}={k}")?;
                    }
                    write!(f, "] cols=")?;
                    fmt_list(cols, f)?;
                    fmt_fail(*fail, f)?;
                }
                Op::Domain { reg, fail } => {
                    write!(f, "domain r{reg}")?;
                    fmt_fail(*fail, f)?;
                }
                Op::FilterPos { pred, args, fail } => {
                    write!(f, "filter-pos ")?;
                    fmt_pred(*pred, Source::Full, f)?;
                    write!(f, " args=")?;
                    fmt_list(args, f)?;
                    fmt_fail(*fail, f)?;
                }
                Op::FilterNeg { pred, args, fail } => {
                    write!(f, "filter-neg ")?;
                    fmt_pred(*pred, Source::Full, f)?;
                    write!(f, " args=")?;
                    fmt_list(args, f)?;
                    fmt_fail(*fail, f)?;
                }
                Op::BindEq { reg, from } => {
                    write!(f, "bind r{reg} = {from}")?;
                }
                Op::FilterEq { a, b, fail } => {
                    write!(f, "filter {a} == {b}")?;
                    fmt_fail(*fail, f)?;
                }
                Op::FilterNeq { a, b, fail } => {
                    write!(f, "filter {a} != {b}")?;
                    fmt_fail(*fail, f)?;
                }
                Op::Emit { fail } => {
                    write!(f, "emit ")?;
                    fmt_list(&self.head, f)?;
                    fmt_fail(*fail, f)?;
                }
            }
            writeln!(f)?;
        }
        if let Some(h) = &self.hoist {
            let regs: Vec<ValSrc> = h.regs.iter().map(|&r| ValSrc::Reg(r)).collect();
            write!(f, "  hoist {:02}.. rows=", h.pc)?;
            fmt_list(&regs, f)?;
            writeln!(f)?;
        }
        Ok(())
    }
}

/// The shared evaluation environment the VM (and, in debug builds, the
/// tree oracle) resolves relations against: the context's EDB, the current interpretation, the optional
/// delta, the negation context, and the read-locked persistent indexes.
pub(crate) struct ExecEnv<'a> {
    pub ctx: &'a EvalContext,
    pub s: &'a Interp,
    pub delta: Option<DeltaSource<'a>>,
    pub neg: &'a Interp,
    /// Read guard shared by every worker of one application.
    pub indexes: &'a IndexSet,
    /// Active resource governor, if any: the VM reports every emitted
    /// tuple through [`Governor::note_emit`] so budgets and cancellation
    /// interrupt long single applications, not just round boundaries. `None`
    /// when governance is inert (the common case) — the hot loops then pay
    /// nothing. Derivability probes never set it: a probe inspects one
    /// plan's bounded candidates and emits at most once.
    pub gov: Option<&'a crate::govern::Governor>,
}

impl<'a> ExecEnv<'a> {
    /// Resolves a positive **full-source** relation reference against the
    /// evaluation state. Delta references never resolve to a relation —
    /// use [`scan_tuples`](Self::scan_tuples).
    pub fn relation(&self, pred: PredRef, source: Source) -> &'a Relation {
        crate::operator::resolve_relation(self.ctx, self.s, pred, source)
    }

    /// The dense tuple slice an **unkeyed scan** iterates: the resolved
    /// relation's storage for full sources, the delta slice (materialized
    /// interpretation or live suffix) for delta sources.
    pub fn scan_tuples(&self, pred: PredRef, source: Source) -> &'a [Tuple] {
        match source {
            Source::Full => self.relation(pred, source).dense(),
            Source::Delta => crate::operator::delta_scan_tuples(self.s, self.delta, pred),
        }
    }

    /// The relation a *negative* literal reads (the Γ transform swaps it).
    pub fn neg_relation(&self, pred: PredRef) -> &'a Relation {
        match pred {
            PredRef::Edb(i) => &self.ctx.edb[i],
            PredRef::Idb(i) => self.neg.get(i),
        }
    }
}

/// Where emitted tuples go: collected into a relation (Θ application),
/// handed to a visitor binding by binding (the retract routine's proof
/// search), which returns `true` to stop, or — for a loop-invariant
/// suffix — appended as one flat row of the registers `regs` to `out`.
enum Sink<'o> {
    Collect(&'o mut Relation),
    Each(&'o mut dyn FnMut(&[Const]) -> bool),
    Rows {
        regs: &'o [u32],
        out: &'o mut Vec<Const>,
    },
}

/// An open *non-innermost* loop: the pc of its op (debug-checked against
/// jump targets), the pc execution resumes at per candidate, the loop's own
/// fail target, and the cursor state. The innermost loop never materializes
/// a frame — it runs fused with its straight-line tail (see
/// [`drive_resolved`]).
struct Frame<'a> {
    #[cfg(debug_assertions)]
    loop_pc: usize,
    resume: usize,
    fail: u32,
    cursor: Cursor<'a>,
}

/// Loop cursor state. Scan/probe cursors hold borrowed dense storage (and
/// postings) so advancing never touches the index set again.
enum Cursor<'a> {
    /// Unkeyed scan over `tuples[pos..end]`.
    Dense {
        tuples: &'a [Tuple],
        pos: usize,
        end: usize,
        cols: &'a [ColAction],
    },
    /// Index probe: postings are positions into the dense storage.
    Postings {
        tuples: &'a [Tuple],
        postings: &'a [u32],
        pos: usize,
        cols: &'a [ColAction],
    },
    /// Probe fallback when no index is registered: filtered linear scan.
    Filtered {
        tuples: &'a [Tuple],
        pos: usize,
        key_cols: &'a [usize],
        key: Tuple,
        cols: &'a [ColAction],
    },
    /// `Domain` loop over the universe constants `next..end`.
    Domain { next: u32, end: u32, reg: u32 },
    /// Replay of a loop-invariant suffix: copies the flat row at `pos`
    /// into `regs`.
    Replay {
        rows: &'a [Const],
        pos: usize,
        regs: &'a [u32],
    },
}

impl Cursor<'_> {
    /// Advances to the next candidate that unifies, updating registers.
    /// Returns `false` when the loop is exhausted.
    #[inline]
    fn advance(&mut self, vals: &mut [Const]) -> bool {
        match self {
            Cursor::Dense {
                tuples,
                pos,
                end,
                cols,
            } => advance_dense(tuples, pos, *end, cols, vals),
            Cursor::Postings {
                tuples,
                postings,
                pos,
                cols,
            } => advance_postings(tuples, postings, pos, cols, vals),
            Cursor::Filtered {
                tuples,
                pos,
                key_cols,
                key,
                cols,
            } => advance_filtered(tuples, pos, key_cols, key, cols, vals),
            Cursor::Domain { next, end, reg } => {
                if next < end {
                    vals[*reg as usize] = Const(*next);
                    *next += 1;
                    true
                } else {
                    false
                }
            }
            Cursor::Replay { rows, pos, regs } => {
                let Some(row) = rows.get(*pos..*pos + regs.len()) else {
                    return false;
                };
                for (&r, &c) in regs.iter().zip(row) {
                    vals[r as usize] = c;
                }
                *pos += regs.len();
                true
            }
        }
    }
}

/// Unifies one candidate tuple of statically-known arity `N`: the action
/// loop fully unrolls, and `items` reads the inline `Tuple` storage as a
/// fixed-size array (arities ≤ 4 never allocate).
#[inline]
fn unify_n<const N: usize>(items: &[Const; N], cols: &[ColAction; N], vals: &mut [Const]) -> bool {
    let mut i = 0;
    while i < N {
        match cols[i] {
            ColAction::Bind(r) => vals[r as usize] = items[i],
            ColAction::CheckReg(r) => {
                if items[i] != vals[r as usize] {
                    return false;
                }
            }
            ColAction::CheckConst(c) => {
                if items[i] != c {
                    return false;
                }
            }
            ColAction::Skip => {}
        }
        i += 1;
    }
    true
}

/// Generic-arity unification (arity > 4, or the filtered fallback).
#[inline]
fn unify_any(items: &[Const], cols: &[ColAction], vals: &mut [Const]) -> bool {
    for (&item, col) in items.iter().zip(cols.iter()) {
        match *col {
            ColAction::Bind(r) => vals[r as usize] = item,
            ColAction::CheckReg(r) => {
                if item != vals[r as usize] {
                    return false;
                }
            }
            ColAction::CheckConst(c) => {
                if item != c {
                    return false;
                }
            }
            ColAction::Skip => {}
        }
    }
    true
}

macro_rules! dense_loop {
    ($n:literal, $tuples:expr, $pos:expr, $end:expr, $cols:expr, $vals:expr) => {{
        let cols: &[ColAction; $n] = $cols.try_into().expect("action width == arity");
        while *$pos < $end {
            let t = &$tuples[*$pos];
            *$pos += 1;
            let items: &[Const; $n] = t.items().try_into().expect("tuple arity == plan arity");
            if unify_n::<$n>(items, cols, $vals) {
                return true;
            }
        }
        false
    }};
}

/// Scan inner loop, arity-monomorphized for 1–4 with a generic fallback.
#[inline]
fn advance_dense(
    tuples: &[Tuple],
    pos: &mut usize,
    end: usize,
    cols: &[ColAction],
    vals: &mut [Const],
) -> bool {
    match cols.len() {
        0 => {
            // Zero-ary atom: any tuple (there is at most one) matches.
            if *pos < end {
                *pos += 1;
                true
            } else {
                false
            }
        }
        1 => dense_loop!(1, tuples, pos, end, cols, vals),
        2 => dense_loop!(2, tuples, pos, end, cols, vals),
        3 => dense_loop!(3, tuples, pos, end, cols, vals),
        4 => dense_loop!(4, tuples, pos, end, cols, vals),
        _ => {
            while *pos < end {
                let t = &tuples[*pos];
                *pos += 1;
                if unify_any(t.items(), cols, vals) {
                    return true;
                }
            }
            false
        }
    }
}

macro_rules! postings_loop {
    ($n:literal, $tuples:expr, $postings:expr, $pos:expr, $cols:expr, $vals:expr) => {{
        let cols: &[ColAction; $n] = $cols.try_into().expect("action width == arity");
        while *$pos < $postings.len() {
            let t = &$tuples[$postings[*$pos] as usize];
            *$pos += 1;
            let items: &[Const; $n] = t.items().try_into().expect("tuple arity == plan arity");
            if unify_n::<$n>(items, cols, $vals) {
                return true;
            }
        }
        false
    }};
}

/// Probe inner loop over index postings, arity-monomorphized like
/// [`advance_dense`].
#[inline]
fn advance_postings(
    tuples: &[Tuple],
    postings: &[u32],
    pos: &mut usize,
    cols: &[ColAction],
    vals: &mut [Const],
) -> bool {
    match cols.len() {
        1 => postings_loop!(1, tuples, postings, pos, cols, vals),
        2 => postings_loop!(2, tuples, postings, pos, cols, vals),
        3 => postings_loop!(3, tuples, postings, pos, cols, vals),
        4 => postings_loop!(4, tuples, postings, pos, cols, vals),
        _ => {
            while *pos < postings.len() {
                let t = &tuples[postings[*pos] as usize];
                *pos += 1;
                if unify_any(t.items(), cols, vals) {
                    return true;
                }
            }
            false
        }
    }
}

/// Probe fallback when no index is registered (unprepared plan): filtered
/// linear scan — correct, just slower. Mirrors the tree executor exactly.
fn advance_filtered(
    tuples: &[Tuple],
    pos: &mut usize,
    key_cols: &[usize],
    key: &Tuple,
    cols: &[ColAction],
    vals: &mut [Const],
) -> bool {
    'outer: while *pos < tuples.len() {
        let t = &tuples[*pos];
        *pos += 1;
        for (r, &c) in key_cols.iter().enumerate() {
            if t[c] != key[r] {
                continue 'outer;
            }
        }
        if unify_any(t.items(), cols, vals) {
            return true;
        }
    }
    false
}

/// One op with its environment references resolved — relations to dense
/// tuple slices, probes to their persistent [`Index`] — built once per
/// program run. The per-candidate loops then touch only slices and
/// registers: no relation resolution, no index-registry hash, no `source`
/// dispatch survives into the hot path.
enum ROp<'a> {
    /// Unkeyed loop over a dense tuple slice (EDB, IDB, or delta).
    Scan {
        tuples: &'a [Tuple],
        cols: &'a [ColAction],
        fail: u32,
    },
    /// Keyed loop: build the key from registers, probe the pre-resolved
    /// index (or fall back to a filtered linear scan when none is
    /// registered).
    Probe {
        tuples: &'a [Tuple],
        index: Option<&'a Index>,
        key_cols: &'a [usize],
        key: &'a [ValSrc],
        cols: &'a [ColAction],
        fail: u32,
    },
    /// Loop a register over the universe.
    Domain { reg: u32, fail: u32 },
    /// Membership filter against a resolved relation.
    FilterPos {
        rel: &'a Relation,
        args: &'a [ValSrc],
        fail: u32,
    },
    /// Non-membership filter against the resolved negation relation.
    FilterNeg {
        rel: &'a Relation,
        args: &'a [ValSrc],
        fail: u32,
    },
    /// Copy a value into a register.
    BindEq { reg: u32, from: ValSrc },
    /// Equality filter.
    FilterEq { a: ValSrc, b: ValSrc, fail: u32 },
    /// Inequality filter.
    FilterNeq { a: ValSrc, b: ValSrc, fail: u32 },
    /// Produce the head tuple.
    Emit,
    /// Replay the rows of the program's loop-invariant suffix into `regs`
    /// (always the innermost loop; the rows are built on first arrival).
    Replay { regs: &'a [u32], fail: u32 },
}

impl ROp<'_> {
    /// Whether this op opens a loop (scans, probes, domain ranges, replay).
    fn is_loop(&self) -> bool {
        matches!(
            self,
            ROp::Scan { .. } | ROp::Probe { .. } | ROp::Domain { .. } | ROp::Replay { .. }
        )
    }

    /// The fail target of a loop op (the enclosing loop's pc, or [`END`]).
    fn loop_fail(&self) -> u32 {
        match self {
            ROp::Scan { fail, .. }
            | ROp::Probe { fail, .. }
            | ROp::Domain { fail, .. }
            | ROp::Replay { fail, .. } => *fail,
            _ => unreachable!("loop_fail on a non-loop op"),
        }
    }

    /// Renumbers the jump target of an op of a suffix that starts at pc
    /// `k` and runs on its own: targets inside the suffix shift down by
    /// `k`, and the target out of it — the suffix's first loop's — becomes
    /// [`END`].
    fn rebase(&mut self, k: u32) {
        match self {
            ROp::Scan { fail, .. }
            | ROp::Probe { fail, .. }
            | ROp::Domain { fail, .. }
            | ROp::FilterPos { fail, .. }
            | ROp::FilterNeg { fail, .. }
            | ROp::FilterEq { fail, .. }
            | ROp::FilterNeq { fail, .. }
            | ROp::Replay { fail, .. } => *fail = if *fail < k { END } else { *fail - k },
            ROp::BindEq { .. } | ROp::Emit => {}
        }
    }
}

/// Resolves one lowered op against the evaluation environment.
fn resolve_op<'a>(env: &ExecEnv<'a>, op: &'a Op) -> ROp<'a> {
    match op {
        Op::ScanEdb {
            rel,
            source,
            cols,
            fail,
        } => ROp::Scan {
            tuples: env.scan_tuples(PredRef::Edb(*rel as usize), *source),
            cols,
            fail: *fail,
        },
        Op::ScanIdb {
            rel,
            source,
            cols,
            fail,
        } => ROp::Scan {
            tuples: env.scan_tuples(PredRef::Idb(*rel as usize), *source),
            cols,
            fail: *fail,
        },
        Op::ProbeIndex {
            pred,
            source,
            key_cols,
            key,
            cols,
            fail,
        } => {
            let r = env.relation(*pred, *source);
            ROp::Probe {
                tuples: r.dense(),
                index: env.indexes.resolve(r.id(), key_cols),
                key_cols,
                key,
                cols,
                fail: *fail,
            }
        }
        Op::Domain { reg, fail } => ROp::Domain {
            reg: *reg,
            fail: *fail,
        },
        Op::FilterPos { pred, args, fail } => ROp::FilterPos {
            rel: env.relation(*pred, Source::Full),
            args,
            fail: *fail,
        },
        Op::FilterNeg { pred, args, fail } => ROp::FilterNeg {
            rel: env.neg_relation(*pred),
            args,
            fail: *fail,
        },
        Op::BindEq { reg, from } => ROp::BindEq {
            reg: *reg,
            from: *from,
        },
        Op::FilterEq { a, b, fail } => ROp::FilterEq {
            a: *a,
            b: *b,
            fail: *fail,
        },
        Op::FilterNeq { a, b, fail } => ROp::FilterNeq {
            a: *a,
            b: *b,
            fail: *fail,
        },
        Op::Emit { .. } => ROp::Emit,
    }
}

/// Opens the cursor for a loop op.
fn open_cursor<'a>(env: &ExecEnv<'_>, rop: &ROp<'a>, vals: &[Const]) -> Cursor<'a> {
    match *rop {
        ROp::Scan { tuples, cols, .. } => Cursor::Dense {
            tuples,
            pos: 0,
            end: tuples.len(),
            cols,
        },
        ROp::Probe {
            tuples,
            index,
            key_cols,
            key,
            cols,
            ..
        } => {
            let key: Tuple = key.iter().map(|&k| value(k, vals)).collect();
            match index {
                Some(ix) => Cursor::Postings {
                    tuples,
                    postings: ix.postings(&key),
                    pos: 0,
                    cols,
                },
                None => Cursor::Filtered {
                    tuples,
                    pos: 0,
                    key_cols,
                    key,
                    cols,
                },
            }
        }
        ROp::Domain { reg, .. } => Cursor::Domain {
            next: 0,
            end: env.ctx.universe_size as u32,
            reg,
        },
        _ => unreachable!("open_cursor on a non-loop op"),
    }
}

/// Runs the straight-line tail after the innermost loop (filters, register
/// copies, and the final emit) for one candidate binding. Returns `true`
/// only when the sink short-circuits: a [`Sink::Each`] visitor asked to
/// stop, or an active governor tripped on a collected emit (budget
/// exhausted, cancelled, failpoint) — the trip rides the same early-return
/// path, and the caller reads the verdict off the governor. A failed filter
/// or an ordinary collected emit returns `false` so the fused loop advances
/// to the next candidate.
#[inline]
fn run_tail(
    rops: &[ROp<'_>],
    start: usize,
    head: &[ValSrc],
    vals: &mut [Const],
    sink: &mut Sink<'_>,
    gov: Option<&crate::govern::Governor>,
) -> bool {
    for op in &rops[start..] {
        match *op {
            ROp::FilterPos { rel, args, .. } => {
                let t: Tuple = args.iter().map(|&a| value(a, vals)).collect();
                if !rel.contains(&t) {
                    return false;
                }
            }
            ROp::FilterNeg { rel, args, .. } => {
                let t: Tuple = args.iter().map(|&a| value(a, vals)).collect();
                if rel.contains(&t) {
                    return false;
                }
            }
            ROp::BindEq { reg, from } => vals[reg as usize] = value(from, vals),
            ROp::FilterEq { a, b, .. } => {
                if value(a, vals) != value(b, vals) {
                    return false;
                }
            }
            ROp::FilterNeq { a, b, .. } => {
                if value(a, vals) == value(b, vals) {
                    return false;
                }
            }
            ROp::Emit => {
                return match sink {
                    Sink::Collect(out) => {
                        out.insert(head.iter().map(|&h| value(h, vals)).collect());
                        matches!(gov, Some(g) if g.note_emit())
                    }
                    Sink::Each(visit) => visit(vals),
                    Sink::Rows { regs, out } => {
                        out.extend(regs.iter().map(|&r| vals[r as usize]));
                        matches!(gov, Some(g) if g.note_row(out.len() / regs.len()))
                    }
                };
            }
            _ => unreachable!("loop op after the innermost loop"),
        }
    }
    unreachable!("program tail must end with emit")
}

/// Runs a lowered program, collecting emitted head tuples into `out`. A
/// program with a loop-invariant suffix runs it once and replays it (see
/// [`resolve_replaying`]).
pub(crate) fn run_program(env: &ExecEnv<'_>, prog: &RuleProgram, out: &mut Relation) {
    let mut vals = vec![Const(0); prog.num_regs];
    let resolved = resolve_replaying(env, prog);
    drive_resolved(env, &resolved, &mut vals, &mut Sink::Collect(out));
}

/// A lowered program resolved once against an environment snapshot —
/// relations to dense slices, probes to their persistent indexes. Build
/// once and probe many times: the proof search amortizes the per-op
/// resolution over thousands of head-bound checks. Valid only while
/// the environment's relations stay unmutated.
pub(crate) struct ResolvedProgram<'a> {
    rops: Vec<ROp<'a>>,
    head: &'a [ValSrc],
    /// Position of the innermost loop op; `None` when the program is pure
    /// straight-line (fully pre-bound check plan, or a body-free fact).
    last: Option<usize>,
    /// The loop-invariant suffix the [`ROp::Replay`] at `last` replays,
    /// resolved as a program of its own.
    suffix: Option<Box<ResolvedProgram<'a>>>,
}

impl<'a> ResolvedProgram<'a> {
    /// Witness enumeration: calls `visit` with the registers of every
    /// completion of the pre-seeded ones that reaches `Emit`, in the loop
    /// nest's order, until it returns `true`.
    pub(crate) fn for_each_witness(
        &self,
        env: &ExecEnv<'_>,
        vals: &mut [Const],
        visit: &mut dyn FnMut(&[Const]) -> bool,
    ) {
        drive_resolved(env, self, vals, &mut Sink::Each(visit));
    }

    /// Runs this loop-invariant suffix to completion and returns its rows
    /// of `regs`, flat, in loop order; `None` when the governor stopped it.
    fn rows(&self, env: &ExecEnv<'_>, vals: &mut [Const], regs: &[u32]) -> Option<Vec<Const>> {
        let mut out = Vec::new();
        let stopped = drive_resolved(
            env,
            self,
            vals,
            &mut Sink::Rows {
                regs,
                out: &mut out,
            },
        );
        (!stopped).then_some(out)
    }

    fn new(rops: Vec<ROp<'a>>, head: &'a [ValSrc]) -> Self {
        let last = rops.iter().rposition(ROp::is_loop);
        ResolvedProgram {
            rops,
            head,
            last,
            suffix: None,
        }
    }
}

/// Resolves every op of `prog` against `env` (see [`ResolvedProgram`]).
/// The program runs as lowered: a loop-invariant suffix re-runs per outer
/// binding. Check plans run this way — a witness search stops at the
/// first witness, so building the suffix's every row up front could cost
/// more than it saves.
pub(crate) fn resolve_program<'a>(env: &ExecEnv<'a>, prog: &'a RuleProgram) -> ResolvedProgram<'a> {
    ResolvedProgram::new(
        prog.ops.iter().map(|op| resolve_op(env, op)).collect(),
        &prog.head,
    )
}

/// Resolves `prog` with its loop-invariant suffix split off: the ops
/// before the hoist point, then an [`ROp::Replay`] over the suffix's rows
/// as the innermost loop, then the emit. The suffix itself resolves as a
/// program of its own whose emit appends a row.
fn resolve_replaying<'a>(env: &ExecEnv<'a>, prog: &'a RuleProgram) -> ResolvedProgram<'a> {
    let Some(hoist) = &prog.hoist else {
        return resolve_program(env, prog);
    };
    let k = hoist.pc as usize;
    let emit = prog.ops.len() - 1;
    let suffix: Vec<ROp<'a>> = prog.ops[k..]
        .iter()
        .map(|op| {
            let mut rop = resolve_op(env, op);
            rop.rebase(hoist.pc);
            rop
        })
        .collect();
    let mut rops: Vec<ROp<'a>> = prog.ops[..k].iter().map(|op| resolve_op(env, op)).collect();
    rops.push(ROp::Replay {
        regs: &hoist.regs,
        fail: prog.ops[k].loop_fail(),
    });
    rops.push(resolve_op(env, &prog.ops[emit]));
    let mut resolved = ResolvedProgram::new(rops, &prog.head);
    resolved.suffix = Some(Box::new(ResolvedProgram::new(suffix, &[])));
    resolved
}

/// The VM main loop over a resolved program.
///
/// The program is a linear loop nest: the op after the **innermost** loop
/// is always straight-line (filters, copies, emit), so that loop runs
/// *fused* — one tight `advance`/tail cycle per candidate with no frame
/// push, no jump-target resolution, and no stack access. Only enclosing
/// loops materialize [`Frame`]s; failing ops jump to their explicit `fail`
/// target (the innermost *open* loop, the stack top), and exhausted loops
/// pop along the fail chain.
fn drive_resolved<'a>(
    env: &ExecEnv<'_>,
    resolved: &ResolvedProgram<'a>,
    vals: &mut [Const],
    sink: &mut Sink<'_>,
) -> bool {
    let rops = &resolved.rops;
    let Some(last) = resolved.last else {
        // No loops at all (fully pre-bound check plan, or a body-free
        // fact): the tail runs exactly once.
        return run_tail(rops, 0, resolved.head, vals, sink, env.gov);
    };
    let mut stack: Vec<Frame<'a>> = Vec::with_capacity(last);
    // The loop-invariant suffix's rows, built on the first arrival at the
    // replay loop.
    let mut rows: Option<Vec<Const>> = None;
    let mut pc: usize = 0;
    'program: loop {
        // Forward execution from `pc` down into the fused innermost loop;
        // breaks with the fail target to backtrack to.
        let mut target: u32 = 'fail: {
            while pc < last {
                match &rops[pc] {
                    op if op.is_loop() => {
                        let mut frame = Frame {
                            #[cfg(debug_assertions)]
                            loop_pc: pc,
                            resume: pc + 1,
                            fail: op.loop_fail(),
                            cursor: open_cursor(env, op, vals),
                        };
                        if !frame.cursor.advance(vals) {
                            break 'fail frame.fail;
                        }
                        stack.push(frame);
                    }
                    ROp::FilterPos { rel, args, fail } => {
                        let t: Tuple = args.iter().map(|&a| value(a, vals)).collect();
                        if !rel.contains(&t) {
                            break 'fail *fail;
                        }
                    }
                    ROp::FilterNeg { rel, args, fail } => {
                        let t: Tuple = args.iter().map(|&a| value(a, vals)).collect();
                        if rel.contains(&t) {
                            break 'fail *fail;
                        }
                    }
                    ROp::BindEq { reg, from } => vals[*reg as usize] = value(*from, vals),
                    ROp::FilterEq { a, b, fail } => {
                        if value(*a, vals) != value(*b, vals) {
                            break 'fail *fail;
                        }
                    }
                    ROp::FilterNeq { a, b, fail } => {
                        if value(*a, vals) == value(*b, vals) {
                            break 'fail *fail;
                        }
                    }
                    _ => unreachable!("emit before the innermost loop"),
                }
                pc += 1;
            }
            // The innermost loop, fused with its straight-line tail.
            let mut cursor = match rops[last] {
                ROp::Replay { regs, .. } => {
                    let rows: &[Const] = match rows {
                        Some(ref built) => built,
                        None => {
                            let suffix =
                                resolved.suffix.as_deref().expect("replay without a suffix");
                            let Some(built) = suffix.rows(env, vals, regs) else {
                                return true;
                            };
                            rows.insert(built)
                        }
                    };
                    Cursor::Replay { rows, pos: 0, regs }
                }
                ref op => open_cursor(env, op, vals),
            };
            while cursor.advance(vals) {
                if run_tail(rops, last + 1, resolved.head, vals, sink, env.gov) {
                    return true;
                }
            }
            break 'fail rops[last].loop_fail();
        };
        // Backtrack along the explicit fail chain: the target is always the
        // innermost *open* loop — the stack top — so advance it, popping
        // exhausted loops through their own fail targets.
        loop {
            if target == END {
                debug_assert!(stack.is_empty(), "fail chain must mirror the loop stack");
                return false;
            }
            let frame = stack.last_mut().expect("jump target below an empty stack");
            #[cfg(debug_assertions)]
            debug_assert_eq!(
                frame.loop_pc, target as usize,
                "jump target is not the innermost open loop"
            );
            if frame.cursor.advance(vals) {
                pc = frame.resume;
                continue 'program;
            }
            target = frame.fail;
            stack.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{run_program, ExecEnv};
    use crate::resolve::CompiledProgram;
    use crate::{
        Budget, BudgetKind, CancelToken, Engine, EvalContext, EvalError, EvalOptions, Governor,
        IndexSet,
    };
    use inflog_core::graphs::DiGraph;
    use inflog_core::Database;
    use inflog_core::Relation;
    use inflog_syntax::parse_program;

    fn compile(src: &str, db: &Database) -> CompiledProgram {
        CompiledProgram::compile(&parse_program(src).unwrap(), db).unwrap()
    }

    /// The paper's §4 distance program (Proposition 2).
    const DISTANCE: &str = "
        S1(x, y) :- E(x, y).
        S1(x, y) :- E(x, z), S1(z, y).
        S2(x', y') :- E(x', y').
        S2(x', y') :- E(x', z'), S2(z', y').
        S3(x, y, x', y') :- E(x, y), !S2(x', y').
        S3(x, y, x', y') :- E(x, z), S1(z, y), !S2(x', y').";

    /// Golden IR: the distance program's unsafe rule 5. `x'` and `y'` are
    /// bound only under negation, so they range over the universe after
    /// the positive join, and the `domain`/`domain`/`filter-neg` tail
    /// reads no register bound above it: the program hoists it from pc 02
    /// in both the full plan and the semi-naive delta plan.
    #[test]
    fn golden_ir_distance_rule_hoists_the_domain_tail() {
        let db = DiGraph::path(3).to_database("E");
        let cp = compile(DISTANCE, &db);
        assert_eq!(
            cp.rules[5].plans.full.program.to_string(),
            "program regs=5\n\
             \x20 00: scan edb0 cols=[bind r0, bind r4] fail=end\n\
             \x20 01: probe idb0 key=[0=r4] cols=[skip, bind r1] fail=00\n\
             \x20 02: domain r2 fail=01\n\
             \x20 03: domain r3 fail=02\n\
             \x20 04: filter-neg idb1 args=[r2, r3] fail=03\n\
             \x20 05: emit [r0, r1, r2, r3] fail=03\n\
             \x20 hoist 02.. rows=[r2, r3]\n"
        );
        assert_eq!(
            cp.rules[5].plans.delta[0].program.to_string(),
            "program regs=5\n\
             \x20 00: scan Δidb0 cols=[bind r4, bind r1] fail=end\n\
             \x20 01: probe edb0 key=[1=r4] cols=[bind r0, skip] fail=00\n\
             \x20 02: domain r2 fail=01\n\
             \x20 03: domain r3 fail=02\n\
             \x20 04: filter-neg idb1 args=[r2, r3] fail=03\n\
             \x20 05: emit [r0, r1, r2, r3] fail=03\n\
             \x20 hoist 02.. rows=[r2, r3]\n"
        );
    }

    /// The analysis finds nothing where every loop reads the one above it
    /// (TC's join, π₁'s single scan, the `Win` check plan's head-keyed
    /// probe), and hoists the toggle rule's universe ranges right after
    /// its one positive scan.
    #[test]
    fn invariant_suffix_only_where_the_tail_reads_nothing_above_it() {
        let db = DiGraph::path(3).to_database("E");
        let tc = compile("S(x, y) :- E(x, y). S(x, y) :- E(x, z), S(z, y).", &db);
        for rule in &tc.rules {
            assert_eq!(rule.plans.full.program.hoist, None);
            assert!(rule.plans.delta.iter().all(|p| p.program.hoist.is_none()));
        }
        let pi1 = compile("T(x) :- E(y, x), !T(y).", &db);
        assert_eq!(pi1.rules[0].plans.full.program.hoist, None);
        let db = DiGraph::path(3).to_database("Move");
        let win = compile("Win(x) :- Move(x, y), !Win(y).", &db);
        assert_eq!(win.rules[0].check_plan.program.hoist, None);

        let db = DiGraph::path(3).to_database("E");
        let toggle = compile("T(z) :- E(x, y), !T(w).", &db);
        let prog = &toggle.rules[0].plans.full.program;
        assert_eq!(
            prog.to_string(),
            "program regs=4\n\
             \x20 00: scan edb0 cols=[bind r1, bind r2] fail=end\n\
             \x20 01: domain r3 fail=00\n\
             \x20 02: filter-neg idb0 args=[r3] fail=01\n\
             \x20 03: domain r0 fail=01\n\
             \x20 04: emit [r0] fail=03\n\
             \x20 hoist 01.. rows=[r3, r0]\n"
        );
    }

    /// The smallest tuple budget `engine` runs `src` in on `db`, found by
    /// doubling and bisection: the run's exact emit count.
    fn emit_count(engine: Engine, src: &str, db: &Database) -> u64 {
        let program = parse_program(src).unwrap();
        let run = |max: u64| {
            let opts = EvalOptions {
                budget: Budget::with_max_tuples(max),
                ..EvalOptions::sequential()
            };
            engine.evaluate(&program, db, &opts)
        };
        let mut fits = 1;
        while run(fits).is_err() {
            fits *= 2;
        }
        let mut trips = fits / 2;
        while fits - trips > 1 {
            let mid = trips + (fits - trips) / 2;
            if run(mid).is_ok() {
                fits = mid;
            } else {
                trips = mid;
            }
        }
        assert_eq!(
            run(fits - 1).unwrap_err(),
            EvalError::BudgetExceeded {
                kind: BudgetKind::Tuples,
                limit: fits - 1
            }
        );
        fits
    }

    /// Replaying the loop-invariant suffix emits exactly what re-running
    /// it did, so `Budget::max_tuples` trips at the same count: these are
    /// the distance program's emit counts from before the replay existed.
    #[test]
    fn distance_program_tuple_budget_trips_at_the_same_count() {
        let mut g = DiGraph::path(6);
        g.add_edge(3, 1);
        let db = g.to_database("E");
        assert_eq!(emit_count(Engine::Inflationary, DISTANCE, &db), 752);
        assert_eq!(emit_count(Engine::Stratified, DISTANCE, &db), 459);
    }

    /// A cancelled evaluation stops inside the suffix run, at its first
    /// poll: after `POLL_MASK + 1` rows, before any emit. The program has
    /// no probe, so an empty index set serves it.
    #[test]
    fn cancellation_stops_the_suffix_run_at_its_poll() {
        let db = DiGraph::path(17).to_database("E");
        let cp = compile(
            "R(x, a, b, c) :- E(x, y), !T(a, b, c). T(a, b, c) :- E(a, b), E(b, c).",
            &db,
        );
        let prog = &cp.rules[0].plans.full.program;
        assert_eq!(prog.hoist.as_ref().map(|h| h.pc), Some(1));
        let ctx = EvalContext::new(&cp, &db).unwrap();
        let s = cp.empty_interp();
        let indexes = IndexSet::default();
        let run = |gov: &Governor| {
            let env = ExecEnv {
                ctx: &ctx,
                s: &s,
                delta: None,
                neg: &s,
                indexes: &indexes,
                gov: gov.as_active(),
            };
            let mut out = Relation::new(4);
            run_program(&env, prog, &mut out);
            out.len()
        };
        // 16 edges times 17³ universe triples, none of them in the empty `T`.
        assert_eq!(run(&Governor::free()), 16 * 17 * 17 * 17);
        let token = CancelToken::new();
        token.cancel();
        let gov = Governor::new(&EvalOptions {
            cancel: Some(token),
            ..EvalOptions::sequential()
        });
        assert_eq!(run(&gov), 0);
        assert_eq!(gov.check(), Err(EvalError::Cancelled));
        assert_eq!(gov.emitted(), 0, "suffix rows are not emits");
    }

    /// Golden IR: the transitive-closure recursive rule, full plan. Pins
    /// the exact lowered form — scan `E`, probe `S` keyed on the joined
    /// column, emit. A change here is a change to the executor's input
    /// language and must be deliberate.
    #[test]
    fn golden_ir_tc_rule() {
        let db = DiGraph::path(3).to_database("E");
        let cp = compile("S(x, y) :- E(x, y). S(x, y) :- E(x, z), S(z, y).", &db);
        let prog = &cp.rules[1].plans.full.program;
        assert_eq!(
            prog.to_string(),
            "program regs=3\n\
             \x20 00: scan edb0 cols=[bind r0, bind r2] fail=end\n\
             \x20 01: probe idb0 key=[0=r2] cols=[skip, bind r1] fail=00\n\
             \x20 02: emit [r0, r1] fail=01\n"
        );
        // The semi-naive delta plan drives the IDB occurrence from the
        // per-round delta and probes E keyed on the bound join column.
        let delta = &cp.rules[1].plans.delta[0].program;
        assert_eq!(
            delta.to_string(),
            "program regs=3\n\
             \x20 00: scan Δidb0 cols=[bind r2, bind r1] fail=end\n\
             \x20 01: probe edb0 key=[1=r2] cols=[bind r0, skip] fail=00\n\
             \x20 02: emit [r0, r1] fail=01\n"
        );
    }

    /// Golden IR: the paper's π₁ negation rule `T(x) :- E(y, x), !T(y)`.
    /// The negated IDB literal lowers to a `filter-neg` op reading the
    /// negation context.
    #[test]
    fn golden_ir_negation_rule() {
        let db = DiGraph::path(3).to_database("E");
        let cp = compile("T(x) :- E(y, x), !T(y).", &db);
        let prog = &cp.rules[0].plans.full.program;
        assert_eq!(
            prog.to_string(),
            "program regs=2\n\
             \x20 00: scan edb0 cols=[bind r1, bind r0] fail=end\n\
             \x20 01: filter-neg idb0 args=[r1] fail=00\n\
             \x20 02: emit [r0] fail=00\n"
        );
    }

    /// Check plans lower with the head registers pre-bound: the body scan
    /// becomes a keyed probe and nothing re-binds the head.
    #[test]
    fn golden_ir_check_plan_probes_prebound_head() {
        let db = DiGraph::path(3).to_database("Move");
        let cp = compile("Win(x) :- Move(x, y), !Win(y).", &db);
        let prog = &cp.rules[0].check_plan.program;
        assert_eq!(
            prog.to_string(),
            "program regs=2\n\
             \x20 00: probe edb0 key=[0=r0] cols=[skip, bind r1] fail=end\n\
             \x20 01: filter-neg idb0 args=[r1] fail=00\n\
             \x20 02: emit [r0] fail=00\n"
        );
    }

    /// A body-free rule with a head variable lowers to `domain` + `emit`,
    /// and an all-constant fact to a bare `emit` that runs exactly once.
    #[test]
    fn golden_ir_domain_and_bare_emit() {
        let mut db = Database::new();
        db.universe_mut().intern("a");
        db.universe_mut().intern("b");
        let cp = compile("G(z, 'b').", &db);
        let prog = &cp.rules[0].plans.full.program;
        assert_eq!(
            prog.to_string(),
            "program regs=1\n\
             \x20 00: domain r0 fail=end\n\
             \x20 01: emit [r0, #1] fail=00\n"
        );
    }
}
