//! Retract by proof: the one routine that finds which damaged tuples of a
//! least fixpoint lost every proof — the Backward/Forward algorithm of
//! Motik, Nenov, Piro & Horrocks, "Incremental Update of Datalog
//! Materialisation: the Backward/Forward Algorithm" (AAAI 2015).
//!
//! Two callers shrink a least fixpoint whose negations read a fixed
//! interpretation, over a lower part that is final:
//!
//! * a [`Materialized`](crate::Materialized) repair, component by
//!   component, after an EDB change: negations read the model, whose lower
//!   components are already repaired;
//! * the well-founded engine inside a negative-cycle component, from
//!   `U_{k-1}` down to `U_k = lfp(Γ_{T_k})`: negations are frozen at `T_k`,
//!   and `T_k ⊆ U_k` is known to hold. Freezing more negation enables no
//!   rule instance, so this step only retracts.
//!
//! The predicates in doubt — one component of the dependency graph — are
//! the unit for both: with the lower part fixed, their part of the model is
//! the least fixpoint of their own rules (Ésik & Rondogiannis's
//! construction by levels, PAPERS.md). [`unproved`] takes the tuples the
//! change damaged — the heads of the rule instances it killed, which the
//! caller enumerates — and runs rounds of two steps until no damage is
//! left:
//!
//! 1. *Prove*: every damaged tuple still in the state is checked for a
//!    proof from facts outside doubt. EDB facts and lower tuples are final,
//!    so they hold when present, as do the tuples known to hold; a tuple
//!    in doubt is checked in turn. The *backward* step visits every
//!    witness of a tuple — each binding of its head-bound check plan — and
//!    checks the witness's atoms in doubt; the *forward* step proves a
//!    checked tuple once one of its witnesses has all of them proved, and
//!    proves onward whatever waited on it. Support that only goes round a
//!    cycle of checked tuples is no proof: a proof bottoms out outside
//!    doubt. Both steps run on explicit stacks, each tuple is checked at
//!    most once per call, and nothing mutates while they run.
//! 2. *Doom*: the damaged tuples left without a proof are doomed, and the
//!    rule instances they occur in positively are enumerated as the next
//!    round's damage. Heads outside doubt stay in the damage for their
//!    caller (a higher component's turn).
//!
//! The doomed tuples stay in the state until the call returns, so dense
//! positions — the search's names for tuples — hold still; the caller
//! removes them. A tuple the change did not damage keeps every rule
//! instance it had, so by induction on its derivation it still holds: the
//! doomed tuples are exactly what the change took out of the fixpoint.

use crate::govern::Governor;
use crate::interp::Interp;
use crate::operator::{self, DeltaSource, EvalContext, PlanKind, Witnesses};
use crate::plan::{CTerm, PredRef, RLit};
use crate::resolve::CompiledProgram;
use crate::{EvalError, Result};
use inflog_core::failpoints::{SITE_PROOF_ROUND, SITE_PROOF_SEARCH};
use inflog_core::{FxBuildHasher, Tuple};
use std::collections::HashMap;

/// The damaged tuples [`unproved`] found without a proof, and what its
/// search did.
pub(crate) struct Unproved {
    /// The doomed tuples, by IDB id, or `None` when no damaged tuple lost
    /// its proof. They are still in the state.
    pub(crate) tuples: Option<Interp>,
    /// Tuples the search checked: the damaged ones and every tuple in doubt
    /// their proofs went through.
    pub(crate) checked: usize,
    /// Damaged tuples the search proved.
    pub(crate) proved: usize,
}

/// Runs the prove/doom rounds (module docs) over state `s`, its negated IDB
/// literals reading `neg`, and returns the damaged tuples left without a
/// proof.
///
/// `preds` are the IDB ids of the predicates in doubt, one component's;
/// `known` holds tuples known to hold, which need no proof. `damage` holds
/// the damaged tuples on entry; on return, its entries for predicates in
/// doubt are empty and the others hold the heads the doomed tuples put in
/// doubt there. Consequences of the doomed tuples are enumerated through `rules`
/// (all rules when `None`). `gov` fires [`SITE_PROOF_ROUND`] once per
/// round and [`SITE_PROOF_SEARCH`] once per round with damage left, and
/// the search polls its deadline and token. A call allocates its scratch
/// at the first round that finds damage in doubt, so one without any —
/// every call of an insert into a positive program — allocates nothing.
///
/// # Errors
/// The governance errors of `gov`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn unproved(
    cp: &CompiledProgram,
    ctx: &EvalContext,
    s: &Interp,
    neg: &Interp,
    preds: &[usize],
    known: Option<&Interp>,
    rules: Option<&[usize]>,
    damage: &mut Interp,
    gov: Option<&Governor>,
) -> Result<Unproved> {
    let num_idb = cp.num_idb();
    // The permissive negation context, this round's doomed tuples, their
    // consequences, and every doomed tuple so far: built at the first
    // round with damage in doubt. Consequences are enumerated with IDB
    // negation read permissively: a head put in doubt that still holds is
    // simply proved.
    let mut scratch: Option<[Interp; 4]> = None;
    let mut proofs: Option<Proofs> = None;
    // A round's consequences are enumerated while every tuple doomed so
    // far is still in `s`, so an instance is seen at the first round that
    // dooms one of its atoms.
    loop {
        if let Some(g) = gov {
            g.fail_at(SITE_PROOF_ROUND)?;
        }
        let mut damaged = Vec::new();
        for &i in preds {
            let rel = s.get(i);
            damaged.extend(
                damage
                    .get(i)
                    .dense()
                    .iter()
                    .filter_map(|t| rel.position(t).map(|pos| (i, pos))),
            );
            damage.get_mut(i).clear();
        }
        if damaged.is_empty() {
            break;
        }
        if let Some(g) = gov {
            g.fail_at(SITE_PROOF_SEARCH)?;
        }
        operator::sync_check_indexes(cp, ctx, s);
        let [permissive, doomed, heads, tuples] =
            scratch.get_or_insert_with(|| std::array::from_fn(|_| cp.empty_interp()));
        for i in 0..num_idb {
            doomed.get_mut(i).clear();
        }
        let proofs = proofs.get_or_insert_with(|| Proofs::new(cp, preds, known));
        operator::with_witnesses(cp, ctx, s, neg, |witnesses| {
            for (i, pos) in damaged {
                if proofs.doomed(i, pos, s, witnesses, gov)? {
                    doomed.insert(i, s.get(i).dense()[pos].clone());
                }
            }
            Ok::<(), EvalError>(())
        })?;
        if doomed.total_tuples() == 0 {
            break;
        }
        operator::apply_general_into(
            cp,
            ctx,
            s,
            rules,
            PlanKind::PosDelta,
            Some(DeltaSource::Interp(doomed)),
            Some(permissive),
            None,
            heads,
            gov,
        )?;
        for i in 0..num_idb {
            tuples.get_mut(i).union_with(doomed.get(i));
            damage.get_mut(i).union_with(heads.get(i));
        }
    }
    let (checked, proved) = proofs.map_or((0, 0), |p| (p.checked, p.kept));
    Ok(Unproved {
        tuples: scratch
            .map(|[.., tuples]| tuples)
            .filter(|t| t.total_tuples() > 0),
        checked,
        proved,
    })
}

/// One call's Backward/Forward proof search: the tuples met so far, which
/// were checked and which proved, and the witnesses still waiting on an
/// unproved atom. Tuples are known by their dense position, which holds
/// still while the doomed tuples wait in the state.
///
/// A proved tuple stays proved. A tuple checked but unproved once the
/// search is back at the top has no proof: each of its witnesses waits on
/// an atom that is itself checked and unproved, so no proof can reach it
/// later either. That keeps every tuple to one check per call.
pub(crate) struct Proofs<'p> {
    /// The positive IDB atoms in doubt of each rule's body, by rule; empty
    /// for the rules whose head is not in doubt.
    atoms: Vec<Vec<(usize, &'p [CTerm])>>,
    /// Tuples known to hold: met as proved, never checked.
    known: Option<&'p Interp>,
    /// The node of each tuple met, by IDB id and dense position. A map
    /// rather than a slot per tuple, so a search pays for what it meets
    /// rather than for what the predicates in doubt hold.
    slots: HashMap<(u32, u32), u32, FxBuildHasher>,
    nodes: Vec<Node>,
    /// Per witness: its head's node, and how many of its atoms are not
    /// proved yet.
    witnesses: Vec<(u32, u32)>,
    /// The lists of witnesses waiting on a node, threaded through one
    /// arena: (witness, next entry).
    waits: Vec<(u32, u32)>,
    /// The backward step's stack.
    stack: Vec<Frame>,
    /// The atoms the backward step's frames have yet to check, each frame's
    /// above its parent's.
    pending: Vec<u32>,
    /// The forward step's queue of newly proved nodes.
    queue: Vec<u32>,
    /// Tuples checked.
    pub(crate) checked: usize,
    /// Damaged tuples proved.
    kept: usize,
}

/// A tuple the proof search met.
struct Node {
    idb: u32,
    pos: u32,
    checked: bool,
    proved: bool,
    /// Whether the tuple was damaged: kept if proved, else doomed.
    damaged: bool,
    /// Whether the tuple was damaged and found without a proof.
    doomed: bool,
    /// The first entry of the `waits` list of this tuple, or [`NONE`].
    waits: u32,
}

/// A checked tuple on the backward step's stack: `pending[start..end]`
/// are the atoms its witnesses waited on when registered, and `next` the
/// first one not yet checked.
struct Frame {
    node: u32,
    start: usize,
    next: usize,
    end: usize,
}

/// No node, or the end of a `waits` list.
const NONE: u32 = u32::MAX;

/// Checks between two polls of the governor's deadline and cancellation.
pub(crate) const PROOF_POLL: usize = 1 << 8;

impl<'p> Proofs<'p> {
    /// The search over the predicates `preds`, by IDB id, with `known`
    /// needing no proof.
    pub(crate) fn new(
        cp: &'p CompiledProgram,
        preds: &[usize],
        known: Option<&'p Interp>,
    ) -> Proofs<'p> {
        let mut doubt = vec![false; cp.num_idb()];
        for &i in preds {
            doubt[i] = true;
        }
        let atoms = cp
            .rules
            .iter()
            .map(|rule| {
                if !doubt[rule.head_pred] {
                    return Vec::new();
                }
                rule.body
                    .iter()
                    .filter_map(|lit| match lit {
                        RLit::Pos {
                            pred: PredRef::Idb(j),
                            terms,
                        } if doubt[*j] => Some((*j, terms.as_slice())),
                        _ => None,
                    })
                    .collect()
            })
            .collect();
        Proofs {
            atoms,
            known,
            slots: HashMap::default(),
            nodes: Vec::new(),
            witnesses: Vec::new(),
            waits: Vec::new(),
            stack: Vec::new(),
            pending: Vec::new(),
            queue: Vec::new(),
            checked: 0,
            kept: 0,
        }
    }

    /// Judges the damaged tuple at dense position `pos` of IDB `idb`:
    /// `true` if it has no proof and is doomed; `false` if it has one, or
    /// was judged before.
    pub(crate) fn doomed(
        &mut self,
        idb: usize,
        pos: usize,
        s: &Interp,
        witnesses: &mut Witnesses<'_>,
        gov: Option<&Governor>,
    ) -> Result<bool> {
        let n = self.node(idb, pos, s);
        if self.nodes[n as usize].damaged {
            return Ok(false);
        }
        self.nodes[n as usize].damaged = true;
        let proved = self.prove(n, s, witnesses, gov)?;
        self.kept += usize::from(proved);
        self.nodes[n as usize].doomed = !proved;
        Ok(!proved)
    }

    /// Whether node `root` has a proof, checking it first if it was not.
    /// The backward step walks an explicit stack: a proof can be as deep
    /// as a relation is long.
    fn prove(
        &mut self,
        root: u32,
        s: &Interp,
        witnesses: &mut Witnesses<'_>,
        gov: Option<&Governor>,
    ) -> Result<bool> {
        if !self.nodes[root as usize].checked {
            self.stack.clear();
            self.pending.clear();
            let frame = self.open(root, s, witnesses, gov)?;
            self.stack.push(frame);
            while let Some(top) = self.stack.last_mut() {
                if self.nodes[top.node as usize].proved || top.next == top.end {
                    self.pending.truncate(top.start);
                    self.stack.pop();
                    continue;
                }
                let atom = self.pending[top.next];
                top.next += 1;
                if !self.nodes[atom as usize].checked {
                    let frame = self.open(atom, s, witnesses, gov)?;
                    self.stack.push(frame);
                }
            }
        }
        Ok(self.nodes[root as usize].proved)
    }

    /// The backward step: checks node `n` by registering every witness of
    /// its tuple with the atoms it waits on — proving `n` at once if one
    /// waits on none. A witness through a doomed tuple, which stays in `s`
    /// until the caller removes it, can never complete and is dropped.
    fn open(
        &mut self,
        n: u32,
        s: &Interp,
        witnesses: &mut Witnesses<'_>,
        gov: Option<&Governor>,
    ) -> Result<Frame> {
        self.checked += 1;
        if let Some(g) = gov {
            if self.checked.is_multiple_of(PROOF_POLL) {
                g.poll_signals()?;
            }
        }
        let node = &mut self.nodes[n as usize];
        node.checked = true;
        let idb = node.idb as usize;
        let tuple = &s.get(idb).dense()[node.pos as usize];
        let start = self.pending.len();
        witnesses.each(idb, tuple, |rule, regs| {
            let first = self.pending.len();
            for i in 0..self.atoms[rule].len() {
                let (j, terms) = self.atoms[rule][i];
                let t: Tuple = terms
                    .iter()
                    .map(|term| match *term {
                        CTerm::Var(v) => regs[v],
                        CTerm::Const(c) => c,
                    })
                    .collect();
                let pos = s
                    .get(j)
                    .position(&t)
                    .expect("a witness's atoms hold in the state it was found in");
                let atom = self.node(j, pos, s);
                if self.nodes[atom as usize].doomed {
                    self.pending.truncate(first);
                    return false;
                }
                if !self.nodes[atom as usize].proved {
                    self.pending.push(atom);
                }
            }
            if self.pending.len() == first {
                self.set_proved(n);
                return true;
            }
            let w = self.witnesses.len() as u32;
            self.witnesses
                .push((n, (self.pending.len() - first) as u32));
            for i in first..self.pending.len() {
                let atom = &mut self.nodes[self.pending[i] as usize];
                self.waits.push((w, atom.waits));
                atom.waits = (self.waits.len() - 1) as u32;
            }
            false
        });
        Ok(Frame {
            node: n,
            start,
            next: start,
            end: self.pending.len(),
        })
    }

    /// The forward step: proves the checked node `n` and, through the
    /// witnesses waiting on it, every checked node it completes a witness
    /// of.
    fn set_proved(&mut self, n: u32) {
        self.nodes[n as usize].proved = true;
        self.queue.push(n);
        while let Some(x) = self.queue.pop() {
            let mut entry = std::mem::replace(&mut self.nodes[x as usize].waits, NONE);
            while entry != NONE {
                let (w, next) = self.waits[entry as usize];
                entry = next;
                let (head, open) = &mut self.witnesses[w as usize];
                *open -= 1;
                let head = *head;
                if *open == 0 && !self.nodes[head as usize].proved {
                    self.nodes[head as usize].proved = true;
                    self.queue.push(head);
                }
            }
        }
    }

    /// The node of the tuple at dense position `pos` of IDB `idb` in `s`,
    /// met now if it was not before — as proved and checked when it is
    /// known to hold.
    fn node(&mut self, idb: usize, pos: usize, s: &Interp) -> u32 {
        let next = self.nodes.len() as u32;
        let slot = *self.slots.entry((idb as u32, pos as u32)).or_insert(next);
        if slot == next {
            let known = self
                .known
                .is_some_and(|k| k.get(idb).contains(&s.get(idb).dense()[pos]));
            self.nodes.push(Node {
                idb: idb as u32,
                pos: pos as u32,
                checked: known,
                proved: known,
                damaged: false,
                doomed: false,
                waits: NONE,
            });
        }
        slot
    }
}
