//! The serving core: one durable writer thread, many snapshot-isolated
//! readers, and admission control in front of both.
//!
//! # Epoch publication (the invariant this module maintains)
//!
//! The writer thread exclusively owns the
//! [`DurableMaterialized`] handle. A
//! write batch commits through the log-first durable path (WAL append →
//! transactional in-memory repair), and only a *committed* state is
//! captured into an immutable [`Epoch`] and swapped into the
//! [`EpochCell`] — then the write is acknowledged. A failed batch rolls
//! back bit-identically and publishes nothing, so readers can never
//! observe a partial fixpoint: every pinned epoch is a committed one, and
//! (per the paper) the uniquely determined model of its own EDB.
//!
//! The writer keeps the epoch its last publish superseded, together with
//! the change that followed it. When no reader pins that epoch any more,
//! the next publish patches it forward by the two changes
//! ([`DurableMaterialized::publish_over`]) instead of deep-copying the
//! whole state; otherwise it copies. Either way the write is acknowledged
//! before the writer frees anything.
//!
//! # Degradation ladder
//!
//! - Reads over capacity → typed [`ServeError::Overloaded`] shed.
//! - Writer queue full → typed shed; the queue is a bounded
//!   `sync_channel`, so backpressure is explicit and nothing queues
//!   unboundedly.
//! - Reader panic → contained per request ([`catch_unwind`]), reported as
//!   [`ServeError::ReaderPanic`].
//! - Slow query → cancelled at its deadline with a typed budget error.
//! - Writer failure → the batch rolls back, the record is un-logged, the
//!   published epoch is untouched, and the writer keeps serving. A
//!   crash-shaped failpoint kills the writer instead; reads continue on
//!   the last published epoch and writes report
//!   [`ServeError::WriterDown`].
//! - Shutdown → no new admissions, queued writes drain, in-flight reads
//!   finish, then the writer joins.

use crate::error::{Load, ServeError};
use inflog_core::failpoints::{Failpoints, SITE_EPOCH_PUBLISH, SITE_QUEUE_FULL, SITE_WRITER_CRASH};
use inflog_core::{Database, Tuple, Universe};
use inflog_eval::materialize::Engine;
use inflog_eval::query::QueryAnswer;
use inflog_eval::{
    panic_message, Change, Durability, DurableMaterialized, DurableOpts, Epoch, EpochCell,
    EvalOptions,
};
use inflog_syntax::{Atom, Program};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// The semantics to maintain.
    pub engine: Engine,
    /// Evaluation options for the initial run and every repair. Their
    /// [`failpoints`](EvalOptions::failpoints) are the server's one arming:
    /// the server fires its `serve-*` sites on them and hands them down to
    /// the evaluator and the store, which fire their own.
    pub eval: EvalOptions,
    /// WAL durability of the underlying store.
    pub durability: Durability,
    /// Admission bound on concurrently executing queries; the
    /// `max_inflight + 1`-th concurrent query sheds with
    /// [`ServeError::Overloaded`]`(`[`Load::Readers`]`)`.
    pub max_inflight: usize,
    /// Capacity of the bounded writer queue; a full queue sheds with
    /// [`ServeError::Overloaded`]`(`[`Load::Writer`]`)`.
    pub writer_queue: usize,
    /// Default per-query deadline (individual requests can override).
    pub query_deadline: Option<Duration>,
    /// When true, crash-shaped failpoints (`serve-writer-crash`,
    /// `serve-epoch-publish`) abort the whole process instead of killing
    /// only the writer thread. The `serve` binary sets it, so that it dies
    /// inside the exact protocol window; in-process chaos tests leave it off.
    pub abort_on_crash: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            engine: Engine::default(),
            eval: EvalOptions::default(),
            durability: Durability::default(),
            max_inflight: 64,
            writer_queue: 16,
            query_deadline: None,
            abort_on_crash: false,
        }
    }
}

impl ServeOptions {
    /// Defaults with the failpoint arming explicitly inert, regardless of
    /// the environment — for embedders (benches, examples, tests) that must
    /// never inherit an `INFLOG_FAILPOINT` arming from a CI chaos pass.
    #[must_use]
    pub fn quiet() -> Self {
        let mut opts = ServeOptions::default();
        opts.eval.failpoints = Failpoints::none();
        opts
    }

    fn durable(&self) -> DurableOpts {
        DurableOpts {
            engine: self.engine,
            eval: self.eval.clone(),
            durability: self.durability,
        }
    }
}

/// Acknowledgement of a committed (durable, applied, *and published*)
/// write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteAck {
    /// The epoch this write committed as — published before the ack.
    pub epoch: u64,
    /// Tuples the batch actually changed (0 for a committed no-op).
    pub changed: usize,
}

/// A query answer together with the pinned epoch it was answered from.
#[derive(Debug)]
pub struct QueryReply {
    /// The epoch the reply is consistent with — kept pinned by this handle.
    pub epoch: Arc<Epoch>,
    /// The goal-matching tuples (see [`Epoch::select`]).
    pub answer: QueryAnswer,
}

/// How the writer produced the epochs it published (see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PublishCounts {
    /// Retired epochs patched forward in place.
    pub recycled: u64,
    /// Deep copies of the committed state.
    pub copied: u64,
}

enum WriteCmd {
    Insert(Vec<(String, Tuple)>),
    Retract(Vec<(String, Tuple)>),
    Compact,
}

struct WriteReq {
    cmd: WriteCmd,
    reply: SyncSender<Result<WriteAck, ServeError>>,
}

struct Shared {
    cell: EpochCell,
    /// The universe every epoch shares: fixed once the store is loaded.
    universe: Arc<Universe>,
    recycled: AtomicU64,
    copied: AtomicU64,
    inflight: AtomicUsize,
    max_inflight: usize,
    draining: AtomicBool,
    writer_alive: AtomicBool,
    failpoints: Failpoints,
    query_deadline: Option<Duration>,
}

/// The serving handle: share it (`Arc<Server>`) across connection
/// threads. See the module docs for the guarantees.
pub struct Server {
    shared: Arc<Shared>,
    tx: Mutex<Option<SyncSender<WriteReq>>>,
    writer: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("epoch", &self.shared.cell.number())
            .field("inflight", &self.shared.inflight.load(Ordering::Relaxed))
            .field("draining", &self.shared.draining.load(Ordering::Relaxed))
            .finish()
    }
}

/// RAII admission permit; dropping it frees the in-flight slot.
struct Permit<'a>(&'a AtomicUsize);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Server {
    /// Evaluates `program` over `db`, initializes the store directory, and
    /// starts serving at epoch 0.
    ///
    /// # Errors
    /// Construction errors of
    /// [`DurableMaterialized::create`](DurableMaterialized::create).
    pub fn create(
        program: &Program,
        db: &Database,
        dir: &Path,
        opts: &ServeOptions,
    ) -> Result<Server, ServeError> {
        let dm = DurableMaterialized::create(program, db, dir, &opts.durable())?;
        Server::start(dm, opts)
    }

    /// Recovers the store directory (newest snapshot + WAL, evaluated once) and
    /// starts serving at the recovered epoch.
    ///
    /// # Errors
    /// Recovery errors of
    /// [`DurableMaterialized::open`](DurableMaterialized::open) — typed,
    /// with the corrupt byte offset where applicable.
    pub fn open(program: &Program, dir: &Path, opts: &ServeOptions) -> Result<Server, ServeError> {
        let dm = DurableMaterialized::open(program, dir, &opts.durable())?;
        Server::start(dm, opts)
    }

    fn start(dm: DurableMaterialized, opts: &ServeOptions) -> Result<Server, ServeError> {
        let first = dm.publish()?;
        let shared = Arc::new(Shared {
            universe: Arc::clone(first.database().shared_universe()),
            cell: EpochCell::new(first),
            recycled: AtomicU64::new(0),
            copied: AtomicU64::new(0),
            inflight: AtomicUsize::new(0),
            max_inflight: opts.max_inflight.max(1),
            draining: AtomicBool::new(false),
            writer_alive: AtomicBool::new(true),
            failpoints: opts.eval.failpoints.clone(),
            query_deadline: opts.query_deadline,
        });
        let (tx, rx) = mpsc::sync_channel(opts.writer_queue.max(1));
        let writer_shared = Arc::clone(&shared);
        let abort = opts.abort_on_crash;
        let writer = std::thread::Builder::new()
            .name("inflog-serve-writer".to_string())
            .spawn(move || writer_loop(dm, rx, writer_shared, abort))
            .expect("spawn writer thread");
        Ok(Server {
            shared,
            tx: Mutex::new(Some(tx)),
            writer: Mutex::new(Some(writer)),
        })
    }

    /// Pins the currently published epoch (see [`EpochCell::pin`]): the
    /// snapshot stays answerable — and identical — for as long as the
    /// handle lives, regardless of concurrent commits.
    pub fn pin(&self) -> Arc<Epoch> {
        self.shared.cell.pin()
    }

    /// The currently published epoch number.
    pub fn epoch(&self) -> u64 {
        self.shared.cell.number()
    }

    /// The configured default query deadline.
    pub fn query_deadline(&self) -> Option<Duration> {
        self.shared.query_deadline
    }

    /// Whether the writer thread is still serving writes.
    pub fn writer_alive(&self) -> bool {
        self.shared.writer_alive.load(Ordering::SeqCst)
    }

    /// Whether the server is draining for shutdown.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Currently executing queries (observability for the admission
    /// tests).
    pub fn inflight(&self) -> usize {
        self.shared.inflight.load(Ordering::SeqCst)
    }

    /// How the writer's publishes so far were made: recycled retired epochs
    /// vs deep copies (observability for the publication tests).
    pub fn publishes(&self) -> PublishCounts {
        PublishCounts {
            recycled: self.shared.recycled.load(Ordering::SeqCst),
            copied: self.shared.copied.load(Ordering::SeqCst),
        }
    }

    /// The universe of the served database — fixed after load, so
    /// resolving constant names needs no pinned epoch.
    pub fn universe(&self) -> &Universe {
        &self.shared.universe
    }

    /// The server's failpoint arming (the connection layer fires the
    /// reply-drop site through it).
    pub fn failpoints(&self) -> &Failpoints {
        &self.shared.failpoints
    }

    /// Answers `goal` from the epoch current at admission: admission
    /// check, pin, lookup ([`Epoch::select`]) under `deadline` (falling
    /// back to the server default), panic containment.
    ///
    /// # Errors
    /// [`ServeError::Overloaded`] / [`ServeError::ShuttingDown`] at
    /// admission; [`ServeError::ReaderPanic`] for a contained panic;
    /// evaluation errors (including the deadline trip) as
    /// [`ServeError::Eval`].
    pub fn query(&self, goal: &Atom, deadline: Option<Duration>) -> Result<QueryReply, ServeError> {
        self.query_at(goal, deadline.or(self.shared.query_deadline))
    }

    /// Like [`Server::query`] but applies `deadline` verbatim — `None`
    /// really means unbounded, without falling back to the server default.
    /// The connection layer uses this so `DEADLINE off` can clear a
    /// configured default.
    ///
    /// # Errors
    /// Same conditions as [`Server::query`].
    pub fn query_at(
        &self,
        goal: &Atom,
        deadline: Option<Duration>,
    ) -> Result<QueryReply, ServeError> {
        if self.is_draining() {
            return Err(ServeError::ShuttingDown);
        }
        let _permit = self.admit()?;
        let epoch = self.pin();
        let deadline = deadline.map(|d| Instant::now() + d);
        match catch_unwind(AssertUnwindSafe(|| epoch.select(goal, deadline))) {
            Ok(Ok(answer)) => Ok(QueryReply { epoch, answer }),
            Ok(Err(e)) => Err(ServeError::Eval(e)),
            Err(payload) => Err(ServeError::ReaderPanic {
                message: panic_message(&*payload),
            }),
        }
    }

    /// Durably inserts a batch and publishes the resulting epoch. Blocks
    /// only while the *admitted* write commits; admission itself never
    /// blocks (a full queue sheds).
    ///
    /// # Errors
    /// [`ServeError::Overloaded`]`(`[`Load::Writer`]`)` when the queue is
    /// full, [`ServeError::WriterDown`] / [`ServeError::ShuttingDown`]
    /// when nobody will serve the write, and the writer's typed commit
    /// errors otherwise (state rolled back, epoch untouched).
    pub fn insert(&self, facts: Vec<(String, Tuple)>) -> Result<WriteAck, ServeError> {
        self.write(WriteCmd::Insert(facts))
    }

    /// Durable retract; same contract as [`Server::insert`].
    ///
    /// # Errors
    /// Same conditions as [`Server::insert`].
    pub fn retract(&self, facts: Vec<(String, Tuple)>) -> Result<WriteAck, ServeError> {
        self.write(WriteCmd::Retract(facts))
    }

    /// Compacts the store (snapshot + WAL truncation) through the writer.
    ///
    /// # Errors
    /// Same admission conditions as [`Server::insert`]; store errors from
    /// the compaction itself.
    pub fn compact(&self) -> Result<WriteAck, ServeError> {
        self.write(WriteCmd::Compact)
    }

    fn write(&self, cmd: WriteCmd) -> Result<WriteAck, ServeError> {
        if self.is_draining() {
            return Err(ServeError::ShuttingDown);
        }
        if !self.writer_alive() {
            return Err(ServeError::WriterDown);
        }
        if self.shared.failpoints.fire(SITE_QUEUE_FULL) {
            return Err(ServeError::Overloaded(Load::Writer));
        }
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        {
            let guard = self.tx.lock().unwrap_or_else(PoisonError::into_inner);
            let Some(tx) = guard.as_ref() else {
                return Err(ServeError::ShuttingDown);
            };
            match tx.try_send(WriteReq {
                cmd,
                reply: reply_tx,
            }) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) => return Err(ServeError::Overloaded(Load::Writer)),
                Err(TrySendError::Disconnected(_)) => return Err(ServeError::WriterDown),
            }
        }
        // The writer dropping our reply sender without answering (crash
        // window) surfaces as a typed WriterDown, never a hang.
        reply_rx.recv().map_err(|_| ServeError::WriterDown)?
    }

    fn admit(&self) -> Result<Permit<'_>, ServeError> {
        let prev = self.shared.inflight.fetch_add(1, Ordering::SeqCst);
        if prev >= self.shared.max_inflight {
            self.shared.inflight.fetch_sub(1, Ordering::SeqCst);
            return Err(ServeError::Overloaded(Load::Readers));
        }
        Ok(Permit(&self.shared.inflight))
    }

    /// Graceful drain: stop admitting, let the writer drain every queued
    /// request, join it, and wait for in-flight readers to finish.
    /// Idempotent.
    pub fn shutdown(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        // Dropping the sender ends the writer's receive loop *after* the
        // buffered requests drain (sync_channel delivers queued messages
        // before reporting disconnection).
        drop(
            self.tx
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take(),
        );
        if let Some(writer) = self
            .writer
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
        {
            let _ = writer.join();
        }
        while self.shared.inflight.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The epoch the writer's last publish superseded, and the change committed
/// right after its state — what the next publish needs to patch it forward.
type Retired = (Arc<Epoch>, Option<Change>);

fn writer_loop(
    mut dm: DurableMaterialized,
    rx: Receiver<WriteReq>,
    shared: Arc<Shared>,
    abort_on_crash: bool,
) {
    let mut retired: Option<Retired> = None;
    while let Ok(WriteReq { cmd, reply }) = rx.recv() {
        let keep_going = match cmd {
            WriteCmd::Compact => {
                let res = dm
                    .compact()
                    .map(|()| WriteAck {
                        epoch: dm.epoch(),
                        changed: 0,
                    })
                    .map_err(ServeError::from);
                let _ = reply.send(res);
                true
            }
            WriteCmd::Insert(facts) => apply(
                &mut dm,
                &shared,
                abort_on_crash,
                true,
                &facts,
                &reply,
                &mut retired,
            ),
            WriteCmd::Retract(facts) => apply(
                &mut dm,
                &shared,
                abort_on_crash,
                false,
                &facts,
                &reply,
                &mut retired,
            ),
        };
        if !keep_going {
            break;
        }
    }
    shared.writer_alive.store(false, Ordering::SeqCst);
}

/// One write batch through the durable path; returns false when the
/// writer must die (crash-shaped failpoints and unpublishable states).
fn apply(
    dm: &mut DurableMaterialized,
    shared: &Shared,
    abort_on_crash: bool,
    inserting: bool,
    facts: &[(String, Tuple)],
    reply: &SyncSender<Result<WriteAck, ServeError>>,
    retired: &mut Option<Retired>,
) -> bool {
    if shared.failpoints.fire(SITE_WRITER_CRASH) {
        // Dies before the WAL append: nothing of this batch survives, so
        // recovery restores exactly the last acked epoch. The alive flag
        // drops before the reply so the caller observes a dead writer.
        if abort_on_crash {
            std::process::abort();
        }
        shared.writer_alive.store(false, Ordering::SeqCst);
        let _ = reply.send(Err(ServeError::FaultInjected {
            site: SITE_WRITER_CRASH.to_string(),
        }));
        return false;
    }
    let borrowed: Vec<(&str, Tuple)> = facts
        .iter()
        .map(|(name, t)| (name.as_str(), t.clone()))
        .collect();
    let applied = if inserting {
        dm.insert(&borrowed)
    } else {
        dm.retract(&borrowed)
    };
    match applied {
        Err(e) => {
            // The transactional path already rolled the state back (and
            // un-logged the record); the published epoch was never
            // touched. Degrade gracefully: report and keep serving.
            let _ = reply.send(Err(ServeError::Eval(e)));
            true
        }
        Ok(changed) => {
            if shared.failpoints.fire(SITE_EPOCH_PUBLISH) {
                // Dies between WAL ack and epoch swap: the record is
                // durable but the client never sees an ack, so recovery
                // may land one epoch past the last acked one — the chaos
                // harness accepts exactly that window.
                if abort_on_crash {
                    std::process::abort();
                }
                shared.writer_alive.store(false, Ordering::SeqCst);
                let _ = reply.send(Err(ServeError::FaultInjected {
                    site: SITE_EPOCH_PUBLISH.to_string(),
                }));
                return false;
            }
            let recycling = retired.is_some();
            let published = match retired.take() {
                Some((old, gap)) => dm.publish_over(old, gap.as_ref()),
                None => dm.publish().map(|epoch| (epoch, None)),
            };
            match published {
                Ok((epoch, unused)) => {
                    let counter = if recycling && unused.is_none() {
                        &shared.recycled
                    } else {
                        &shared.copied
                    };
                    counter.fetch_add(1, Ordering::SeqCst);
                    let superseded = shared.cell.publish(epoch);
                    let _ = reply.send(Ok(WriteAck {
                        epoch: dm.epoch(),
                        changed,
                    }));
                    // Ack first: releasing a snapshot that nobody else pins
                    // frees the whole model, which the client need not wait
                    // for. The superseded epoch is kept for the next publish.
                    drop(unused);
                    *retired = Some((superseded, dm.take_change()));
                    true
                }
                Err(e) => {
                    // Committed but unpublishable (practically
                    // unreachable): serving a stale epoch as if current
                    // would break the invariant, so the writer dies.
                    shared.writer_alive.store(false, Ordering::SeqCst);
                    let _ = reply.send(Err(ServeError::Eval(e)));
                    false
                }
            }
        }
    }
}
