//! The three TCP workloads — `serve_read`, `serve_write`, `serve_mixed` —
//! against a real `serve` child over loopback, closed loop, with every
//! sampled reply and every final model checked against the oracles.

use crate::gen::{self, Dataset, ReadClass, ReadReq, WritePair, READ_CLASSES};
use crate::oracle::{self, Graph, TcGoal};
use crate::stats::{quantile, tail};
use crate::wire::{self, Conn, Reply, ServeArgs, ServeChild, Status, TmpDir};
use crate::{api, Metric, Outcome, Params};
use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Read,
    Write,
    Mixed,
}

/// Every `CHECK_EVERY`-th read reply is kept and compared with the oracle
/// after the repetition (outside the timed window).
const CHECK_EVERY: usize = 64;
const POOL_READS: usize = 8000;
const POOL_PAIRS: usize = 4000;
const WARM_READS: usize = 2000;
const WARM_WRITES: usize = 200;
/// Fixed counts for the diagnostic TCP pass of a traced run (counts, so
/// that `server.epochs_published` and the recovered WAL repeat exactly).
const DIAG_READS_PER_CONN: usize = 12_000;
const DIAG_PAIRS: usize = 1_000;

/// When a load loop stops.
#[derive(Clone, Copy)]
enum Stop<'a> {
    At(Instant),
    Count(usize),
    /// Until the other connection's loop has finished.
    Flag(&'a AtomicBool),
}

impl Stop<'_> {
    fn reached(&self, done: usize) -> bool {
        match self {
            Stop::At(t) => Instant::now() >= *t,
            Stop::Count(n) => done >= *n,
            Stop::Flag(f) => f.load(Ordering::Acquire),
        }
    }
}

/// A read reply kept for checking.
struct Kept {
    goal: TcGoal,
    epoch: Option<u64>,
    reply: Reply,
    body: String,
}

/// Requests the server answered with something other than `OK`.
#[derive(Default, Clone, Copy)]
struct Refused {
    shed: u64,
    err: u64,
}

impl Refused {
    fn count(&mut self, status: Status) {
        match status {
            Status::Ok => {}
            Status::Overloaded => self.shed += 1,
            Status::Err => self.err += 1,
        }
    }

    fn total(self) -> u64 {
        self.shed + self.err
    }
}

#[derive(Default)]
struct ReadLog {
    /// (class index, latency ns) per request.
    lat: Vec<(u8, u32)>,
    /// ns between the previous reply and this send.
    gap: Vec<u32>,
    kept: Vec<Kept>,
    refused: Refused,
    bytes: u64,
    /// Time inside `call`, ns: the rest of the loop is the generator's own.
    in_call_ns: u64,
    wall: Duration,
}

fn read_loop(conn: &mut Conn, pool: &[ReadReq], stop: Stop) -> std::io::Result<ReadLog> {
    let mut log = ReadLog::default();
    let start = Instant::now();
    let mut prev_end = start;
    let mut i = 0usize;
    while !stop.reached(i) {
        let req = &pool[i % pool.len()];
        let keep = i.is_multiple_of(CHECK_EVERY);
        let mut body = String::new();
        let t0 = Instant::now();
        let reply = conn.call(&req.line, keep.then_some(&mut body))?;
        let t1 = Instant::now();
        let ns = (t1 - t0).as_nanos() as u64;
        log.in_call_ns += ns;
        log.lat.push((req.class as u8, ns as u32));
        log.gap.push((t0 - prev_end).as_nanos() as u32);
        prev_end = t1;
        log.bytes += u64::from(reply.bytes);
        log.refused.count(reply.status);
        if reply.status == Status::Ok && keep {
            log.kept.push(Kept {
                goal: req.goal,
                epoch: reply.epoch,
                reply,
                body,
            });
        }
        i += 1;
    }
    log.wall = start.elapsed();
    Ok(log)
}

#[derive(Default)]
struct WriteLog {
    insert_ns: Vec<u32>,
    retract_ns: Vec<u32>,
    refused: Refused,
    /// Acks whose epoch or `changed` count was not the expected one.
    wrong: u64,
    wall: Duration,
}

/// The server under test plus the benchmark's record of what it wrote:
/// `edge_at[e]` is the extra edge present at epoch `e` (the base edge set
/// otherwise), which is all the oracle needs to answer "as of epoch e".
struct Sut {
    child: ServeChild,
    edge_at: Vec<Option<WritePair>>,
}

/// Runs insert/retract pairs until `stop`; always finishes the pair, so
/// the EDB is the base set whenever a loop ends.
fn write_loop(
    conn: &mut Conn,
    pairs: &[WritePair],
    stop: Stop,
    edge_at: &mut Vec<Option<WritePair>>,
) -> std::io::Result<WriteLog> {
    let mut log = WriteLog::default();
    let start = Instant::now();
    let mut i = 0usize;
    while !stop.reached(i) {
        let pair = pairs[i % pairs.len()];
        for insert in [true, false] {
            let line = gen::write_line(insert, pair);
            let t0 = Instant::now();
            let reply = conn.call(&line, None)?;
            let ns = t0.elapsed().as_nanos() as u32;
            if insert {
                log.insert_ns.push(ns);
            } else {
                log.retract_ns.push(ns);
            }
            log.refused.count(reply.status);
            if reply.status != Status::Ok {
                continue;
            }
            // Single writer, closed loop: the ack must name the next epoch
            // and report exactly one changed fact.
            edge_at.push(insert.then_some(pair));
            let expected = (edge_at.len() - 1) as u64;
            if reply.epoch != Some(expected) || wire::field(&reply.last, "changed") != Some(1) {
                log.wrong += 1;
            }
        }
        i += 1;
    }
    log.wall = start.elapsed();
    Ok(log)
}

/// Answers `tc_cut` goals as of any epoch from the benchmark's own edge
/// set. Whole-relation answers on the base set are remembered: they are
/// asked for after every repetition.
struct StateOracle {
    graph: Graph,
    base_memo: HashMap<&'static str, BTreeSet<(u32, u32)>>,
}

impl StateOracle {
    fn new(data: &Dataset) -> StateOracle {
        StateOracle {
            graph: data.graph(),
            base_memo: HashMap::new(),
        }
    }

    fn answer(&mut self, goal: TcGoal, extra: Option<WritePair>) -> BTreeSet<(u32, u32)> {
        let memo_key = match (goal, extra) {
            (TcGoal::CutAll, None) => Some("cut"),
            (TcGoal::SAll, None) => Some("s"),
            _ => None,
        };
        if let Some(hit) = memo_key.and_then(|k| self.base_memo.get(k)) {
            return hit.clone();
        }
        if let Some(p) = extra {
            self.graph.add_edge(p.u, p.v);
        }
        let out = oracle::tc_cut_answer(&self.graph, goal);
        if let Some(p) = extra {
            self.graph.remove_edge(p.u, p.v);
        }
        if let Some(k) = memo_key {
            self.base_memo.insert(k, out.clone());
        }
        out
    }
}

/// Whether a query reply's body is exactly `expected` (all rows `TRUE`, of
/// the goal's predicate, no duplicates) and its summary line agrees.
fn reply_matches(goal: TcGoal, reply: &Reply, body: &str, expected: &BTreeSet<(u32, u32)>) -> bool {
    let pred = match goal {
        TcGoal::Point(..) | TcGoal::Prefix(_) | TcGoal::SAll => "S",
        TcGoal::CutFrom(_) | TcGoal::CutAll => "Cut",
    };
    let mut got = BTreeSet::new();
    for line in body.lines() {
        match wire::parse_row(line) {
            Some(row) if !row.undefined && row.predicate == pred && row.args.len() == 2 => {
                if !got.insert((row.args[0], row.args[1])) {
                    return false;
                }
            }
            _ => return false,
        }
    }
    got == *expected
        && wire::field(&reply.last, "true") == Some(expected.len() as u64)
        && wire::field(&reply.last, "undef") == Some(0)
}

/// Files and paths one server instance needs.
struct Files {
    serve_bin: PathBuf,
    program: PathBuf,
    facts: PathBuf,
    store: PathBuf,
    universe: String,
}

impl Files {
    fn write(dir: &Path, serve_bin: &Path, data: &Dataset) -> std::io::Result<Files> {
        let files = Files {
            serve_bin: serve_bin.to_path_buf(),
            program: dir.join("program.dl"),
            facts: dir.join("facts.txt"),
            store: dir.join("store"),
            universe: gen::universe_arg(data),
        };
        std::fs::write(&files.program, gen::TC_CUT)?;
        std::fs::write(&files.facts, gen::facts_text(data))?;
        if files.store.exists() {
            std::fs::remove_dir_all(&files.store)?;
        }
        Ok(files)
    }

    fn spawn(&self, create: bool) -> std::io::Result<ServeChild> {
        ServeChild::spawn(&ServeArgs {
            bin: &self.serve_bin,
            store: &self.store,
            program: &self.program,
            create: create.then_some((self.facts.as_path(), self.universe.as_str())),
        })
    }
}

/// Everything a repetition needs, built (and timed) by [`set_up`].
struct Rig {
    data: Dataset,
    files: Files,
    sut: Sut,
    read_conns: Vec<Conn>,
    write_conn: Option<Conn>,
    pools: Vec<Vec<ReadReq>>,
    pairs: Vec<WritePair>,
}

impl Rig {
    /// Closes the client connections (a session only ends when its client
    /// hangs up, and the server drains sessions before it exits), then
    /// shuts the server down. Returns what outlives the server.
    fn stop(self) -> std::io::Result<(Files, Dataset, Vec<Option<WritePair>>)> {
        let Rig {
            sut,
            files,
            data,
            read_conns,
            write_conn,
            ..
        } = self;
        drop((read_conns, write_conn));
        sut.child.shutdown()?;
        Ok((files, data, sut.edge_at))
    }
}

/// Set-up as a user would pay it: generate the inputs, `serve --create`
/// (evaluate + snapshot), connect, and a fixed warm-up.
fn set_up(kind: Kind, p: &Params, dir: &Path) -> std::io::Result<Rig> {
    let data = gen::dagc8x128(p.seed);
    let files = Files::write(dir, &p.serve_bin, &data)?;
    let reads = kind != Kind::Write;
    let writes = kind != Kind::Read;
    let streams = match kind {
        Kind::Read => 2,
        Kind::Mixed => 1,
        Kind::Write => 0,
    };
    let pools: Vec<Vec<ReadReq>> = (0..streams)
        .map(|s| gen::rmix(p.seed, s, POOL_READS))
        .collect();
    let pairs = if writes {
        gen::wseq_dag(p.seed, &data, POOL_PAIRS)
    } else {
        Vec::new()
    };
    let child = files.spawn(true)?;
    let mut rig = Rig {
        sut: Sut {
            child,
            edge_at: vec![None],
        },
        read_conns: Vec::new(),
        write_conn: None,
        data,
        files,
        pools,
        pairs,
    };
    for _ in 0..streams {
        rig.read_conns.push(Conn::connect(rig.sut.child.addr)?);
    }
    if writes {
        rig.write_conn = Some(Conn::connect(rig.sut.child.addr)?);
    }
    if reads {
        for (conn, pool) in rig.read_conns.iter_mut().zip(&rig.pools) {
            read_loop(conn, pool, Stop::Count(WARM_READS / streams as usize))?;
        }
    }
    if let Some(conn) = rig.write_conn.as_mut() {
        write_loop(
            conn,
            &rig.pairs,
            Stop::Count(WARM_WRITES / 2),
            &mut rig.sut.edge_at,
        )?;
    }
    Ok(rig)
}

/// One repetition's raw logs.
struct RepLogs {
    reads: Vec<ReadLog>,
    writes: Option<WriteLog>,
}

/// Runs one repetition: the read connections and the write connection
/// each on their own thread, closed loop, until `stop`.
fn run_rep(
    kind: Kind,
    rig: &mut Rig,
    stop: Stop,
    read_stop: Option<Stop>,
) -> std::io::Result<RepLogs> {
    let writer_done = AtomicBool::new(false);
    let Rig {
        read_conns,
        write_conn,
        pools,
        pairs,
        sut,
        ..
    } = rig;
    std::thread::scope(|scope| {
        let done = &writer_done;
        let readers: Vec<_> = read_conns
            .iter_mut()
            .zip(pools.iter())
            .map(|(conn, pool)| {
                let stop = match (kind, read_stop) {
                    (_, Some(s)) => s,
                    // Connection B reads for exactly as long as A writes.
                    (Kind::Mixed, None) => Stop::Flag(done),
                    _ => stop,
                };
                scope.spawn(move || read_loop(conn, pool, stop))
            })
            .collect();
        let writes = match write_conn.as_mut() {
            Some(conn) => {
                let log = write_loop(conn, pairs, stop, &mut sut.edge_at);
                done.store(true, Ordering::Release);
                Some(log?)
            }
            None => None,
        };
        let reads = readers
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(RepLogs { reads, writes })
    })
}

/// Checks every kept reply against the oracle as of the reply's epoch,
/// and the whole model over a fresh connection. Returns how many were wrong.
fn verify(rig: &mut Rig, oracle: &mut StateOracle, logs: &RepLogs) -> std::io::Result<u64> {
    let mut wrong = 0u64;
    let edge_at = &rig.sut.edge_at;
    for kept in logs.reads.iter().flat_map(|l| &l.kept) {
        let state = kept.epoch.and_then(|e| edge_at.get(e as usize));
        let ok = match state {
            Some(extra) => {
                let expected = oracle.answer(kept.goal, *extra);
                reply_matches(kept.goal, &kept.reply, &kept.body, &expected)
            }
            // No epoch header, or an epoch nobody was acked for.
            None => false,
        };
        if !ok && wrong < 3 {
            eprintln!(
                "inflog-benchmark: wrong answer to {:?} at epoch {:?}: {} rows, {:?}",
                kept.goal, kept.epoch, kept.reply.rows, kept.reply.last
            );
        }
        wrong += u64::from(!ok);
    }
    // The final model: both relations, whole, against `inflog-core`'s BFS
    // closure (S) and the benchmark's own (Cut). Every pair was retracted,
    // so the EDB is the base set again.
    let mut conn = Conn::connect(rig.sut.child.addr)?;
    let closure = api::transitive_closure(rig.data.n, &rig.data.edges);
    for (goal, expected) in [
        (TcGoal::SAll, closure),
        (TcGoal::CutAll, oracle.answer(TcGoal::CutAll, None)),
    ] {
        let mut body = String::new();
        let line = format!("QUERY {}\n", gen::goal_text(goal));
        let reply = conn.call(&line, Some(&mut body))?;
        let at_head = reply.epoch == Some((edge_at.len() - 1) as u64);
        wrong += u64::from(!(at_head && reply_matches(goal, &reply, &body, &expected)));
    }
    Ok(wrong)
}

fn ns_to_us(ns: impl Iterator<Item = u32>) -> Vec<f64> {
    ns.map(|n| f64::from(n) / 1e3).collect()
}

fn class_us(logs: &[ReadLog], class: Option<ReadClass>) -> Vec<f64> {
    ns_to_us(
        logs.iter()
            .flat_map(|l| &l.lat)
            .filter(|(c, _)| class.is_none_or(|k| k as u8 == *c))
            .map(|&(_, ns)| ns),
    )
}

/// The end-to-end metrics of one repetition: (ops_s, p50, tail, alt p50).
fn rep_metrics(kind: Kind, logs: &RepLogs) -> [f64; 4] {
    let reads: usize = logs.reads.iter().map(|l| l.lat.len()).sum();
    let read_wall = logs
        .reads
        .iter()
        .map(|l| l.wall.as_secs_f64())
        .fold(0.0, f64::max);
    match kind {
        Kind::Read | Kind::Mixed => {
            let mut all = class_us(&logs.reads, None);
            let alt = match (&logs.writes, kind) {
                (Some(w), Kind::Mixed) => {
                    quantile(&mut ns_to_us(w.retract_ns.iter().copied()), 0.5)
                }
                _ => quantile(&mut class_us(&logs.reads, Some(ReadClass::Open)), 0.5),
            };
            [
                reads as f64 / read_wall,
                quantile(&mut all, 0.5),
                tail(&mut all),
                alt,
            ]
        }
        Kind::Write => {
            let w = logs
                .writes
                .as_ref()
                .expect("write workload has a write log");
            let mut ins = ns_to_us(w.insert_ns.iter().copied());
            [
                (w.insert_ns.len() + w.retract_ns.len()) as f64 / w.wall.as_secs_f64(),
                quantile(&mut ins, 0.5),
                tail(&mut ins),
                quantile(&mut ns_to_us(w.retract_ns.iter().copied()), 0.5),
            ]
        }
    }
}

fn tally(logs: &RepLogs) -> (u64, u64) {
    let reads: u64 = logs.reads.iter().map(|l| l.lat.len() as u64).sum();
    let refused: u64 = logs.reads.iter().map(|l| l.refused.total()).sum();
    let (writes, wfail) = logs.writes.as_ref().map_or((0, 0), |w| {
        (
            (w.insert_ns.len() + w.retract_ns.len()) as u64,
            w.refused.total() + w.wrong,
        )
    });
    (reads + writes, refused + wfail)
}

/// Stops the server, restarts it on the same store without `--create`,
/// and checks it comes back at the last acked epoch with the same
/// answers. Returns (seconds from spawn to first `OK pong`, WAL records
/// replayed, wrong answers).
fn recover(rig: Rig, oracle: &mut StateOracle) -> std::io::Result<(f64, u64, u64)> {
    let (files, data, edge_at) = rig.stop()?;
    let last_epoch = (edge_at.len() - 1) as u64;
    let t0 = Instant::now();
    let child = files.spawn(false)?;
    let mut conn = Conn::connect(child.addr)?;
    let pong = conn.call("PING\n", None)?;
    let recover_s = t0.elapsed().as_secs_f64();
    let mut wrong = u64::from(pong.last != "OK pong");
    let epoch = conn.call("EPOCH\n", None)?;
    wrong += u64::from(epoch.epoch != Some(last_epoch));
    // A fixed query set, one of each goal class plus the whole closure.
    let a = data.edges[0].0;
    for goal in [
        TcGoal::Point(a, data.edges[0].1),
        TcGoal::Prefix(a),
        TcGoal::CutFrom(a),
        TcGoal::CutAll,
        TcGoal::SAll,
    ] {
        let mut body = String::new();
        let reply = conn.call(
            &format!("QUERY {}\n", gen::goal_text(goal)),
            Some(&mut body),
        )?;
        let expected = oracle.answer(goal, None);
        wrong += u64::from(
            !(reply.epoch == Some(last_epoch) && reply_matches(goal, &reply, &body, &expected)),
        );
    }
    drop(conn);
    child.shutdown()?;
    Ok((recover_s, last_epoch, wrong))
}

/// One fresh repetition of a TCP workload, untraced: set up (timed), load
/// for `p.seconds`, check, read the child's peak memory, stop (and, for
/// `serve_write`, recover).
pub fn run(kind: Kind, p: &Params) -> std::io::Result<Outcome> {
    let tmp = TmpDir::new(&p.out, p.workload)?;
    let t0 = Instant::now();
    let mut rig = set_up(kind, p, tmp.path())?;
    let setup_s = t0.elapsed().as_secs_f64();
    let mut oracle = StateOracle::new(&rig.data);

    let stop = Stop::At(Instant::now() + Duration::from_secs_f64(p.seconds));
    let logs = run_rep(kind, &mut rig, stop, None)?;
    let (attempted, bad) = tally(&logs);
    let wrong = verify(&mut rig, &mut oracle, &logs)?;
    let mut failed = bad + wrong;
    let [ops_s, p50, tail_us, alt] = rep_metrics(kind, &logs);
    let peak = rig.sut.child.peak_rss_mb();
    if kind == Kind::Write {
        let (_, _, wrong) = recover(rig, &mut oracle)?;
        failed += wrong;
    } else {
        rig.stop()?;
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            Metric::one("setup_s", setup_s, 1),
            Metric::one("ops_s", ops_s, attempted),
            Metric::one("p50_us", p50, attempted),
            Metric::one("tail_us", tail_us, attempted),
            Metric::one("alt_p50_us", alt, attempted),
            Metric::one("peak_rss_mb", peak, 1),
        ],
    })
}

/// A traced run's TCP pass is cut into this many slices; each diagnostic
/// is computed per slice and the median reported, like the repetitions of
/// an end-to-end run (on two cores a slice now and then runs with client
/// and session threads placed badly and reads take twice as long).
const DIAG_SLICES: usize = 3;

/// The diagnostics of one slice.
fn slice_metrics(logs: &RepLogs) -> Vec<Metric> {
    let mut m = Vec::new();
    let reads: u64 = logs.reads.iter().map(|l| l.lat.len() as u64).sum();
    if reads > 0 {
        for (class, name) in READ_CLASSES.iter().zip([
            "conn.read_point_p50_us",
            "conn.read_prefix_p50_us",
            "conn.read_cut_p50_us",
            "conn.read_open_p50_us",
        ]) {
            let mut v = class_us(&logs.reads, Some(*class));
            m.push(Metric::one(name, quantile(&mut v, 0.5), v.len() as u64));
        }
        let mut all = class_us(&logs.reads, None);
        m.push(Metric::one(
            "conn.read_mean_us",
            crate::stats::mean(&all),
            reads,
        ));
        m.push(Metric::one(
            "conn.read_p50_us",
            quantile(&mut all, 0.5),
            reads,
        ));
        m.push(Metric::one(
            "conn.read_p99_us",
            quantile(&mut all, 0.99),
            reads,
        ));
        m.push(Metric::one(
            "conn.read_p999_us",
            quantile(&mut all, 0.999),
            reads,
        ));
        let mut gaps = ns_to_us(logs.reads.iter().flat_map(|l| l.gap.iter().copied()));
        m.push(Metric::one(
            "loadgen.send_gap_p99_us",
            quantile(&mut gaps, 0.99),
            reads,
        ));
        let bytes: u64 = logs.reads.iter().map(|l| l.bytes).sum();
        m.push(Metric::one(
            "conn.reply_bytes_per_read",
            bytes as f64 / reads as f64,
            reads,
        ));
        let own_ns: f64 = logs
            .reads
            .iter()
            .map(|l| l.wall.as_nanos() as f64 - l.in_call_ns as f64)
            .sum();
        m.push(Metric::one(
            "loadgen.client_us_per_req",
            own_ns / 1e3 / reads as f64,
            reads,
        ));
    }
    if let Some(w) = &logs.writes {
        let writes = (w.insert_ns.len() + w.retract_ns.len()) as u64;
        let mut ins = ns_to_us(w.insert_ns.iter().copied());
        let mut ret = ns_to_us(w.retract_ns.iter().copied());
        m.push(Metric::one(
            "conn.insert_p50_us",
            quantile(&mut ins, 0.5),
            ins.len() as u64,
        ));
        m.push(Metric::one(
            "conn.retract_p50_us",
            quantile(&mut ret, 0.5),
            ret.len() as u64,
        ));
        ins.extend(ret);
        m.push(Metric::one(
            "conn.write_p99_us",
            quantile(&mut ins, 0.99),
            writes,
        ));
    }
    m
}

/// The diagnostic TCP pass of a traced run: fixed counts, untraced, deep
/// tails and per-class medians, the generator's own cost, and (for
/// `serve_write`) recovery of a WAL of known length.
pub fn diagnose(kind: Kind, p: &Params) -> std::io::Result<(Vec<Metric>, u64, u64)> {
    let tmp = TmpDir::new(&p.out, p.workload)?;
    let mut rig = set_up(kind, p, tmp.path())?;
    let mut oracle = StateOracle::new(&rig.data);
    let scale = |n: usize| p.scaled(n, CHECK_EVERY);
    let epochs_before = rig.sut.edge_at.len();
    let (mut attempted, mut failed) = (0, 0);
    let (mut shed, mut err, mut writes) = (0, 0, 0);
    let mut m: Vec<Metric> = Vec::new();
    for _ in 0..DIAG_SLICES {
        let logs = run_rep(
            kind,
            &mut rig,
            Stop::Count(scale(DIAG_PAIRS / DIAG_SLICES)),
            (kind == Kind::Read).then_some(Stop::Count(scale(DIAG_READS_PER_CONN / DIAG_SLICES))),
        )?;
        let (ops, bad) = tally(&logs);
        let wrong = verify(&mut rig, &mut oracle, &logs)?;
        attempted += ops;
        failed += bad + wrong;
        for r in logs
            .reads
            .iter()
            .map(|l| l.refused)
            .chain(logs.writes.as_ref().map(|w| w.refused))
        {
            shed += r.shed;
            err += r.err;
        }
        writes += logs
            .writes
            .as_ref()
            .map_or(0, |w| (w.insert_ns.len() + w.retract_ns.len()) as u64);
        for slice in slice_metrics(&logs) {
            match m.iter_mut().find(|x| x.name == slice.name) {
                Some(x) => {
                    x.reps.extend(slice.reps);
                    x.n += slice.n;
                }
                None => m.push(slice),
            }
        }
    }
    if writes > 0 {
        let published = (rig.sut.edge_at.len() - epochs_before) as f64;
        m.push(Metric::one("server.epochs_published", published, writes));
    }
    m.push(Metric::one("server.shed_count", shed as f64, attempted));
    m.push(Metric::one("server.err_count", err as f64, attempted));

    if kind == Kind::Read {
        // What a client with default ACK behaviour sees on a long reply
        // (see `Conn::connect`). Point reads in between: back-to-back long
        // replies keep the kernel in quick-ACK mode and hide the stall.
        let mut plain = Conn::connect_plain(rig.sut.child.addr)?;
        let point = &rig.pools[0]
            .iter()
            .find(|r| r.class == ReadClass::Point)
            .expect("pool has point reads")
            .line;
        let open = format!("QUERY {}\n", gen::goal_text(TcGoal::CutAll));
        let mut us = Vec::new();
        for _ in 0..scale(16).min(32) {
            plain.call(point, None)?;
            let t0 = Instant::now();
            let reply = plain.call(&open, None)?;
            us.push(t0.elapsed().as_secs_f64() * 1e6);
            failed += u64::from(reply.status != Status::Ok);
        }
        let n = us.len() as u64;
        m.push(Metric::one(
            "conn.read_open_plain_p50_us",
            quantile(&mut us, 0.5),
            n,
        ));
    }
    if kind == Kind::Write {
        let (recover_s, records, wrong) = recover(rig, &mut oracle)?;
        failed += wrong;
        m.push(Metric::one("serve.recover_ms", recover_s * 1e3, 1));
        m.push(Metric::one("serve.recover_wal_records", records as f64, 1));
    } else {
        rig.stop()?;
    }
    Ok((m, attempted, failed))
}
