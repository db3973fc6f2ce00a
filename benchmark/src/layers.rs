//! The traced run: per-layer metrics.
//!
//! For each workload the benchmark replays a shortened copy of the same
//! seeded sequence **in its own process**, calling each layer's public
//! functions itself with a span around every call (see `trace.rs`), once
//! with the recorder off and once with it on — the difference is the
//! tracing overhead. The TCP workloads first make a fixed-count untraced
//! pass over loopback for the deep tails, per-class medians and the load
//! generator's own cost (`serve_wl::diagnose`).
//!
//! Layer times are **mean self time per call**, so that they add up: for
//! `serve_read` and `serve_write` the layers of one request are summed and
//! compared with the same request through `serve_session` on an in-memory
//! pipe, and the remainder is reported as `*_unattributed_us`.

use crate::api::{self, EngineKind};
use crate::gen::{self, ReadClass, ReadReq, WritePair};
use crate::inproc::{self, Case};
use crate::oracle::{self, Graph, TcGoal};
use crate::serve_wl::{self, Kind};
use crate::trace::Tracer;
use crate::wire::TmpDir;
use crate::{spec, Metric, Outcome, Params};
use std::collections::{BTreeMap, BTreeSet};
use std::io::Cursor;
use std::sync::Arc;
use std::time::Instant;

type Layers = (Vec<Metric>, u64, u64);

pub fn run(p: &Params) -> std::io::Result<Outcome> {
    let mut tracer = Tracer::on();
    let (metrics, attempted, failed) = match p.workload {
        "serve_read" => serve_read(p, &mut tracer)?,
        "serve_write" => serve_write(p, &mut tracer)?,
        "serve_mixed" => serve_mixed(p, &mut tracer)?,
        "eval_positive" | "eval_negation" => eval(p, &mut tracer),
        "maintain_churn" => churn(p, &mut tracer),
        other => unreachable!("unknown workload {other}"),
    };
    std::fs::write(
        p.out.join(format!("trace-{}.json", p.workload)),
        tracer.to_json(),
    )?;
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

/// Mean self time per span, by name, in µs, with the span count.
struct SelfTimes(BTreeMap<&'static str, (u64, u64)>);

impl SelfTimes {
    fn of(tracer: &Tracer) -> SelfTimes {
        SelfTimes(tracer.self_times())
    }

    fn count(&self, span: &str) -> u64 {
        self.0.get(span).map_or(0, |e| e.0)
    }

    fn mean_us(&self, span: &str) -> f64 {
        match self.0.get(span) {
            Some(&(n, ns)) if n > 0 => ns as f64 / n as f64 / 1e3,
            _ => 0.0,
        }
    }

    /// Total self time of `span` divided by `per` calls (for a layer that
    /// only some requests enter, per request of any kind).
    fn us_per(&self, span: &str, per: u64) -> f64 {
        self.0.get(span).map_or(0.0, |e| e.1 as f64 / 1e3) / per.max(1) as f64
    }

    fn metric(&self, name: &'static str, span: &str) -> Metric {
        Metric::one(name, self.mean_us(span), self.count(span))
    }

    fn metric_scaled(&self, name: &'static str, span: &str, factor: f64) -> Metric {
        Metric::one(name, self.mean_us(span) * factor, self.count(span))
    }
}

fn value_of(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .map_or(0.0, Metric::value)
}

/// Whether `answer` is exactly `expected`, all of it true.
fn answer_is(answer: &api::QueryAnswer, expected: &BTreeSet<(u32, u32)>) -> bool {
    api::answer_pairs(answer) == (expected.clone(), 0)
}

/// The three overhead metrics from an untraced and a traced replay of the
/// same `requests` calls.
fn overhead(off_s: f64, on_s: f64, requests: u64) -> [Metric; 3] {
    let per = |s: f64| s * 1e6 / requests.max(1) as f64;
    [
        Metric::one("trace.untraced_request_us", per(off_s), requests),
        Metric::one("trace.request_us", per(on_s), requests),
        Metric::one("trace.overhead_share", (on_s - off_s) / off_s, requests),
    ]
}

/// Before the untraced twin is timed, this share of the sequence is
/// replayed untimed, so that the twin that happens to run first does not
/// also pay for first-touch page faults and cold caches.
const WARM_SHARE: usize = 8;

const SELECT_SPANS: [&str; 4] = [
    "epoch.select.point",
    "epoch.select.prefix",
    "epoch.select.cut",
    "epoch.select.open",
];

fn select_span(class: ReadClass) -> &'static str {
    SELECT_SPANS[class as usize]
}

/// Counts taken at the read path's layer boundaries.
#[derive(Default)]
struct ReadCounts {
    reads: u64,
    answer_rows: u64,
    relation_rows: u64,
    wrong: u64,
}

/// One read, layer by layer, the way `serve_session` strings them
/// together: parse the line, pin an epoch, select, format.
fn traced_read(
    t: &mut Tracer,
    epoch_of: &dyn Fn() -> Arc<api::Epoch>,
    req: &ReadReq,
    buf: &mut String,
    counts: &mut ReadCounts,
    check: Option<&BTreeSet<(u32, u32)>>,
) {
    t.next_request();
    t.span("request", |t| {
        let goal = t
            .span("proto.parse", |_| api::parse_request(req.line.trim_end()))
            .expect("a query line carries a goal");
        let epoch = t.span("epoch.pin", |_| epoch_of());
        let answer = t.span(select_span(req.class), |_| api::epoch_select(&epoch, &goal));
        t.span("conn.format", |_| {
            buf.clear();
            api::render_answer(&epoch, &goal.predicate, &answer, buf);
            std::hint::black_box(buf.len());
        });
        counts.reads += 1;
        counts.answer_rows += api::answer_len(&answer) as u64;
        counts.relation_rows += api::epoch_relation_len(&epoch, &goal.predicate) as u64;
        if let Some(expected) = check {
            counts.wrong += u64::from(!answer_is(&answer, expected));
        }
    });
}

fn read_metrics(times: &SelfTimes, counts: &ReadCounts) -> Vec<Metric> {
    let reads = counts.reads;
    let select_us: f64 = SELECT_SPANS.iter().map(|s| times.us_per(s, reads)).sum();
    vec![
        times.metric("proto.parse_us", "proto.parse"),
        times.metric_scaled("epoch.pin_ns", "epoch.pin", 1e3),
        times.metric("epoch.select_point_us", SELECT_SPANS[0]),
        times.metric("epoch.select_prefix_us", SELECT_SPANS[1]),
        times.metric("epoch.select_cut_us", SELECT_SPANS[2]),
        times.metric("epoch.select_open_us", SELECT_SPANS[3]),
        Metric::one("epoch.select_us", select_us, reads),
        times.metric("conn.format_us", "conn.format"),
        Metric::one(
            "epoch.answer_tuples_per_read",
            counts.answer_rows as f64 / reads.max(1) as f64,
            reads,
        ),
        Metric::one(
            "epoch.relation_tuples_per_answer",
            counts.relation_rows as f64 / counts.answer_rows.max(1) as f64,
            reads,
        ),
    ]
}

fn serve_read(p: &Params, tracer: &mut Tracer) -> std::io::Result<Layers> {
    let (mut m, mut attempted, mut failed) = serve_wl::diagnose(Kind::Read, p)?;
    let tmp = TmpDir::new(&p.out, "serve_read-layers")?;
    let data = gen::dagc8x128(p.seed);
    let db = api::graph_db("E", data.n, &data.edges);
    let program = api::parse_program(gen::TC_CUT);
    let server = api::server_create(&program, &db, &tmp.path().join("store"));
    let pool = gen::rmix(p.seed, 0, p.scaled(4000, 8));
    let graph = data.graph();
    let pin = || api::server_pin(&server);

    let mut buf = String::new();
    let mut replay = |t: &mut Tracer, take: usize| -> (f64, ReadCounts) {
        let mut counts = ReadCounts::default();
        let t0 = Instant::now();
        for (i, req) in pool.iter().enumerate().take(take) {
            // Open answers are checked once; the rest every 64th request.
            let check = (i % 64 == 0 && req.class != ReadClass::Open)
                .then(|| oracle::tc_cut_answer(&graph, req.goal));
            traced_read(t, &pin, req, &mut buf, &mut counts, check.as_ref());
        }
        (t0.elapsed().as_secs_f64(), counts)
    };
    replay(&mut Tracer::off(), pool.len() / WARM_SHARE);
    let (off_s, _) = replay(&mut Tracer::off(), pool.len());
    let (on_s, counts) = replay(tracer, pool.len());
    m.extend(overhead(off_s, on_s, counts.reads));

    // The same requests through the layers above these: `Server::query`
    // (admission + pin + select + unwind guard) and a whole session on an
    // in-memory pipe (everything but the socket).
    let mut sink: Vec<u8> = Vec::new();
    for req in &pool {
        tracer.next_request();
        let goal = api::parse_request(req.line.trim_end()).expect("query line");
        tracer.span("server.query", |_| {
            std::hint::black_box(api::server_query(&server, &goal));
        });
        tracer.span("conn.session.read", |_| {
            sink.clear();
            api::serve_session(&server, Cursor::new(req.line.as_bytes()), &mut sink);
        });
    }
    let open = api::server_query(&server, &api::parse_atom("Cut(x, y)"));
    let open_ok = answer_is(&open, &oracle::tc_cut_answer(&graph, TcGoal::CutAll));
    attempted += counts.reads + 1;
    failed += counts.wrong + u64::from(!open_ok);

    let times = SelfTimes::of(tracer);
    m.extend(read_metrics(&times, &counts));
    m.push(times.metric("server.query_us", "server.query"));
    let session = times.mean_us("conn.session.read");
    m.push(Metric::one("conn.session_read_us", session, counts.reads));
    let attributed = times.mean_us("proto.parse")
        + times.mean_us("epoch.pin")
        + value_of(&m, "epoch.select_us")
        + times.mean_us("conn.format");
    m.push(Metric::one(
        "conn.session_read_unattributed_us",
        session - attributed,
        counts.reads,
    ));
    // In-process sessions are timed as a mean; the socket's share is what
    // the mean TCP read adds to it.
    m.push(Metric::one(
        "conn.tcp_overhead_us",
        value_of(&m, "conn.read_mean_us") - session,
        counts.reads,
    ));
    Ok((m, attempted, failed))
}

/// The write path's own objects: a bare handle, a bare store, and the
/// epoch a server would be holding.
struct WriteRig {
    m: api::Materialized,
    store: api::Store,
    current: Arc<api::Epoch>,
    epoch: u64,
}

/// One write, layer by layer, in the order the writer thread does it:
/// parse, log first, repair, publish, drop the superseded epoch.
fn traced_write(t: &mut Tracer, rig: &mut WriteRig, insert: bool, pair: WritePair) {
    let line = gen::write_line(insert, pair);
    t.next_request();
    t.span("request", |t| {
        t.span("proto.parse", |_| api::parse_request(line.trim_end()));
        rig.epoch += 1;
        let epoch = rig.epoch;
        t.span("store.wal_append", |_| {
            api::store_append(&mut rig.store, epoch, insert, "E", pair.u, pair.v)
        });
        if insert {
            t.span("materialize.insert", |_| {
                api::mat_insert(&mut rig.m, "E", pair.u, pair.v)
            });
        } else {
            t.span("materialize.retract", |_| {
                api::mat_retract(&mut rig.m, "E", pair.u, pair.v)
            });
        }
        let next = t.span("materialize.publish", |_| api::mat_publish(&rig.m, epoch));
        let old = std::mem::replace(&mut rig.current, next);
        t.span("epoch.drop", |_| drop(old));
    });
}

fn newest_snapshot_bytes(dir: &std::path::Path) -> std::io::Result<u64> {
    let mut newest: Option<(String, u64)> = None;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("snapshot-") && name.ends_with(".bin") {
            let len = entry.metadata()?.len();
            if newest.as_ref().is_none_or(|(n, _)| name > *n) {
                newest = Some((name, len));
            }
        }
    }
    Ok(newest.map_or(0, |(_, len)| len))
}

fn serve_write(p: &Params, tracer: &mut Tracer) -> std::io::Result<Layers> {
    let (mut m, mut attempted, mut failed) = serve_wl::diagnose(Kind::Write, p)?;
    let tmp = TmpDir::new(&p.out, "serve_write-layers")?;
    let data = gen::dagc8x128(p.seed);
    let graph = data.graph();
    let db = api::graph_db("E", data.n, &data.edges);
    let program = api::parse_program(gen::TC_CUT);
    let pairs = gen::wseq_dag(p.seed, &data, p.scaled(400, 8));
    let writes = 2 * pairs.len() as u64;

    // The bare layers: a handle, and a store opened on a fresh snapshot.
    let store_dir = tmp.path().join("store-bare");
    drop(api::durable_create(
        &program,
        &db,
        &store_dir,
        EngineKind::Stratified,
    ));
    let handle = tracer.span("materialize.new", |_| {
        api::mat_new(&program, &db, EngineKind::Stratified)
    });
    let (store, _) = api::store_open(&store_dir);
    let mut rig = WriteRig {
        current: api::mat_publish(&handle, 0),
        m: handle,
        store,
        epoch: 0,
    };
    let wal_before = api::store_wal_len(&rig.store);
    let replay = |t: &mut Tracer, rig: &mut WriteRig, take: usize| -> f64 {
        let t0 = Instant::now();
        for &pair in &pairs[..take] {
            traced_write(t, rig, true, pair);
            traced_write(t, rig, false, pair);
        }
        t0.elapsed().as_secs_f64()
    };
    replay(&mut Tracer::off(), &mut rig, pairs.len() / WARM_SHARE);
    let off_s = replay(&mut Tracer::off(), &mut rig, pairs.len());
    let on_s = replay(tracer, &mut rig, pairs.len());
    m.extend(overhead(off_s, on_s, writes));
    let appended = rig.epoch;
    let wal_bytes = (api::store_wal_len(&rig.store) - wal_before) as f64 / appended as f64;
    failed += u64::from(!inproc::tc_cut_model_ok(&rig.m, &graph));
    let records = rig.epoch as usize;
    drop(rig);
    let reopened = tracer.span("store.open", |_| api::store_open(&store_dir));
    failed += u64::from(reopened.1 != records);
    drop(reopened);

    // The durable handle: append + repair as one call, then recovery.
    let durable_dir = tmp.path().join("store-durable");
    let mut d = api::durable_create(&program, &db, &durable_dir, EngineKind::Stratified);
    for &pair in &pairs {
        tracer.span("durable.insert", |_| {
            api::durable_insert(&mut d, "E", pair.u, pair.v)
        });
        tracer.span("durable.retract", |_| {
            api::durable_retract(&mut d, "E", pair.u, pair.v)
        });
    }
    drop(d);
    let t0 = Instant::now();
    let mut d = tracer.span("durable.open", |_| {
        api::durable_open(&program, &durable_dir, EngineKind::Stratified)
    });
    let open_with_wal_s = t0.elapsed().as_secs_f64();
    failed += u64::from(
        api::durable_epoch(&d) != writes
            || !inproc::tc_cut_model_ok(api::durable_handle(&d), &graph),
    );
    tracer.span("store.compact", |_| api::durable_compact(&mut d));
    let model_tuples = api::mat_total_tuples(api::durable_handle(&d)) + data.edges.len();
    drop(d);
    let snapshot_bytes = newest_snapshot_bytes(&durable_dir)?;
    let t0 = Instant::now();
    let d = api::durable_open(&program, &durable_dir, EngineKind::Stratified);
    let open_compacted_s = t0.elapsed().as_secs_f64();
    failed += u64::from(api::durable_epoch(&d) != writes);
    drop(d);

    // The server: queue hop + durable + publish + ack, then whole sessions.
    let server = api::server_create(&program, &db, &tmp.path().join("store-server"));
    for &pair in &pairs {
        tracer.span("server.insert", |_| {
            api::server_insert(&server, "E", pair.u, pair.v)
        });
        tracer.span("server.retract", |_| {
            api::server_retract(&server, "E", pair.u, pair.v)
        });
    }
    let mut sink: Vec<u8> = Vec::new();
    for &pair in &pairs {
        for insert in [true, false] {
            let line = gen::write_line(insert, pair);
            tracer.span("conn.session.write", |_| {
                sink.clear();
                api::serve_session(&server, Cursor::new(line.as_bytes()), &mut sink);
            });
            failed += u64::from(!sink.starts_with(b"OK epoch="));
        }
    }
    for (goal, text) in [(TcGoal::SAll, "S(x, y)"), (TcGoal::CutAll, "Cut(x, y)")] {
        let answer = api::server_query(&server, &api::parse_atom(text));
        failed += u64::from(!answer_is(&answer, &oracle::tc_cut_answer(&graph, goal)));
    }
    attempted += 6 * writes;

    let times = SelfTimes::of(tracer);
    for (name, span) in [
        ("proto.parse_us", "proto.parse"),
        ("store.wal_append_us", "store.wal_append"),
        ("materialize.insert_us", "materialize.insert"),
        ("materialize.retract_us", "materialize.retract"),
        ("materialize.publish_us", "materialize.publish"),
        ("epoch.drop_us", "epoch.drop"),
        ("durable.insert_us", "durable.insert"),
        ("durable.retract_us", "durable.retract"),
        ("server.insert_us", "server.insert"),
        ("server.retract_us", "server.retract"),
        ("conn.session_write_us", "conn.session.write"),
    ] {
        m.push(times.metric(name, span));
    }
    for (name, span) in [
        ("materialize.new_ms", "materialize.new"),
        ("store.open_ms", "store.open"),
        ("durable.open_ms", "durable.open"),
        ("store.compact_ms", "store.compact"),
    ] {
        m.push(times.metric_scaled(name, span, 1e-3));
    }
    m.push(Metric::one(
        "store.wal_bytes_per_write",
        wal_bytes,
        appended,
    ));
    m.push(Metric::one(
        "store.snapshot_bytes",
        snapshot_bytes as f64,
        1,
    ));
    m.push(Metric::one(
        "store.snapshot_bytes_per_tuple",
        snapshot_bytes as f64 / model_tuples as f64,
        model_tuples as u64,
    ));
    m.push(Metric::one(
        "durable.replay_us_per_record",
        (open_with_wal_s - open_compacted_s) * 1e6 / writes as f64,
        writes,
    ));
    m.push(Metric::one(
        "server.queue_hop_us",
        times.mean_us("server.insert")
            - times.mean_us("durable.insert")
            - times.mean_us("materialize.publish"),
        writes / 2,
    ));
    let repair = (times.mean_us("materialize.insert") + times.mean_us("materialize.retract")) / 2.0;
    let attributed = times.mean_us("proto.parse")
        + times.mean_us("store.wal_append")
        + repair
        + times.mean_us("materialize.publish")
        + times.mean_us("epoch.drop");
    m.push(Metric::one(
        "conn.session_write_unattributed_us",
        times.mean_us("conn.session.write") - attributed,
        writes,
    ));
    Ok((m, attempted, failed))
}

/// Reads answered from each freshly published epoch.
const READS_PER_EPOCH: usize = 12;

fn serve_mixed(p: &Params, tracer: &mut Tracer) -> std::io::Result<Layers> {
    let (mut m, mut attempted, mut failed) = serve_wl::diagnose(Kind::Mixed, p)?;
    let data = gen::dagc8x128(p.seed);
    let mut graph = data.graph();
    let db = api::graph_db("E", data.n, &data.edges);
    let program = api::parse_program(gen::TC_CUT);
    let pairs = gen::wseq_dag(p.seed, &data, p.scaled(200, 8));
    let pool = gen::rmix(p.seed, 0, 2 * READS_PER_EPOCH * pairs.len());

    // A new epoch every write and a dozen reads on it before the next one
    // — the rhythm of the TCP workload — so whatever a read does once per
    // epoch is paid here as often as there.
    let mut handle = api::mat_new(&program, &db, EngineKind::Stratified);
    let mut buf = String::new();
    let mut replay = |t: &mut Tracer, graph: &mut Graph, take: usize| -> (f64, ReadCounts) {
        let mut counts = ReadCounts::default();
        let mut current = api::mat_publish(&handle, 0);
        let mut reads = pool.iter().enumerate();
        let t0 = Instant::now();
        for (i, &pair) in pairs.iter().enumerate().take(take) {
            for insert in [true, false] {
                t.next_request();
                t.span("request", |t| {
                    if insert {
                        t.span("materialize.insert", |_| {
                            api::mat_insert(&mut handle, "E", pair.u, pair.v)
                        });
                        graph.add_edge(pair.u, pair.v);
                    } else {
                        t.span("materialize.retract", |_| {
                            api::mat_retract(&mut handle, "E", pair.u, pair.v)
                        });
                        graph.remove_edge(pair.u, pair.v);
                    }
                    let number = (2 * i + usize::from(!insert) + 1) as u64;
                    let next = t.span("materialize.publish", |_| api::mat_publish(&handle, number));
                    let old = std::mem::replace(&mut current, next);
                    t.span("epoch.drop", |_| drop(old));
                });
                let pin = || Arc::clone(&current);
                for (k, req) in reads.by_ref().take(READS_PER_EPOCH) {
                    let check = (k % 64 == 0 && req.class != ReadClass::Open)
                        .then(|| oracle::tc_cut_answer(graph, req.goal));
                    traced_read(t, &pin, req, &mut buf, &mut counts, check.as_ref());
                }
            }
        }
        (t0.elapsed().as_secs_f64(), counts)
    };
    replay(&mut Tracer::off(), &mut graph, pairs.len() / WARM_SHARE);
    let (off_s, _) = replay(&mut Tracer::off(), &mut graph, pairs.len());
    let (on_s, counts) = replay(tracer, &mut graph, pairs.len());
    let writes = 2 * pairs.len() as u64;
    m.extend(overhead(off_s, on_s, counts.reads + writes));
    attempted += counts.reads + writes;
    failed += counts.wrong + u64::from(!inproc::tc_cut_model_ok(&handle, &graph));

    let times = SelfTimes::of(tracer);
    m.extend(read_metrics(&times, &counts));
    for (name, span) in [
        ("materialize.insert_us", "materialize.insert"),
        ("materialize.retract_us", "materialize.retract"),
        ("materialize.publish_us", "materialize.publish"),
        ("epoch.drop_us", "epoch.drop"),
    ] {
        m.push(times.metric(name, span));
    }
    Ok((m, attempted, failed))
}

/// The declared per-case metric `<family>.<case>`; its name doubles as
/// the span name.
fn case_metric(family: &str, case: &Case) -> &'static str {
    spec::find(&format!("{family}.{}", case.name))
        .expect("every case has its per-layer metrics declared")
        .name
}

/// One case, layer by layer: parse, the plain engine call (which compiles
/// and builds its context inside), then compile and context on their own
/// and one full application of Θ over the final model — the VM scanning,
/// probing and emitting with every emit a duplicate.
fn traced_case(t: &mut Tracer, case: &Case) -> api::Model {
    let (run, apply) = (
        case_metric("eval.run_ms", case),
        case_metric("eval.apply_full_ms", case),
    );
    t.next_request();
    t.span("request", |t| {
        let program = t.span("syntax.parse_program", |_| api::parse_program(&case.src));
        let model = t.span(run, |_| api::run_engine(case.kind, &program, &case.db));
        let cp = t.span("eval.compile", |_| api::compile(&program, &case.db));
        let ctx = t.span("eval.context", |_| api::context(&cp, &case.db));
        t.span(apply, |_| {
            std::hint::black_box(api::apply_theta(&cp, &ctx, &model.truths));
        });
        model
    })
}

fn eval(p: &Params, tracer: &mut Tracer) -> Layers {
    let (cases, _) = inproc::eval_cases(p.workload, p.seed);
    let passes = p.scaled(24, 8);
    let mut last = Vec::new();
    let mut replay = |t: &mut Tracer, passes: usize| -> f64 {
        let t0 = Instant::now();
        for _ in 0..passes {
            last.clear();
            for c in &cases {
                last.push(traced_case(t, c));
            }
        }
        t0.elapsed().as_secs_f64()
    };
    replay(&mut Tracer::off(), passes.div_ceil(WARM_SHARE));
    let off_s = replay(&mut Tracer::off(), passes);
    let on_s = replay(tracer, passes);
    let requests = (passes * cases.len()) as u64;
    let mut m: Vec<Metric> = overhead(off_s, on_s, requests).into();
    let times = SelfTimes::of(tracer);
    m.push(times.metric("syntax.parse_program_us", "syntax.parse_program"));
    m.push(times.metric("eval.compile_us", "eval.compile"));
    m.push(times.metric("eval.context_us", "eval.context"));
    let mut failed = 0;
    for (c, model) in cases.iter().zip(&last) {
        for family in ["eval.run_ms", "eval.apply_full_ms"] {
            let name = case_metric(family, c);
            m.push(times.metric_scaled(name, name, 1e-3));
        }
        m.push(Metric::one(
            case_metric("eval.rounds", c),
            model.rounds as f64,
            1,
        ));
        m.push(Metric::one(
            case_metric("eval.model_tuples", c),
            model.tuples() as f64,
            1,
        ));
        failed += u64::from(!inproc::model_is_correct(c, model));
    }
    (m, 2 * requests, failed)
}

fn churn(p: &Params, tracer: &mut Tracer) -> Layers {
    let churn = inproc::churn_inputs(p.seed);
    let pairs = &churn.pairs[..p.scaled(40, 8).min(churn.pairs.len())];
    let mut handle = None;
    for _ in 0..3 {
        handle = Some(tracer.span("materialize.new", |_| {
            api::mat_new(&churn.program, &churn.db, EngineKind::Stratified)
        }));
    }
    let mut handle = handle.expect("built three times");
    let mut replay = |t: &mut Tracer, take: usize| -> f64 {
        let t0 = Instant::now();
        for pair in &pairs[..take] {
            t.next_request();
            t.span("materialize.insert", |_| {
                api::mat_insert(&mut handle, "E", pair.u, pair.v)
            });
            t.next_request();
            t.span("materialize.retract", |_| {
                api::mat_retract(&mut handle, "E", pair.u, pair.v)
            });
        }
        t0.elapsed().as_secs_f64()
    };
    replay(&mut Tracer::off(), pairs.len().div_ceil(WARM_SHARE));
    let off_s = replay(&mut Tracer::off(), pairs.len());
    let on_s = replay(tracer, pairs.len());
    let writes = 2 * pairs.len() as u64;
    let mut failed = u64::from(!inproc::tc_cut_model_ok(&handle, &churn.data.graph()));

    // ROADMAP: "Restart over a warm context should not lose to cold". The
    // well-founded engine repairs a non-stratifiable program by restarting;
    // the same single-fact updates against a cold evaluation of the same
    // program.
    let game = gen::gnp96(p.seed);
    let game_db = api::graph_db("Move", game.n, &game.edges);
    let game_program = api::parse_program(gen::WIN_REACH);
    let mut wf = api::mat_new(&game_program, &game_db, EngineKind::WellFounded);
    failed += u64::from(!api::mat_uses_restart(&wf));
    let moves = gen::wseq_any(p.seed, &game, p.scaled(40, 8));
    let mut board = game.graph();
    for (i, mv) in moves.iter().enumerate() {
        tracer.span("materialize.restart_update", |_| {
            api::mat_insert(&mut wf, "Move", mv.u, mv.v)
        });
        if i == 0 {
            board.add_edge(mv.u, mv.v);
            failed += u64::from(!game_model_ok(&wf, &board));
            board.remove_edge(mv.u, mv.v);
        }
        tracer.span("materialize.restart_update", |_| {
            api::mat_retract(&mut wf, "Move", mv.u, mv.v)
        });
        tracer.span("materialize.restart_recompute", |_| {
            std::hint::black_box(api::run_engine(
                EngineKind::WellFounded,
                &game_program,
                &game_db,
            ));
        });
    }
    failed += u64::from(!game_model_ok(&wf, &board));

    let times = SelfTimes::of(tracer);
    let mut m: Vec<Metric> = overhead(off_s, on_s, writes).into();
    m.push(times.metric_scaled("materialize.new_ms", "materialize.new", 1e-3));
    m.push(times.metric("materialize.insert_us", "materialize.insert"));
    m.push(times.metric("materialize.retract_us", "materialize.retract"));
    m.push(Metric::one(
        "materialize.retract_over_recompute",
        times.mean_us("materialize.retract") / times.mean_us("materialize.new"),
        pairs.len() as u64,
    ));
    m.push(times.metric(
        "materialize.restart_update_us",
        "materialize.restart_update",
    ));
    m.push(times.metric(
        "materialize.restart_recompute_us",
        "materialize.restart_recompute",
    ));
    (m, 2 * writes + 3 * moves.len() as u64, failed)
}

/// Whether a well-founded handle over the win/reach game holds exactly the
/// retrograde solver's three-valued model of `board`.
fn game_model_ok(wf: &api::Materialized, board: &Graph) -> bool {
    oracle::win_reach_model(board)
        .matches(&api::mat_tuples(wf, "Win"), &api::mat_tuples(wf, "Safe"))
}
