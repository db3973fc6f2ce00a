//! Chaos harness for the serving layer: every `serve-*` failpoint site
//! driven in-process, the same scenarios driven from the environment (the
//! CI per-site passes), a store fault under a running server, and a real
//! `kill -9` of the serving binary mid-churn with recovery verified over
//! the line protocol.
//!
//! The recovery oracle is the paper's determinism: each committed epoch is
//! the unique model of its EDB, so the parent can replay the acknowledged
//! command prefix into a shadow handle and demand the recovered server's
//! replies match bit for bit.

use inflog_core::failpoints::{
    Failpoints, SERVE_SITES, SITE_EPOCH_PUBLISH, SITE_QUEUE_FULL, SITE_REPLY_DROP,
    SITE_WAL_TORN_WRITE, SITE_WRITER_CRASH,
};
use inflog_core::graphs::DiGraph;
use inflog_core::{Database, Tuple};
use inflog_eval::materialize::{MaterializeOpts, Materialized};
use inflog_eval::{EvalError, EvalOptions};
use inflog_serve::{serve_session, Load, ServeError, ServeOptions, Server};
use inflog_store::StoreError;
use inflog_syntax::{parse_atom, parse_program};
use std::io::{BufRead, BufReader, Cursor, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const TC: &str = "S(x, y) :- E(x, y). S(x, y) :- E(x, z), S(z, y).";

fn tmp_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Quiet server options with `fp` as the one failpoint arming.
fn armed_opts(fp: Failpoints) -> ServeOptions {
    ServeOptions {
        eval: EvalOptions {
            failpoints: fp,
            ..EvalOptions::sequential()
        },
        ..ServeOptions::quiet()
    }
}

fn edb_fact(a: u32, b: u32) -> (String, Tuple) {
    ("E".to_string(), Tuple::from_ids(&[a, b]))
}

/// The in-process chaos body for one serve site — also the target of the
/// env-driven CI passes, so the arming comes in as a parameter.
fn chaos_site(site: &str, fp: Failpoints) {
    let program = parse_program(TC).unwrap();
    let db = DiGraph::path(5).to_database("E");
    let dir = tmp_dir(&format!("chaos_{site}"));
    // Crash sites fire on the trigger-th write: ack trigger-1 writes first
    // so the scenario works for any arming (the env-driven CI pass uses 1).
    let trigger = fp.trigger().unwrap_or(1);
    let opts = armed_opts(fp);
    let goal = parse_atom("S(x, y)").unwrap();

    match site {
        s if s == SITE_QUEUE_FULL => {
            // Arm at trigger 1: the very first write sheds with the typed
            // Overloaded(Writer), and — one-shot — the retry commits.
            let server = Server::create(&program, &db, &dir, &opts).unwrap();
            let err = server.insert(vec![edb_fact(0, 2)]).unwrap_err();
            assert_eq!(err, ServeError::Overloaded(Load::Writer), "{site}");
            assert_eq!(server.epoch(), 0, "{site}: a shed write advanced the epoch");
            let ack = server.insert(vec![edb_fact(0, 2)]).unwrap();
            assert_eq!(ack.epoch, 1, "{site}: retry after shed");
            assert!(server.query(&goal, None).is_ok(), "{site}");
        }
        s if s == SITE_REPLY_DROP => {
            // The reply stream dies after the EPOCH header; the session
            // closes but the server keeps serving other connections.
            let server = Server::create(&program, &db, &dir, &opts).unwrap();
            let mut out = Vec::new();
            let outcome = serve_session(
                &server,
                Cursor::new("QUERY S(x, y)\nPING\n".to_string()),
                &mut out,
            )
            .unwrap();
            assert!(!outcome.shutdown, "{site}");
            let text = String::from_utf8(out).unwrap();
            assert_eq!(text, "EPOCH 0\n", "{site}: reply not torn after header");
            // A fresh "connection" sees the full reply.
            let mut out = Vec::new();
            serve_session(&server, Cursor::new("PING\n".to_string()), &mut out).unwrap();
            assert_eq!(String::from_utf8(out).unwrap(), "OK pong\n", "{site}");
            assert!(server.query(&goal, None).is_ok(), "{site}");
        }
        s if s == SITE_WRITER_CRASH => {
            // The trigger-th write kills the writer *before* the WAL
            // append. Recovery restores exactly the last ack.
            let server = Server::create(&program, &db, &dir, &opts).unwrap();
            let acked = ack_writes(&server, trigger - 1, site);
            let err = server.insert(vec![edb_fact(0, 4)]).unwrap_err();
            assert_eq!(
                err,
                ServeError::FaultInjected {
                    site: site.to_string()
                },
                "{site}"
            );
            degraded_then_recovers(&server, &dir, site, acked, acked);
        }
        s if s == SITE_EPOCH_PUBLISH => {
            // The trigger-th write is durable and applied but the writer
            // dies before the swap — the client never sees an ack, readers
            // keep the acked epoch, and recovery replays the orphan record
            // (last acked + 1).
            let server = Server::create(&program, &db, &dir, &opts).unwrap();
            let acked = ack_writes(&server, trigger - 1, site);
            let err = server.insert(vec![edb_fact(0, 4)]).unwrap_err();
            assert_eq!(
                err,
                ServeError::FaultInjected {
                    site: site.to_string()
                },
                "{site}"
            );
            degraded_then_recovers(&server, &dir, site, acked, acked + 1);
        }
        other => panic!("unregistered serve site {other:?} in chaos harness"),
    }
}

/// Commits `count` writes (distinct facts cycling over three targets) and
/// returns the last acked epoch.
fn ack_writes(server: &Server, count: u64, site: &str) -> u64 {
    for i in 1..=count {
        let ack = server
            .insert(vec![edb_fact(0, 2 + (i as u32 % 2))])
            .unwrap_or_else(|e| panic!("{site}: pre-crash write {i}: {e}"));
        assert_eq!(ack.epoch, i, "{site}");
    }
    count
}

/// After a writer death: reads keep serving the published epoch, writes
/// report the typed WriterDown (never hang), shutdown still drains — and a
/// reopen recovers `recovered` with a model that passes the determinism
/// oracle.
fn degraded_then_recovers(server: &Server, dir: &Path, site: &str, published: u64, recovered: u64) {
    let program = parse_program(TC).unwrap();
    let goal = parse_atom("S(x, y)").unwrap();
    // The writer is gone...
    assert!(!server.writer_alive(), "{site}: writer survived its crash");
    let err = server.insert(vec![edb_fact(1, 3)]).unwrap_err();
    assert_eq!(err, ServeError::WriterDown, "{site}");
    // ...but readers never noticed: the published epoch is the last ack.
    assert_eq!(server.epoch(), published, "{site}: published epoch moved");
    let reply = server.query(&goal, None).unwrap();
    assert_eq!(reply.epoch.number(), published, "{site}");
    assert!(
        reply
            .epoch
            .matches_recompute(&EvalOptions::default())
            .unwrap(),
        "{site}: degraded epoch fails the determinism oracle"
    );
    server.shutdown();

    let reopened = Server::open(&program, dir, &ServeOptions::quiet()).unwrap();
    assert_eq!(reopened.epoch(), recovered, "{site}: wrong recovered epoch");
    assert!(
        reopened
            .pin()
            .matches_recompute(&EvalOptions::default())
            .unwrap(),
        "{site}: recovered epoch fails the determinism oracle"
    );
    // The recovered server is immediately writable again.
    let ack = reopened.insert(vec![edb_fact(2, 0)]).unwrap();
    assert_eq!(ack.epoch, recovered + 1, "{site}");
}

#[test]
fn chaos_sweep_every_serve_site() {
    for site in SERVE_SITES {
        let trigger = match *site {
            s if s == SITE_WRITER_CRASH || s == SITE_EPOCH_PUBLISH => 3,
            _ => 1,
        };
        chaos_site(site, Failpoints::armed(site, trigger));
    }
}

/// Env-driven form for CI: `INFLOG_FAILPOINT=<serve site>[:<n>] cargo test
/// -p inflog-serve env_driven_serve_site -- --ignored` proves the env
/// plumbing end to end for each site.
#[test]
#[ignore]
fn env_driven_serve_site() {
    let fp = EvalOptions::default().failpoints;
    let site = fp
        .site()
        .expect("run with INFLOG_FAILPOINT set to a serve site");
    chaos_site(site, fp);
}

/// A store fault under a running server, armed through the server's one
/// failpoint field: the torn WAL append fails the write with the store's
/// typed error, the published epoch and its reads stay as they were, and a
/// reopen recovers exactly the last acked epoch.
#[test]
fn store_fault_under_a_server_fails_typed_and_recovers_the_last_ack() {
    let program = parse_program(TC).unwrap();
    let db = DiGraph::path(5).to_database("E");
    let dir = tmp_dir("chaos_store_torn_write");
    let site = SITE_WAL_TORN_WRITE;
    let server =
        Server::create(&program, &db, &dir, &armed_opts(Failpoints::armed(site, 2))).unwrap();
    let acked = ack_writes(&server, 1, site);
    let goal = parse_atom("S(x, y)").unwrap();
    let before = server.query(&goal, None).unwrap().answer;

    let err = server.insert(vec![edb_fact(0, 4)]).unwrap_err();
    assert!(
        matches!(
            &err,
            ServeError::Eval(EvalError::Store {
                source: StoreError::FaultInjected { .. }
            })
        ),
        "{err:?}"
    );
    assert_eq!(server.epoch(), acked, "a failed write advanced the epoch");
    let after = server.query(&goal, None).unwrap();
    assert_eq!(after.epoch.number(), acked);
    assert_eq!(after.answer, before, "a failed write changed the reads");
    drop(after);
    server.shutdown();

    let reopened = Server::open(&program, &dir, &ServeOptions::quiet()).unwrap();
    assert_eq!(reopened.epoch(), acked, "wrong recovered epoch");
    assert!(
        reopened
            .pin()
            .matches_recompute(&EvalOptions::sequential())
            .unwrap(),
        "recovered epoch fails the determinism oracle"
    );
}

// ---------------------------------------------------------------------------
// kill -9 the serving binary mid-churn over TCP, restart, verify recovery
// over the line protocol.
// ---------------------------------------------------------------------------

struct TcpClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl TcpClient {
    fn connect(addr: &str) -> Self {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        TcpClient {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").unwrap();
        self.writer.flush().unwrap();
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        line.trim_end().to_string()
    }
}

fn spawn_serve(dir: &Path, program: &Path, create: bool, facts: Option<&Path>) -> (Child, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_serve"));
    cmd.arg("--store")
        .arg(dir)
        .arg("--program")
        .arg(program)
        .arg("--listen")
        .arg("127.0.0.1:0")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .env_remove("INFLOG_FAILPOINT");
    if create {
        cmd.arg("--create");
        if let Some(facts) = facts {
            cmd.arg("--facts").arg(facts);
        }
    }
    let mut child = cmd.spawn().unwrap();
    let mut first = String::new();
    BufReader::new(child.stdout.as_mut().unwrap())
        .read_line(&mut first)
        .unwrap();
    let addr = first
        .trim()
        .strip_prefix("inflog-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {first:?}"))
        .to_string();
    (child, addr)
}

#[test]
fn kill_dash_nine_mid_churn_recovers_last_acked_epoch() {
    let dir = tmp_dir("kill9");
    let scratch = tmp_dir("kill9_files");
    std::fs::create_dir_all(&scratch).unwrap();
    let program_path = scratch.join("tc.dl");
    std::fs::write(&program_path, TC).unwrap();

    // The facts file fixes the universe interning order, so the parent's
    // shadow database (built through the same lines) is id-compatible.
    let fact_lines: Vec<String> = (0..5)
        .map(|i| format!("E('v{}', 'v{}').", i, (i + 1) % 5))
        .collect();
    let facts_path = scratch.join("edges.facts");
    std::fs::write(&facts_path, fact_lines.join("\n")).unwrap();
    let mut shadow_db = Database::new();
    for i in 0..5u32 {
        shadow_db
            .insert_named_fact("E", &[&format!("v{i}"), &format!("v{}", (i + 1) % 5)])
            .unwrap();
    }
    let n = shadow_db.universe_size() as u32;

    let (mut child, addr) = spawn_serve(&dir, &program_path, true, Some(&facts_path));
    let mut client = TcpClient::connect(&addr);
    client.send("PING");
    assert_eq!(client.recv(), "OK pong");

    // Churn: deterministic flips, recording each command and its ack. A
    // second connection reads concurrently to keep the epoch cell busy.
    let reader_addr = addr.clone();
    let reader = std::thread::spawn(move || {
        // Tolerates the SIGKILL landing mid-reply (empty line / io error);
        // until then every reply must be single-epoch well-formed.
        let stream = match TcpStream::connect(&reader_addr) {
            Ok(s) => s,
            Err(_) => return,
        };
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        'queries: for _ in 0..40 {
            if writeln!(writer, "QUERY S('v0', y)")
                .and_then(|()| writer.flush())
                .is_err()
            {
                return;
            }
            loop {
                let mut line = String::new();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => return,
                    Ok(_) => {}
                }
                let line = line.trim_end();
                if line.starts_with("OK ") {
                    continue 'queries;
                }
                assert!(
                    line.starts_with("EPOCH ")
                        || line.starts_with("TRUE ")
                        || line.starts_with("UNDEF "),
                    "malformed reply line {line:?}"
                );
            }
        }
    });

    let mut present: std::collections::BTreeSet<(u32, u32)> =
        (0..5).map(|i| (i, (i + 1) % 5)).collect();
    let mut commands: Vec<(bool, u32, u32)> = Vec::new();
    let mut last_acked = 0u64;
    const STEPS: u64 = 20;
    const KILL_AFTER: u64 = 13;
    for i in 1..=STEPS {
        let mut x = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        x ^= x >> 31;
        let (a, b) = ((x as u32) % n, ((x >> 32) as u32) % n);
        let insert = !present.contains(&(a, b));
        let verb = if insert { "INSERT" } else { "RETRACT" };
        client.send(&format!("{verb} E('v{a}', 'v{b}')"));
        let reply = client.recv();
        assert!(
            reply.starts_with(&format!("OK epoch={i} ")),
            "churn step {i}: {reply}"
        );
        commands.push((insert, a, b));
        if insert {
            present.insert((a, b));
        } else {
            present.remove(&(a, b));
        }
        last_acked = i;
        if i == KILL_AFTER {
            break;
        }
    }
    // SIGKILL: no drain, no flush, no goodbye.
    child.kill().unwrap();
    child.wait().unwrap();
    reader.join().unwrap();

    // Restart over the same directory and interrogate it over the protocol.
    let (mut child, addr) = spawn_serve(&dir, &program_path, false, None);
    let mut client = TcpClient::connect(&addr);
    client.send("EPOCH");
    let reply = client.recv();
    let recovered: u64 = reply
        .strip_prefix("OK epoch=")
        .unwrap_or_else(|| panic!("{reply}"))
        .parse()
        .unwrap();
    assert!(
        recovered == last_acked || recovered == last_acked + 1,
        "recovered epoch {recovered} vs last acked {last_acked}"
    );
    // With the kill landing between commits (not inside an append), the
    // recovery is exact.
    assert_eq!(recovered, last_acked, "phantom record after clean kill");

    // Replay the acked prefix into a shadow handle and compare the full
    // S-relation reply line by line.
    let program = parse_program(TC).unwrap();
    let mut shadow = Materialized::new(&program, &shadow_db, &MaterializeOpts::default()).unwrap();
    for &(insert, a, b) in commands.iter().take(recovered as usize) {
        let fact = [("E", Tuple::from_ids(&[a, b]))];
        if insert {
            shadow.insert(&fact).unwrap();
        } else {
            shadow.retract(&fact).unwrap();
        }
    }
    let epoch = shadow.publish(recovered).unwrap();
    let expected = epoch.select(&parse_atom("S(x, y)").unwrap(), None).unwrap();
    let universe = epoch.database().universe();

    client.send("QUERY S(x, y)");
    assert_eq!(client.recv(), format!("EPOCH {recovered}"));
    for t in &expected.tuples {
        assert_eq!(
            client.recv(),
            format!("TRUE {}", inflog_serve::render_tuple(universe, "S", t)),
            "recovered reply diverged from the acked-prefix replay"
        );
    }
    assert_eq!(
        client.recv(),
        format!("OK true={} undef=0", expected.tuples.len())
    );

    // And the recovered server still takes writes and shuts down cleanly.
    client.send("INSERT E('v0', 'v2')");
    let reply = client.recv();
    assert!(
        reply.starts_with(&format!("OK epoch={}", recovered + 1)),
        "{reply}"
    );
    client.send("SHUTDOWN");
    assert_eq!(client.recv(), "OK draining");
    let status = child.wait().unwrap();
    assert!(status.success(), "serve exited uncleanly after SHUTDOWN");
}

/// The binary's crash window end to end: an armed `serve-epoch-publish`
/// makes the `serve` process abort between WAL ack and epoch swap; restart
/// must recover last-acked + 1 (durable, unacked).
#[test]
fn abort_inside_publish_window_recovers_plus_one() {
    let dir = tmp_dir("abort_publish");
    let scratch = tmp_dir("abort_publish_files");
    std::fs::create_dir_all(&scratch).unwrap();
    let program_path = scratch.join("tc.dl");
    std::fs::write(&program_path, TC).unwrap();
    let facts_path = scratch.join("edges.facts");
    std::fs::write(&facts_path, "E('v0', 'v1').\nE('v1', 'v2').\n").unwrap();

    let mut cmd = Command::new(env!("CARGO_BIN_EXE_serve"));
    cmd.arg("--store")
        .arg(&dir)
        .arg("--program")
        .arg(&program_path)
        .arg("--create")
        .arg("--facts")
        .arg(&facts_path)
        .arg("--listen")
        .arg("127.0.0.1:0")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .env("INFLOG_FAILPOINT", format!("{SITE_EPOCH_PUBLISH}:2"));
    let mut child = cmd.spawn().unwrap();
    let mut banner = String::new();
    BufReader::new(child.stdout.as_mut().unwrap())
        .read_line(&mut banner)
        .unwrap();
    let addr = banner
        .trim()
        .strip_prefix("inflog-serve listening on ")
        .unwrap()
        .to_string();

    let mut client = TcpClient::connect(&addr);
    client.send("INSERT E('v2', 'v0')");
    let reply = client.recv();
    assert!(reply.starts_with("OK epoch=1 "), "{reply}");
    // The second write aborts the whole process inside the publish window:
    // durable, never acked, connection drops without a reply line.
    client.send("INSERT E('v0', 'v2')");
    assert_eq!(
        client.recv(),
        "",
        "expected a dropped connection, not a reply"
    );
    let status = child.wait().unwrap();
    assert!(!status.success(), "the abort failpoint did not kill serve");

    let program = parse_program(TC).unwrap();
    let recovered = Server::open(&program, &dir, &ServeOptions::quiet()).unwrap();
    assert_eq!(
        recovered.epoch(),
        2,
        "the durable-but-unacked record must replay"
    );
    assert!(recovered
        .pin()
        .matches_recompute(&EvalOptions::default())
        .unwrap());
}
