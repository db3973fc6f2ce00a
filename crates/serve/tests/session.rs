//! Protocol sessions end to end over in-memory transports: every request
//! kind, the reply grammar, typed error rendering, per-connection
//! deadlines, and graceful shutdown.

use inflog_core::graphs::DiGraph;
use inflog_eval::materialize::Engine;
use inflog_serve::{serve_session, ServeOptions, Server};
use inflog_syntax::parse_atom;
use std::io::{Cursor, Write};
use std::path::PathBuf;
use std::time::Duration;

const TC: &str = "S(x, y) :- E(x, y). S(x, y) :- E(x, z), S(z, y).";

fn tmp_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn server(name: &str, opts: &ServeOptions) -> Server {
    let program = inflog_syntax::parse_program(TC).unwrap();
    let db = DiGraph::path(4).to_database("E");
    Server::create(&program, &db, &tmp_dir(name), opts).unwrap()
}

fn run(server: &Server, script: &str) -> (Vec<String>, bool) {
    let mut out = Vec::new();
    let outcome = serve_session(server, Cursor::new(script.to_string()), &mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    (text.lines().map(str::to_string).collect(), outcome.shutdown)
}

#[test]
fn scripted_session_covers_the_protocol() {
    let server = server("session_full", &ServeOptions::quiet());
    let (lines, shutdown) = run(
        &server,
        "# a comment and a blank line are ignored\n\
         \n\
         PING\n\
         EPOCH\n\
         QUERY S('v0', y)\n\
         INSERT E('v3', 'v0')\n\
         EPOCH\n\
         QUERY S('v3', 'v1')\n\
         RETRACT E('v3', 'v0')\n\
         QUERY S('v3', 'v1')\n",
    );
    assert!(!shutdown);
    assert_eq!(
        lines,
        vec![
            "OK pong",
            "OK epoch=0",
            // Path v0->v1->v2->v3: S('v0', y) = {v1, v2, v3}, sorted.
            "EPOCH 0",
            "TRUE S(v0, v1)",
            "TRUE S(v0, v2)",
            "TRUE S(v0, v3)",
            "OK true=3 undef=0",
            "OK epoch=1 changed=1",
            "OK epoch=1",
            // The inserted back-edge closes the cycle: v3 reaches v1.
            "EPOCH 1",
            "TRUE S(v3, v1)",
            "OK true=1 undef=0",
            "OK epoch=2 changed=1",
            "EPOCH 2",
            "OK true=0 undef=0",
        ]
    );
}

#[test]
fn errors_are_rendered_not_fatal() {
    let server = server("session_errors", &ServeOptions::quiet());
    let (lines, shutdown) = run(
        &server,
        "FROBNICATE\n\
         QUERY S(x)\n\
         QUERY Nope(x)\n\
         QUERY S('nobody', y)\n\
         INSERT E(x, 'v0')\n\
         INSERT E('nobody', 'v0')\n\
         PING\n",
    );
    assert!(!shutdown);
    assert!(lines[0].starts_with("ERR protocol: unknown request"));
    assert!(lines[1].starts_with("ERR eval: "), "{}", lines[1]);
    assert!(lines[2].starts_with("ERR eval: "), "{}", lines[2]);
    assert!(lines[3].starts_with("ERR eval: "), "{}", lines[3]);
    assert!(lines[4].starts_with("ERR protocol: write atoms must be ground"));
    assert!(lines[5].starts_with("ERR protocol: unknown constant"));
    // The session survived six failures in a row.
    assert_eq!(lines[6], "OK pong");
}

#[test]
fn per_connection_deadline_overrides_the_default() {
    // A zero default deadline trips every query...
    let opts = ServeOptions {
        query_deadline: Some(Duration::ZERO),
        ..ServeOptions::quiet()
    };
    let server = server("session_deadline", &opts);
    let (lines, _) = run(
        &server,
        "QUERY S(x, y)\n\
         DEADLINE 60000\n\
         QUERY S('v0', 'v1')\n\
         DEADLINE off\n\
         QUERY S('v0', 'v1')\n",
    );
    assert!(
        lines[0].starts_with("ERR deadline: "),
        "default deadline did not trip: {}",
        lines[0]
    );
    // ...a generous per-connection override lets the query through...
    assert_eq!(lines[1], "OK deadline=60000");
    assert_eq!(lines[2], "EPOCH 0");
    assert_eq!(lines[3], "TRUE S(v0, v1)");
    assert_eq!(lines[4], "OK true=1 undef=0");
    // ...and `off` clears the deadline entirely.
    assert_eq!(lines[5], "OK deadline=off");
    assert_eq!(lines[6], "EPOCH 0");
}

#[test]
fn shutdown_drains_and_refuses_new_work() {
    let server = server("session_shutdown", &ServeOptions::quiet());
    let (lines, shutdown) = run(&server, "INSERT E('v3', 'v0')\nSHUTDOWN\n");
    assert_eq!(lines, vec!["OK epoch=1 changed=1", "OK draining"]);
    assert!(shutdown, "SHUTDOWN must propagate to the accept loop");
    server.shutdown();
    assert!(server.is_draining());
    // Post-drain requests get typed refusals, not hangs.
    let goal = parse_atom("S(x, y)").unwrap();
    let e = server.query(&goal, None).unwrap_err();
    assert_eq!(e.code(), "shutting-down");
    let e = server
        .insert(vec![(
            "E".to_string(),
            inflog_core::Tuple::from_ids(&[0, 2]),
        )])
        .unwrap_err();
    assert_eq!(e.code(), "shutting-down");
}

/// A transport that records the size of every `write` call it receives.
#[derive(Default)]
struct CountingWriter {
    writes: Vec<usize>,
    bytes: Vec<u8>,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes.push(buf.len());
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Runs `script` against TC over a path of `n` vertices; returns the size
/// of every write the transport saw and the `OK` lines.
fn writes_of(name: &str, n: usize, script: &str) -> (Vec<usize>, Vec<String>) {
    let program = inflog_syntax::parse_program(TC).unwrap();
    let db = DiGraph::path(n).to_database("E");
    let server = Server::create(&program, &db, &tmp_dir(name), &ServeOptions::quiet()).unwrap();
    let mut out = CountingWriter::default();
    serve_session(&server, Cursor::new(script.to_string()), &mut out).unwrap();
    let text = String::from_utf8(out.bytes).unwrap();
    let oks = text
        .lines()
        .filter(|l| l.starts_with("OK"))
        .map(String::from);
    (out.writes, oks.collect())
}

#[test]
fn each_reply_is_one_write() {
    let script = "QUERY S(x, y)\nPING\nQUERY S('v0', y)\nQUERY S(x, x)\n";
    let (writes, oks) = writes_of("session_one_write", 48, script);
    assert_eq!(writes.len(), 4, "one write per request: {writes:?}");
    assert!(writes[0] > 8 * 1024, "the open answer outgrows 8 KiB");
    let n = 48 * 47 / 2;
    let open = format!("OK true={n} undef=0");
    assert_eq!(
        oks,
        [&open, "OK pong", "OK true=47 undef=0", "OK true=0 undef=0"]
    );
}

#[test]
fn a_reply_past_the_buffer_goes_out_in_bounded_writes() {
    let (writes, oks) = writes_of("session_long_reply", 160, "QUERY S(x, y)\nPING\n");
    let reply: usize = writes[..writes.len() - 1].iter().sum();
    assert!(reply > 128 * 1024, "{reply} bytes");
    assert!(writes.iter().all(|&w| w <= 128 * 1024), "{writes:?}");
    assert_eq!(writes.len(), reply.div_ceil(128 * 1024) + 1, "{writes:?}");
    assert_eq!(oks, ["OK true=12720 undef=0", "OK pong"]);
}

#[test]
fn engine_flagged_server_serves_three_valued_answers() {
    // Win over a 2-cycle: both positions undefined in the well-founded
    // model; UNDEF lines carry them.
    let program = inflog_syntax::parse_program("Win(x) :- Move(x, y), !Win(y).").unwrap();
    let db = DiGraph::cycle(2).to_database("Move");
    let opts = ServeOptions {
        engine: Engine::WellFounded,
        ..ServeOptions::quiet()
    };
    let server = Server::create(&program, &db, &tmp_dir("session_wf"), &opts).unwrap();
    let (lines, _) = run(&server, "QUERY Win(x)\n");
    assert_eq!(
        lines,
        vec![
            "EPOCH 0",
            "UNDEF Win(v0)",
            "UNDEF Win(v1)",
            "OK true=0 undef=2",
        ]
    );
}
