//! Protocol sessions end to end over in-memory transports: every request
//! kind, the reply grammar and its exact bytes, typed error rendering,
//! bounded request lines, per-connection deadlines, how replies are
//! batched into writes, and graceful shutdown.

use inflog_core::graphs::DiGraph;
use inflog_core::{Database, Tuple};
use inflog_eval::materialize::Engine;
use inflog_serve::conn::MAX_REQUEST_LINE;
use inflog_serve::{serve_session, QueryReply, ServeOptions, Server};
use inflog_syntax::parse_atom;
use std::collections::VecDeque;
use std::io::{self, Cursor, Read, Write};
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
    run_bytes(server, script.as_bytes())
}

fn run_bytes(server: &Server, input: &[u8]) -> (Vec<String>, bool) {
    let mut out = Vec::new();
    let outcome = serve_session(server, input, &mut out).unwrap();
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
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writes.push(buf.len());
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A transport that hands the session one chunk per `read`, the way bytes
/// arrive on a socket.
struct Chunks(VecDeque<Vec<u8>>);

impl Chunks {
    /// One request line per `read`: a closed-loop client, whose next
    /// request arrives only after the session has asked for more input.
    fn trickle(script: &str) -> Chunks {
        Chunks(script.split_inclusive('\n').map(|l| l.into()).collect())
    }
}

impl Read for Chunks {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let Some(chunk) = self.0.front_mut() else {
            return Ok(0);
        };
        let n = chunk.len().min(buf.len());
        buf[..n].copy_from_slice(&chunk[..n]);
        chunk.drain(..n);
        if chunk.is_empty() {
            self.0.pop_front();
        }
        Ok(n)
    }
}

/// Runs a session reading `input` against TC over a path of `n` vertices;
/// returns the size of every write the transport saw and the `OK` lines.
fn writes_of(name: &str, n: usize, input: impl Read) -> (Vec<usize>, Vec<String>) {
    let program = inflog_syntax::parse_program(TC).unwrap();
    let db = DiGraph::path(n).to_database("E");
    let server = Server::create(&program, &db, &tmp_dir(name), &ServeOptions::quiet()).unwrap();
    let mut out = CountingWriter::default();
    serve_session(&server, input, &mut out).unwrap();
    let text = String::from_utf8(out.bytes).unwrap();
    let oks = text
        .lines()
        .filter(|l| l.starts_with("OK"))
        .map(String::from);
    (out.writes, oks.collect())
}

const FOUR_REQUESTS: &str = "QUERY S(x, y)\nPING\nQUERY S('v0', y)\nQUERY S(x, x)\n";

fn four_oks() -> [String; 4] {
    [
        format!("OK true={} undef=0", 48 * 47 / 2),
        "OK pong".into(),
        "OK true=47 undef=0".into(),
        "OK true=0 undef=0".into(),
    ]
}

#[test]
fn each_reply_is_one_write() {
    let (writes, oks) = writes_of("session_one_write", 48, Chunks::trickle(FOUR_REQUESTS));
    assert_eq!(writes.len(), 4, "one write per request: {writes:?}");
    assert!(writes[0] > 8 * 1024, "the open answer outgrows 8 KiB");
    assert_eq!(oks, four_oks());
}

#[test]
fn pipelined_requests_share_one_write() {
    // All four requests are buffered before the first reply is rendered,
    // so their replies leave together.
    let input = Cursor::new(FOUR_REQUESTS);
    let (writes, oks) = writes_of("session_pipelined", 48, input);
    assert_eq!(
        writes.len(),
        1,
        "one write for four pipelined replies: {writes:?}"
    );
    assert_eq!(oks, four_oks());
}

#[test]
fn a_partial_next_line_does_not_hold_a_reply_back() {
    // The input buffer holds the start of the next request, but not all
    // of it: the finished reply must go out before the session waits.
    let chunks = Chunks(VecDeque::from([b"PING\nPI".to_vec(), b"NG\n".to_vec()]));
    let (writes, oks) = writes_of("session_partial", 4, chunks);
    assert_eq!(writes, [8, 8], "one write per reply");
    assert_eq!(oks, ["OK pong", "OK pong"]);
}

#[test]
fn a_reply_past_the_buffer_goes_out_in_bounded_writes() {
    let script = Chunks::trickle("QUERY S(x, y)\nPING\n");
    let (writes, oks) = writes_of("session_long_reply", 160, script);
    let reply: usize = writes[..writes.len() - 1].iter().sum();
    assert!(reply > 128 * 1024, "{reply} bytes");
    assert!(writes.iter().all(|&w| w <= 128 * 1024), "{writes:?}");
    assert_eq!(writes.len(), reply.div_ceil(128 * 1024) + 1, "{writes:?}");
    assert_eq!(oks, ["OK true=12720 undef=0", "OK pong"]);
}

#[test]
fn an_over_long_request_line_closes_the_connection() {
    let server = server("session_long_line", &ServeOptions::quiet());
    // A line of exactly the cap is served; one byte more is refused and
    // nothing after it is read.
    let ping_of = |len: usize| format!("PING{}", " ".repeat(len - 4));
    let (at_cap, past_cap) = (ping_of(MAX_REQUEST_LINE), ping_of(MAX_REQUEST_LINE + 1));
    let (lines, shutdown) = run(&server, &format!("{at_cap}\n{past_cap}\nPING\n"));
    assert!(!shutdown);
    assert_eq!(lines.len(), 2, "{lines:?}");
    assert_eq!(lines[0], "OK pong");
    assert!(
        lines[1].starts_with("ERR protocol: request line longer than 65536 bytes"),
        "{}",
        lines[1]
    );
    // An endless line with no newline at all ends the same way.
    let endless = "Q".repeat(4 * MAX_REQUEST_LINE);
    let (lines, _) = run(&server, &endless);
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert!(lines[0].starts_with("ERR protocol: "), "{}", lines[0]);
}

#[test]
fn a_non_utf8_request_line_is_a_protocol_error_not_the_end() {
    let server = server("session_non_utf8", &ServeOptions::quiet());
    let (lines, shutdown) = run_bytes(&server, b"PING\nQUERY S('\xff', y)\nPING\n");
    assert!(!shutdown);
    assert_eq!(
        lines,
        [
            "OK pong",
            "ERR protocol: request line is not UTF-8",
            "OK pong"
        ]
    );
}

/// Renders the reply to `QUERY goal` from the server's own answer with
/// `format!`, independently of the session's row writer.
fn expected_reply(server: &Server, goal: &str) -> Vec<String> {
    let atom = parse_atom(goal).unwrap();
    let QueryReply { epoch, answer } = server.query(&atom, None).unwrap();
    let universe = server.universe();
    let row = |tag: &str, t: &Tuple| {
        let names: Vec<&str> = t
            .items()
            .iter()
            .map(|&c| universe.name(c).unwrap())
            .collect();
        format!("{tag} {}({})", atom.predicate, names.join(", "))
    };
    let mut lines = vec![format!("EPOCH {}", epoch.number())];
    lines.extend(answer.tuples.iter().map(|t| row("TRUE", t)));
    lines.extend(answer.undefined.iter().map(|t| row("UNDEF", t)));
    lines.push(format!(
        "OK true={} undef={}",
        answer.tuples.len(),
        answer.undefined.len()
    ));
    lines
}

/// Serves every goal in one session and checks the reply line for line
/// against [`expected_reply`]; returns the reply lines.
fn replies_match(
    name: &str,
    program: &str,
    db: &Database,
    engine: Engine,
    goals: &[&str],
) -> Vec<String> {
    let program = inflog_syntax::parse_program(program).unwrap();
    let opts = ServeOptions {
        engine,
        ..ServeOptions::quiet()
    };
    let server = Server::create(&program, db, &tmp_dir(name), &opts).unwrap();
    let script: String = goals.iter().map(|g| format!("QUERY {g}\n")).collect();
    let (lines, _) = run(&server, &script);
    let want: Vec<String> = goals
        .iter()
        .flat_map(|g| expected_reply(&server, g))
        .collect();
    assert_eq!(lines, want);
    lines
}

#[test]
fn reply_bytes_match_an_independent_renderer() {
    // A 3-cycle, a tail off it, and a 2-cycle at the tail's end.
    let edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 4)];
    let db = DiGraph::from_edges(6, edges).to_database("E");
    let rows = |lines: &[String], tag: &str| lines.iter().filter(|l| l.starts_with(tag)).count();

    // Arity 2: point (hit and miss), prefix on each column, a repeated
    // variable, open, and EDB goals.
    let lines = replies_match(
        "session_diff_tc",
        TC,
        &db,
        Engine::Seminaive,
        &[
            "S('v0', 'v3')",
            "S('v5', 'v0')",
            "S('v2', y)",
            "S(x, 'v4')",
            "S(x, x)",
            "S(x, y)",
            "E(x, y)",
            "E('v2', y)",
        ],
    );
    assert!(rows(&lines, "TRUE ") > 30, "{lines:?}");

    // Arity 1: reachability from one constant.
    let reach = "R(x) :- E('v3', x). R(x) :- R(y), E(y, x).";
    replies_match(
        "session_diff_reach",
        reach,
        &db,
        Engine::Seminaive,
        &["R(x)", "R('v5')", "R('v0')"],
    );

    // Arity 3: two-step paths, bound on each column and repeated.
    let two_step = "P(x, y, z) :- E(x, y), E(y, z).";
    let lines = replies_match(
        "session_diff_two_step",
        two_step,
        &db,
        Engine::Seminaive,
        &[
            "P(x, y, z)",
            "P('v2', y, z)",
            "P(x, 'v0', z)",
            "P(x, y, 'v4')",
            "P(x, y, x)",
            "P('v0', 'v1', 'v2')",
        ],
    );
    assert!(
        lines.contains(&"TRUE P(v4, v5, v4)".to_string()),
        "{lines:?}"
    );
    // A variable repeated after a constant: `P('v4', y, y)` asks for a
    // two-step path from v4 whose middle vertex has a self-loop, and E has
    // none, so `P(v4, v5, v4)` must not match.
    let lines = replies_match(
        "session_diff_repeat_after_constant",
        two_step,
        &db,
        Engine::Seminaive,
        &["P('v4', y, y)", "P('v2', y, y)"],
    );
    assert_eq!(rows(&lines, "TRUE "), 0, "{lines:?}");

    // Well-founded: the 2-cycle v0 <-> v1 is drawn (UNDEF), and so is v5,
    // whose only move is into it; the path v2 -> v3 -> v4 is decided.
    let moves = [(0, 1), (1, 0), (2, 3), (3, 4), (5, 0)];
    let game = DiGraph::from_edges(6, moves).to_database("Move");
    let lines = replies_match(
        "session_diff_win",
        "Win(x) :- Move(x, y), !Win(y).",
        &game,
        Engine::WellFounded,
        &[
            "Win(x)",
            "Win('v3')",
            "Win('v5')",
            "Win('v4')",
            "Move(x, y)",
        ],
    );
    assert_eq!(rows(&lines, "UNDEF "), 4, "{lines:?}");
    assert!(lines.contains(&"TRUE Win(v3)".to_string()), "{lines:?}");
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
