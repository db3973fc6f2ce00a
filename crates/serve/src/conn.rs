//! One client session over any byte transport (TCP socket, stdin/stdout
//! REPL, or an in-memory pipe in tests).
//!
//! The session reads request lines through its own input buffer into one
//! reused byte buffer, capped at [`MAX_REQUEST_LINE`] bytes. Replies are
//! rendered straight into one reply buffer — answer rows borrow each
//! constant's name from the universe, so a row allocates nothing — and the
//! buffer goes to the transport only when no complete request line is
//! waiting in the input. A closed-loop client gets one `write` per reply;
//! a client with N requests in flight gets their N replies in one.
//!
//! Each request is handled under its own `catch_unwind`, so a panic in the
//! protocol layer closes *this* connection with a final `ERR panic` line
//! and leaves the server — and every other connection — serving.

use crate::error::ServeError;
use crate::proto::{parse_request, render_error, write_tuple, Request};
use crate::server::{QueryReply, Server};
use inflog_core::failpoints::SITE_REPLY_DROP;
use inflog_core::Tuple;
use inflog_syntax::{Atom, Term};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// How a session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionOutcome {
    /// True when the client requested `SHUTDOWN` — the caller (the binary's
    /// accept loop) should drain and stop the server.
    pub shutdown: bool,
}

enum Flow {
    Continue,
    /// Close this connection without touching the server (mid-reply drops).
    CloseConn,
    /// Propagate a shutdown request to the caller.
    Shutdown,
}

/// The session's reply buffer: replies accumulate here until no complete
/// request is waiting, so a reply up to this size — a few thousand answer
/// rows — reaches the transport in one `write`. A longer one goes out in
/// writes of this size, so a session never holds a second, rendered copy
/// of a large answer.
const REPLY_BUFFER: usize = 128 << 10;

/// The longest request line a session accepts, newline excluded. A longer
/// one gets `ERR protocol` and closes the connection; the session never
/// buffers more than this of one line.
pub const MAX_REQUEST_LINE: usize = 64 << 10;

/// Runs one session: reads request lines from `input`, writes reply lines
/// to `out`, until EOF, a dropped connection, `SHUTDOWN`, or a request
/// line longer than [`MAX_REQUEST_LINE`]. Blank lines and `#` comments are
/// ignored (so scripted sessions can be commented); a line that is not
/// UTF-8 gets `ERR protocol` and the session continues.
///
/// The session buffers `input` itself and renders replies into one
/// 128 KiB buffer it reuses. The buffer is flushed only when no complete
/// request line is already buffered, so an unbuffered socket gets one
/// `write` per reply from a closed-loop client and one per batch of
/// replies from a pipelining one.
///
/// # Errors
/// Only transport-level `io::Error`s; every protocol- and serving-layer
/// failure is rendered into the reply stream instead.
pub fn serve_session<R: Read, W: Write>(
    server: &Server,
    input: R,
    out: W,
) -> io::Result<SessionOutcome> {
    let mut input = BufReader::new(input);
    let mut out = BufWriter::with_capacity(REPLY_BUFFER, out);
    // Per-connection deadline override, seeded from the server default.
    let mut deadline = server.query_deadline();
    let mut line = Vec::new();
    let mut shutdown = false;
    loop {
        // Hold finished replies only while the next request is already
        // here: a read that may block must not keep them from the client.
        if !input.buffer().contains(&b'\n') {
            out.flush()?;
        }
        line.clear();
        let cap = MAX_REQUEST_LINE as u64 + 1;
        if input.by_ref().take(cap).read_until(b'\n', &mut line)? == 0 {
            break;
        }
        if line.len() > MAX_REQUEST_LINE && line.last() != Some(&b'\n') {
            let e = ServeError::Protocol {
                detail: format!(
                    "request line longer than {MAX_REQUEST_LINE} bytes; closing connection"
                ),
            };
            writeln!(out, "{}", render_error(&e))?;
            break;
        }
        let Ok(text) = std::str::from_utf8(&line) else {
            let e = ServeError::Protocol {
                detail: "request line is not UTF-8".to_string(),
            };
            writeln!(out, "{}", render_error(&e))?;
            continue;
        };
        let trimmed = text.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let flow = match catch_unwind(AssertUnwindSafe(|| {
            handle_line(server, trimmed, &mut deadline, &mut out)
        })) {
            Ok(flow) => flow?,
            Err(_) => {
                writeln!(
                    out,
                    "ERR panic: request handler panicked; closing connection"
                )?;
                break;
            }
        };
        match flow {
            Flow::Continue => {}
            Flow::CloseConn => break,
            Flow::Shutdown => {
                shutdown = true;
                break;
            }
        }
    }
    out.flush()?;
    Ok(SessionOutcome { shutdown })
}

fn handle_line<W: Write>(
    server: &Server,
    line: &str,
    deadline: &mut Option<Duration>,
    out: &mut W,
) -> io::Result<Flow> {
    let request = match parse_request(line) {
        Ok(r) => r,
        Err(e) => {
            writeln!(out, "{}", render_error(&e))?;
            return Ok(Flow::Continue);
        }
    };
    match request {
        Request::Ping => writeln!(out, "OK pong")?,
        Request::Epoch => writeln!(out, "OK epoch={}", server.epoch())?,
        Request::Deadline(ms) => {
            *deadline = ms.map(Duration::from_millis);
            match ms {
                Some(ms) => writeln!(out, "OK deadline={ms}")?,
                None => writeln!(out, "OK deadline=off")?,
            }
        }
        Request::Query(goal) => return query(server, &goal, *deadline, out),
        Request::Insert(atom) => write_fact(server, &atom, true, out)?,
        Request::Retract(atom) => write_fact(server, &atom, false, out)?,
        Request::Compact => match server.compact() {
            Ok(ack) => writeln!(out, "OK epoch={} changed={}", ack.epoch, ack.changed)?,
            Err(e) => writeln!(out, "{}", render_error(&e))?,
        },
        Request::Shutdown => {
            writeln!(out, "OK draining")?;
            return Ok(Flow::Shutdown);
        }
    }
    Ok(Flow::Continue)
}

fn query<W: Write>(
    server: &Server,
    goal: &Atom,
    deadline: Option<Duration>,
    out: &mut W,
) -> io::Result<Flow> {
    let QueryReply { epoch, answer } = match server.query_at(goal, deadline) {
        Ok(reply) => reply,
        Err(e) => {
            writeln!(out, "{}", render_error(&e))?;
            return Ok(Flow::Continue);
        }
    };
    // Unpin before rendering: an epoch pinned across the next publish
    // forces the writer to deep-copy instead of recycling it.
    let number = epoch.number();
    drop(epoch);
    writeln!(out, "EPOCH {number}")?;
    if server.failpoints().fire(SITE_REPLY_DROP) {
        // Chaos: the connection dies mid-reply, after the epoch header but
        // before the tuples; the session still flushes what was rendered.
        return Ok(Flow::CloseConn);
    }
    let universe = server.universe();
    for (tag, rows) in [
        (&b"TRUE "[..], &answer.tuples),
        (b"UNDEF ", &answer.undefined),
    ] {
        for t in rows {
            out.write_all(tag)?;
            write_tuple(out, universe, &goal.predicate, t)?;
            out.write_all(b"\n")?;
        }
    }
    writeln!(
        out,
        "OK true={} undef={}",
        answer.tuples.len(),
        answer.undefined.len()
    )?;
    Ok(Flow::Continue)
}

fn write_fact<W: Write>(
    server: &Server,
    atom: &Atom,
    inserting: bool,
    out: &mut W,
) -> io::Result<()> {
    let fact = match ground(server, atom) {
        Ok(f) => f,
        Err(e) => {
            writeln!(out, "{}", render_error(&e))?;
            return Ok(());
        }
    };
    let result = if inserting {
        server.insert(vec![fact])
    } else {
        server.retract(vec![fact])
    };
    match result {
        Ok(ack) => writeln!(out, "OK epoch={} changed={}", ack.epoch, ack.changed),
        Err(e) => writeln!(out, "{}", render_error(&e)),
    }
}

/// Resolves a ground atom's constants against the served universe. Writes
/// cannot mint constants: the active-domain universe is fixed at store
/// creation (the paper's finite-structure setting), so an unknown name is a
/// typed error, not an intern.
fn ground(server: &Server, atom: &Atom) -> Result<(String, Tuple), ServeError> {
    let universe = server.universe();
    let mut consts = Vec::with_capacity(atom.terms.len());
    for term in &atom.terms {
        match term {
            Term::Const(name) => match universe.lookup(name) {
                Some(c) => consts.push(c),
                None => {
                    return Err(ServeError::Protocol {
                        detail: format!("unknown constant {name:?} in write"),
                    })
                }
            },
            Term::Var(v) => {
                return Err(ServeError::Protocol {
                    detail: format!("write atoms must be ground; found variable {v:?}"),
                })
            }
        }
    }
    Ok((atom.predicate.clone(), Tuple::from_slice(&consts)))
}
