//! One client session over any line-oriented transport (TCP socket,
//! stdin/stdout REPL, or an in-memory pipe in tests).
//!
//! Each request is handled under its own `catch_unwind`, so a panic in the
//! protocol layer closes *this* connection with a final `ERR panic` line
//! and leaves the server — and every other connection — serving.

use crate::error::ServeError;
use crate::proto::{parse_request, render_error, render_tuple, Request};
use crate::server::{QueryReply, Server};
use inflog_core::failpoints::SITE_REPLY_DROP;
use inflog_core::Tuple;
use inflog_syntax::{Atom, Term};
use std::io::{self, BufRead, BufWriter, Write};
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

/// The session's reply buffer, flushed once per request: a reply up to
/// this size — a few thousand answer rows — reaches the transport in one
/// `write`. A longer one goes out in writes of this size, so a session
/// never holds a second, rendered copy of a large answer.
const REPLY_BUFFER: usize = 128 << 10;

/// Runs one session: reads request lines from `input`, writes reply lines
/// to `out`, until EOF, a dropped connection, or `SHUTDOWN`. Blank lines
/// and `#` comments are ignored (so scripted sessions can be commented).
///
/// Replies are rendered into one buffer the session reuses and flushed
/// once per request, so an unbuffered socket gets one `write` per reply
/// of up to 128 KiB.
///
/// # Errors
/// Only transport-level `io::Error`s; every protocol- and serving-layer
/// failure is rendered into the reply stream instead.
pub fn serve_session<R: BufRead, W: Write>(
    server: &Server,
    input: R,
    out: W,
) -> io::Result<SessionOutcome> {
    let mut out = BufWriter::with_capacity(REPLY_BUFFER, out);
    // Per-connection deadline override, seeded from the server default.
    let mut deadline = server.query_deadline();
    for line in input.lines() {
        let line = line?;
        let trimmed = line.trim();
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
                out.flush()?;
                return Ok(SessionOutcome { shutdown: false });
            }
        };
        out.flush()?;
        match flow {
            Flow::Continue => {}
            Flow::CloseConn => return Ok(SessionOutcome { shutdown: false }),
            Flow::Shutdown => return Ok(SessionOutcome { shutdown: true }),
        }
    }
    Ok(SessionOutcome { shutdown: false })
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
    for t in &answer.tuples {
        writeln!(out, "TRUE {}", render_tuple(universe, &goal.predicate, t))?;
    }
    for t in &answer.undefined {
        writeln!(out, "UNDEF {}", render_tuple(universe, &goal.predicate, t))?;
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
