//! The line protocol: one request per line, one or more reply lines, the
//! last reply line always starting with `OK`, `ERR`, or `OVERLOADED`.
//!
//! Requests (keywords are case-insensitive, atoms use the DATALOG¬
//! concrete syntax with quoted constants):
//!
//! ```text
//! PING                        -> OK pong
//! EPOCH                       -> OK epoch=<n>
//! QUERY S('v0', y)            -> EPOCH <n>
//!                                TRUE S(v0, v1)        (0 or more)
//!                                UNDEF S(v0, v2)       (0 or more)
//!                                OK true=<a> undef=<b>
//! INSERT E('v3', 'v0')        -> OK epoch=<n> changed=<k>
//! RETRACT E('v3', 'v0')       -> OK epoch=<n> changed=<k>
//! COMPACT                     -> OK epoch=<n> changed=0
//! DEADLINE 50 | DEADLINE off  -> OK deadline=<ms|off>
//! SHUTDOWN                    -> OK draining
//! ```
//!
//! Failures: `ERR <code>: <detail>` (see [`ServeError::code`]); admission
//! sheds use the distinguished `OVERLOADED <readers|writer>` line so
//! clients can retry without parsing the error detail. A request line
//! longer than [`MAX_REQUEST_LINE`](crate::conn::MAX_REQUEST_LINE) gets
//! `ERR protocol` and ends the connection.

use crate::error::ServeError;
use inflog_core::{Tuple, Universe};
use inflog_syntax::{parse_atom, Atom};
use std::io::{self, Write};

/// A parsed protocol request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// Report the currently published epoch.
    Epoch,
    /// Answer the goal atom from a pinned epoch.
    Query(Atom),
    /// Durably insert a ground EDB fact and publish the new epoch.
    Insert(Atom),
    /// Durably retract a ground EDB fact and publish the new epoch.
    Retract(Atom),
    /// Compact the store (snapshot + truncate the WAL).
    Compact,
    /// Set (`Some(ms)`) or clear (`None`) this connection's query deadline.
    Deadline(Option<u64>),
    /// Drain and stop the server.
    Shutdown,
}

/// Parses one protocol line.
///
/// # Errors
/// [`ServeError::Protocol`] for an unknown keyword, a malformed atom, or a
/// malformed deadline.
pub fn parse_request(line: &str) -> Result<Request, ServeError> {
    let line = line.trim();
    let (keyword, rest) = match line.split_once(char::is_whitespace) {
        Some((k, r)) => (k, r.trim()),
        None => (line, ""),
    };
    let bare = |req: Request| {
        if rest.is_empty() {
            Ok(req)
        } else {
            Err(ServeError::Protocol {
                detail: format!("{} takes no argument", keyword.to_uppercase()),
            })
        }
    };
    match keyword.to_ascii_uppercase().as_str() {
        "PING" => bare(Request::Ping),
        "EPOCH" => bare(Request::Epoch),
        "COMPACT" => bare(Request::Compact),
        "SHUTDOWN" => bare(Request::Shutdown),
        "QUERY" => Ok(Request::Query(parse_goal(keyword, rest)?)),
        "INSERT" => Ok(Request::Insert(parse_goal(keyword, rest)?)),
        "RETRACT" => Ok(Request::Retract(parse_goal(keyword, rest)?)),
        "DEADLINE" => match rest {
            "" => Err(ServeError::Protocol {
                detail: "DEADLINE needs a millisecond count or `off`".to_string(),
            }),
            off if off.eq_ignore_ascii_case("off") => Ok(Request::Deadline(None)),
            ms => match ms.parse::<u64>() {
                Ok(ms) => Ok(Request::Deadline(Some(ms))),
                Err(_) => Err(ServeError::Protocol {
                    detail: format!("bad DEADLINE argument {ms:?} (want milliseconds or `off`)"),
                }),
            },
        },
        other => Err(ServeError::Protocol {
            detail: format!("unknown request {other:?}"),
        }),
    }
}

fn parse_goal(keyword: &str, rest: &str) -> Result<Atom, ServeError> {
    if rest.is_empty() {
        return Err(ServeError::Protocol {
            detail: format!("{} needs an atom argument", keyword.to_uppercase()),
        });
    }
    parse_atom(rest).map_err(|e| ServeError::Protocol {
        detail: format!("bad atom: {e}"),
    })
}

/// Writes a tuple as `pred(a, b)` using the universe's constant names
/// (`?<id>` for a constant outside it, as [`Universe::display`] does).
/// Names are borrowed from the universe, so a tuple costs a few copies
/// into `out` and no allocation.
pub(crate) fn write_tuple<W: Write>(
    out: &mut W,
    universe: &Universe,
    pred: &str,
    t: &Tuple,
) -> io::Result<()> {
    out.write_all(pred.as_bytes())?;
    out.write_all(b"(")?;
    for (i, &c) in t.items().iter().enumerate() {
        if i > 0 {
            out.write_all(b", ")?;
        }
        match universe.name(c) {
            Some(name) => out.write_all(name.as_bytes())?,
            None => write!(out, "?{}", c.id())?,
        }
    }
    out.write_all(b")")
}

/// Renders a tuple as `pred(a, b)` using the universe's constant names.
pub fn render_tuple(universe: &Universe, pred: &str, t: &Tuple) -> String {
    let mut out = Vec::new();
    write_tuple(&mut out, universe, pred, t).expect("writing into a Vec cannot fail");
    String::from_utf8(out).expect("predicate and constant names are UTF-8")
}

/// Renders the final reply line for a failed request.
pub fn render_error(e: &ServeError) -> String {
    match e {
        ServeError::Overloaded(load) => format!("OVERLOADED {load}"),
        other => format!("ERR {}: {other}", other.code()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Load;
    use inflog_syntax::Term;

    #[test]
    fn parses_every_request_kind() {
        assert_eq!(parse_request("PING").unwrap(), Request::Ping);
        assert_eq!(parse_request("  epoch  ").unwrap(), Request::Epoch);
        assert_eq!(parse_request("Compact").unwrap(), Request::Compact);
        assert_eq!(parse_request("SHUTDOWN").unwrap(), Request::Shutdown);
        assert_eq!(
            parse_request("DEADLINE 250").unwrap(),
            Request::Deadline(Some(250))
        );
        assert_eq!(
            parse_request("deadline OFF").unwrap(),
            Request::Deadline(None)
        );
        let q = parse_request("QUERY S('v0', y)").unwrap();
        match q {
            Request::Query(atom) => {
                assert_eq!(atom.predicate, "S");
                assert_eq!(atom.terms[0], Term::Const("v0".to_string()));
                assert_eq!(atom.terms[1], Term::Var("y".to_string()));
            }
            other => panic!("wrong request: {other:?}"),
        }
        assert!(matches!(
            parse_request("INSERT E('a', 'b').").unwrap(),
            Request::Insert(_)
        ));
        assert!(matches!(
            parse_request("retract E('a', 'b')").unwrap(),
            Request::Retract(_)
        ));
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "FROBNICATE",
            "QUERY",
            "QUERY not an atom ((",
            "DEADLINE",
            "DEADLINE soon",
            "PING extra",
            "EPOCH 7",
        ] {
            let e = parse_request(bad).unwrap_err();
            assert_eq!(e.code(), "protocol", "line {bad:?} gave {e}");
        }
    }

    #[test]
    fn tuples_render_with_names_and_foreign_ids() {
        let mut universe = Universe::new();
        let a = universe.intern("a");
        let b = universe.intern("b");
        let t = Tuple::from_slice(&[a, b, a]);
        assert_eq!(render_tuple(&universe, "P", &t), "P(a, b, a)");
        // A constant outside the universe prints as `display` does.
        let foreign = Tuple::from_ids(&[a.id(), 42]);
        assert_eq!(render_tuple(&universe, "E", &foreign), "E(a, ?42)");
        assert_eq!(render_tuple(&universe, "Z", &Tuple::from_ids(&[])), "Z()");
    }

    #[test]
    fn error_rendering_distinguishes_sheds() {
        assert_eq!(
            render_error(&ServeError::Overloaded(Load::Readers)),
            "OVERLOADED readers"
        );
        assert_eq!(
            render_error(&ServeError::Overloaded(Load::Writer)),
            "OVERLOADED writer"
        );
        let e = ServeError::WriterDown;
        assert!(render_error(&e).starts_with("ERR writer-down: "));
    }
}
