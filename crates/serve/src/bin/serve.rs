//! `serve` — the inflog serving binary.
//!
//! REPL mode (default): reads protocol lines from stdin, writes replies to
//! stdout. TCP mode (`--listen ADDR`): accepts concurrent connections,
//! one thread each, and prints `inflog-serve listening on <addr>` so a
//! parent process can parse the bound port (use port 0 for an ephemeral
//! one).
//!
//! ```text
//! serve --store DIR --program FILE [--create [--facts FILE] [--universe a,b,c]]
//!       [--listen ADDR] [--engine E] [--deadline-ms N]
//!       [--max-inflight N] [--writer-queue N]
//! ```
//!
//! `--create` evaluates the program over the facts file (one ground atom
//! per line, `#` comments) and initializes the store directory; without it
//! the directory is recovered (newest snapshot + WAL, evaluated once). A
//! crash-shaped failpoint armed through `INFLOG_FAILPOINT`
//! (`serve-writer-crash`, `serve-epoch-publish`) aborts the whole process,
//! because it models a process crash.

use inflog_core::Database;
use inflog_eval::materialize::Engine;
use inflog_serve::{serve_session, ServeOptions, Server};
use inflog_syntax::{parse_program, Term};
use std::io::Write;
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

struct Args {
    store: String,
    program: String,
    create: bool,
    facts: Option<String>,
    universe: Vec<String>,
    listen: Option<String>,
    opts: ServeOptions,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: serve --store DIR --program FILE \
         [--create [--facts FILE] [--universe a,b,c]] [--listen ADDR] \
         [--engine seminaive|inflationary|stratified|well-founded] \
         [--deadline-ms N] [--max-inflight N] [--writer-queue N]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, ExitCode> {
    let mut args = Args {
        store: String::new(),
        program: String::new(),
        create: false,
        facts: None,
        universe: Vec::new(),
        listen: None,
        opts: ServeOptions {
            abort_on_crash: true,
            ..ServeOptions::default()
        },
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().ok_or_else(|| {
                eprintln!("serve: {name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--create" => args.create = true,
            "--store" => args.store = value("--store")?,
            "--program" => args.program = value("--program")?,
            "--facts" => args.facts = Some(value("--facts")?),
            "--universe" => args
                .universe
                .extend(value("--universe")?.split(',').map(str::to_string)),
            "--listen" => args.listen = Some(value("--listen")?),
            "--engine" => {
                args.opts.engine = match value("--engine")?.as_str() {
                    "seminaive" => Engine::Seminaive,
                    "inflationary" => Engine::Inflationary,
                    "stratified" => Engine::Stratified,
                    "well-founded" => Engine::WellFounded,
                    other => {
                        eprintln!("serve: unknown engine {other:?}");
                        return Err(usage());
                    }
                }
            }
            "--deadline-ms" => {
                args.opts.query_deadline = Some(Duration::from_millis(parse_num(
                    "--deadline-ms",
                    &value("--deadline-ms")?,
                )?))
            }
            "--max-inflight" => {
                args.opts.max_inflight =
                    parse_num("--max-inflight", &value("--max-inflight")?)? as usize
            }
            "--writer-queue" => {
                args.opts.writer_queue =
                    parse_num("--writer-queue", &value("--writer-queue")?)? as usize
            }
            other => {
                eprintln!("serve: unknown flag {other:?}");
                return Err(usage());
            }
        }
    }
    if args.store.is_empty() || args.program.is_empty() {
        eprintln!("serve: --store and --program are required");
        return Err(usage());
    }
    Ok(args)
}

fn parse_num(name: &str, raw: &str) -> Result<u64, ExitCode> {
    raw.parse().map_err(|_| {
        eprintln!("serve: bad {name} value {raw:?}");
        usage()
    })
}

fn fail(context: &str, err: impl std::fmt::Display) -> ExitCode {
    eprintln!("serve: {context}: {err}");
    ExitCode::FAILURE
}

/// Builds the initial database from the facts file; `--universe`
/// pre-interns extra constants so later writes can mention them. The
/// server's handle declares the EDB relations the facts leave empty.
fn initial_db(args: &Args) -> Result<Database, ExitCode> {
    let mut db = Database::new();
    for name in &args.universe {
        db.universe_mut().intern(name);
    }
    let Some(path) = &args.facts else {
        return Ok(db);
    };
    let text = std::fs::read_to_string(path).map_err(|e| fail(path, e))?;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let atom = inflog_syntax::parse_atom(line)
            .map_err(|e| fail(&format!("{path}:{}", lineno + 1), e))?;
        let mut consts = Vec::with_capacity(atom.terms.len());
        for term in &atom.terms {
            match term {
                Term::Const(c) => consts.push(c.as_str()),
                Term::Var(v) => {
                    return Err(fail(
                        &format!("{path}:{}", lineno + 1),
                        format!("facts must be ground; found variable {v:?}"),
                    ))
                }
            }
        }
        db.insert_named_fact(&atom.predicate, &consts)
            .map_err(|e| fail(&format!("{path}:{}", lineno + 1), e))?;
    }
    Ok(db)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(code) => return code,
    };
    let src = match std::fs::read_to_string(&args.program) {
        Ok(s) => s,
        Err(e) => return fail(&args.program, e),
    };
    let program = match parse_program(&src) {
        Ok(p) => p,
        Err(e) => return fail(&args.program, e),
    };
    let dir = std::path::Path::new(&args.store);
    let server = if args.create {
        let db = match initial_db(&args) {
            Ok(db) => db,
            Err(code) => return code,
        };
        Server::create(&program, &db, dir, &args.opts)
    } else {
        Server::open(&program, dir, &args.opts)
    };
    let server = match server {
        Ok(s) => Arc::new(s),
        Err(e) => return fail(&args.store, e),
    };

    match &args.listen {
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            let outcome = serve_session(&server, stdin.lock(), stdout.lock());
            match outcome {
                Ok(o) => {
                    if o.shutdown {
                        server.shutdown();
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => fail("session", e),
            }
        }
        Some(addr) => serve_tcp(&server, addr),
    }
}

fn serve_tcp(server: &Arc<Server>, addr: &str) -> ExitCode {
    let listener = match TcpListener::bind(addr) {
        Ok(l) => l,
        Err(e) => return fail(addr, e),
    };
    let local = match listener.local_addr() {
        Ok(a) => a,
        Err(e) => return fail(addr, e),
    };
    println!("inflog-serve listening on {local}");
    let _ = std::io::stdout().flush();
    if let Err(e) = listener.set_nonblocking(true) {
        return fail(addr, e);
    }
    let stop = Arc::new(AtomicBool::new(false));
    let mut sessions = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // A session hands each reply to the socket in one write
                // (up to 128 KiB), so nothing is gained by Nagle's delay:
                // without this, a reply larger than the send buffer's first
                // segment waits for the client's delayed ACK (tens of
                // milliseconds).
                if let Err(e) = stream.set_nodelay(true) {
                    eprintln!("inflog-serve: set_nodelay: {e}");
                }
                let server = Arc::clone(server);
                let stop = Arc::clone(&stop);
                let handle = std::thread::spawn(move || {
                    let Ok(reader) = stream.try_clone() else {
                        return;
                    };
                    // Unbuffered both ways: the session buffers its input
                    // and its replies itself. A dropped connection
                    // mid-reply is an io::Error here; the thread ends and
                    // the server keeps serving.
                    if let Ok(outcome) = serve_session(&server, reader, stream) {
                        if outcome.shutdown {
                            stop.store(true, Ordering::SeqCst);
                        }
                    }
                });
                sessions.push(handle);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => return fail("accept", e),
        }
        sessions.retain(|h| !h.is_finished());
    }
    // Drain: joined sessions first (they may still be mid-reply), then the
    // server's own writer queue and in-flight readers.
    for handle in sessions {
        let _ = handle.join();
    }
    server.shutdown();
    ExitCode::SUCCESS
}
