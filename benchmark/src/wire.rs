//! The black-box side: spawning the `serve` binary, speaking its line
//! protocol over TCP, and parsing replies. Depends only on the binary's
//! command-line flags and the protocol text — no library types.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::linux::net::TcpStreamExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How a reply ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Ok,
    Err,
    Overloaded,
}

/// One parsed reply: the final status line plus what the benchmark needs
/// from the body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    pub status: Status,
    /// `EPOCH n` header of a query reply, or `epoch=n` of a write ack.
    pub epoch: Option<u64>,
    /// `TRUE` / `UNDEF` body lines.
    pub rows: u32,
    /// Bytes of the whole reply.
    pub bytes: u32,
    /// The final line, without its newline.
    pub last: String,
}

/// One `TRUE`/`UNDEF` body line of a query reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    pub undefined: bool,
    pub predicate: String,
    /// Vertex ids parsed from the `v<n>` constant names.
    pub args: Vec<u32>,
}

/// Classifies a reply line: `Some(status)` for a final line.
pub fn final_status(line: &str) -> Option<Status> {
    let word = line.split(' ').next().unwrap_or("");
    match word {
        "OK" => Some(Status::Ok),
        "ERR" => Some(Status::Err),
        "OVERLOADED" => Some(Status::Overloaded),
        _ => None,
    }
}

/// `key=<n>` anywhere in a status line.
pub fn field(line: &str, key: &str) -> Option<u64> {
    line.split(' ')
        .find_map(|w| w.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
}

/// Parses `TRUE S(v3, v17)` / `UNDEF Safe(v1, v2)`.
pub fn parse_row(line: &str) -> Option<Row> {
    let (tag, atom) = line.split_once(' ')?;
    let undefined = match tag {
        "TRUE" => false,
        "UNDEF" => true,
        _ => return None,
    };
    let (predicate, rest) = atom.split_once('(')?;
    let args = rest
        .strip_suffix(')')?
        .split(", ")
        .map(|c| c.strip_prefix('v')?.parse().ok())
        .collect::<Option<Vec<u32>>>()?;
    Some(Row {
        undefined,
        predicate: predicate.to_string(),
        args,
    })
}

/// Folds the lines of one reply into a [`Reply`]; `None` until the final
/// line arrives. Body text is appended to `body` when the caller wants to
/// check it later.
pub struct ReplyParser {
    epoch: Option<u64>,
    rows: u32,
    bytes: u32,
}

impl ReplyParser {
    pub fn new() -> ReplyParser {
        ReplyParser {
            epoch: None,
            rows: 0,
            bytes: 0,
        }
    }

    /// Feeds one line (newline included or not).
    pub fn line(&mut self, raw: &str) -> Option<Reply> {
        self.bytes += raw.len() as u32;
        let line = raw.trim_end_matches(['\n', '\r']);
        if let Some(status) = final_status(line) {
            let reply = Reply {
                status,
                epoch: self.epoch.or_else(|| field(line, "epoch")),
                rows: self.rows,
                bytes: self.bytes,
                last: line.to_string(),
            };
            *self = ReplyParser::new();
            return Some(reply);
        }
        if let Some(n) = line.strip_prefix("EPOCH ") {
            self.epoch = n.parse().ok();
        } else {
            self.rows += 1;
        }
        None
    }
}

/// A client connection: holds the socket and waits for each reply (closed
/// loop).
pub struct Conn {
    stream: TcpStream,
    /// Received bytes not yet handed out: `buf[start..end]`.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    prompt_acks: bool,
}

impl Conn {
    /// A client that acknowledges the server's segments at once.
    ///
    /// `serve` leaves Nagle's algorithm on and writes a reply in 8 KiB
    /// pieces, so the second piece of any long reply waits for the
    /// client's ACK of the first — which a default client delays by one
    /// timer (≈40 ms on Linux). The gated workloads use this kind of
    /// connection so that they measure the server's read and write paths,
    /// not that timer; [`Conn::connect_plain`] keeps the stall measurable.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let mut conn = Conn::connect_plain(addr)?;
        conn.prompt_acks = true;
        Ok(conn)
    }

    /// A client with default acknowledgement behaviour (`TCP_NODELAY` for
    /// its own small requests, nothing else).
    pub fn connect_plain(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        // A request is one small write followed by a wait: without this the
        // kernel holds it back for the delayed ACK of the previous reply.
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            stream,
            buf: vec![0; 1 << 16],
            start: 0,
            end: 0,
            prompt_acks: false,
        })
    }

    /// `TCP_QUICKACK` is not sticky — sending or receiving puts the socket
    /// back into delayed-ACK mode — so it is asked for again after every
    /// send and every receive.
    fn ack_promptly(&self) -> std::io::Result<()> {
        if self.prompt_acks {
            self.stream.set_quickack(true)?;
        }
        Ok(())
    }

    /// The next received line (newline included), as a range of `buf`.
    fn next_line(&mut self) -> std::io::Result<std::ops::Range<usize>> {
        let mut scanned = self.start;
        loop {
            if let Some(at) = self.buf[scanned..self.end].iter().position(|&b| b == b'\n') {
                let line = self.start..scanned + at + 1;
                self.start = line.end;
                return Ok(line);
            }
            scanned = self.end;
            if self.start == self.end {
                (self.start, self.end, scanned) = (0, 0, 0);
            } else if self.end == self.buf.len() {
                // A partial line at the end of the buffer: make room.
                self.buf.copy_within(self.start..self.end, 0);
                scanned -= self.start;
                self.end -= self.start;
                self.start = 0;
                if self.end == self.buf.len() {
                    self.buf.resize(2 * self.buf.len(), 0);
                }
            }
            let n = self.stream.read(&mut self.buf[self.end..])?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-reply",
                ));
            }
            self.end += n;
            self.ack_promptly()?;
        }
    }

    /// Sends `request` (newline-terminated) and reads the whole reply.
    /// `TRUE`/`UNDEF` lines are appended to `body` when it is `Some`.
    pub fn call(&mut self, request: &str, mut body: Option<&mut String>) -> std::io::Result<Reply> {
        self.stream.write_all(request.as_bytes())?;
        self.ack_promptly()?;
        let mut parser = ReplyParser::new();
        loop {
            let range = self.next_line()?;
            let line = std::str::from_utf8(&self.buf[range])
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
            if let Some(reply) = parser.line(line) {
                return Ok(reply);
            }
            if let Some(b) = body.as_deref_mut() {
                if !line.starts_with("EPOCH ") {
                    b.push_str(line);
                }
            }
        }
    }
}

/// The `serve` child process. Killed and reaped when dropped, on every
/// exit path; [`ServeChild::shutdown`] is the orderly way down.
pub struct ServeChild {
    child: Child,
    pub addr: SocketAddr,
}

pub struct ServeArgs<'a> {
    pub bin: &'a Path,
    pub store: &'a Path,
    pub program: &'a Path,
    /// `Some((facts file, universe))` runs `--create`; `None` recovers.
    pub create: Option<(&'a Path, &'a str)>,
}

impl ServeChild {
    /// Spawns `serve --listen 127.0.0.1:0` and waits for the line that
    /// names the bound port. Everything else is the binary's defaults.
    pub fn spawn(args: &ServeArgs) -> std::io::Result<ServeChild> {
        let mut cmd = Command::new(args.bin);
        cmd.arg("--store").arg(args.store);
        cmd.arg("--program").arg(args.program);
        if let Some((facts, universe)) = args.create {
            cmd.arg("--create").arg("--facts").arg(facts);
            cmd.arg("--universe").arg(universe);
        }
        cmd.arg("--listen").arg("127.0.0.1:0");
        for var in crate::SCRUBBED_ENV {
            cmd.env_remove(var);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut guard = ServeChild {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut first = String::new();
        BufReader::new(stdout).read_line(&mut first)?;
        let addr = first
            .trim()
            .strip_prefix("inflog-serve listening on ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| {
                std::io::Error::other(format!("serve did not announce a port: {first:?}"))
            })?;
        guard.addr = addr;
        Ok(guard)
    }

    /// Peak resident set of the child so far, in MiB (`VmHWM`).
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// `SHUTDOWN`, then waits for the process to drain and exit.
    pub fn shutdown(mut self) -> std::io::Result<()> {
        let reply = Conn::connect(self.addr)?.call("SHUTDOWN\n", None)?;
        if reply.status != Status::Ok {
            return Err(std::io::Error::other(format!(
                "SHUTDOWN refused: {}",
                reply.last
            )));
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        while self.child.try_wait()?.is_none() {
            if Instant::now() > deadline {
                return Err(std::io::Error::other("serve did not exit after SHUTDOWN"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(())
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        // After an orderly shutdown both calls are no-ops on a reaped child.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MiB; 0 if unreadable.
pub fn peak_rss_mb(status_path: &str) -> f64 {
    let mut text = String::new();
    if std::fs::File::open(status_path)
        .and_then(|mut f| f.read_to_string(&mut text))
        .is_err()
    {
        return 0.0;
    }
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A scratch directory under `benchmark/out/tmp/`, removed when dropped.
pub struct TmpDir(PathBuf);

impl TmpDir {
    pub fn new(out: &Path, label: &str) -> std::io::Result<TmpDir> {
        let dir = out
            .join("tmp")
            .join(format!("{label}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(TmpDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(lines: &[&str]) -> Reply {
        let mut p = ReplyParser::new();
        let mut out = None;
        for l in lines {
            assert!(out.is_none(), "reply ended before its last line");
            out = p.line(l);
        }
        out.expect("reply ends on its last line")
    }

    #[test]
    fn parses_every_reply_shape() {
        let q = feed(&[
            "EPOCH 12\n",
            "TRUE S(v0, v1)\n",
            "UNDEF Safe(v3, v4)\n",
            "OK true=1 undef=1\n",
        ]);
        assert_eq!((q.status, q.epoch, q.rows), (Status::Ok, Some(12), 2));
        assert_eq!(q.bytes, 9 + 15 + 19 + 18);
        assert_eq!(field(&q.last, "true"), Some(1));
        assert_eq!(field(&q.last, "undef"), Some(1));

        let w = feed(&["OK epoch=7 changed=1\n"]);
        assert_eq!((w.status, w.epoch, w.rows), (Status::Ok, Some(7), 0));
        assert_eq!(field(&w.last, "changed"), Some(1));

        let pong = feed(&["OK pong"]);
        assert_eq!((pong.status, pong.epoch), (Status::Ok, None));

        let e = feed(&["ERR protocol: unknown constant \"zz\" in write\n"]);
        assert_eq!(e.status, Status::Err);
        let shed = feed(&["OVERLOADED writer\n"]);
        assert_eq!(shed.status, Status::Overloaded);
        // An error after the header still ends the reply.
        let torn = feed(&["EPOCH 3\n", "ERR deadline: budget exceeded\n"]);
        assert_eq!((torn.status, torn.epoch), (Status::Err, Some(3)));
    }

    #[test]
    fn parser_resets_between_replies() {
        let mut p = ReplyParser::new();
        assert!(p.line("EPOCH 1\n").is_none());
        assert!(p.line("TRUE S(v1, v2)\n").is_none());
        assert_eq!(p.line("OK true=1 undef=0\n").unwrap().rows, 1);
        let next = p.line("OK epoch=2 changed=0\n").unwrap();
        assert_eq!((next.rows, next.epoch), (0, Some(2)));
    }

    #[test]
    fn rows_parse_to_vertex_ids() {
        assert_eq!(
            parse_row("TRUE S(v3, v17)"),
            Some(Row {
                undefined: false,
                predicate: "S".into(),
                args: vec![3, 17]
            })
        );
        let u = parse_row("UNDEF Win(v9)").unwrap();
        assert!(u.undefined && u.args == [9]);
        assert_eq!(parse_row("EPOCH 4"), None);
        assert_eq!(parse_row("TRUE S(a, b)"), None);
    }

    #[test]
    fn reads_own_peak_rss() {
        assert!(peak_rss_mb("/proc/self/status") > 0.5);
        assert_eq!(peak_rss_mb("/proc/does-not-exist/status"), 0.0);
    }
}
