//! Typed store errors.
//!
//! Every corruption error names the file and the absolute byte offset of the
//! first bad frame, so a failed recovery tells the operator exactly where the
//! log went wrong — "never a wrong answer" also means never a vague one.

use std::fmt;

/// Errors from the durable store.
///
/// Derives `Clone + PartialEq + Eq` so it can be embedded in `EvalError`
/// (which tests compare structurally).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An OS-level I/O failure (message is the `io::Error` rendering; the
    /// original error is not kept because `io::Error` is neither `Clone` nor
    /// `Eq`).
    Io {
        path: String,
        op: &'static str,
        message: String,
    },
    /// A file exists but does not start with the expected magic/version.
    BadHeader { path: String, detail: String },
    /// A frame failed its CRC or decoded inconsistently. `offset` is the
    /// absolute byte offset of the frame header within the file.
    CorruptFrame {
        path: String,
        offset: u64,
        detail: String,
    },
    /// WAL record epochs are not contiguous past the snapshot epoch: folding
    /// them in would silently skip committed updates, so recovery refuses.
    MissingEpochs {
        path: String,
        expected: u64,
        found: u64,
    },
    /// The directory holds no loadable snapshot.
    NoSnapshot { dir: String },
    /// A previous append failed partway; the log handle refuses further
    /// writes until the directory is re-opened through recovery.
    Poisoned { path: String },
    /// An armed failpoint fired (crash injection for tests).
    FaultInjected { site: String },
}

impl StoreError {
    fn io(path: &std::path::Path, op: &'static str, e: &std::io::Error) -> StoreError {
        StoreError::Io {
            path: path.display().to_string(),
            op,
            message: e.to_string(),
        }
    }

    /// Wraps a closure's `io::Result`, attaching path and operation context.
    pub(crate) fn ctx<T>(
        path: &std::path::Path,
        op: &'static str,
        r: std::io::Result<T>,
    ) -> Result<T, StoreError> {
        r.map_err(|e| StoreError::io(path, op, &e))
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, op, message } => {
                write!(f, "i/o error during {op} on {path}: {message}")
            }
            StoreError::BadHeader { path, detail } => {
                write!(f, "bad file header in {path}: {detail}")
            }
            StoreError::CorruptFrame {
                path,
                offset,
                detail,
            } => write!(f, "corrupt frame in {path} at offset {offset}: {detail}"),
            StoreError::MissingEpochs {
                path,
                expected,
                found,
            } => write!(
                f,
                "missing epochs in {path}: expected epoch {expected} next, found {found}"
            ),
            StoreError::NoSnapshot { dir } => {
                write!(f, "no loadable snapshot in {dir}")
            }
            StoreError::Poisoned { path } => write!(
                f,
                "write-ahead log {path} is poisoned by an earlier failed append; \
                 re-open the store to recover"
            ),
            StoreError::FaultInjected { site } => {
                write!(f, "fault injected at store site {site:?}")
            }
        }
    }
}

impl std::error::Error for StoreError {}
