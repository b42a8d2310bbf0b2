//! [`CkptError`]; a [`WireError`] maps onto the variant of the same name.

use qmc_comm::wire::WireError;
use std::fmt;

/// Everything that can go wrong reading a checkpoint or setting up a
/// checkpointed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// Ran out of bytes while reading `what`.
    Truncated { what: &'static str },
    /// File does not start with the checkpoint magic.
    BadMagic,
    /// File magic matched but the schema string is not ours.
    BadSchema { found: String },
    /// A section's payload does not match its recorded CRC32.
    BadCrc { section: String },
    /// A required section is absent from the file.
    MissingSection { name: String },
    /// A state payload's kind tag does not match the target value.
    KindMismatch { expected: String, found: String },
    /// Structurally invalid content (size mismatch, bad enum tag, …).
    Corrupt { detail: String },
    /// Filesystem error surfaced while reading.
    Io { detail: String },
    /// A checkpoint cadence of zero sweeps ("every 0 sweeps") was asked
    /// for; there is no such schedule.
    ZeroCadence,
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Truncated { what } => write!(f, "checkpoint truncated while reading {what}"),
            CkptError::BadMagic => write!(f, "not a qmc checkpoint (bad magic)"),
            CkptError::BadSchema { found } => {
                write!(f, "unsupported checkpoint schema {found:?}")
            }
            CkptError::BadCrc { section } => {
                write!(f, "checkpoint section {section:?} failed CRC32")
            }
            CkptError::MissingSection { name } => {
                write!(f, "checkpoint is missing section {name:?}")
            }
            CkptError::KindMismatch { expected, found } => {
                write!(
                    f,
                    "checkpoint kind mismatch: expected {expected:?}, found {found:?}"
                )
            }
            CkptError::Corrupt { detail } => write!(f, "corrupt checkpoint: {detail}"),
            CkptError::Io { detail } => write!(f, "checkpoint i/o error: {detail}"),
            CkptError::ZeroCadence => write!(f, "checkpoint cadence must be at least 1 sweep"),
        }
    }
}

impl std::error::Error for CkptError {}

impl CkptError {
    /// Shorthand for a [`CkptError::Corrupt`] with a formatted detail.
    pub fn corrupt(detail: impl Into<String>) -> Self {
        CkptError::Corrupt {
            detail: detail.into(),
        }
    }
}

impl From<WireError> for CkptError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Truncated { what } => CkptError::Truncated { what },
            WireError::Corrupt { detail } => CkptError::Corrupt { detail },
        }
    }
}
