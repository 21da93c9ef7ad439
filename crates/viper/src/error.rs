//! Store-level error type.

use std::fmt;

use li_nvm::NvmError;

/// Recoverable failures of Viper operations.
///
/// Historically the store panicked on device exhaustion
/// (`alloc().expect("NVM device full")`); every mutating path now threads
/// this enum instead so callers — and the crash-torture harness — can
/// observe and react to injected faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViperError {
    /// The device has no free page for a new record (real exhaustion or an
    /// injected device-full window).
    DeviceFull,
    /// The store degraded to read-only after exhaustion and rejects writes.
    ReadOnly,
    /// The WAL ring is full of un-checkpointed records. Not transient —
    /// retrying without a checkpoint cannot help — so the store's put
    /// path intercepts it, writes a checkpoint inline, and retries once
    /// before letting it surface.
    WalFull,
    /// The index pointed the key at a slot holding another key's record,
    /// so an in-place update was refused instead of applied to it. Not
    /// transient: an invariant of the index is broken.
    IndexMismatch,
    /// The underlying device reported a fault (injected crash point,
    /// unrecovered transient write failure, …).
    Nvm(NvmError),
}

impl ViperError {
    /// Fault-class taxonomy for the retry layer. Transient errors may pass
    /// on their own (a failed write line, a device-full window) or be
    /// cleared by maintenance, so a bounded retry is worthwhile.
    /// `ReadOnly` is permanent until online repair lifts it and
    /// `Crashed` is terminal until the driver recovers — retrying either
    /// inline would just burn the budget.
    pub const fn is_transient(self) -> bool {
        match self {
            ViperError::DeviceFull => true,
            ViperError::ReadOnly | ViperError::WalFull | ViperError::IndexMismatch => false,
            ViperError::Nvm(e) => e.is_transient(),
        }
    }
}

impl fmt::Display for ViperError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViperError::DeviceFull => write!(f, "NVM device full"),
            ViperError::ReadOnly => write!(f, "store is read-only (device exhausted)"),
            ViperError::WalFull => write!(f, "WAL ring full of un-checkpointed records"),
            ViperError::IndexMismatch => write!(f, "index entry points at another key's record"),
            ViperError::Nvm(e) => write!(f, "NVM fault: {e}"),
        }
    }
}

impl std::error::Error for ViperError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ViperError::Nvm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NvmError> for ViperError {
    fn from(e: NvmError) -> Self {
        match e {
            NvmError::DeviceFull => ViperError::DeviceFull,
            other => ViperError::Nvm(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nvm_device_full_maps_to_device_full() {
        assert_eq!(ViperError::from(NvmError::DeviceFull), ViperError::DeviceFull);
        assert_eq!(ViperError::from(NvmError::Crashed), ViperError::Nvm(NvmError::Crashed));
    }

    #[test]
    fn display_mentions_cause() {
        assert!(ViperError::DeviceFull.to_string().contains("full"));
        assert!(ViperError::ReadOnly.to_string().contains("read-only"));
        assert!(ViperError::Nvm(NvmError::Crashed).to_string().contains("NVM fault"));
    }

    #[test]
    fn transient_taxonomy() {
        assert!(ViperError::DeviceFull.is_transient());
        assert!(ViperError::Nvm(NvmError::WriteFailed).is_transient());
        assert!(!ViperError::ReadOnly.is_transient());
        assert!(!ViperError::WalFull.is_transient(), "retry without checkpoint cannot clear it");
        assert!(!ViperError::Nvm(NvmError::Crashed).is_transient());
        assert!(!ViperError::IndexMismatch.is_transient(), "the entry stays wrong");
    }
}
