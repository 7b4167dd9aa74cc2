//! Kernel error type.

use std::error::Error;
use std::fmt;

/// Errors reported by the simulation kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A FIFO push was attempted while the FIFO was full.
    FifoFull {
        /// Capacity of the FIFO that rejected the push.
        capacity: usize,
    },
    /// A FIFO pop was attempted while the FIFO was empty.
    FifoEmpty,
    /// A VCD identifier was requested for an unregistered signal.
    UnknownSignal(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::FifoFull { capacity } => {
                write!(f, "fifo full (capacity {capacity})")
            }
            SimError::FifoEmpty => write!(f, "fifo empty"),
            SimError::UnknownSignal(name) => write!(f, "unknown signal `{name}`"),
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let msgs = [
            SimError::FifoFull { capacity: 4 }.to_string(),
            SimError::FifoEmpty.to_string(),
            SimError::UnknownSignal("x".into()).to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
            assert!(!m.ends_with('.'));
        }
    }

    #[test]
    fn is_error_send_sync() {
        fn assert_traits<T: Error + Send + Sync + 'static>() {}
        assert_traits::<SimError>();
    }
}
