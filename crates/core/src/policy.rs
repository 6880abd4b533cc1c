//! Redundancy policies: how many copies, and when.

use std::time::Duration;

/// How a logical operation is fanned out to replicas.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// No redundancy: one copy.
    Single,
    /// The paper's scheme: issue `copies` immediately, first answer wins.
    Always {
        /// Total copies (≥ 2).
        copies: usize,
    },
    /// Dean & Barroso's hedged request: issue one copy, and launch up to
    /// `copies − 1` more only if no answer arrives within `after` —
    /// near-tail-only duplication cost.
    Hedged {
        /// Total copies including the primary (≥ 2).
        copies: usize,
        /// Delay before each additional copy is released.
        after: Duration,
    },
}

impl Policy {
    /// Total copies this policy may issue.
    pub fn max_copies(&self) -> usize {
        match *self {
            Policy::Single => 1,
            Policy::Always { copies } | Policy::Hedged { copies, .. } => copies,
        }
    }

    /// Validates structural invariants (copies ≥ 2 for redundant modes).
    pub fn validate(&self) -> Result<(), &'static str> {
        match *self {
            Policy::Single => Ok(()),
            Policy::Always { copies } | Policy::Hedged { copies, .. } => {
                if copies >= 2 {
                    Ok(())
                } else {
                    Err("redundant policies need at least 2 copies")
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(Policy::Single.validate().is_ok());
        assert!(Policy::Always { copies: 1 }.validate().is_err());
        assert!(Policy::Always { copies: 3 }.validate().is_ok());
    }

    #[test]
    fn max_copies() {
        assert_eq!(Policy::Single.max_copies(), 1);
        assert_eq!(
            Policy::Hedged {
                copies: 4,
                after: Duration::ZERO
            }
            .max_copies(),
            4
        );
    }
}
