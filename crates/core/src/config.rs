//! Configuration of an RTL-to-TLM property abstraction run.

use std::collections::BTreeSet;
use std::fmt;

/// Parameters describing how the RTL design was abstracted into the TLM
/// model, needed to abstract its properties consistently.
///
/// Built with a fluent API:
///
/// ```
/// use abv_core::AbstractionConfig;
///
/// let cfg = AbstractionConfig::new(10)?
///     .abstract_signal("rdy_next_cycle")
///     .abstract_signal("rdy_next_next_cycle");
/// assert_eq!(cfg.clock_period_ns(), 10);
/// assert!(cfg.is_abstracted("rdy_next_cycle"));
/// assert!(!cfg.is_abstracted("rdy"));
/// # Ok::<(), abv_core::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbstractionConfig {
    clock_period_ns: u64,
    abstracted_signals: BTreeSet<String>,
}

/// Errors from [`AbstractionConfig::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// The clock period is zero: Algorithm III.1 scales `next[n]` by it,
    /// so every abstracted deadline would collapse onto the firing instant.
    ZeroClockPeriod,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroClockPeriod => f.write_str("clock period must be positive"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl AbstractionConfig {
    /// Creates a configuration for an RTL design clocked with the given
    /// period (Algorithm III.1's input `c`), with no abstracted signals.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ZeroClockPeriod`] if `clock_period_ns` is
    /// zero.
    pub fn new(clock_period_ns: u64) -> Result<AbstractionConfig, ConfigError> {
        if clock_period_ns == 0 {
            return Err(ConfigError::ZeroClockPeriod);
        }
        Ok(AbstractionConfig {
            clock_period_ns,
            abstracted_signals: BTreeSet::new(),
        })
    }

    /// Declares `signal` as removed by the RTL-to-TLM protocol abstraction
    /// (Section III-B): subformulas observing it will be deleted by the
    /// Fig. 4 rules.
    #[must_use]
    pub fn abstract_signal(mut self, signal: impl Into<String>) -> AbstractionConfig {
        self.abstracted_signals.insert(signal.into());
        self
    }

    /// Declares several signals as abstracted at once.
    #[must_use]
    pub fn abstract_signals<S: Into<String>>(
        mut self,
        signals: impl IntoIterator<Item = S>,
    ) -> AbstractionConfig {
        self.abstracted_signals
            .extend(signals.into_iter().map(Into::into));
        self
    }

    /// The RTL clock period in nanoseconds.
    #[must_use]
    pub fn clock_period_ns(&self) -> u64 {
        self.clock_period_ns
    }

    /// True if `signal` was removed by the protocol abstraction.
    #[must_use]
    pub fn is_abstracted(&self, signal: &str) -> bool {
        self.abstracted_signals.contains(signal)
    }

    /// The abstracted signals, in sorted order.
    pub fn abstracted_signals(&self) -> impl Iterator<Item = &str> {
        self.abstracted_signals.iter().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_signals() {
        let cfg = AbstractionConfig::new(10)
            .unwrap()
            .abstract_signal("a")
            .abstract_signals(["b", "c"]);
        assert_eq!(
            cfg.abstracted_signals().collect::<Vec<_>>(),
            vec!["a", "b", "c"]
        );
    }

    #[test]
    fn duplicate_signals_are_deduplicated() {
        let cfg = AbstractionConfig::new(10)
            .unwrap()
            .abstract_signal("a")
            .abstract_signal("a");
        assert_eq!(cfg.abstracted_signals().count(), 1);
    }

    #[test]
    fn zero_period_rejected() {
        assert_eq!(AbstractionConfig::new(0), Err(ConfigError::ZeroClockPeriod));
        assert_eq!(
            ConfigError::ZeroClockPeriod.to_string(),
            "clock period must be positive"
        );
        assert_eq!(AbstractionConfig::new(1).unwrap().clock_period_ns(), 1);
    }
}
