//! Transaction records.

use std::fmt;

use desim::SimTime;

/// Direction of a transaction, from the initiator's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TxKind {
    /// The initiator sends data to the target (task elaboration request).
    Write,
    /// The initiator fetches results from the target.
    Read,
}

impl fmt::Display for TxKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TxKind::Write => "write",
            TxKind::Read => "read",
        })
    }
}

/// A completed transaction, as observed at its end point.
///
/// The `data` field carries the payload word most relevant to observers;
/// bulk payloads stay inside the models, which expose their I/O state
/// through mirror signals instead (see the crate docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transaction {
    /// Direction.
    pub kind: TxKind,
    /// Target-local address (design-defined; 0 when unused).
    pub addr: u64,
    /// Payload word.
    pub data: u64,
    /// Completion time — the `T_b` evaluation instant.
    pub end_time: SimTime,
}

impl Transaction {
    /// A write transaction completing at `end_time`.
    #[must_use]
    pub fn write(addr: u64, data: u64, end_time: SimTime) -> Transaction {
        Transaction {
            kind: TxKind::Write,
            addr,
            data,
            end_time,
        }
    }

    /// A read transaction completing at `end_time`.
    #[must_use]
    pub fn read(addr: u64, data: u64, end_time: SimTime) -> Transaction {
        Transaction {
            kind: TxKind::Read,
            addr,
            data,
            end_time,
        }
    }
}

impl fmt::Display for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} @{} addr={:#x} data={:#x}",
            self.kind, self.end_time, self.addr, self.data
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_display() {
        let w = Transaction::write(1, 0xAB, SimTime::from_ns(10));
        assert_eq!(w.kind, TxKind::Write);
        assert_eq!(w.to_string(), "write @10ns addr=0x1 data=0xab");
        let r = Transaction::read(0, 2, SimTime::from_ns(170));
        assert_eq!(r.kind, TxKind::Read);
        assert!(r.to_string().starts_with("read @170ns"));
    }
}
