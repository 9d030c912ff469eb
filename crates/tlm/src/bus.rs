//! The transaction observation channel.

use std::cell::RefCell;
use std::rc::Rc;

use abv_obs::{trace, TraceEvent};
use desim::{ComponentId, SimCtx};

use crate::transaction::Transaction;

/// The trace track (`tid`) carrying one instant per published transaction.
pub const TX_TRACE_TRACK: u64 = 1;

#[derive(Debug, Default)]
struct BusInner {
    observers: Vec<(ComponentId, u64)>,
    last: Option<Transaction>,
    published: u64,
}

/// Broadcast channel carrying transaction-end notifications from a TLM
/// model to its observers (checker wrappers, trace recorders).
///
/// The bus is a cheaply clonable handle (`Rc` internally — the kernel is
/// single-threaded); the model and every observer hold clones. When the
/// model calls [`publish`](TransactionBus::publish) at a transaction's end,
/// each subscribed observer is woken in the next delta cycle of the same
/// timestamp and can fetch the record with [`last`](TransactionBus::last).
///
/// ```
/// use tlmkit::TransactionBus;
///
/// let bus = TransactionBus::new();
/// assert_eq!(bus.published(), 0);
/// assert!(bus.last().is_none());
/// ```
#[derive(Debug, Clone, Default)]
pub struct TransactionBus {
    inner: Rc<RefCell<BusInner>>,
}

impl TransactionBus {
    /// An empty bus with no observers.
    #[must_use]
    pub fn new() -> TransactionBus {
        TransactionBus::default()
    }

    /// Registers `observer` to be woken with an event of the given `kind`
    /// at every published transaction.
    pub fn subscribe(&self, observer: ComponentId, kind: u64) {
        self.inner.borrow_mut().observers.push((observer, kind));
    }

    /// Publishes a completed transaction: stores it as
    /// [`last`](TransactionBus::last) and wakes every observer in the next
    /// delta cycle, in subscription order.
    ///
    /// The observer list is handed to [`SimCtx::notify_all`], which stages
    /// it with one slice copy: each observer is still one event, in the
    /// same position of the next delta round as one `notify` per observer
    /// would put it, so `notify`s issued before and after the publish keep
    /// their order around the observers.
    ///
    /// Models must publish *after* writing their mirror signals in the same
    /// evaluate phase, so observers see the committed post-transaction
    /// state.
    pub fn publish(&self, ctx: &mut SimCtx<'_>, tx: Transaction) {
        trace!(
            ctx.tracer(),
            TraceEvent::instant("tx", 0, TX_TRACE_TRACK, tx.end_time.as_ns())
                .with_arg("kind", tx.kind.as_str())
                .with_arg("addr", tx.addr)
                .with_arg("data", tx.data)
        );
        let mut inner = self.inner.borrow_mut();
        inner.last = Some(tx);
        inner.published += 1;
        ctx.notify_all(&inner.observers);
    }

    /// The most recently published transaction.
    #[must_use]
    pub fn last(&self) -> Option<Transaction> {
        self.inner.borrow().last
    }

    /// Total number of transactions published.
    #[must_use]
    pub fn published(&self) -> u64 {
        self.inner.borrow().published
    }

    /// Number of subscribed observers.
    #[must_use]
    pub fn observer_count(&self) -> usize {
        self.inner.borrow().observers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::TxKind;
    use desim::{Component, Event, SimTime, Simulation};

    /// Publishes one write transaction when triggered.
    struct Publisher {
        bus: TransactionBus,
    }

    impl Component for Publisher {
        fn handle(&mut self, ev: Event, ctx: &mut SimCtx<'_>) {
            self.bus.publish(ctx, Transaction::write(0, 42, ev.time));
        }
    }

    /// Records the transactions it observes.
    struct Observer {
        bus: TransactionBus,
        seen: Vec<(u64, u64)>, // (time, data)
    }

    impl Component for Observer {
        fn handle(&mut self, ev: Event, _ctx: &mut SimCtx<'_>) {
            let tx = self.bus.last().expect("woken only after a publish");
            self.seen.push((ev.time.as_ns(), tx.data));
            assert_eq!(tx.kind, TxKind::Write);
        }
    }

    #[test]
    fn publish_wakes_observers_same_timestamp() {
        let mut sim = Simulation::new();
        let bus = TransactionBus::new();
        let publisher = sim.add_component(Publisher { bus: bus.clone() });
        let observer = sim.add_component(Observer {
            bus: bus.clone(),
            seen: Vec::new(),
        });
        bus.subscribe(observer, 7);
        sim.schedule(SimTime::from_ns(30), publisher, 0);
        sim.run_to_completion();
        let obs: &Observer = sim.component(observer).unwrap();
        assert_eq!(obs.seen, vec![(30, 42)]);
        assert_eq!(bus.published(), 1);
        assert_eq!(bus.observer_count(), 1);
    }

    #[test]
    fn multiple_observers_all_woken() {
        let mut sim = Simulation::new();
        let bus = TransactionBus::new();
        let publisher = sim.add_component(Publisher { bus: bus.clone() });
        let o1 = sim.add_component(Observer {
            bus: bus.clone(),
            seen: Vec::new(),
        });
        let o2 = sim.add_component(Observer {
            bus: bus.clone(),
            seen: Vec::new(),
        });
        bus.subscribe(o1, 1);
        bus.subscribe(o2, 2);
        sim.schedule(SimTime::from_ns(10), publisher, 0);
        sim.schedule(SimTime::from_ns(20), publisher, 0);
        sim.run_to_completion();
        assert_eq!(sim.component::<Observer>(o1).unwrap().seen.len(), 2);
        assert_eq!(sim.component::<Observer>(o2).unwrap().seen.len(), 2);
        assert_eq!(bus.published(), 2);
    }
}
