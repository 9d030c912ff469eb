//! Signals: named 64-bit state with SystemC `sc_signal` update semantics.
//!
//! Writes performed during an evaluate phase are *pending* until the kernel
//! commits them between delta cycles; a commit that changes a signal's
//! value wakes the components on its sensitivity list in the next delta.
//!
//! The store is laid out struct-of-arrays: the commit path touches only
//! the dense `pending`/`dirty` columns (a flat flag per slot instead of an
//! `Option` discriminant), and names — which only matter at build and
//! report time — live in their own column, allocated once and shared with
//! the lookup map.

use std::collections::HashMap;
use std::rc::Rc;

use crate::fxhash::FxBuildHasher;
use crate::kernel::ComponentId;

/// Handle of a signal within a [`Simulation`](crate::Simulation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SignalId(pub(crate) usize);

impl SignalId {
    /// The registration index of this signal: dense from zero in the
    /// order signals were added, so it can index a plain `Vec` of values.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Storage for all signals of a simulation.
#[derive(Debug, Default)]
pub(crate) struct SignalStore {
    /// Registered names; each allocation is shared with the `by_name` key.
    names: Vec<Rc<str>>,
    /// Committed values.
    values: Vec<u64>,
    /// Pending write per slot, meaningful while its dirty flag is set.
    pending: Vec<u64>,
    /// Dense per-slot dirty flag gating `pending`.
    dirty_flags: Vec<bool>,
    /// `(component, event kind delivered on change)` per slot, in
    /// subscription order: a change hands the whole list to the kernel,
    /// which stages it with one slice copy.
    sensitivity: Vec<Vec<(ComponentId, u64)>>,
    /// Name lookup, keyed with Fx: names are short and hashed at every
    /// registration and every `signal_id`.
    by_name: HashMap<Rc<str>, SignalId, FxBuildHasher>,
    /// Slots with a pending write, in first-write order (deduplicated by
    /// the dirty flags) — commit wake order must be deterministic.
    dirty: Vec<SignalId>,
}

impl SignalStore {
    /// Pre-allocates room for `additional` more signals across every
    /// column (design builds register their whole pin list in one burst).
    pub fn reserve(&mut self, additional: usize) {
        self.names.reserve(additional);
        self.values.reserve(additional);
        self.pending.reserve(additional);
        self.dirty_flags.reserve(additional);
        self.sensitivity.reserve(additional);
        self.by_name.reserve(additional);
    }

    /// Creates a signal; duplicate names are rejected by the kernel wrapper.
    pub fn add(&mut self, name: &str, init: u64) -> SignalId {
        let id = SignalId(self.values.len());
        let name: Rc<str> = Rc::from(name);
        self.names.push(name.clone());
        self.values.push(init);
        self.pending.push(0);
        self.dirty_flags.push(false);
        self.sensitivity.push(Vec::new());
        self.by_name.insert(name, id);
        id
    }

    pub fn lookup(&self, name: &str) -> Option<SignalId> {
        self.by_name.get(name).copied()
    }

    pub fn contains_name(&self, name: &str) -> bool {
        self.by_name.contains_key(name)
    }

    pub fn name(&self, id: SignalId) -> &str {
        &self.names[id.0]
    }

    pub fn read(&self, id: SignalId) -> u64 {
        self.values[id.0]
    }

    /// Requests a write; commits at the next update phase (last write wins).
    pub fn write(&mut self, id: SignalId, value: u64) {
        if !self.dirty_flags[id.0] {
            self.dirty_flags[id.0] = true;
            self.dirty.push(id);
        }
        self.pending[id.0] = value;
    }

    /// Immediately forces a value (initialization only — bypasses the
    /// update phase and does not wake sensitive components).
    pub fn force(&mut self, id: SignalId, value: u64) {
        self.values[id.0] = value;
    }

    pub fn subscribe(&mut self, id: SignalId, component: ComponentId, kind: u64) {
        self.sensitivity[id.0].push((component, kind));
    }

    pub fn has_pending(&self) -> bool {
        !self.dirty.is_empty()
    }

    /// Commits all pending writes. Calls `wake` with the sensitivity list
    /// (`(component, kind)` pairs in subscription order) of every signal
    /// whose committed value differs from the old one, in first-write
    /// order. Returns the number of changed signals.
    pub fn commit(&mut self, mut wake: impl FnMut(&[(ComponentId, u64)])) -> usize {
        let mut changed = 0;
        // Disjoint-field borrows: the dirty list is only read while the
        // value/flag columns are written, and cleared after — the
        // allocation is reused across commits.
        for id in &self.dirty {
            let i = id.0;
            self.dirty_flags[i] = false;
            let v = self.pending[i];
            if v != self.values[i] {
                self.values[i] = v;
                changed += 1;
                wake(&self.sensitivity[i]);
            }
        }
        self.dirty.clear();
        changed
    }

    /// Iterates `(name, current value)` over all signals.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.names
            .iter()
            .zip(&self.values)
            .map(|(n, &v)| (n.as_ref(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_is_deferred_until_commit() {
        let mut st = SignalStore::default();
        let s = st.add("s", 0);
        st.write(s, 5);
        assert_eq!(st.read(s), 0, "pending until commit");
        let changed = st.commit(|_| {});
        assert_eq!(changed, 1);
        assert_eq!(st.read(s), 5);
    }

    #[test]
    fn last_write_wins() {
        let mut st = SignalStore::default();
        let s = st.add("s", 0);
        st.write(s, 1);
        st.write(s, 2);
        st.commit(|_| {});
        assert_eq!(st.read(s), 2);
    }

    #[test]
    fn unchanged_commit_does_not_wake() {
        let mut st = SignalStore::default();
        let s = st.add("s", 7);
        st.subscribe(s, ComponentId(0), 9);
        st.write(s, 7);
        let mut woken = Vec::new();
        let changed = st.commit(|wakes| woken.extend_from_slice(wakes));
        assert_eq!(changed, 0);
        assert!(woken.is_empty());
        assert!(!st.has_pending(), "dirty state fully cleared");
    }

    #[test]
    fn change_wakes_all_subscribers() {
        let mut st = SignalStore::default();
        let s = st.add("s", 0);
        st.subscribe(s, ComponentId(1), 10);
        st.subscribe(s, ComponentId(2), 20);
        st.write(s, 1);
        let mut woken = Vec::new();
        st.commit(|wakes| woken.extend_from_slice(wakes));
        assert_eq!(woken, vec![(ComponentId(1), 10), (ComponentId(2), 20)]);
    }

    #[test]
    fn lookup_by_name() {
        let mut st = SignalStore::default();
        let s = st.add("rdy", 0);
        assert_eq!(st.lookup("rdy"), Some(s));
        assert_eq!(st.lookup("nope"), None);
        assert_eq!(st.name(s), "rdy");
    }

    #[test]
    fn name_storage_is_shared_not_duplicated() {
        let mut st = SignalStore::default();
        st.reserve(2);
        let s = st.add("shared", 0);
        let (key, _) = st.by_name.get_key_value("shared").expect("registered");
        assert!(
            Rc::ptr_eq(key, &st.names[s.0]),
            "map key and name column share one allocation"
        );
    }

    #[test]
    fn dirty_list_is_reused_across_commits() {
        let mut st = SignalStore::default();
        let s = st.add("s", 0);
        for round in 1..=3u64 {
            st.write(s, round);
            assert!(st.has_pending());
            assert_eq!(st.commit(|_| {}), 1);
        }
        assert_eq!(st.read(s), 3);
    }
}
