//! The interned monitor IR: a hash-consed formula arena with memoized
//! progression.
//!
//! Monitor formulas are stored once per distinct shape in a
//! [`FormulaArena`]: every node is identified by a dense [`NodeId`]
//! (`true` and `false` have fixed ids), children are ids, and the smart
//! constructors canonicalize on build — constant folding plus the
//! `And`/`Or` identity, annihilator and idempotence laws — so
//! structurally equal residuals are *pointer equal* ids.
//!
//! Interning is what makes progression memoizable: within one evaluation
//! event, progressing a node is a pure function of `(NodeId, read, now)`,
//! and `read`/`now` are fixed for the whole event. The arena therefore
//! keeps a dense per-node memo stamped with an event epoch: residuals
//! shared across the live instances of a property (the paper's
//! 17-instance pool for `q3`) progress **once per event instead of once
//! per instance**, and steady-state progression allocates nothing — every
//! rewritten node already exists in the arena.
//!
//! Anchoring a `next_ε^τ` obligation interns a fresh `At{deadline}` node
//! per activation, so an arena that never freed nodes would grow with the
//! run length. The owning checker therefore [compacts](FormulaArena::compact)
//! the arena at event boundaries once it has doubled since the last
//! compaction: nodes unreachable from the checker's roots (monitor body,
//! guard, live residuals) are dropped and the survivors renumbered in id
//! order. Canonicalization compares ids only for equality, never for
//! order, so renumbering changes no verdict, residual rendering or memo
//! counter.
//!
//! One arena is owned per attached property
//! (see [`compile`](crate::compile)), so campaign workers and parallel
//! simulations never share interner state and the deterministic merge is
//! untouched.

use std::collections::HashMap;
use std::fmt;

use desim::{FxBuildHasher, FX_SEED};

use crate::monitor::{Lit, SignalRead};

/// Identifier of one interned monitor-formula node in a [`FormulaArena`].
///
/// Ids are dense and arena-local; `true`/`false` are the fixed ids
/// [`NodeId::TRUE`]/[`NodeId::FALSE`]. Hash-consing guarantees that two
/// ids of the same arena are equal iff the formulas are structurally
/// equal (after canonicalization), so residual comparison is an integer
/// compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// The interned `true` formula.
    pub const TRUE: NodeId = NodeId(0);
    /// The interned `false` formula.
    pub const FALSE: NodeId = NodeId(1);

    #[inline]
    fn idx(self) -> usize {
        self.0 as usize
    }

    /// True iff this is [`NodeId::TRUE`] or [`NodeId::FALSE`].
    #[inline]
    #[must_use]
    pub fn is_const(self) -> bool {
        self.0 <= 1
    }
}

/// Identifier of one interned literal (a resolved signal test): its
/// index in the arena's literal table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct LitId(u32);

/// An interned monitor-formula node. Children are [`NodeId`]s and
/// literals are interned separately, so nodes are small `Copy` values
/// and structural hashing touches no heap data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Node {
    True,
    False,
    Lit(LitId),
    And(NodeId, NodeId),
    Or(NodeId, NodeId),
    /// `next[n]`: operand holds `n` evaluation events ahead.
    NextN(u32, NodeId),
    /// `next_ε^τ`, not yet reached: anchors to `now + eps` when progressed
    /// (saturating: a deadline past the last representable instant is never
    /// reached, so its obligation stays pending).
    NextEt {
        eps_ns: u64,
        inner: NodeId,
    },
    /// An anchored obligation: operand must be evaluated at the event at
    /// exactly `deadline_ns`; an event past the deadline fails it.
    At {
        deadline_ns: u64,
        inner: NodeId,
    },
    Until(NodeId, NodeId),
    Release(NodeId, NodeId),
    Always(NodeId),
    Eventually(NodeId),
}

impl Node {
    /// The node with every child id passed through `f`.
    #[inline]
    fn map_children(self, mut f: impl FnMut(NodeId) -> NodeId) -> Node {
        match self {
            Node::True | Node::False | Node::Lit(_) => self,
            Node::And(a, b) => Node::And(f(a), f(b)),
            Node::Or(a, b) => Node::Or(f(a), f(b)),
            Node::NextN(n, inner) => Node::NextN(n, f(inner)),
            Node::NextEt { eps_ns, inner } => Node::NextEt {
                eps_ns,
                inner: f(inner),
            },
            Node::At { deadline_ns, inner } => Node::At {
                deadline_ns,
                inner: f(inner),
            },
            Node::Until(a, b) => Node::Until(f(a), f(b)),
            Node::Release(a, b) => Node::Release(f(a), f(b)),
            Node::Always(a) => Node::Always(f(a)),
            Node::Eventually(a) => Node::Eventually(f(a)),
        }
    }
}

/// Sentinel for "no permanent progression result". Node ids are dense from
/// zero, so `u32::MAX` can never be a real node.
const PERM_NONE: NodeId = NodeId(u32::MAX);

/// What progression keeps per node, in one record so that a progression
/// step reads one place: whether the node is temporal, its permanent
/// result and its per-event memo slot.
#[derive(Debug, Clone, Copy)]
struct NodeState {
    /// The memo slot's event: `result` is the node's progression at
    /// `epoch`. Epoch 0 never matches (arenas start at epoch 1), so the
    /// slot needs no `Option`.
    epoch: u64,
    /// The memoized progression result.
    result: NodeId,
    /// The permanent progression result of an event-independent rewrite
    /// (a `next[n]` countdown): valid across all epochs, [`PERM_NONE`]
    /// when absent.
    perm: NodeId,
    /// Does the subformula contain a temporal connective? Boolean-only
    /// nodes resolve to a constant in one event and bypass the memo
    /// entirely (see [`progress`](FormulaArena::progress)).
    temporal: bool,
    /// Is the subformula made solely of anchored `At` obligations under
    /// `And`/`Or`? Only such a residual has a deadline to wait for (see
    /// [`earliest_deadline`](FormulaArena::earliest_deadline)).
    anchored: bool,
}

impl NodeState {
    /// A fresh node's state: nothing memoized, no permanent result.
    const fn new(temporal: bool, anchored: bool) -> NodeState {
        NodeState {
            epoch: 0,
            result: NodeId::FALSE,
            perm: PERM_NONE,
            temporal,
            anchored,
        }
    }
}

/// Sentinel for "unreachable" in the compaction relocation table.
const DEAD: NodeId = NodeId(u32::MAX);

/// The arena size below which [`FormulaArena::wants_compaction`] never
/// fires: small arenas are cheaper to keep than to sweep.
const COMPACT_FLOOR: usize = 64;

/// Slots of the [`CtorCache`]: a power of two, larger than most shipped
/// properties' whole arena.
const CTOR_CACHE_SLOTS: usize = 64;

/// One [`CtorCache`] slot: the id `intern` gave `And(a, b)` (`or` false)
/// or `Or(a, b)` (`or` true). An empty slot holds [`DEAD`] as `a`, which
/// no real node matches.
#[derive(Debug, Clone, Copy)]
struct CtorSlot {
    a: NodeId,
    b: NodeId,
    or: bool,
    id: NodeId,
}

const CTOR_EMPTY: CtorSlot = CtorSlot {
    a: DEAD,
    b: DEAD,
    or: false,
    id: DEAD,
};

/// A direct-mapped `(op, a, b) → id` cache in front of the interning
/// table for [`and`](FormulaArena::and) and [`or`](FormulaArena::or).
/// Steady-state progression re-interns the same few `And`/`Or` nodes at
/// every event; a hit answers with one indexed load and compare instead
/// of a hash-table probe. A slot only ever holds what `intern` returned
/// for its full key, so a hit is the id a lookup would find. Cleared by
/// [`compact`](FormulaArena::compact), which renumbers ids.
#[derive(Debug)]
struct CtorCache([CtorSlot; CTOR_CACHE_SLOTS]);

impl Default for CtorCache {
    fn default() -> CtorCache {
        CtorCache([CTOR_EMPTY; CTOR_CACHE_SLOTS])
    }
}

impl CtorCache {
    #[inline]
    fn slot(or: bool, a: NodeId, b: NodeId) -> usize {
        let key = (u64::from(a.0) << 32 | u64::from(b.0)) ^ u64::from(or);
        // The top bits of a multiplicative hash index the table.
        (key.wrapping_mul(FX_SEED) >> (64 - CTOR_CACHE_SLOTS.trailing_zeros())) as usize
    }
}

/// A hash-consed arena of monitor formulas with a memoized progression
/// cache.
///
/// See the [module docs](self) for the design; the lifecycle is:
/// [`compile`](crate::compile) lowers a property into the arena, the
/// owning [`PropertyChecker`](crate::PropertyChecker) calls
/// [`begin_event`](FormulaArena::begin_event) once per evaluation event
/// and [`progress`](FormulaArena::progress) per live residual, and
/// [`stats`](FormulaArena::stats) feed the per-property report and the
/// observability counter tracks.
#[derive(Debug, Default)]
pub struct FormulaArena {
    nodes: Vec<Node>,
    index: HashMap<Node, NodeId, FxBuildHasher>,
    /// The literal table, deduplicated by a linear scan: a property has
    /// a handful of literals, fewer than a hash table would pay for.
    lits: Vec<Lit>,
    /// Per-node progression state, parallel to `nodes`.
    state: Vec<NodeState>,
    epoch: u64,
    hits: u64,
    misses: u64,
    /// Largest node count ever held (compaction shrinks `nodes`).
    peak_nodes: usize,
    /// Node count at which the next compaction is due: twice the live
    /// size after the last one, at least [`COMPACT_FLOOR`].
    compact_at: usize,
    /// Compaction scratch: old id → new id ([`DEAD`] when dropped). Valid
    /// for [`relocated`](FormulaArena::relocated) until the next compaction.
    relocate: Vec<NodeId>,
    /// Compaction scratch: the mark phase's work list.
    stack: Vec<NodeId>,
    /// Allocated by the first [`begin_event`](FormulaArena::begin_event),
    /// so compiling and attaching a property neither allocate nor move
    /// it; interning before the first event runs without it.
    ctor_cache: Option<Box<CtorCache>>,
}

/// Cumulative arena counters, surfaced in
/// [`PropertyReport`](crate::PropertyReport) and on the
/// [`ARENA_COUNTER_TRACK`](abv_obs::ARENA_COUNTER_TRACK) trace track.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArenaStats {
    /// Arena size high-water mark: the most distinct interned nodes held
    /// at once (compaction drops unreachable ones).
    pub nodes: usize,
    /// Progression-memo hits: progressions answered from the per-event
    /// cache instead of recomputed.
    pub hits: u64,
    /// Progression-memo misses (actual progression computations).
    pub misses: u64,
}

impl FormulaArena {
    /// An arena holding only the `true`/`false` constants.
    #[cfg(test)]
    #[must_use]
    pub fn new() -> FormulaArena {
        FormulaArena::with_capacity(0)
    }

    /// An empty arena (constants only) with room for `nodes` more nodes
    /// and as many literals, so lowering a property of `nodes` AST nodes
    /// never regrows its tables.
    #[must_use]
    pub fn with_capacity(nodes: usize) -> FormulaArena {
        let total = nodes + 2;
        let mut arena = FormulaArena {
            nodes: Vec::with_capacity(total),
            index: HashMap::with_capacity_and_hasher(total, FxBuildHasher::default()),
            lits: Vec::with_capacity(nodes),
            state: Vec::with_capacity(total),
            epoch: 1,
            compact_at: COMPACT_FLOOR,
            ..FormulaArena::default()
        };
        let t = arena.intern(Node::True);
        let f = arena.intern(Node::False);
        debug_assert_eq!(t, NodeId::TRUE);
        debug_assert_eq!(f, NodeId::FALSE);
        arena
    }

    /// Cumulative size and memo counters.
    #[must_use]
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            nodes: self.peak_nodes.max(self.nodes.len()),
            hits: self.hits,
            misses: self.misses,
        }
    }

    fn intern(&mut self, node: Node) -> NodeId {
        if let Some(&id) = self.index.get(&node) {
            return id;
        }
        let id = NodeId(u32::try_from(self.nodes.len()).expect("arena node limit"));
        // Children are interned before their parents, so the flags of `a`
        // and `b` are already present.
        let (temporal, anchored) = match node {
            Node::True | Node::False | Node::Lit(_) => (false, false),
            Node::And(a, b) | Node::Or(a, b) => {
                let (a, b) = (self.state[a.idx()], self.state[b.idx()]);
                (a.temporal || b.temporal, a.anchored && b.anchored)
            }
            Node::At { .. } => (true, true),
            _ => (true, false),
        };
        self.nodes.push(node);
        self.state.push(NodeState::new(temporal, anchored));
        self.index.insert(node, id);
        id
    }

    /// The id of `lit` in the literal table, appended if absent. Literals
    /// are equal when they test the same signal the same way: a signal id
    /// names one signal, so the names agree too.
    fn lit_id(&mut self, lit: Lit) -> LitId {
        let same = |l: &Lit| l.sig == lit.sig && l.test == lit.test && l.negated == lit.negated;
        let at = match self.lits.iter().position(same) {
            Some(at) => at,
            None => {
                self.lits.push(lit);
                self.lits.len() - 1
            }
        };
        LitId(u32::try_from(at).expect("arena literal limit"))
    }

    /// Interns a resolved literal.
    pub fn lit(&mut self, lit: Lit) -> NodeId {
        let lit = self.lit_id(lit);
        self.intern(Node::Lit(lit))
    }

    fn bool_id(b: bool) -> NodeId {
        if b {
            NodeId::TRUE
        } else {
            NodeId::FALSE
        }
    }

    /// `a && b`, canonicalized: constants fold (`false` annihilates,
    /// `true` is the identity) and `a && a` collapses to `a` — free under
    /// hash-consing, where idempotence is an id compare.
    pub fn and(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if a == NodeId::FALSE || b == NodeId::FALSE {
            NodeId::FALSE
        } else if a == NodeId::TRUE {
            b
        } else if b == NodeId::TRUE || a == b {
            a
        } else {
            self.intern_binary(false, a, b)
        }
    }

    /// `a || b`, canonicalized (dual of [`and`](FormulaArena::and)).
    pub fn or(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if a == NodeId::TRUE || b == NodeId::TRUE {
            NodeId::TRUE
        } else if a == NodeId::FALSE {
            b
        } else if b == NodeId::FALSE || a == b {
            a
        } else {
            self.intern_binary(true, a, b)
        }
    }

    /// Interns `Or(a, b)` (`or`) or `And(a, b)` through the constructor
    /// cache.
    #[inline]
    fn intern_binary(&mut self, or: bool, a: NodeId, b: NodeId) -> NodeId {
        let slot = CtorCache::slot(or, a, b);
        if let Some(cache) = &self.ctor_cache {
            let hit = cache.0[slot];
            if hit.a == a && hit.b == b && hit.or == or {
                return hit.id;
            }
        }
        let id = self.intern(if or { Node::Or(a, b) } else { Node::And(a, b) });
        if let Some(cache) = &mut self.ctor_cache {
            cache.0[slot] = CtorSlot { a, b, or, id };
        }
        id
    }

    /// `next[n] inner`.
    pub fn next_n(&mut self, n: u32, inner: NodeId) -> NodeId {
        self.intern(Node::NextN(n, inner))
    }

    /// `next_ε^τ inner`, pre-anchoring.
    pub fn next_et(&mut self, eps_ns: u64, inner: NodeId) -> NodeId {
        self.intern(Node::NextEt { eps_ns, inner })
    }

    /// An anchored obligation at the absolute instant `deadline_ns`.
    pub fn at(&mut self, deadline_ns: u64, inner: NodeId) -> NodeId {
        self.intern(Node::At { deadline_ns, inner })
    }

    /// `a until b`.
    pub fn until(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.intern(Node::Until(a, b))
    }

    /// `a release b`.
    pub fn release(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.intern(Node::Release(a, b))
    }

    /// `always inner`.
    pub fn always(&mut self, inner: NodeId) -> NodeId {
        self.intern(Node::Always(inner))
    }

    /// `eventually inner`.
    pub fn eventually(&mut self, inner: NodeId) -> NodeId {
        self.intern(Node::Eventually(inner))
    }

    /// True once the arena has doubled since the last compaction (and holds
    /// at least [`COMPACT_FLOOR`] nodes).
    #[inline]
    pub(crate) fn wants_compaction(&self) -> bool {
        self.nodes.len() >= self.compact_at
    }

    /// Drops every node not reachable from `roots` and renumbers the
    /// survivors in id order, so children stay below their parents and the
    /// constants keep their fixed ids. Permanent `next[n]` successors count
    /// as edges: a surviving countdown keeps its cached successor, so memo
    /// hit/miss counts are the same as without compaction.
    ///
    /// Callers must translate every id they hold with
    /// [`relocated`](FormulaArena::relocated) before the next progression.
    /// Call only between evaluation events: the per-event memo is reset.
    pub(crate) fn compact(&mut self, roots: impl IntoIterator<Item = NodeId>) {
        let n = self.nodes.len();
        self.peak_nodes = self.peak_nodes.max(n);

        // Mark. `relocate` doubles as the mark bit: anything but DEAD is
        // reachable. Permanent successors may have higher ids than their
        // source, so marking walks a work list, not a reverse sweep.
        self.relocate.clear();
        self.relocate.resize(n, DEAD);
        self.stack.clear();
        self.stack
            .extend([NodeId::TRUE, NodeId::FALSE].into_iter().chain(roots));
        while let Some(id) = self.stack.pop() {
            if self.relocate[id.idx()] != DEAD {
                continue;
            }
            self.relocate[id.idx()] = id;
            let stack = &mut self.stack;
            let _ = self.nodes[id.idx()].map_children(|c| {
                stack.push(c);
                c
            });
            let perm = self.state[id.idx()].perm;
            if perm != PERM_NONE {
                self.stack.push(perm);
            }
        }

        // Number the survivors in id order.
        let mut live = 0u32;
        for slot in &mut self.relocate {
            if *slot != DEAD {
                *slot = NodeId(live);
                live += 1;
            }
        }

        // Move survivors down. A survivor's new id never exceeds its old
        // one, so the in-place sweep only overwrites entries already read.
        let relocate = &self.relocate;
        for old in 0..n {
            let new = relocate[old];
            if new == DEAD {
                continue;
            }
            self.nodes[new.idx()] = self.nodes[old].map_children(|c| relocate[c.idx()]);
            let mut state = NodeState::new(self.state[old].temporal, self.state[old].anchored);
            let perm = self.state[old].perm;
            if perm != PERM_NONE {
                state.perm = relocate[perm.idx()];
            }
            self.state[new.idx()] = state;
        }
        let live = live as usize;
        self.nodes.truncate(live);
        self.state.truncate(live);
        self.index.clear();
        for (i, &node) in self.nodes.iter().enumerate() {
            self.index.insert(node, NodeId(i as u32));
        }
        if let Some(cache) = &mut self.ctor_cache {
            cache.0.fill(CTOR_EMPTY);
        }
        self.compact_at = (2 * live).max(COMPACT_FLOOR);
    }

    /// The new id of `id` after the last [`compact`](FormulaArena::compact);
    /// `id` must have been reachable from its roots.
    #[inline]
    pub(crate) fn relocated(&self, id: NodeId) -> NodeId {
        let new = self.relocate[id.idx()];
        debug_assert_ne!(new, DEAD, "relocated an unreachable node");
        new
    }

    /// Opens a new evaluation event: progression results memoized under
    /// earlier epochs become stale. The owning checker calls this exactly
    /// once per evaluation event, before any
    /// [`progress`](FormulaArena::progress) of that event.
    pub fn begin_event(&mut self) {
        self.epoch += 1;
        if self.ctor_cache.is_none() {
            self.ctor_cache = Some(Box::default());
        }
    }

    /// Progresses `id` through the evaluation event at `now`: the result
    /// is the obligation that must hold from the *next* evaluation event
    /// on. Memoized per [`begin_event`](FormulaArena::begin_event) epoch,
    /// so residuals shared across instances are rewritten once per event.
    ///
    /// Boolean-only residuals (no temporal connective anywhere below)
    /// resolve to a constant in place: they create no nodes and nothing
    /// about them is shareable across instances, so they bypass the memo —
    /// this keeps single-shot boolean activations as cheap as a direct
    /// tree walk.
    pub fn progress<R: SignalRead + ?Sized>(&mut self, id: NodeId, read: &R, now: u64) -> NodeId {
        if id.is_const() {
            return id;
        }
        let state = self.state[id.idx()];
        if !state.temporal {
            return Self::bool_id(self.eval_bool(id, read));
        }
        // `next[n]` countdowns rewrite independently of the event: the
        // successor is cached permanently, so steady-state countdown steps
        // are a single indexed load (no hashing, no epoch check).
        if state.perm != PERM_NONE {
            self.hits += 1;
            return state.perm;
        }
        if let Node::NextN(n, inner) = self.nodes[id.idx()] {
            self.misses += 1;
            let result = if n == 1 {
                inner
            } else {
                self.next_n(n - 1, inner)
            };
            self.state[id.idx()].perm = result;
            return result;
        }
        if state.epoch == self.epoch {
            self.hits += 1;
            return state.result;
        }
        self.misses += 1;
        let result = self.progress_uncached(id, read, now);
        self.memoize(id, result);
        result
    }

    /// The boolean-only first disjunct `b` of a temporal `Or(b, t)` node —
    /// what [`progresses_to_true`](FormulaArena::progresses_to_true) can
    /// settle `id` by — or `None` for any other node.
    pub(crate) fn boolean_first_disjunct(&self, id: NodeId) -> Option<NodeId> {
        match self.nodes[id.idx()] {
            Node::Or(b, _) if self.state[id.idx()].temporal && !self.state[b.idx()].temporal => {
                Some(b)
            }
            _ => None,
        }
    }

    /// Settles `progress(id)` to `true` without the general path when that
    /// is cheap: `id` is `Or(first, _)` with `first` from
    /// [`boolean_first_disjunct`](FormulaArena::boolean_first_disjunct),
    /// `id` is not yet memoized in this epoch, and `first` holds. Then
    /// `progress` would count one miss, progress `first` to `true` through
    /// the boolean path, return `true` before touching the second disjunct
    /// and memoize that — which is exactly what this records. Returns
    /// `false`, having changed nothing, in every other case; the caller
    /// then runs [`progress`](FormulaArena::progress) as usual.
    ///
    /// Only a *first* disjunct qualifies: `progress` progresses the first
    /// disjunct before the second, so settling on a second disjunct would
    /// skip the memo lookups of the first.
    #[inline]
    pub(crate) fn progresses_to_true<R: SignalRead + ?Sized>(
        &mut self,
        id: NodeId,
        first: NodeId,
        read: &R,
    ) -> bool {
        debug_assert_eq!(self.boolean_first_disjunct(id), Some(first));
        if self.state[id.idx()].epoch == self.epoch || !self.eval_bool(first, read) {
            return false;
        }
        self.misses += 1;
        self.memoize(id, NodeId::TRUE);
        true
    }

    /// Records `result` as the progression of `id` in this epoch.
    #[inline]
    fn memoize(&mut self, id: NodeId, result: NodeId) {
        let state = &mut self.state[id.idx()];
        state.epoch = self.epoch;
        state.result = result;
    }

    /// Evaluates a boolean-only node (no temporal connective below) to its
    /// truth value at the current event.
    ///
    /// `And`/`Or` short-circuit left to right. The walk loops down the
    /// right operand, tests a literal left operand in place and recurses
    /// only into a left operand that is itself a connective, so a chain
    /// costs one call per left-nested connective instead of one per node.
    fn eval_bool<R: SignalRead + ?Sized>(&self, mut id: NodeId, read: &R) -> bool {
        loop {
            let (a, b, or) = match self.nodes[id.idx()] {
                Node::True => return true,
                Node::False => return false,
                Node::Lit(lit) => return self.lits[lit.0 as usize].eval(read),
                Node::And(a, b) => (a, b, false),
                Node::Or(a, b) => (a, b, true),
                _ => unreachable!("temporal node reached the boolean fast path"),
            };
            let left = match self.nodes[a.idx()] {
                Node::Lit(lit) => self.lits[lit.0 as usize].eval(read),
                _ => self.eval_bool(a, read),
            };
            // `a && b` is settled by a false `a`, `a || b` by a true one.
            if left == or {
                return or;
            }
            id = b;
        }
    }

    fn progress_uncached<R: SignalRead + ?Sized>(
        &mut self,
        id: NodeId,
        read: &R,
        now: u64,
    ) -> NodeId {
        match self.nodes[id.idx()] {
            Node::True | Node::False => id,
            Node::Lit(lit) => Self::bool_id(self.lits[lit.0 as usize].eval(read)),
            Node::And(a, b) => {
                let pa = self.progress(a, read, now);
                if pa == NodeId::FALSE {
                    return NodeId::FALSE;
                }
                let pb = self.progress(b, read, now);
                self.and(pa, pb)
            }
            Node::Or(a, b) => {
                let pa = self.progress(a, read, now);
                if pa == NodeId::TRUE {
                    return NodeId::TRUE;
                }
                let pb = self.progress(b, read, now);
                self.or(pa, pb)
            }
            Node::NextN(1, inner) => inner,
            Node::NextN(n, inner) => self.next_n(n - 1, inner),
            Node::NextEt { eps_ns, inner } => self.at(now.saturating_add(eps_ns), inner),
            Node::At { deadline_ns, inner } => {
                if now < deadline_ns {
                    id // event not consumed by this obligation
                } else if now == deadline_ns {
                    self.progress(inner, read, now)
                } else {
                    NodeId::FALSE // deadline passed without an observable event
                }
            }
            // φ U ψ  ≡  ψ ∨ (φ ∧ X(φ U ψ))
            Node::Until(a, b) => {
                let pb = self.progress(b, read, now);
                if pb == NodeId::TRUE {
                    return NodeId::TRUE;
                }
                let pa = self.progress(a, read, now);
                let tail = self.and(pa, id);
                self.or(pb, tail)
            }
            // φ R ψ  ≡  ψ ∧ (φ ∨ X(φ R ψ))
            Node::Release(a, b) => {
                let pb = self.progress(b, read, now);
                if pb == NodeId::FALSE {
                    return NodeId::FALSE;
                }
                let pa = self.progress(a, read, now);
                let tail = self.or(pa, id);
                self.and(pb, tail)
            }
            Node::Always(a) => {
                let pa = self.progress(a, read, now);
                self.and(pa, id)
            }
            Node::Eventually(a) => {
                let pa = self.progress(a, read, now);
                self.or(pa, id)
            }
        }
    }

    /// The earliest anchored deadline of a residual made solely of `At`
    /// obligations under `And`/`Or`, or `None` when any other connective
    /// forces every-event observation. Constants below `And`/`Or` are
    /// absorbed by the constructors, and a bare constant residual never
    /// reaches the wake planner. The node's `anchored` flag answers `None`
    /// without walking the tree.
    pub(crate) fn earliest_deadline(&self, id: NodeId) -> Option<u64> {
        self.state[id.idx()].anchored.then(|| self.min_deadline(id))
    }

    /// The least deadline of an `anchored` node.
    fn min_deadline(&self, id: NodeId) -> u64 {
        match self.nodes[id.idx()] {
            Node::At { deadline_ns, .. } => deadline_ns,
            Node::And(a, b) | Node::Or(a, b) => self.min_deadline(a).min(self.min_deadline(b)),
            _ => unreachable!("an anchored node holds only `At` under `And`/`Or`"),
        }
    }

    /// Three-valued end-of-simulation evaluation of a residual: anchored
    /// obligations with deadlines at or before `end` are false (their
    /// instant passed without an observable event), later ones and
    /// event-counting obligations are unknown.
    pub(crate) fn finish_eval(&self, id: NodeId, end: u64) -> Option<bool> {
        match self.nodes[id.idx()] {
            Node::True => Some(true),
            Node::False => Some(false),
            Node::At { deadline_ns, .. } if deadline_ns <= end => Some(false),
            Node::And(a, b) => match (self.finish_eval(a, end), self.finish_eval(b, end)) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
            Node::Or(a, b) => match (self.finish_eval(a, end), self.finish_eval(b, end)) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            },
            _ => None,
        }
    }

    /// The earliest missed deadline contributing to a false finish
    /// verdict.
    pub(crate) fn earliest_missed(&self, id: NodeId, end: u64) -> Option<u64> {
        let mut earliest: Option<u64> = None;
        self.walk_missed(id, end, &mut earliest);
        earliest
    }

    fn walk_missed(&self, id: NodeId, end: u64, earliest: &mut Option<u64>) {
        match self.nodes[id.idx()] {
            Node::At { deadline_ns, .. } if deadline_ns <= end => {
                *earliest = Some(earliest.map_or(deadline_ns, |e| e.min(deadline_ns)));
            }
            Node::And(a, b) | Node::Or(a, b) => {
                self.walk_missed(a, end, earliest);
                self.walk_missed(b, end, earliest);
            }
            _ => {}
        }
    }

    /// A human-readable rendering of `id`, for failure messages and
    /// diagnostics.
    #[must_use]
    pub fn display(&self, id: NodeId) -> DisplayNode<'_> {
        DisplayNode { arena: self, id }
    }

    fn fmt_node(&self, id: NodeId, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.nodes[id.idx()] {
            Node::True => f.write_str("true"),
            Node::False => f.write_str("false"),
            Node::Lit(lit) => {
                let lit = &self.lits[lit.0 as usize];
                if lit.negated {
                    f.write_str("!")?;
                }
                match lit.test {
                    crate::monitor::LitTest::Bool => write!(f, "{}", lit.name),
                    crate::monitor::LitTest::Cmp(op, rhs) => {
                        if lit.negated {
                            write!(f, "({} {op} {rhs})", lit.name)
                        } else {
                            write!(f, "{} {op} {rhs}", lit.name)
                        }
                    }
                }
            }
            Node::And(a, b) => {
                f.write_str("(")?;
                self.fmt_node(a, f)?;
                f.write_str(" && ")?;
                self.fmt_node(b, f)?;
                f.write_str(")")
            }
            Node::Or(a, b) => {
                f.write_str("(")?;
                self.fmt_node(a, f)?;
                f.write_str(" || ")?;
                self.fmt_node(b, f)?;
                f.write_str(")")
            }
            Node::NextN(n, inner) => {
                write!(f, "next[{n}](")?;
                self.fmt_node(inner, f)?;
                f.write_str(")")
            }
            Node::NextEt { eps_ns, inner } => {
                write!(f, "next_et[{eps_ns}ns](")?;
                self.fmt_node(inner, f)?;
                f.write_str(")")
            }
            Node::At { deadline_ns, inner } => {
                write!(f, "at[{deadline_ns}ns](")?;
                self.fmt_node(inner, f)?;
                f.write_str(")")
            }
            Node::Until(a, b) => {
                f.write_str("(")?;
                self.fmt_node(a, f)?;
                f.write_str(" until ")?;
                self.fmt_node(b, f)?;
                f.write_str(")")
            }
            Node::Release(a, b) => {
                f.write_str("(")?;
                self.fmt_node(a, f)?;
                f.write_str(" release ")?;
                self.fmt_node(b, f)?;
                f.write_str(")")
            }
            Node::Always(inner) => {
                f.write_str("always(")?;
                self.fmt_node(inner, f)?;
                f.write_str(")")
            }
            Node::Eventually(inner) => {
                f.write_str("eventually(")?;
                self.fmt_node(inner, f)?;
                f.write_str(")")
            }
        }
    }
}

/// Borrowed [`fmt::Display`] view of an arena residual (see
/// [`FormulaArena::display`]).
#[derive(Debug, Clone, Copy)]
pub struct DisplayNode<'a> {
    arena: &'a FormulaArena,
    id: NodeId,
}

impl fmt::Display for DisplayNode<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.arena.fmt_node(self.id, f)
    }
}

#[cfg(test)]
impl FormulaArena {
    /// True when both arenas interned the same nodes and literals, in the
    /// same order, so under the same ids.
    pub(crate) fn same_tables(&self, other: &FormulaArena) -> bool {
        self.nodes == other.nodes && self.lits == other.lits
    }
}

/// Test helper: a literal over an arbitrary signal id.
#[cfg(test)]
pub(crate) fn test_lit(sig: desim::SignalId, name: &str, negated: bool) -> Lit {
    Lit {
        sig,
        name: name.into(),
        test: crate::monitor::LitTest::Bool,
        negated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::LitTest;
    use desim::SignalId;
    use psl::CmpOp;
    use std::cell::RefCell;
    use std::collections::HashMap;
    use tinyrng::TinyRng;

    fn sig(n: usize) -> SignalId {
        thread_local! {
            static IDS: RefCell<Vec<SignalId>> = const { RefCell::new(Vec::new()) };
            static SIM: RefCell<desim::Simulation> = RefCell::new(desim::Simulation::new());
        }
        IDS.with(|ids| {
            let mut ids = ids.borrow_mut();
            while ids.len() <= n {
                let next = ids.len();
                let id = SIM.with(|sim| sim.borrow_mut().add_signal(&format!("s{next}"), 0));
                ids.push(id);
            }
            ids[n]
        })
    }

    fn env(pairs: &[(usize, u64)]) -> impl Fn(SignalId) -> u64 + '_ {
        let map: HashMap<SignalId, u64> = pairs.iter().map(|&(s, v)| (sig(s), v)).collect();
        move |s| map.get(&s).copied().unwrap_or(0)
    }

    #[test]
    fn constants_have_fixed_ids() {
        let arena = FormulaArena::new();
        assert_eq!(arena.stats().nodes, 2);
        assert!(NodeId::TRUE.is_const());
        assert!(NodeId::FALSE.is_const());
    }

    #[test]
    fn interning_dedupes_structurally_equal_nodes() {
        let mut arena = FormulaArena::new();
        let a = arena.lit(test_lit(sig(0), "a", false));
        let b = arena.lit(test_lit(sig(1), "b", false));
        let ab1 = arena.and(a, b);
        let ab2 = arena.and(a, b);
        assert_eq!(ab1, ab2);
        let n = arena.stats().nodes;
        let _ = arena.and(a, b);
        assert_eq!(arena.stats().nodes, n, "no growth on re-interning");
        // Same literal again: same node.
        assert_eq!(a, arena.lit(test_lit(sig(0), "a", false)));
    }

    #[test]
    fn smart_constructors_canonicalize() {
        let mut arena = FormulaArena::new();
        let a = arena.lit(test_lit(sig(0), "a", false));
        assert_eq!(arena.and(NodeId::TRUE, a), a, "identity");
        assert_eq!(arena.or(NodeId::FALSE, a), a, "identity");
        assert_eq!(arena.and(NodeId::FALSE, a), NodeId::FALSE, "annihilator");
        assert_eq!(arena.or(NodeId::TRUE, a), NodeId::TRUE, "annihilator");
        assert_eq!(arena.and(a, a), a, "idempotence");
        assert_eq!(arena.or(a, a), a, "idempotence");
        assert_eq!(
            arena.and(NodeId::TRUE, NodeId::FALSE),
            NodeId::FALSE,
            "constant folding"
        );
    }

    #[test]
    fn progression_is_memoized_within_an_event() {
        let mut arena = FormulaArena::new();
        let a = arena.lit(test_lit(sig(0), "a", false));
        let u = arena.until(a, a);
        let read = env(&[]);
        arena.begin_event();
        let r1 = arena.progress(u, &read, 10);
        let before = arena.stats();
        let r2 = arena.progress(u, &read, 10);
        let after = arena.stats();
        assert_eq!(r1, r2);
        assert_eq!(after.hits, before.hits + 1, "second progression is a hit");
        assert_eq!(after.misses, before.misses, "nothing recomputed");
        // A new event invalidates the memo. Only `u` is counted: the bare
        // literal resolves through the boolean fast path, not the memo.
        arena.begin_event();
        let _ = arena.progress(u, &read, 20);
        assert_eq!(arena.stats().misses, after.misses + 1, "u recomputed");
    }

    #[test]
    fn progression_matches_tree_semantics() {
        let mut arena = FormulaArena::new();
        let a = arena.lit(test_lit(sig(0), "a", false));
        let f = arena.next_n(3, a);
        let read = env(&[(0, 1)]);
        arena.begin_event();
        let f1 = arena.progress(f, &read, 10);
        assert_eq!(f1, arena.next_n(2, a));
        arena.begin_event();
        let f2 = arena.progress(f1, &read, 20);
        arena.begin_event();
        let f3 = arena.progress(f2, &read, 30);
        arena.begin_event();
        assert_eq!(arena.progress(f3, &read, 40), NodeId::TRUE);
    }

    #[test]
    fn next_et_anchors_and_resolves_at_deadline() {
        let mut arena = FormulaArena::new();
        let rdy = arena.lit(test_lit(sig(0), "rdy", false));
        let f = arena.next_et(170, rdy);
        let hi = env(&[(0, 1)]);
        let lo = env(&[]);
        arena.begin_event();
        let anchored = arena.progress(f, &lo, 10);
        assert_eq!(anchored, arena.at(180, rdy));
        arena.begin_event();
        assert_eq!(arena.progress(anchored, &hi, 100), anchored, "pre-deadline");
        arena.begin_event();
        assert_eq!(arena.progress(anchored, &hi, 180), NodeId::TRUE);
        arena.begin_event();
        assert_eq!(arena.progress(anchored, &lo, 180), NodeId::FALSE);
        arena.begin_event();
        assert_eq!(arena.progress(anchored, &hi, 190), NodeId::FALSE, "missed");
    }

    #[test]
    fn steady_state_progression_allocates_no_nodes() {
        let mut arena = FormulaArena::new();
        let a = arena.lit(test_lit(sig(0), "a", false));
        let b = arena.lit(test_lit(sig(1), "b", false));
        let u = arena.until(a, b);
        let read = env(&[(0, 1)]);
        arena.begin_event();
        let r = arena.progress(u, &read, 10);
        assert_eq!(r, u, "unresolved until keeps its residual id");
        let size = arena.stats().nodes;
        for k in 1..50u64 {
            arena.begin_event();
            let r = arena.progress(u, &read, 10 + k);
            assert_eq!(r, u);
        }
        assert_eq!(arena.stats().nodes, size, "no allocation in steady state");
    }

    #[test]
    fn finish_eval_and_missed_deadlines() {
        let mut arena = FormulaArena::new();
        let a = arena.lit(test_lit(sig(0), "a", false));
        let at100 = arena.at(100, a);
        let at200 = arena.at(200, a);
        let both = arena.or(at100, at200);
        assert_eq!(arena.finish_eval(both, 50), None);
        assert_eq!(arena.finish_eval(both, 150), None, "at200 still open");
        assert_eq!(arena.finish_eval(both, 250), Some(false));
        assert_eq!(arena.earliest_missed(both, 250), Some(100));
        assert_eq!(arena.earliest_deadline(both), Some(100));
        let u = arena.until(a, a);
        assert_eq!(
            arena.earliest_deadline(u),
            None,
            "until observes everything"
        );
    }

    /// A random formula over three literals, `depth` connectives deep.
    fn random_formula(arena: &mut FormulaArena, rng: &mut TinyRng, depth: u32) -> NodeId {
        let n = rng.range_usize(0, 3);
        let leaf = arena.lit(test_lit(sig(n), ["a", "b", "c"][n], rng.flip()));
        if depth == 0 {
            return leaf;
        }
        let a = random_formula(arena, rng, depth - 1);
        match rng.range_u32(0, 9) {
            0 => arena.and(a, leaf),
            1 => arena.or(leaf, a),
            2 => arena.next_n(rng.range_u32(1, 4), a),
            3 => arena.next_et(10 * rng.range_u64(1, 4), a),
            4 => arena.until(leaf, a),
            5 => arena.release(a, leaf),
            6 => arena.always(a),
            7 => arena.eventually(a),
            _ => a,
        }
    }

    /// Ids are dense, children sit below their parents, the index maps
    /// every node to its id, side tables match the node count, every
    /// `anchored` flag matches the node's children, and every filled
    /// constructor-cache slot holds the id the index gives its key.
    fn assert_well_formed(arena: &FormulaArena) {
        let cache = arena.ctor_cache.iter().flat_map(|c| c.0.iter());
        for slot in cache.filter(|s| s.a != DEAD) {
            let node = if slot.or {
                Node::Or(slot.a, slot.b)
            } else {
                Node::And(slot.a, slot.b)
            };
            assert_eq!(
                arena.index.get(&node),
                Some(&slot.id),
                "cache slot {slot:?}"
            );
        }
        let n = arena.nodes.len();
        assert_eq!(arena.index.len(), n);
        assert_eq!(arena.state.len(), n);
        for (i, &node) in arena.nodes.iter().enumerate() {
            assert_eq!(arena.index[&node], NodeId(i as u32));
            let _ = node.map_children(|c| {
                assert!(c.idx() < i, "child {c:?} of node {i}");
                c
            });
            let perm = arena.state[i].perm;
            assert!(perm == PERM_NONE || perm.idx() < n);
            let anchored = match node {
                Node::At { .. } => true,
                Node::And(a, b) | Node::Or(a, b) => {
                    arena.state[a.idx()].anchored && arena.state[b.idx()].anchored
                }
                _ => false,
            };
            assert_eq!(
                arena.state[i].anchored, anchored,
                "anchored flag of node {i}"
            );
        }
    }

    /// Monitor-shaped run over twin arenas built from the same random
    /// decisions: fixed random bodies activate an instance per event and
    /// every live residual progresses. Only `b` is compacted (with the
    /// bodies and residuals as roots), and every residual must render the
    /// same in both, with the same memo counters.
    #[test]
    fn compaction_preserves_progression_and_rendering() {
        let mut dropped = 0;
        for seed in 0..24u64 {
            let (mut a, mut b) = (FormulaArena::new(), FormulaArena::new());
            let (mut shape_a, mut shape_b) = (TinyRng::new(seed), TinyRng::new(seed));
            let mut values = TinyRng::new(!seed);
            let bodies_a: Vec<NodeId> = (0..4)
                .map(|_| random_formula(&mut a, &mut shape_a, 3))
                .collect();
            let mut bodies_b: Vec<NodeId> = (0..4)
                .map(|_| random_formula(&mut b, &mut shape_b, 3))
                .collect();
            let (mut ra, mut rb): (Vec<NodeId>, Vec<NodeId>) = (Vec::new(), Vec::new());
            for event in 1..=120u64 {
                if event % 25 == 0 {
                    let before = b.nodes.len();
                    b.compact(bodies_b.iter().chain(&rb).copied());
                    for r in bodies_b.iter_mut().chain(&mut rb) {
                        *r = b.relocated(*r);
                    }
                    assert!(b.stats().nodes >= before, "high-water mark");
                    assert_well_formed(&b);
                    dropped += before - b.nodes.len();
                }
                let frame: Vec<(usize, u64)> =
                    (0..3).map(|s| (s, values.range_u64(0, 2))).collect();
                let read = env(&frame);
                let now = 10 * event;
                a.begin_event();
                b.begin_event();
                let body = (event % 4) as usize;
                ra.push(bodies_a[body]);
                rb.push(bodies_b[body]);
                for (x, y) in ra.iter_mut().zip(&mut rb) {
                    *x = a.progress(*x, &read, now);
                    *y = b.progress(*y, &read, now);
                    assert_eq!(
                        a.display(*x).to_string(),
                        b.display(*y).to_string(),
                        "seed {seed} event {event}"
                    );
                }
                ra.retain(|r| !r.is_const());
                rb.retain(|r| !r.is_const());
                assert_well_formed(&b);
                let (sa, sb) = (a.stats(), b.stats());
                assert_eq!((sa.hits, sa.misses), (sb.hits, sb.misses), "seed {seed}");
            }
            assert_eq!(ra.len(), rb.len());
        }
        assert!(dropped > 0, "compaction never dropped a node");
    }

    /// Compaction renumbers ids, so a constructor-cache entry from before
    /// it would name the wrong node: after `compact`, `and`/`or` must
    /// return the relocated ids, which are what a cache-less lookup of the
    /// index finds.
    #[test]
    fn constructor_cache_returns_relocated_ids_after_compaction() {
        let mut arena = FormulaArena::new();
        let lits: Vec<NodeId> = (0..4)
            .map(|i| arena.lit(test_lit(sig(i), ["a", "b", "c", "d"][i], false)))
            .collect();
        let (a, b, c, d) = (lits[0], lits[1], lits[2], lits[3]);
        assert!(arena.ctor_cache.is_none(), "set-up runs without the cache");
        arena.begin_event();
        // Garbage below the survivors, so compaction moves every id above.
        let dead = arena.until(c, d);
        let _ = arena.and(dead, a);
        let ab = arena.and(a, b);
        let ba = arena.or(b, a);
        let cd = arena.or(c, d);
        assert_eq!(arena.and(a, b), ab, "cache hit before compaction");
        assert_well_formed(&arena);

        arena.compact([ab, ba]);
        assert_well_formed(&arena);
        let cache = arena
            .ctor_cache
            .as_ref()
            .expect("allocated by the first event");
        assert!(cache.0.iter().all(|s| s.a == DEAD), "cleared");
        let old_ab = ab;
        let [a, b, ab, ba] = [a, b, ab, ba].map(|id| arena.relocated(id));
        assert_ne!(ab, old_ab, "compaction moved the cached node");
        for _ in 0..2 {
            // The first round misses the cache, the second hits it.
            assert_eq!(arena.and(a, b), ab);
            assert_eq!(arena.or(b, a), ba);
            assert_eq!(arena.index[&Node::And(a, b)], ab);
            assert_eq!(arena.index[&Node::Or(b, a)], ba);
        }
        // `c || d` was dropped: re-building it interns a fresh node.
        let c = arena.lit(test_lit(sig(2), "c", false));
        let d = arena.lit(test_lit(sig(3), "d", false));
        let fresh = arena.or(c, d);
        assert_eq!(fresh.idx(), arena.nodes.len() - 1, "a new node");
        assert_ne!(fresh, cd);
        assert_eq!(arena.or(c, d), fresh);
        assert_well_formed(&arena);
    }

    /// `progresses_to_true` settles an activation only when the general
    /// path would compute it from scratch to `true`, and records exactly
    /// that computation: one miss and a `true` memo entry.
    #[test]
    fn vacuity_shortcut_matches_progress() {
        let mut arena = FormulaArena::new();
        let nds = arena.lit(test_lit(sig(0), "ds", true));
        let rdy = arena.lit(test_lit(sig(1), "rdy", false));
        let et = arena.next_et(170, rdy);
        let body = arena.or(nds, et);
        assert_eq!(arena.boolean_first_disjunct(body), Some(nds));
        assert_eq!(arena.boolean_first_disjunct(et), None);
        let swapped = arena.or(et, nds);
        assert_eq!(
            arena.boolean_first_disjunct(swapped),
            None,
            "a boolean second disjunct does not qualify"
        );
        let (idle, fired) = (env(&[]), env(&[(0, 1)]));

        // ds low, fresh epoch: settled, one miss, memoized as `true`.
        arena.begin_event();
        let before = arena.stats();
        assert!(arena.progresses_to_true(body, nds, &idle));
        let after = arena.stats();
        assert_eq!((after.hits, after.misses), (before.hits, before.misses + 1));
        assert_eq!(arena.progress(body, &idle, 10), NodeId::TRUE);
        assert_eq!(arena.stats().hits, after.hits + 1, "the memo entry is live");

        // The body already progressed in this epoch: not settled, and the
        // general path counts the memo hit it always did.
        arena.begin_event();
        assert_eq!(arena.progress(body, &idle, 20), NodeId::TRUE);
        let before = arena.stats();
        assert!(!arena.progresses_to_true(body, nds, &idle));
        assert_eq!(arena.stats(), before, "nothing recorded");
        assert_eq!(arena.progress(body, &idle, 20), NodeId::TRUE);
        assert_eq!(arena.stats().hits, before.hits + 1);

        // ds high: not settled, nothing recorded; the general path anchors.
        arena.begin_event();
        let before = arena.stats();
        assert!(!arena.progresses_to_true(body, nds, &fired));
        assert_eq!(arena.stats(), before);
        let anchored = arena.progress(body, &fired, 30);
        assert_eq!(anchored, arena.at(200, rdy));
    }

    /// The recursive evaluator that [`FormulaArena::eval_bool`] replaced,
    /// with its own literal test: the reference semantics of a
    /// boolean-only node.
    fn reference_eval(arena: &FormulaArena, id: NodeId, read: &dyn Fn(SignalId) -> u64) -> bool {
        match arena.nodes[id.idx()] {
            Node::True => true,
            Node::False => false,
            Node::Lit(lit) => {
                let lit = &arena.lits[lit.0 as usize];
                let raw = read(lit.sig);
                let holds = match lit.test {
                    LitTest::Bool => raw != 0,
                    LitTest::Cmp(CmpOp::Eq, rhs) => raw == rhs,
                    LitTest::Cmp(CmpOp::Ne, rhs) => raw != rhs,
                    LitTest::Cmp(CmpOp::Lt, rhs) => raw < rhs,
                    LitTest::Cmp(CmpOp::Le, rhs) => raw <= rhs,
                    LitTest::Cmp(CmpOp::Gt, rhs) => raw > rhs,
                    LitTest::Cmp(CmpOp::Ge, rhs) => raw >= rhs,
                };
                if lit.negated {
                    !holds
                } else {
                    holds
                }
            }
            Node::And(a, b) => reference_eval(arena, a, read) && reference_eval(arena, b, read),
            Node::Or(a, b) => reference_eval(arena, a, read) || reference_eval(arena, b, read),
            _ => unreachable!("temporal node in a boolean tree"),
        }
    }

    /// Signals the boolean differential reads.
    const BOOL_SIGNALS: usize = 6;

    /// A random literal: a bare or compared signal, negated half the time.
    fn random_bool_leaf(arena: &mut FormulaArena, rng: &mut TinyRng) -> NodeId {
        const OPS: [CmpOp; 6] = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        let n = rng.range_usize(0, BOOL_SIGNALS);
        let test = if rng.range_u32(0, 3) == 0 {
            LitTest::Bool
        } else {
            LitTest::Cmp(*rng.pick(&OPS), rng.range_u64(0, 4))
        };
        arena.lit(Lit {
            sig: sig(n),
            name: format!("s{n}").into(),
            test,
            negated: rng.flip(),
        })
    }

    /// A random boolean tree of `leaves` literals. Shape 0 nests to the
    /// left, 1 to the right, 2 splits evenly and 3 splits at random.
    fn random_bool_tree(
        arena: &mut FormulaArena,
        rng: &mut TinyRng,
        shape: u32,
        leaves: usize,
    ) -> NodeId {
        if leaves == 1 {
            return random_bool_leaf(arena, rng);
        }
        let left = match shape {
            0 => leaves - 1,
            1 => 1,
            2 => leaves / 2,
            _ => rng.range_usize(1, leaves),
        };
        let a = random_bool_tree(arena, rng, shape, left);
        let b = random_bool_tree(arena, rng, shape, leaves - left);
        if rng.flip() {
            arena.and(a, b)
        } else {
            arena.or(a, b)
        }
    }

    /// `eval_bool` (and `progress`, which calls it on boolean nodes)
    /// against [`reference_eval`] over 800 seeded boolean trees —
    /// left-deep, right-deep, balanced and random — each under 16 random
    /// signal valuations. A fifth of the trees have
    /// [`psl::parser::MAX_DEPTH`]` + 1` leaves, so their left- and
    /// right-deep chains nest as deep as the parser allows.
    #[test]
    fn boolean_evaluation_matches_the_recursive_reference() {
        let max = psl::parser::MAX_DEPTH;
        let mut rng = TinyRng::new(0xB00_1EA2);
        let (mut deepest, mut both) = (0, [0u32; 2]);
        for tree in 0..800u32 {
            let mut arena = FormulaArena::new();
            let shape = tree % 4;
            let leaves = if tree % 5 == 0 {
                max + 1
            } else {
                rng.range_usize(1, max + 2)
            };
            let id = random_bool_tree(&mut arena, &mut rng, shape, leaves);
            if shape < 2 {
                deepest = deepest.max(bool_depth(&arena, id));
            }
            for _ in 0..16 {
                let frame: Vec<(usize, u64)> = (0..BOOL_SIGNALS)
                    .map(|s| (s, rng.range_u64(0, 4)))
                    .collect();
                let read = env(&frame);
                let expected = reference_eval(&arena, id, &read);
                assert_eq!(
                    arena.eval_bool(id, &read),
                    expected,
                    "tree {tree} (shape {shape}, {leaves} leaves) at {frame:?}: {}",
                    arena.display(id)
                );
                arena.begin_event();
                assert_eq!(
                    arena.progress(id, &read, 10),
                    FormulaArena::bool_id(expected)
                );
                both[usize::from(expected)] += 1;
            }
        }
        assert_eq!(deepest, max, "chains reach the parser's nesting limit");
        assert!(
            both.iter().all(|&n| n > 1000),
            "both verdicts common: {both:?}"
        );
    }

    /// Connectives on the longest root-to-leaf path.
    fn bool_depth(arena: &FormulaArena, id: NodeId) -> usize {
        match arena.nodes[id.idx()] {
            Node::And(a, b) | Node::Or(a, b) => 1 + bool_depth(arena, a).max(bool_depth(arena, b)),
            _ => 0,
        }
    }

    #[test]
    fn compaction_is_due_at_twice_the_surviving_size() {
        let mut arena = FormulaArena::new();
        let rdy = arena.lit(test_lit(sig(0), "rdy", false));
        let body = arena.next_et(170, rdy);
        let read = env(&[]);
        let mut live = body;
        let mut now = 0;
        while !arena.wants_compaction() {
            now += 10;
            arena.begin_event();
            live = arena.progress(body, &read, now);
        }
        assert_eq!(arena.nodes.len(), COMPACT_FLOOR, "one `at` node per event");
        arena.compact([body, live]);
        assert_eq!(arena.nodes.len(), 5, "true, false, rdy, body, live at");
        let expected = format!("at[{}ns](rdy)", now + 170);
        assert_eq!(arena.display(arena.relocated(live)).to_string(), expected);
        assert_eq!(arena.stats().nodes, COMPACT_FLOOR, "high-water mark");
        assert!(!arena.wants_compaction(), "the floor still applies");
    }

    #[test]
    fn display_renders_residuals() {
        let mut arena = FormulaArena::new();
        let ds = arena.lit(test_lit(sig(0), "ds", true));
        let rdy = arena.lit(test_lit(sig(1), "rdy", false));
        let at = arena.at(180, rdy);
        let body = arena.or(ds, at);
        assert_eq!(arena.display(body).to_string(), "(!ds || at[180ns](rdy))");
        let cmp = arena.lit(Lit {
            sig: sig(2),
            name: "mode".into(),
            test: crate::monitor::LitTest::Cmp(psl::CmpOp::Eq, 1),
            negated: false,
        });
        let next = arena.next_n(17, cmp);
        assert_eq!(arena.display(next).to_string(), "next[17](mode == 1)");
    }
}
