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
use std::hash::{BuildHasherDefault, Hasher};

use crate::monitor::{Lit, SignalRead};

/// The fast, non-cryptographic hasher used by the interning tables
/// (the classic `FxHash` multiply-xor scheme; interning keys are tiny
/// `Copy` structs, and lookups sit on the progression hot path).
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

type FxBuild = BuildHasherDefault<FxHasher>;

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

/// Identifier of one interned literal (a resolved signal test).
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

/// One per-node memo slot: the progression result computed at `epoch`.
/// Epoch 0 never matches (arenas start at epoch 1), so slots need no
/// `Option`.
#[derive(Debug, Clone, Copy)]
struct MemoSlot {
    epoch: u64,
    result: NodeId,
}

const MEMO_EMPTY: MemoSlot = MemoSlot {
    epoch: 0,
    result: NodeId::FALSE,
};

/// Sentinel for "no permanent progression result". Node ids are dense from
/// zero, so `u32::MAX` can never be a real node.
const PERM_NONE: NodeId = NodeId(u32::MAX);

/// Sentinel for "unreachable" in the compaction relocation table.
const DEAD: NodeId = NodeId(u32::MAX);

/// The arena size below which [`FormulaArena::wants_compaction`] never
/// fires: small arenas are cheaper to keep than to sweep.
const COMPACT_FLOOR: usize = 64;

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
    index: HashMap<Node, NodeId, FxBuild>,
    lits: Vec<Lit>,
    lit_index: HashMap<Lit, LitId, FxBuild>,
    /// Per-node flag: does the subformula contain a temporal connective?
    /// Boolean-only nodes resolve to a constant in one event and bypass
    /// the memo entirely (see [`progress`](FormulaArena::progress)).
    temporal: Vec<bool>,
    /// Permanent progression results for event-independent rewrites
    /// (`next[n]` countdowns): valid across all epochs,
    /// [`PERM_NONE`] when absent.
    perm: Vec<NodeId>,
    memo: Vec<MemoSlot>,
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

impl ArenaStats {
    /// Memo hit rate in percent (0 when nothing was looked up).
    #[must_use]
    pub fn hit_pct(&self) -> u64 {
        (self.hits * 100)
            .checked_div(self.hits + self.misses)
            .unwrap_or(0)
    }
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
            index: HashMap::with_capacity_and_hasher(total, FxBuild::default()),
            lits: Vec::with_capacity(nodes),
            lit_index: HashMap::with_capacity_and_hasher(nodes, FxBuild::default()),
            temporal: Vec::with_capacity(total),
            perm: Vec::with_capacity(total),
            memo: Vec::with_capacity(total),
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
        let temporal = match node {
            Node::True | Node::False | Node::Lit(_) => false,
            Node::And(a, b) | Node::Or(a, b) => self.temporal[a.idx()] || self.temporal[b.idx()],
            _ => true,
        };
        self.nodes.push(node);
        self.temporal.push(temporal);
        self.perm.push(PERM_NONE);
        self.memo.push(MEMO_EMPTY);
        self.index.insert(node, id);
        id
    }

    fn lit_id(&mut self, lit: &Lit) -> LitId {
        if let Some(&id) = self.lit_index.get(lit) {
            return id;
        }
        let id = LitId(u32::try_from(self.lits.len()).expect("arena literal limit"));
        self.lits.push(lit.clone());
        self.lit_index.insert(lit.clone(), id);
        id
    }

    /// Interns a resolved literal.
    pub fn lit(&mut self, lit: &Lit) -> NodeId {
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
            self.intern(Node::And(a, b))
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
            self.intern(Node::Or(a, b))
        }
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
            let perm = self.perm[id.idx()];
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
            self.temporal[new.idx()] = self.temporal[old];
            let perm = self.perm[old];
            self.perm[new.idx()] = if perm == PERM_NONE {
                PERM_NONE
            } else {
                relocate[perm.idx()]
            };
        }
        let live = live as usize;
        self.nodes.truncate(live);
        self.temporal.truncate(live);
        self.perm.truncate(live);
        self.memo.truncate(live);
        self.memo.fill(MEMO_EMPTY);
        self.index.clear();
        for (i, &node) in self.nodes.iter().enumerate() {
            self.index.insert(node, NodeId(i as u32));
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
        if !self.temporal[id.idx()] {
            return Self::bool_id(self.eval_bool(id, read));
        }
        // `next[n]` countdowns rewrite independently of the event: the
        // successor is cached permanently, so steady-state countdown steps
        // are a single indexed load (no hashing, no epoch check).
        let perm = self.perm[id.idx()];
        if perm != PERM_NONE {
            self.hits += 1;
            return perm;
        }
        if let Node::NextN(n, inner) = self.nodes[id.idx()] {
            self.misses += 1;
            let result = if n == 1 {
                inner
            } else {
                self.next_n(n - 1, inner)
            };
            self.perm[id.idx()] = result;
            return result;
        }
        let slot = self.memo[id.idx()];
        if slot.epoch == self.epoch {
            self.hits += 1;
            return slot.result;
        }
        self.misses += 1;
        let result = self.progress_uncached(id, read, now);
        self.memo[id.idx()] = MemoSlot {
            epoch: self.epoch,
            result,
        };
        result
    }

    /// Evaluates a boolean-only node (no temporal connective below) to its
    /// truth value at the current event.
    fn eval_bool<R: SignalRead + ?Sized>(&self, id: NodeId, read: &R) -> bool {
        match self.nodes[id.idx()] {
            Node::True => true,
            Node::False => false,
            Node::Lit(lit) => self.lits[lit.0 as usize].eval(read),
            Node::And(a, b) => self.eval_bool(a, read) && self.eval_bool(b, read),
            Node::Or(a, b) => self.eval_bool(a, read) || self.eval_bool(b, read),
            _ => unreachable!("temporal node reached the boolean fast path"),
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
    /// reaches the wake planner.
    pub(crate) fn earliest_deadline(&self, id: NodeId) -> Option<u64> {
        match self.nodes[id.idx()] {
            Node::At { deadline_ns, .. } => Some(deadline_ns),
            Node::And(a, b) | Node::Or(a, b) => {
                let (ea, eb) = (self.earliest_deadline(a)?, self.earliest_deadline(b)?);
                Some(ea.min(eb))
            }
            _ => None,
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
    use desim::SignalId;
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
        let a = arena.lit(&test_lit(sig(0), "a", false));
        let b = arena.lit(&test_lit(sig(1), "b", false));
        let ab1 = arena.and(a, b);
        let ab2 = arena.and(a, b);
        assert_eq!(ab1, ab2);
        let n = arena.stats().nodes;
        let _ = arena.and(a, b);
        assert_eq!(arena.stats().nodes, n, "no growth on re-interning");
        // Same literal again: same node.
        assert_eq!(a, arena.lit(&test_lit(sig(0), "a", false)));
    }

    #[test]
    fn smart_constructors_canonicalize() {
        let mut arena = FormulaArena::new();
        let a = arena.lit(&test_lit(sig(0), "a", false));
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
        let a = arena.lit(&test_lit(sig(0), "a", false));
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
        let a = arena.lit(&test_lit(sig(0), "a", false));
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
        let rdy = arena.lit(&test_lit(sig(0), "rdy", false));
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
        let a = arena.lit(&test_lit(sig(0), "a", false));
        let b = arena.lit(&test_lit(sig(1), "b", false));
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
        let a = arena.lit(&test_lit(sig(0), "a", false));
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
        let leaf = arena.lit(&test_lit(sig(n), ["a", "b", "c"][n], rng.flip()));
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
    /// every node to its id, and side tables match the node count.
    fn assert_well_formed(arena: &FormulaArena) {
        let n = arena.nodes.len();
        assert_eq!(arena.index.len(), n);
        assert_eq!((arena.temporal.len(), arena.perm.len()), (n, n));
        assert_eq!(arena.memo.len(), n);
        for (i, &node) in arena.nodes.iter().enumerate() {
            assert_eq!(arena.index[&node], NodeId(i as u32));
            let _ = node.map_children(|c| {
                assert!(c.idx() < i, "child {c:?} of node {i}");
                c
            });
            let perm = arena.perm[i];
            assert!(perm == PERM_NONE || perm.idx() < n);
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
                let (sa, sb) = (a.stats(), b.stats());
                assert_eq!((sa.hits, sa.misses), (sb.hits, sb.misses), "seed {seed}");
            }
            assert_eq!(ra.len(), rb.len());
        }
        assert!(dropped > 0, "compaction never dropped a node");
    }

    #[test]
    fn compaction_is_due_at_twice_the_surviving_size() {
        let mut arena = FormulaArena::new();
        let rdy = arena.lit(&test_lit(sig(0), "rdy", false));
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
        let ds = arena.lit(&test_lit(sig(0), "ds", true));
        let rdy = arena.lit(&test_lit(sig(1), "rdy", false));
        let at = arena.at(180, rdy);
        let body = arena.or(ds, at);
        assert_eq!(arena.display(body).to_string(), "(!ds || at[180ns](rdy))");
        let cmp = arena.lit(&Lit {
            sig: sig(2),
            name: "mode".into(),
            test: crate::monitor::LitTest::Cmp(psl::CmpOp::Eq, 1),
            negated: false,
        });
        let next = arena.next_n(17, cmp);
        assert_eq!(arena.display(next).to_string(), "next[17](mode == 1)");
    }
}
