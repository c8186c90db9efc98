//! Tiered Q-value storage: the dense [`QTable`] plus a copy-on-write
//! overlay backend, behind one [`QStore`] front.
//!
//! ## Why
//!
//! A fleet of serving sessions is memory-bound long before it is
//! CPU-bound. A dense table only builds the 64-row blocks its session
//! touches (one ~37 KiB block for a cold session, see
//! [`crate::qtable`]), but a warm-started session clones every block
//! its donor built. Yet a session only ever *writes* the states it
//! visits — a few dozen rows before convergence freezes the policy —
//! while every unvisited row still holds exactly the values it started
//! from. [`CowQTable`] makes that observation structural: an
//! immutable shared base table (`Arc`'d, lane-aligned, fully built,
//! from a zero table or a donor policy) plus a private sparse overlay
//! of materialized rows. Reads fall through to the base until the
//! first write to a state copies that row — lanes *and* its incremental
//! argmax cache entry — into the overlay, after which the row behaves
//! exactly like a dense row.
//!
//! ## The determinism contract
//!
//! Every read answered by a `CowQTable` is **bit-identical** to a dense
//! [`QTable`] holding the same logical values: `get`, `best_action`,
//! `max_value`, the per-row lane views, and the cached `RowMax`
//! `best_action` shortcuts through. This is not re-derived
//! behaviour — both backends call the same `pub(crate)` row helpers in
//! [`crate::qtable`] (`scan_lanes`, `note_row_write`, `best_allowed`),
//! so the tie-breaking and cache-maintenance branches are shared code.
//! Property tests in `crates/rl/tests/properties.rs` pin the contract
//! over arbitrary write sequences, masks and ε-greedy draws.
//!
//! ## Persistence
//!
//! [`QStore`] serializes as the flattened dense wire format (`{states,
//! actions, values}`) — stateless deserialization cannot rebind an
//! `Arc`'d base, so an agent snapshot always carries its full logical
//! table and restores as `Dense`. An overlay has no persistent form of
//! its own.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::qtable::{
    best_allowed, lane_values, note_row_write, QLane, QTable, RowMax, ShapeMismatchError, LANES,
};

/// Which storage backend a [`QStore`] uses. Carried by store and fleet
/// memory accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QStoreKind {
    /// A private dense [`QTable`] per agent.
    Dense,
    /// A shared immutable base plus a private copy-on-write overlay.
    Cow,
}

impl QStoreKind {
    /// The backend's lowercase name, as reports print it.
    pub fn name(self) -> &'static str {
        match self {
            QStoreKind::Dense => "dense",
            QStoreKind::Cow => "cow",
        }
    }
}

impl std::fmt::Display for QStoreKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Memory accounting of one store, in the shape fleet benchmarks
/// aggregate: what this agent owns privately vs what it shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QStoreStats {
    /// The storage backend.
    pub kind: QStoreKind,
    /// Bytes owned exclusively by this store: the dense table's built
    /// blocks (lanes + argmax cache; see [`QTable::memory_bytes`]), or
    /// the overlay's index, lane arena and row caches.
    pub private_bytes: u64,
    /// Bytes of the shared base table (zero for a dense store). Counted
    /// once per fleet, not once per session.
    pub shared_bytes: u64,
    /// Materialized overlay rows (zero for a dense store).
    pub overlay_rows: u64,
}

/// Open-addressed overlay slots: `EMPTY_SLOT`, or `state << 32 | row`.
const EMPTY_SLOT: u64 = u64::MAX;
/// Fibonacci hashing multiplier (2^64 / φ).
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;
/// Initial slot-table capacity (power of two).
const MIN_SLOTS: usize = 16;

/// A copy-on-write Q-table: an immutable shared base plus a private
/// sparse overlay of rows materialized on first write.
///
/// The overlay is an open-addressed `state → row` index (Fibonacci
/// hashing, linear probing, grown at 3/4 load) over a lane arena that
/// keeps each materialized row cache-line-aligned exactly like dense
/// storage, with one [`RowMax`] argmax-cache entry per row. Lookups are
/// O(1) expected; a store that never writes costs ~200 bytes beyond its
/// `Arc` on the base.
#[derive(Debug, Clone)]
pub struct CowQTable {
    base: Arc<QTable>,
    /// Lanes per row, cached from the base.
    stride: usize,
    /// Open-addressed `state → row` slots; always a power of two long.
    slots: Vec<u64>,
    /// Materialized rows, `stride` lanes each, in materialization order.
    lanes: Vec<QLane>,
    /// Per-materialized-row argmax cache, parallel to the arena rows.
    maxes: Vec<RowMax>,
    /// The state each arena row shadows, parallel to `maxes`.
    row_states: Vec<u32>,
}

impl CowQTable {
    /// Creates an empty overlay over a shared base table, building every
    /// block of the base first: overlays on other threads then never
    /// race to build a shared block, and the base's
    /// [`QTable::memory_bytes`] is the same whichever session reads it.
    pub fn new(base: Arc<QTable>) -> Self {
        assert!(
            base.states() < u32::MAX as usize && base.actions() < u32::MAX as usize,
            "base table dimensions exceed the overlay's u32 index range"
        );
        base.materialize();
        let stride = base.stride();
        CowQTable {
            base,
            stride,
            slots: vec![EMPTY_SLOT; MIN_SLOTS],
            lanes: Vec::new(),
            maxes: Vec::new(),
            row_states: Vec::new(),
        }
    }

    /// The shared base table this overlay shadows.
    pub fn base(&self) -> &Arc<QTable> {
        &self.base
    }

    /// Number of states.
    pub fn states(&self) -> usize {
        self.base.states()
    }

    /// Number of actions.
    pub fn actions(&self) -> usize {
        self.base.actions()
    }

    /// Number of materialized overlay rows.
    pub fn overlay_rows(&self) -> usize {
        self.maxes.len()
    }

    /// Fraction of the state space this overlay has materialized.
    pub fn occupancy(&self) -> f64 {
        self.overlay_rows() as f64 / self.states() as f64
    }

    /// Bytes owned exclusively by this overlay: slot index, lane arena
    /// and per-row caches (allocated capacity, which is what the fleet
    /// actually pays), plus the struct itself.
    pub fn private_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.slots.capacity() * std::mem::size_of::<u64>()
            + self.lanes.capacity() * std::mem::size_of::<QLane>()
            + self.maxes.capacity() * std::mem::size_of::<RowMax>()
            + self.row_states.capacity() * std::mem::size_of::<u32>()
    }

    fn slot_of(&self, state: usize) -> usize {
        let shift = 64 - self.slots.len().trailing_zeros();
        ((state as u64).wrapping_mul(HASH_MUL) >> shift) as usize
    }

    /// The overlay row shadowing `state`, if one was materialized.
    fn find(&self, state: usize) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.slot_of(state);
        loop {
            let slot = self.slots[i];
            if slot == EMPTY_SLOT {
                return None;
            }
            if (slot >> 32) as usize == state {
                return Some((slot & 0xffff_ffff) as usize);
            }
            i = (i + 1) & mask;
        }
    }

    fn insert_slot(&mut self, state: usize, row: usize) {
        let mask = self.slots.len() - 1;
        let mut i = self.slot_of(state);
        while self.slots[i] != EMPTY_SLOT {
            i = (i + 1) & mask;
        }
        self.slots[i] = (state as u64) << 32 | row as u64;
    }

    fn grow_if_needed(&mut self) {
        if (self.maxes.len() + 1) * 4 <= self.slots.len() * 3 {
            return;
        }
        let new_cap = self.slots.len() * 2;
        self.slots.clear();
        // Doubling keeps this amortized O(1) per materialized row.
        self.slots.resize(new_cap, EMPTY_SLOT);
        for row in 0..self.row_states.len() {
            let state = self.row_states[row] as usize;
            self.insert_slot(state, row);
        }
    }

    /// The overlay row for `state`, materializing it — base lanes and
    /// base argmax-cache entry copied — on first write.
    fn row_for_write(&mut self, state: usize) -> usize {
        if let Some(row) = self.find(state) {
            return row;
        }
        self.grow_if_needed();
        let row = self.maxes.len();
        // Copy-on-write materialization: each row is copied at most once
        // per session.
        self.lanes.extend_from_slice(self.base.row_lines(state));
        self.maxes.push(self.base.row_max_entry(state));
        self.row_states.push(state as u32);
        self.insert_slot(state, row);
        row
    }

    fn check_index(&self, state: usize, action: usize) {
        assert!(
            state < self.states(),
            "state {state} out of range ({})",
            self.states()
        );
        assert!(
            action < self.actions(),
            "action {action} out of range ({})",
            self.actions()
        );
    }

    /// The lanes a read of `state` resolves to: the materialized overlay
    /// row, or the shared base row.
    pub(crate) fn row_lines(&self, state: usize) -> &[QLane] {
        match self.find(state) {
            Some(row) => &self.lanes[row * self.stride..(row + 1) * self.stride],
            None => self.base.row_lines(state),
        }
    }

    /// Q(S, A).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn get(&self, state: usize, action: usize) -> f64 {
        self.check_index(state, action);
        self.row_lines(state)[action / LANES].0[action % LANES]
    }

    /// Sets Q(S, A), materializing the row on first write.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn set(&mut self, state: usize, action: usize, value: f64) {
        self.check_index(state, action);
        let actions = self.actions();
        let row = self.row_for_write(state);
        let lanes = &mut self.lanes[row * self.stride..(row + 1) * self.stride];
        lanes[action / LANES].0[action % LANES] = value;
        let lanes = &self.lanes[row * self.stride..(row + 1) * self.stride];
        note_row_write(&mut self.maxes[row], lanes, actions, action, value);
    }

    /// Adds `delta` to Q(S, A) — the Algorithm 1 update's in-place form.
    pub fn add(&mut self, state: usize, action: usize, delta: f64) {
        self.check_index(state, action);
        let current = self.get(state, action);
        self.set(state, action, current + delta);
    }

    /// The action with the largest Q value among those `mask` allows —
    /// same semantics, same tie-breaking and same cached fast path as
    /// [`QTable::best_action`], via the shared row helpers.
    ///
    /// # Panics
    ///
    /// Panics if `mask.len() != actions` or `state` is out of range.
    pub fn best_action(&self, state: usize, mask: &[bool]) -> Option<(usize, f64)> {
        assert_eq!(
            mask.len(),
            self.actions(),
            "mask length must equal action count"
        );
        assert!(state < self.states(), "state out of range");
        match self.find(state) {
            Some(row) => {
                let lanes = &self.lanes[row * self.stride..(row + 1) * self.stride];
                best_allowed(lanes, self.actions(), self.maxes[row], mask)
            }
            None => self.base.best_action(state, mask),
        }
    }

    /// The largest allowed Q value of a row, or 0.0 when nothing is
    /// allowed — the bootstrap term.
    pub fn max_value(&self, state: usize, mask: &[bool]) -> f64 {
        self.best_action(state, mask).map_or(0.0, |(_, v)| v)
    }

    /// Materializes the full logical table (base plus overlay) as a
    /// dense [`QTable`].
    pub fn to_table(&self) -> QTable {
        let (states, actions) = (self.states(), self.actions());
        let mut values = Vec::with_capacity(states * actions);
        for state in 0..states {
            values.extend(lane_values(self.row_lines(state), actions));
        }
        QTable::from_values(states, actions, &values)
    }
}

/// Q-value storage behind the agent: a private dense table, or a shared
/// base with a copy-on-write overlay. Every read is bit-identical
/// across backends holding the same logical values — backends are a
/// memory choice, never a behaviour choice.
#[derive(Debug, Clone)]
pub enum QStore {
    /// A private dense [`QTable`].
    Dense(QTable),
    /// A shared base plus private overlay.
    Cow(CowQTable),
}

impl QStore {
    /// Wraps a dense table.
    pub fn dense(q: QTable) -> Self {
        QStore::Dense(q)
    }

    /// An empty copy-on-write overlay over a shared base.
    pub fn cow(base: Arc<QTable>) -> Self {
        QStore::Cow(CowQTable::new(base))
    }

    /// Which backend this store uses.
    pub fn kind(&self) -> QStoreKind {
        match self {
            QStore::Dense(_) => QStoreKind::Dense,
            QStore::Cow(_) => QStoreKind::Cow,
        }
    }

    /// The overlay backend, when this store is one.
    pub fn as_cow(&self) -> Option<&CowQTable> {
        match self {
            QStore::Dense(_) => None,
            QStore::Cow(c) => Some(c),
        }
    }

    /// Number of states.
    pub fn states(&self) -> usize {
        match self {
            QStore::Dense(q) => q.states(),
            QStore::Cow(c) => c.states(),
        }
    }

    /// Number of actions.
    pub fn actions(&self) -> usize {
        match self {
            QStore::Dense(q) => q.actions(),
            QStore::Cow(c) => c.actions(),
        }
    }

    /// Q(S, A).
    pub fn get(&self, state: usize, action: usize) -> f64 {
        match self {
            QStore::Dense(q) => q.get(state, action),
            QStore::Cow(c) => c.get(state, action),
        }
    }

    /// Sets Q(S, A).
    pub fn set(&mut self, state: usize, action: usize, value: f64) {
        match self {
            QStore::Dense(q) => q.set(state, action, value),
            QStore::Cow(c) => c.set(state, action, value),
        }
    }

    /// Adds `delta` to Q(S, A).
    pub fn add(&mut self, state: usize, action: usize, delta: f64) {
        match self {
            QStore::Dense(q) => q.add(state, action, delta),
            QStore::Cow(c) => c.add(state, action, delta),
        }
    }

    /// The lowest-index allowed maximizer of a row and its value — see
    /// [`QTable::best_action`].
    pub fn best_action(&self, state: usize, mask: &[bool]) -> Option<(usize, f64)> {
        match self {
            QStore::Dense(q) => q.best_action(state, mask),
            QStore::Cow(c) => c.best_action(state, mask),
        }
    }

    /// The largest allowed Q value of a row, or 0.0 when nothing is
    /// allowed.
    pub fn max_value(&self, state: usize, mask: &[bool]) -> f64 {
        self.best_action(state, mask).map_or(0.0, |(_, v)| v)
    }

    /// Bytes this store owns privately (shared base excluded): a dense
    /// table's built blocks, or an overlay.
    pub fn memory_bytes(&self) -> usize {
        match self {
            QStore::Dense(q) => q.memory_bytes(),
            QStore::Cow(c) => c.private_bytes(),
        }
    }

    /// Bytes of the shared base (zero for a dense store); a base is
    /// fully built, so this is the whole table.
    pub fn shared_bytes(&self) -> usize {
        match self {
            QStore::Dense(_) => 0,
            QStore::Cow(c) => c.base().memory_bytes(),
        }
    }

    /// This store's memory accounting, for fleet aggregation.
    pub fn stats(&self) -> QStoreStats {
        QStoreStats {
            kind: self.kind(),
            private_bytes: self.memory_bytes() as u64,
            shared_bytes: self.shared_bytes() as u64,
            overlay_rows: self.as_cow().map_or(0, |c| c.overlay_rows()) as u64,
        }
    }

    /// The full logical table as a dense [`QTable`] — the dense↔cow
    /// conversion path. A dense store is cloned, so blocks it has not
    /// built stay unbuilt in both.
    pub fn to_table(&self) -> QTable {
        match self {
            QStore::Dense(q) => q.clone(),
            QStore::Cow(c) => c.to_table(),
        }
    }

    /// FNV-1a digest of the logical values — equal across backends
    /// holding the same values.
    pub fn value_digest(&self) -> u64 {
        match self {
            QStore::Dense(q) => q.value_digest(),
            // The overlay digest must walk rows through the overlay, so
            // materializing is the straightforward correct path; digests
            // are taken in tests and tools, never per decision.
            QStore::Cow(c) => c.to_table().value_digest(),
        }
    }

    /// Copies every value from `source` — learning transfer across
    /// stores of any backend pairing. Dense→dense is a flat memcpy; a
    /// copy-on-write recipient materializes every row (a full-table
    /// transfer defeats sparsity by definition).
    ///
    /// # Errors
    ///
    /// Returns an error describing the shape mismatch if the dimensions
    /// differ.
    pub fn transfer_from(&mut self, source: &QStore) -> Result<(), ShapeMismatchError> {
        let (states, actions) = (self.states(), self.actions());
        if states != source.states() || actions != source.actions() {
            return Err(ShapeMismatchError {
                expected: (states, actions),
                found: (source.states(), source.actions()),
            });
        }
        match (&mut *self, source) {
            (QStore::Dense(dst), QStore::Dense(src)) => dst.transfer_from(src),
            (dst, src) => {
                for state in 0..states {
                    for action in 0..actions {
                        dst.set(state, action, src.get(state, action));
                    }
                }
                Ok(())
            }
        }
    }

    /// The lanes of one row.
    pub(crate) fn row_lines(&self, state: usize) -> &[QLane] {
        match self {
            QStore::Dense(q) => q.row_lines(state),
            QStore::Cow(c) => c.row_lines(state),
        }
    }
}

impl From<QTable> for QStore {
    fn from(q: QTable) -> Self {
        QStore::Dense(q)
    }
}

impl PartialEq for QStore {
    /// Logical-value equality: two stores are equal when they hold the
    /// same `states × actions` values, regardless of backend or of how
    /// the values are split between base and overlay. (Padding lanes are
    /// `0.0` on both sides, so comparing lanes compares logical values.)
    fn eq(&self, other: &Self) -> bool {
        self.states() == other.states()
            && self.actions() == other.actions()
            && (0..self.states()).all(|s| self.row_lines(s) == other.row_lines(s))
    }
}

// A store serializes as the flattened dense wire format — byte-for-byte
// the [`QTable`] format, so agent snapshots written before tiered
// storage existed keep loading, and snapshots of cow-backed agents load
// anywhere. Stateless deserialization has no base table to bind an
// `Arc` to, so every store restores as dense.
impl Serialize for QStore {
    fn to_value(&self) -> serde::Value {
        match self {
            QStore::Dense(q) => q.to_value(),
            QStore::Cow(c) => c.to_table().to_value(),
        }
    }
}

impl Deserialize for QStore {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        QTable::from_value(value).map(QStore::Dense)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(states: usize, actions: usize, seed: u64) -> Arc<QTable> {
        Arc::new(QTable::new_random(states, actions, seed))
    }

    /// A dense table and a cow overlay fed the identical write sequence.
    fn mirrored_writes(writes: &[(usize, usize, f64)]) -> (QTable, CowQTable) {
        let b = base(8, 11, 42);
        let mut dense = (*b).clone();
        let mut cow = CowQTable::new(b);
        for &(s, a, v) in writes {
            dense.set(s, a, v);
            cow.set(s, a, v);
        }
        (dense, cow)
    }

    #[test]
    fn reads_fall_through_to_the_base_until_first_write() {
        let b = base(4, 9, 7);
        let mut cow = CowQTable::new(b.clone());
        assert_eq!(cow.overlay_rows(), 0);
        for s in 0..4 {
            for a in 0..9 {
                assert_eq!(cow.get(s, a), b.get(s, a));
            }
        }
        cow.set(2, 3, 5.0);
        assert_eq!(cow.overlay_rows(), 1);
        assert_eq!(cow.get(2, 3), 5.0);
        // The write shadows only its own row; the base is untouched.
        assert_ne!(b.get(2, 3), 5.0);
        assert_eq!(cow.get(1, 3), b.get(1, 3));
    }

    #[test]
    fn writes_materialize_each_row_exactly_once() {
        let mut cow = CowQTable::new(base(8, 5, 1));
        for i in 0..50 {
            cow.set(i % 3, i % 5, i as f64);
        }
        assert_eq!(cow.overlay_rows(), 3);
        assert!((cow.occupancy() - 3.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn overlay_matches_dense_after_arbitrary_writes() {
        let writes = [
            (0, 0, 3.0),
            (7, 10, -2.0),
            (0, 5, 3.0), // tie with (0,0) at a higher index
            (3, 1, 9.0),
            (3, 1, -9.0), // lower the row maximum: rescan path
            (0, 0, -1.0),
        ];
        let (dense, cow) = mirrored_writes(&writes);
        let all = vec![true; 11];
        let mut partial = vec![true; 11];
        partial[0] = false;
        partial[5] = false;
        for s in 0..8 {
            for a in 0..11 {
                assert_eq!(dense.get(s, a), cow.get(s, a), "({s},{a})");
            }
            assert_eq!(dense.best_action(s, &all), cow.best_action(s, &all), "{s}");
            assert_eq!(
                dense.best_action(s, &partial),
                cow.best_action(s, &partial),
                "{s} masked"
            );
            assert_eq!(dense.max_value(s, &all), cow.max_value(s, &all));
        }
    }

    #[test]
    fn add_composes_with_base_values() {
        let b = base(2, 3, 9);
        let mut cow = CowQTable::new(b.clone());
        cow.add(1, 2, 0.5);
        assert_eq!(cow.get(1, 2), b.get(1, 2) + 0.5);
    }

    #[test]
    fn index_grows_past_the_initial_capacity() {
        // Materialize more rows than MIN_SLOTS * 3/4 to force rehashing.
        let b = Arc::new(QTable::new_zeroed(1000, 4));
        let mut cow = CowQTable::new(b);
        for s in 0..800 {
            cow.set(s, s % 4, s as f64);
        }
        assert_eq!(cow.overlay_rows(), 800);
        for s in 0..800 {
            assert_eq!(cow.get(s, s % 4), s as f64, "{s}");
        }
        assert_eq!(cow.get(900, 0), 0.0);
    }

    #[test]
    fn to_table_round_trips_the_logical_values() {
        let (dense, cow) = mirrored_writes(&[(1, 1, 4.0), (6, 9, -3.0)]);
        assert_eq!(cow.to_table(), dense);
        assert_eq!(cow.to_table().value_digest(), dense.value_digest());
    }

    #[test]
    fn qstore_equality_is_logical_across_backends() {
        let (dense, cow) = mirrored_writes(&[(2, 2, 8.0)]);
        let a = QStore::Dense(dense);
        let b = QStore::Cow(cow);
        assert_eq!(a, b);
        assert_eq!(a.value_digest(), b.value_digest());
        let mut c = b.clone();
        c.set(0, 0, 1234.0);
        assert_ne!(a, c);
    }

    #[test]
    fn qstore_serde_flattens_to_the_dense_wire_format() {
        let (dense, cow) = mirrored_writes(&[(4, 7, 2.5)]);
        let store = QStore::Cow(cow);
        let json = serde_json::to_string(&store).unwrap();
        assert!(json.contains("\"values\":["), "dense wire format expected");
        let back: QStore = serde_json::from_str(&json).unwrap();
        assert_eq!(back.kind(), QStoreKind::Dense, "restores as dense");
        assert_eq!(back, store, "logical values survive");
        assert_eq!(back.to_table(), dense);
    }

    #[test]
    fn transfer_between_backends_copies_values() {
        let donor_table = {
            let mut q = QTable::new_zeroed(3, 4);
            q.set(2, 3, 9.0);
            q
        };
        let mut cow_store = QStore::cow(base(3, 4, 11));
        cow_store
            .transfer_from(&QStore::Dense(donor_table.clone()))
            .unwrap();
        assert_eq!(cow_store.to_table(), donor_table);
        // And back: dense recipient from a cow donor.
        let mut dense_store = QStore::Dense(QTable::new_random(3, 4, 77));
        dense_store.transfer_from(&cow_store).unwrap();
        assert_eq!(dense_store.to_table(), donor_table);
        // Shape mismatch is typed, as for dense↔dense.
        let mut small = QStore::Dense(QTable::new_zeroed(2, 4));
        let err = small.transfer_from(&cow_store).unwrap_err();
        assert_eq!(err.expected, (2, 4));
        assert_eq!(err.found, (3, 4));
    }

    #[test]
    fn stats_account_for_sharing() {
        use crate::qtable::BLOCK_ROWS;
        let b = base(3_072, 66, 0);
        // The dense copy is taken before the overlay builds the base:
        // building a shared base never builds the table it came from.
        let mut dense = QStore::Dense((*b).clone());
        let mut cow = QStore::cow(b);
        assert_eq!(dense.stats().private_bytes, 0, "nothing built yet");
        for s in 0..40 {
            dense.set(s, 0, 1.0);
            cow.set(s, 0, 1.0);
        }
        let dense_stats = dense.stats();
        assert_eq!(dense_stats.kind, QStoreKind::Dense);
        assert_eq!(dense_stats.shared_bytes, 0);
        assert_eq!(dense_stats.overlay_rows, 0);
        assert_eq!(dense_stats.private_bytes, dense.memory_bytes() as u64);
        assert_eq!(
            dense_stats.private_bytes,
            QTable::full_bytes(BLOCK_ROWS, 66) as u64,
            "states 0..40 all live in block 0"
        );
        let cow_stats = cow.stats();
        assert_eq!(cow_stats.kind, QStoreKind::Cow);
        assert_eq!(cow_stats.overlay_rows, 40);
        assert_eq!(
            cow_stats.shared_bytes,
            QTable::full_bytes(3_072, 66) as u64,
            "the shared base is fully built"
        );
        assert!(
            cow_stats.private_bytes * 20 < cow_stats.shared_bytes,
            "a 40-row overlay ({} B) must undercut the base it shares ({} B) by >20x",
            cow_stats.private_bytes,
            cow_stats.shared_bytes
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cow_out_of_range_state_panics() {
        let cow = CowQTable::new(base(2, 2, 0));
        let _ = cow.get(2, 0);
    }

    #[test]
    #[should_panic(expected = "mask length")]
    fn cow_mask_length_mismatch_panics() {
        let cow = CowQTable::new(base(2, 3, 0));
        let _ = cow.best_action(0, &[true, true]);
    }
}
