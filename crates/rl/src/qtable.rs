//! The Q-table: a dense `states × actions` lookup table of action values.
//!
//! The paper sizes this concretely: about 3,072 states × ~66 actions,
//! for a memory footprint of roughly 0.4 MB (Section VI-C) — "only 0.01%
//! of the 3 GB DRAM capacity of a typical mid-end mobile device".
//!
//! ## The argmax cache
//!
//! A greedy decision is an argmax over one state's row, and the paper's
//! pitch is that this costs microseconds. Scanning ~66 actions per
//! decision is already cheap, but the serving hot path asks for the same
//! row maximum on *every* decision and *every* learning update (the
//! bootstrap term), so the table keeps a per-state cache of the
//! lowest-index maximizer. The cache is maintained incrementally on
//! [`QTable::set`]/[`QTable::add`]: a write that raises the maximum or
//! ties it at a lower index updates the cache in O(1); only a write that
//! lowers the current maximum triggers an O(actions) row rescan. With a
//! feasibility mask, the cached entry answers in O(1) whenever the cached
//! action is allowed (always true for fully feasible workloads); otherwise
//! the lookup falls back to the masked scan. `tests/properties.rs` proves
//! cache == brute-force rescan under arbitrary write interleavings.
//!
//! ## Storage layout
//!
//! Values live in cache-line-aligned lanes of eight `f64`s
//! ([`QLane`], `#[repr(align(64))]`): each row is padded to a multiple of
//! eight actions, so a row always starts on a 64-byte cache-line boundary
//! and a lane never straddles two lines. The padding slots hold `0.0` and
//! are never read through the logical API. For the paper-scale
//! table (3,072 × 66 → stride 72) this costs 9% padding: 1.69 MiB instead
//! of 1.55 MiB, still the same order of magnitude as Section VI-C.
//!
//! ## Lazy blocks
//!
//! Rows live in blocks of [`BLOCK_ROWS`] = 64, each built on its first
//! read or write. A serving session only ever touches its own
//! workload's 64 states (one block, 2% of the paper-scale table), so it
//! never pays for the other 47. A random table keeps its seeded origin
//! generator and fills block `b` exactly as one state-major,
//! action-minor pass over the whole table would have: the origin is
//! cloned, jumped past the `b × 64 × actions` draws of the blocks before
//! it ([`StdRng::advance`]), and then draws one value per cell. Every
//! value is therefore bit-identical to an eager fill, whatever order the
//! blocks are touched in. A zero table fills blocks with zeros.

use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Logical `f64` slots per cache-line-aligned storage lane.
pub(crate) const LANES: usize = 8;

/// Rows per lazily built block.
pub const BLOCK_ROWS: usize = 64;

/// One cache line of Q values: eight `f64`s, 64-byte aligned.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(align(64))]
pub(crate) struct QLane(pub(crate) [f64; LANES]);

/// The cached lowest-index maximizer of one state's row.
///
/// Shared with the copy-on-write overlay backend ([`crate::qstore`]),
/// which keeps one `RowMax` per materialized overlay row so its argmax
/// semantics are the dense table's by construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RowMax {
    pub(crate) action: u32,
    pub(crate) value: f64,
}

/// The logical values of one row's lane slice, in action order (padding
/// excluded). Works on any `stride`-lane row slice — dense storage or an
/// overlay arena row.
pub(crate) fn lane_values(lanes: &[QLane], actions: usize) -> impl Iterator<Item = f64> + '_ {
    lanes
        .iter()
        .flat_map(|line| line.0.iter().copied())
        .take(actions)
}

/// Folds Q(S, `action`) = `value` into a row's running lowest-index
/// maximizer, actions offered in order: action 0 is the basis, and a
/// later action replaces the maximizer only when strictly greater.
#[inline]
fn offer(best: &mut RowMax, action: usize, value: f64) {
    if action == 0 || value > best.value {
        *best = RowMax {
            action: action as u32,
            value,
        };
    }
}

/// Brute-force lowest-index maximizer of one row's lane slice.
pub(crate) fn scan_lanes(lanes: &[QLane], actions: usize) -> RowMax {
    let mut best = RowMax {
        action: 0,
        value: 0.0,
    };
    for a in 0..actions {
        offer(&mut best, a, lanes[a / LANES].0[a % LANES]);
    }
    best
}

/// Restores a row's cache invariant after `row[action] = value`.
///
/// O(1) unless the write lowered the current row maximum, which forces
/// an O(actions) rescan of the row. The dense table and the overlay
/// backend both route every write through this function, so their
/// incremental argmax maintenance cannot drift apart.
pub(crate) fn note_row_write(
    cached: &mut RowMax,
    lanes: &[QLane],
    actions: usize,
    action: usize,
    value: f64,
) {
    let a = action as u32;
    if a == cached.action {
        if value >= cached.value {
            // The maximum grew in place: no other entry can now tie it
            // (ties would have had to exceed the previous maximum).
            cached.value = value;
        } else {
            *cached = scan_lanes(lanes, actions);
        }
    } else if value > cached.value || (value == cached.value && a < cached.action) {
        *cached = RowMax { action: a, value };
    }
}

/// The lowest-index allowed maximizer of one row's lane slice: the
/// cached entry in O(1) when the mask allows it, otherwise a masked
/// O(actions) scan. Returns `None` when the mask allows nothing.
pub(crate) fn best_allowed(
    lanes: &[QLane],
    actions: usize,
    cached: RowMax,
    mask: &[bool],
) -> Option<(usize, f64)> {
    if mask[cached.action as usize] {
        // The cached entry is the lowest-index maximizer over *all*
        // actions; when the mask allows it, no allowed action can beat
        // it, and a lower-index allowed tie would itself be a
        // lower-index global maximizer — contradiction.
        return Some((cached.action as usize, cached.value));
    }
    let mut best: Option<(usize, f64)> = None;
    for (a, (&allowed, v)) in mask.iter().zip(lane_values(lanes, actions)).enumerate() {
        if !allowed {
            continue;
        }
        if best.is_none_or(|(_, bv)| v > bv) {
            best = Some((a, v));
        }
    }
    best
}

/// One block of [`BLOCK_ROWS`] rows (fewer in a table's last block):
/// their lanes, row-major, and their argmax-cache entries.
#[derive(Debug, Clone)]
struct Block {
    lines: Vec<QLane>,
    row_max: Vec<RowMax>,
}

impl Block {
    /// A block of `rows` rows holding `values` (row-major and
    /// action-minor, `rows × actions` of them), with each row's argmax
    /// cache folded from its values as they are written — the same rule
    /// as [`scan_lanes`], without a second pass.
    fn build(
        rows: usize,
        stride: usize,
        actions: usize,
        values: impl IntoIterator<Item = f64>,
    ) -> Block {
        // A block's two arrays are allocated once, on its first touch,
        // never on a later decision.
        let mut block = Block {
            lines: vec![QLane([0.0; LANES]); rows * stride],
            row_max: vec![
                RowMax {
                    action: 0,
                    value: 0.0
                };
                rows
            ],
        };
        let mut values = values.into_iter();
        for (lanes, max) in block.lines.chunks_mut(stride).zip(&mut block.row_max) {
            let slots = lanes.iter_mut().flat_map(|lane| lane.0.iter_mut());
            for ((a, slot), v) in slots.enumerate().take(actions).zip(&mut values) {
                *slot = v;
                offer(max, a, v);
            }
        }
        block
    }

    /// Bytes of the block's lanes and argmax-cache entries.
    fn bytes(&self) -> usize {
        self.lines.len() * std::mem::size_of::<QLane>()
            + self.row_max.len() * std::mem::size_of::<RowMax>()
    }
}

/// A dense table of Q(S, A) values, built lazily one block of
/// [`BLOCK_ROWS`] rows at a time (see the module docs).
#[derive(Debug, Clone)]
pub struct QTable {
    states: usize,
    actions: usize,
    /// Lanes per row: `actions` rounded up to a multiple of [`LANES`].
    stride: usize,
    /// The seeded generator of a random table, before its first draw;
    /// unset blocks are drawn from it. `None`: unset blocks are zeros.
    origin: Option<StdRng>,
    /// One cell per block, set on the block's first read or write, to a
    /// pure function of (origin, block index): whichever reader sets a
    /// cell stores the same values. Padding slots past `actions` in each
    /// row stay `0.0` forever.
    blocks: Box<[OnceLock<Block>]>,
}

impl PartialEq for QTable {
    fn eq(&self, other: &Self) -> bool {
        // The argmax caches are derived from the values; comparing them
        // would only re-compare the same information. Padding lanes are
        // `0.0` on both sides, so comparing lines compares the logical
        // values. Comparing builds every block of both tables.
        self.states == other.states
            && self.actions == other.actions
            && (0..self.blocks.len()).all(|b| self.block_at(b).lines == other.block_at(b).lines)
    }
}

impl QTable {
    /// Creates a table initialized with small random values, as Algorithm 1
    /// of the paper prescribes ("Initialize Q(S,A) as random values").
    ///
    /// Values are drawn one block at a time, on first touch, yet every
    /// value is the one a single state-major, action-minor pass of
    /// `gen_range(-0.01..0.01)` draws from `seed` would give: the
    /// streams feeding sessions are a compatibility surface.
    ///
    /// # Panics
    ///
    /// Panics if `states` or `actions` is zero.
    pub fn new_random(states: usize, actions: usize, seed: u64) -> Self {
        QTable::unset(states, actions, Some(StdRng::seed_from_u64(seed)))
    }

    /// Creates a zero-initialized table (useful for deterministic tests).
    ///
    /// # Panics
    ///
    /// Panics if `states` or `actions` is zero.
    pub fn new_zeroed(states: usize, actions: usize) -> Self {
        QTable::unset(states, actions, None)
    }

    /// A table whose blocks are all unset, to be drawn from `origin`.
    fn unset(states: usize, actions: usize, origin: Option<StdRng>) -> Self {
        assert!(
            states > 0 && actions > 0,
            "Q-table dimensions must be non-zero"
        );
        QTable {
            states,
            actions,
            stride: actions.div_ceil(LANES),
            origin,
            blocks: (0..states.div_ceil(BLOCK_ROWS))
                .map(|_| OnceLock::new())
                .collect(),
        }
    }

    /// Builds a table around existing row-major logical values, packing
    /// them into aligned lanes and computing the argmax cache. Every
    /// block is set.
    pub(crate) fn from_values(states: usize, actions: usize, values: &[f64]) -> Self {
        debug_assert_eq!(values.len(), states * actions);
        let table = QTable::unset(states, actions, None);
        for (cell, chunk) in table.blocks.iter().zip(values.chunks(BLOCK_ROWS * actions)) {
            let block = Block::build(
                chunk.len() / actions,
                table.stride,
                actions,
                chunk.iter().copied(),
            );
            // The cell is fresh, so the set cannot fail.
            let _ = cell.set(block);
        }
        table
    }

    /// Block `b`, built first if it is unset. The fast path is one
    /// `OnceLock::get`; the build is out of line.
    #[inline]
    fn block_at(&self, b: usize) -> &Block {
        match self.blocks[b].get() {
            Some(block) => block,
            None => self.build_block(b),
        }
    }

    /// Block `b` for writing, built first if it is unset.
    #[inline]
    fn block_at_mut(&mut self, b: usize) -> &mut Block {
        self.block_at(b);
        #[expect(
            clippy::expect_used,
            reason = "`block_at` set this cell on the line above"
        )]
        self.blocks[b].get_mut().expect("the block was just set")
    }

    /// Builds and sets block `b`: the first touch of its rows. A random
    /// block is drawn from a clone of the origin, jumped past the draws
    /// of the blocks before it, so no caller's stream moves.
    #[cold]
    #[inline(never)]
    fn build_block(&self, b: usize) -> &Block {
        let rows = BLOCK_ROWS.min(self.states - b * BLOCK_ROWS);
        let cells = rows * self.actions;
        // Built once per 64 rows per table, on first touch.
        self.blocks[b].get_or_init(|| match &self.origin {
            None => Block::build(
                rows,
                self.stride,
                self.actions,
                std::iter::repeat_n(0.0, cells),
            ),
            Some(origin) => {
                let mut rng = origin.clone();
                rng.advance((b * BLOCK_ROWS * self.actions) as u128);
                let values = (0..cells).map(|_| rng.gen_range(-0.01..0.01));
                Block::build(rows, self.stride, self.actions, values)
            }
        })
    }

    /// Builds every unset block. A table shared across threads is
    /// materialized first, so readers never race to build a block.
    pub fn materialize(&self) {
        for b in 0..self.blocks.len() {
            self.block_at(b);
        }
    }

    /// The logical values of one row, in action order (padding excluded).
    fn row_values(&self, state: usize) -> impl Iterator<Item = f64> + '_ {
        lane_values(self.row_lines(state), self.actions)
    }

    /// The aligned storage lanes of one row, padding included. The slots
    /// past `actions` in the final lane are always `0.0`.
    #[inline]
    pub(crate) fn row_lines(&self, state: usize) -> &[QLane] {
        self.row(state).0
    }

    /// One row's lanes and cached maximizer, from one block lookup.
    #[inline]
    fn row(&self, state: usize) -> (&[QLane], RowMax) {
        let block = self.block_at(state / BLOCK_ROWS);
        let row = state % BLOCK_ROWS;
        (
            &block.lines[row * self.stride..(row + 1) * self.stride],
            block.row_max[row],
        )
    }

    /// Lanes per row: `actions` rounded up to a multiple of [`LANES`].
    pub(crate) fn stride(&self) -> usize {
        self.stride
    }

    /// The cached lowest-index maximizer of one row.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    #[inline]
    pub(crate) fn row_max_entry(&self, state: usize) -> RowMax {
        assert!(state < self.states, "state out of range");
        self.block_at(state / BLOCK_ROWS).row_max[state % BLOCK_ROWS]
    }

    /// Writes Q(S, A) = `value` and restores the row's cache invariant:
    /// O(1) unless the write lowered the current row maximum, which
    /// forces an O(actions) rescan of that row.
    fn write(&mut self, state: usize, action: usize, value: f64) {
        self.check_index(state, action);
        let (stride, actions) = (self.stride, self.actions);
        let row = state % BLOCK_ROWS;
        let block = self.block_at_mut(state / BLOCK_ROWS);
        let lanes = &mut block.lines[row * stride..(row + 1) * stride];
        lanes[action / LANES].0[action % LANES] = value;
        note_row_write(&mut block.row_max[row], lanes, actions, action, value);
    }

    /// Number of states.
    pub fn states(&self) -> usize {
        self.states
    }

    /// Number of actions.
    pub fn actions(&self) -> usize {
        self.actions
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

    /// Sets Q(S, A).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn set(&mut self, state: usize, action: usize, value: f64) {
        self.write(state, action, value);
    }

    /// Adds `delta` to Q(S, A) — the Algorithm 1 update's in-place form.
    pub fn add(&mut self, state: usize, action: usize, delta: f64) {
        let value = self.get(state, action) + delta;
        self.write(state, action, value);
    }

    /// The action with the largest Q value among those `mask` allows, and
    /// its value. Ties break toward the lower index, deterministically.
    ///
    /// Masking exists because not every action is feasible for every
    /// inference: e.g. a DSP cannot execute a recurrent model, so its
    /// actions are masked out while MobileBERT is being scheduled.
    ///
    /// O(1) whenever the cached row maximizer is allowed by `mask` (the
    /// global maximizer over a superset is the maximizer of any allowed
    /// subset containing it); otherwise a masked O(actions) scan.
    ///
    /// Returns `None` if the mask allows no action.
    ///
    /// # Panics
    ///
    /// Panics if `mask.len() != actions` or `state` is out of range.
    pub fn best_action(&self, state: usize, mask: &[bool]) -> Option<(usize, f64)> {
        assert_eq!(
            mask.len(),
            self.actions,
            "mask length must equal action count"
        );
        assert!(state < self.states, "state out of range");
        let (lanes, cached) = self.row(state);
        best_allowed(lanes, self.actions, cached, mask)
    }

    /// The largest Q value in a state over allowed actions (`max_a'
    /// Q(S', A')` in the bootstrap term), or 0.0 when nothing is allowed.
    pub fn max_value(&self, state: usize, mask: &[bool]) -> f64 {
        self.best_action(state, mask).map_or(0.0, |(_, v)| v)
    }

    /// Resident bytes: the lanes (padding included) and argmax-cache
    /// entries of the blocks built so far. A table nobody has read costs
    /// nothing here; a fully built one costs
    /// [`QTable::full_bytes`] — the Section VI-C overhead statistic.
    pub fn memory_bytes(&self) -> usize {
        self.blocks
            .iter()
            .filter_map(|cell| cell.get())
            .map(Block::bytes)
            .sum()
    }

    /// Bytes of a fully built `states × actions` table: every row's
    /// lanes (padding included) and argmax-cache entry.
    pub fn full_bytes(states: usize, actions: usize) -> usize {
        states
            * (actions.div_ceil(LANES) * std::mem::size_of::<QLane>()
                + std::mem::size_of::<RowMax>())
    }

    /// FNV-1a digest over the logical values' IEEE 754 bits, state-major
    /// and action-minor (padding excluded): two tables with equal
    /// logical values digest equally regardless of storage backend.
    pub fn value_digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = FNV_OFFSET;
        for state in 0..self.states {
            for v in self.row_values(state) {
                for byte in v.to_bits().to_le_bytes() {
                    hash ^= byte as u64;
                    hash = hash.wrapping_mul(FNV_PRIME);
                }
            }
        }
        hash
    }

    /// Copies every value from `source` — the paper's learning transfer
    /// ("transferring a model trained on one device to other devices in
    /// order to expedite the convergence", Section IV). Blocks `source`
    /// has not built yet stay unset here too, drawn from its origin.
    ///
    /// Transfer requires identical table shapes: the donor and recipient
    /// share the state encoding, and action spaces are aligned by the core
    /// crate before transfer.
    ///
    /// # Errors
    ///
    /// Returns an error describing the shape mismatch if the dimensions
    /// differ.
    pub fn transfer_from(&mut self, source: &QTable) -> Result<(), ShapeMismatchError> {
        if self.states != source.states || self.actions != source.actions {
            return Err(ShapeMismatchError {
                expected: (self.states, self.actions),
                found: (source.states, source.actions),
            });
        }
        self.clone_from(source);
        Ok(())
    }

    fn check_index(&self, state: usize, action: usize) {
        assert!(
            state < self.states,
            "state {state} out of range ({})",
            self.states
        );
        assert!(
            action < self.actions,
            "action {action} out of range ({})",
            self.actions
        );
    }
}

// Serde is hand-written rather than derived so persisted snapshots carry
// only the truth (`states`, `actions` and the logical row-major values) —
// the lane packing and argmax cache are rebuilt on load, every block
// built — and so a tampered, truncated or non-finite snapshot is
// rejected at parse time instead of panicking or poisoning argmaxes on
// first use. Serializing builds every block.
impl Serialize for QTable {
    fn to_value(&self) -> serde::Value {
        let values: Vec<f64> = (0..self.states).flat_map(|s| self.row_values(s)).collect();
        serde::Value::Object(vec![
            ("states".to_string(), self.states.to_value()),
            ("actions".to_string(), self.actions.to_value()),
            ("values".to_string(), values.to_value()),
        ])
    }
}

impl Deserialize for QTable {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let obj = value
            .as_object()
            .ok_or_else(|| serde::Error::expected("an object", value))?;
        let states: usize = serde::__field(obj, "states", "QTable")?;
        let actions: usize = serde::__field(obj, "actions", "QTable")?;
        let values: Vec<f64> = serde::__field(obj, "values", "QTable")?;
        if states == 0 || actions == 0 {
            return Err(serde::Error::custom(format!(
                "q-table dimensions must be non-zero, found {states}x{actions}"
            )));
        }
        if values.len() != states * actions {
            return Err(serde::Error::custom(format!(
                "q-table dimension mismatch: {states}x{actions} needs {} values, found {}",
                states * actions,
                values.len()
            )));
        }
        if let Some(i) = values.iter().position(|v| !v.is_finite()) {
            return Err(serde::Error::custom(format!(
                "q-table value at (state {}, action {}) is {}, not finite",
                i / actions,
                i % actions,
                values[i]
            )));
        }
        Ok(QTable::from_values(states, actions, &values))
    }
}

/// Error returned when transferring between Q-tables of different shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShapeMismatchError {
    /// The recipient's (states, actions).
    pub expected: (usize, usize),
    /// The donor's (states, actions).
    pub found: (usize, usize),
}

impl std::fmt::Display for ShapeMismatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "q-table shape mismatch: expected {}x{}, found {}x{}",
            self.expected.0, self.expected.1, self.found.0, self.found.1
        )
    }
}

impl std::error::Error for ShapeMismatchError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_init_is_small_and_seeded() {
        let a = QTable::new_random(10, 5, 42);
        let b = QTable::new_random(10, 5, 42);
        let c = QTable::new_random(10, 5, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        for s in 0..10 {
            for act in 0..5 {
                assert!(a.get(s, act).abs() < 0.01);
            }
        }
    }

    #[test]
    fn random_init_draw_order_is_stable() {
        // The fill order (state-major, action-minor, one `gen_range` per
        // cell) is a compatibility surface: engine seeds reproduce the
        // same initial tables forever. Pin every cell of a paper-size
        // table against a raw re-draw, building the blocks last to first
        // so each one is reached by a jump rather than by the draws of
        // the block before it.
        let (states, actions) = (3_072, 66);
        let q = QTable::new_random(states, actions, 77);
        let mut rng = StdRng::seed_from_u64(77);
        let raw: Vec<f64> = (0..states * actions)
            .map(|_| rng.gen_range(-0.01..0.01))
            .collect();
        for s in (0..states).rev() {
            for a in 0..actions {
                assert_eq!(q.get(s, a), raw[s * actions + a], "({s},{a})");
            }
        }
        // The argmax caches agree with ones scanned from the raw values.
        let eager = QTable::from_values(states, actions, &raw);
        for s in 0..states {
            assert_eq!(
                q.best_action(s, &[true; 66]),
                eager.best_action(s, &[true; 66]),
                "state {s}"
            );
        }
    }

    #[test]
    fn blocks_are_built_on_first_touch_only() {
        let block_bytes = QTable::full_bytes(BLOCK_ROWS, 66);
        let mut q = QTable::new_random(3_072, 66, 3);
        assert_eq!(q.memory_bytes(), 0, "a fresh table has built nothing");
        // A read builds the block holding its row, and nothing else.
        let _ = q.get(700, 5);
        assert_eq!(q.memory_bytes(), block_bytes);
        // Reads and writes anywhere in that block reuse it.
        q.set(640, 0, 1.0);
        q.add(703, 65, 1.0);
        let _ = q.best_action(660, &[true; 66]);
        assert_eq!(q.memory_bytes(), block_bytes);
        // A copy or a transfer builds nothing in either table.
        let copy = q.clone();
        let mut recipient = QTable::new_random(3_072, 66, 4);
        recipient.transfer_from(&q).unwrap();
        assert_eq!(q.memory_bytes(), block_bytes);
        assert_eq!(copy.memory_bytes(), block_bytes);
        assert_eq!(recipient.memory_bytes(), block_bytes);
        assert_eq!(recipient.get(3_000, 7), q.get(3_000, 7));
        // A partial last block costs only its rows.
        let partial = QTable::new_zeroed(70, 66);
        let _ = partial.get(69, 0);
        assert_eq!(partial.memory_bytes(), QTable::full_bytes(6, 66));
        partial.materialize();
        assert_eq!(partial.memory_bytes(), QTable::full_bytes(70, 66));
    }

    #[test]
    fn rows_are_lane_aligned_and_padded_with_zeros() {
        let mut q = QTable::new_random(4, 11, 5);
        q.set(3, 10, 42.0);
        for s in 0..4 {
            let lanes = q.row_lines(s);
            assert_eq!(lanes.len(), 2);
            assert_eq!(std::mem::align_of_val(&lanes[0]), 64);
            // Slots 11..16 of the final lane are padding.
            for pad in 11..16 {
                assert_eq!(lanes[pad / LANES].0[pad % LANES], 0.0);
            }
        }
    }

    #[test]
    fn set_get_round_trip() {
        let mut q = QTable::new_zeroed(3, 2);
        q.set(2, 1, 7.5);
        assert_eq!(q.get(2, 1), 7.5);
        q.add(2, 1, 0.5);
        assert_eq!(q.get(2, 1), 8.0);
    }

    #[test]
    fn best_action_respects_mask() {
        let mut q = QTable::new_zeroed(1, 3);
        q.set(0, 0, 1.0);
        q.set(0, 1, 5.0);
        q.set(0, 2, 3.0);
        assert_eq!(q.best_action(0, &[true, true, true]), Some((1, 5.0)));
        assert_eq!(q.best_action(0, &[true, false, true]), Some((2, 3.0)));
        assert_eq!(q.best_action(0, &[false, false, false]), None);
    }

    #[test]
    fn max_value_defaults_to_zero_when_fully_masked() {
        let q = QTable::new_zeroed(1, 2);
        assert_eq!(q.max_value(0, &[false, false]), 0.0);
    }

    #[test]
    fn cache_survives_a_lowered_maximum() {
        // Raising, tying and then lowering the maximum exercises every
        // branch of the incremental maintenance, including the rescan.
        let mut q = QTable::new_zeroed(1, 4);
        q.set(0, 2, 9.0);
        assert_eq!(q.best_action(0, &[true; 4]), Some((2, 9.0)));
        // A tie at a lower index must steal the argmax...
        q.set(0, 1, 9.0);
        assert_eq!(q.best_action(0, &[true; 4]), Some((1, 9.0)));
        // ...and a tie at a higher index must not.
        q.set(0, 3, 9.0);
        assert_eq!(q.best_action(0, &[true; 4]), Some((1, 9.0)));
        // Lowering the cached maximum forces the rescan path.
        q.set(0, 1, -1.0);
        assert_eq!(q.best_action(0, &[true; 4]), Some((2, 9.0)));
        q.set(0, 2, -2.0);
        assert_eq!(q.best_action(0, &[true; 4]), Some((3, 9.0)));
        q.set(0, 3, -3.0);
        assert_eq!(q.best_action(0, &[true; 4]), Some((0, 0.0)));
        // `add` maintains the cache too.
        q.add(0, 2, 10.0);
        assert_eq!(q.best_action(0, &[true; 4]), Some((2, 8.0)));
    }

    #[test]
    fn masked_cached_action_falls_back_to_scan() {
        let mut q = QTable::new_zeroed(1, 3);
        q.set(0, 0, 5.0);
        q.set(0, 1, 4.0);
        // The cached argmax (action 0) is masked out: the scan must find
        // the best allowed action instead.
        assert_eq!(q.best_action(0, &[false, true, true]), Some((1, 4.0)));
    }

    #[test]
    fn paper_scale_table_fits_the_memory_budget() {
        // ~3,072 states × 66 actions: Section VI-C reports 0.4 MB. An f64
        // table padded to lane stride 72 lands at 1.69 MiB of lanes plus
        // 48 KiB of argmax cache; the paper presumably stores narrower
        // values, so we assert the same order of magnitude.
        let full = QTable::full_bytes(3_072, 66);
        assert_eq!(full, 1_818_624);
        let q = QTable::new_random(3_072, 66, 0);
        q.materialize();
        assert_eq!(q.memory_bytes(), full, "a fully built table");
        let mib = full as f64 / (1024.0 * 1024.0);
        assert!(mib < 2.0, "table too large: {mib} MiB");
    }

    #[test]
    fn transfer_copies_values() {
        let mut donor = QTable::new_zeroed(2, 2);
        donor.set(1, 1, 9.0);
        let mut recipient = QTable::new_random(2, 2, 1);
        recipient.transfer_from(&donor).unwrap();
        assert_eq!(recipient.get(1, 1), 9.0);
        // The cache must follow the transferred values.
        assert_eq!(recipient.best_action(1, &[true, true]), Some((1, 9.0)));
    }

    #[test]
    fn transfer_rejects_shape_mismatch() {
        let donor = QTable::new_zeroed(2, 3);
        let mut recipient = QTable::new_zeroed(2, 2);
        let err = recipient.transfer_from(&donor).unwrap_err();
        assert_eq!(err.expected, (2, 2));
        assert_eq!(err.found, (2, 3));
        assert!(err.to_string().contains("mismatch"));
    }

    #[test]
    fn serde_round_trip() {
        let q = QTable::new_random(4, 3, 9);
        let json = serde_json::to_string(&q).unwrap();
        let back: QTable = serde_json::from_str(&json).unwrap();
        assert_eq!(q, back);
        // The rebuilt cache must answer like the original.
        for s in 0..4 {
            assert_eq!(
                q.best_action(s, &[true; 3]),
                back.best_action(s, &[true; 3])
            );
        }
    }

    #[test]
    fn serialized_values_exclude_padding() {
        // The wire format carries exactly states × actions values — the
        // lane padding is a storage detail, not part of the snapshot.
        let q = QTable::new_random(2, 3, 4);
        let json = serde_json::to_string(&q).unwrap();
        let value: serde::Value = serde_json::from_str(&json).unwrap();
        let obj = value.as_object().unwrap();
        let values: Vec<f64> = serde::__field(obj, "values", "test").unwrap();
        assert_eq!(values.len(), 6);
        assert_eq!(values[4], q.get(1, 1));
    }

    #[test]
    fn deserialize_rejects_dimension_mismatch() {
        // 2x2 header over 3 values: a truncated or tampered snapshot.
        let json = r#"{"states":2,"actions":2,"values":[0.0,1.0,2.0]}"#;
        let err = serde_json::from_str::<QTable>(json).unwrap_err();
        assert!(
            err.to_string().contains("dimension mismatch"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn deserialize_rejects_zero_dimensions() {
        let json = r#"{"states":0,"actions":5,"values":[]}"#;
        let err = serde_json::from_str::<QTable>(json).unwrap_err();
        assert!(
            err.to_string().contains("non-zero"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn deserialize_rejects_non_finite_values() {
        // JSON has no infinity, but an overflowing literal parses as one.
        let json = r#"{"states":2,"actions":2,"values":[0.0,1.0,1e999,2.0]}"#;
        let err = serde_json::from_str::<QTable>(json).unwrap_err();
        assert!(
            err.to_string().contains("(state 1, action 0) is inf"),
            "unexpected error: {err}"
        );
        let value = serde::Value::Object(vec![
            ("states".to_string(), serde::Value::UInt(1)),
            ("actions".to_string(), serde::Value::UInt(3)),
            (
                "values".to_string(),
                serde::Value::Array(vec![
                    serde::Value::Float(0.5),
                    serde::Value::Float(f64::NAN),
                    serde::Value::Float(f64::NEG_INFINITY),
                ]),
            ),
        ]);
        let err = QTable::from_value(&value).unwrap_err();
        assert!(
            err.to_string().contains("(state 0, action 1) is NaN"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn deserialize_rejects_missing_fields() {
        let json = r#"{"states":2,"actions":2}"#;
        assert!(serde_json::from_str::<QTable>(json).is_err());
    }

    #[test]
    fn value_digest_tracks_logical_values_only() {
        let a = QTable::new_random(4, 11, 9);
        let mut b = a.clone();
        assert_eq!(a.value_digest(), b.value_digest());
        b.set(2, 3, 42.0);
        assert_ne!(a.value_digest(), b.value_digest());
        // Serde rebuilds the lane packing from logical values: the digest
        // must survive the round trip bit for bit.
        let back: QTable = serde_json::from_str(&serde_json::to_string(&a).unwrap()).unwrap();
        assert_eq!(a.value_digest(), back.value_digest());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_state_panics() {
        let q = QTable::new_zeroed(2, 2);
        let _ = q.get(2, 0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_panics() {
        let _ = QTable::new_zeroed(0, 5);
    }
}
