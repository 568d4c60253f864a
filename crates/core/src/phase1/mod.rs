//! Phase I: deciding the `R2`-side values of `V_join` from the CCs
//! (Section 4).
//!
//! The paper starts the view as a copy of `R1` with empty `R2`-side columns
//! and fills those columns (Section 3.1). Phase I here decides the values of
//! the `R2`-side columns *referenced by CCs* ("in practice, we only consider
//! columns used in S_CC") as one combo id per row of `R1` ([`P1`]), reading
//! `R1` itself and writing no view; Phase II partitions the rows by that id
//! and joins each row to its chosen key's `R2` tuple. Three strategies
//! share this module's context: the exact Hasse recursion (Algorithm 2,
//! [`hasse_rec`]), the ILP formulation (Algorithm 1, [`ilp_based`]) and the
//! hybrid split of Section 4.3 ([`hybrid`]). The view itself is built only
//! by [`oracle`], for the scalar oracles that read and write its cells.

pub(crate) mod compressed;
pub(crate) mod hasse_rec;
pub(crate) mod hybrid;
pub(crate) mod ilp_based;
pub(crate) mod oracle;
pub(crate) mod repair;

use crate::config::SolverConfig;
use crate::error::Result;
use crate::instance::CExtensionInstance;
use crate::report::SolveStats;
use cextend_constraints::{domain_ranges, Binning, CcMembership, ColumnIntervals, NormalizedCond};
use cextend_table::{join_schema, marginals::group_rows, Dtype, RowId, Value, ValueSet};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A full assignment of the CC-referenced `R2` columns, aligned with
/// [`P1::r2_cc_cols`].
pub type Combo = Vec<Value>;

/// Fixed shard size for leftover/random completion. Rows are sharded into
/// fixed-size chunks *independently of the worker count*, and every shard
/// draws from its own RNG stream ([`shard_rng`]) — so a serial run, a
/// 2-worker run and a 64-worker run all make bit-identical choices.
pub const SHARD_SIZE: usize = 4096;

/// Stream salt for leftover completion (`complete_leftovers`).
pub(crate) const LEFTOVERS_SALT: u64 = 0x4c45_4654; // "LEFT"

/// Stream salt for baseline random completion (`complete_randomly`).
pub(crate) const RANDOM_SALT: u64 = 0x0052_4e44; // "RND"

/// SplitMix64 finalizer: a bijective avalanche over `x`.
fn splitmix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The RNG stream for shard `shard` of the completion stage `salt`, derived
/// from the solver seed. Streams are a pure function of
/// `(seed, salt, shard)` — never of worker count or iteration order — which
/// is the whole determinism argument for parallel Phase 1.
pub fn shard_rng(seed: u64, salt: u64, shard: u64) -> StdRng {
    let x = splitmix(
        seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(shard.wrapping_add(1)))
            ^ splitmix(salt),
    );
    StdRng::seed_from_u64(x)
}

/// Assignment state of a row over the CC-referenced `R2` columns.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RowState {
    /// No CC column assigned.
    Empty,
    /// Some but not all CC columns assigned.
    Partial,
    /// Every CC column assigned.
    Full,
}

/// Combo id of a row that holds no combo (it pins nothing).
pub(crate) const NO_COMBO: u32 = u32::MAX;

/// Pin set of a row that pins no CC column.
const PIN_NONE: u32 = 0;

/// Pin set of a row that pins every CC column: a complete row.
const PIN_ALL: u32 = 1;

/// Phase I working context: Phase I's decisions.
///
/// They live in one per-row record over `R1`'s rows: the combo a row holds
/// and its *pin set*, the CC columns it has fixed. Pin set 0 pins nothing
/// (the row is empty and holds no combo), pin set 1 pins every CC column
/// (the row is complete), and Algorithm 2 adds one set per distinct column
/// subset its claims constrain. A row with any other pin set is partially
/// pinned: it agrees with its combo on the pinned columns only. Phase II
/// partitions rows by combo id and records a household per row. Only the
/// oracle module (`phase1/oracle.rs`) builds the view the record stands
/// for, for the scalar oracles, which read and write cells.
pub struct P1 {
    /// CC-referenced `R2` attribute columns, sorted.
    pub r2_cc_cols: Vec<String>,
    /// Distinct existing combos over `r2_cc_cols` in `R2`, sorted.
    pub combos: Vec<Combo>,
    /// Each combo's `R2` rows (its households), ascending.
    pub(crate) households: Vec<Vec<RowId>>,
    /// Words per CC mask: one bit per CC of the instance.
    pub(crate) cc_words: usize,
    /// `combo_ccs[k * cc_words..(k + 1) * cc_words]`: the CCs whose `R2`
    /// side combo `k` satisfies (`cond_masks`).
    pub(crate) combo_ccs: Vec<u64>,
    /// Binning of `R1`'s attribute columns (intervalized numerics).
    pub binning: Binning,
    /// `R1`-side membership of the instance's CCs: bit `row % 64` of word
    /// `row / 64` of `cc_r1_bits[i]` is set iff `R1` row `row` satisfies
    /// `instance.ccs[i].r1`. Built once, in one pass, by [`P1::build`];
    /// Phase I decides only `R2`-side values, so it stays exact until the
    /// solve drops it after Phase I.
    pub cc_r1_bits: Vec<Vec<u64>>,
    /// Per row, the combo it holds ([`NO_COMBO`] when it pins nothing).
    row_combo: Vec<u32>,
    /// Per row, its pin set.
    row_pins: Vec<u32>,
    /// Per pin set, which CC columns it pins.
    pin_cols: Vec<Vec<bool>>,
    /// Per pin set, `cc_words` words: the CCs all of whose `R2` columns it
    /// pins.
    pin_cover: Vec<u64>,
    /// Per CC, the positions of its `R2` columns in `r2_cc_cols`.
    cc_r2_pos: Vec<Vec<usize>>,
    /// The solver seed; completion stages derive per-shard streams from it
    /// via [`shard_rng`].
    pub seed: u64,
}

impl P1 {
    /// Builds the context: groups `R2` by its combo over the CC columns (the
    /// combos, their households and their CC masks), intervalizes `R1`'s
    /// numeric attributes and classifies every row of `R1` against the
    /// CCs' `R1` sides ([`P1::cc_r1_bits`]). Every row starts empty, or
    /// complete on the one empty combo when no CC has an `R2` condition.
    pub fn build(instance: &CExtensionInstance, config: &SolverConfig) -> Result<P1> {
        // `V_join`'s schema must exist: `R1` and `R2` share no column name.
        join_schema(instance.r1.schema(), instance.r2.schema())?;
        let r2_cc_cols = if config.complete_all_r2_columns {
            // Figure 12 mode: treat every R2 attribute as CC-relevant so
            // Phase I assigns full B-tuples and Phase II partitions on all
            // B columns.
            let mut cols: Vec<String> = instance
                .r2
                .schema()
                .attr_cols()
                .into_iter()
                .map(|c| instance.r2.schema().column(c).name.clone())
                .collect();
            cols.sort();
            cols
        } else {
            instance.r2_cc_columns()
        };
        let r2_col_ids = r2_cc_cols
            .iter()
            .map(|c| instance.r2.schema().require(c, instance.r2.name()))
            .collect::<std::result::Result<Vec<_>, _>>()?;
        // One group-by of R2: key-sorted groups are the sorted combos;
        // households with a missing combo cell belong to none.
        let (mut combos, mut households): (Vec<Combo>, Vec<Vec<RowId>>) =
            group_rows(&instance.r2, &r2_col_ids)
                .iter()
                .filter(|(key, _)| key.iter().all(Option::is_some))
                .map(|(key, rows)| (key.iter().flatten().copied().collect(), rows.to_vec()))
                .unzip();
        if r2_cc_cols.is_empty() && combos.is_empty() {
            // No CC column: every row holds the empty combo, even over an
            // empty R2.
            combos.push(Vec::new());
            households.push(Vec::new());
        }
        let cc_words = instance.ccs.len().div_ceil(64);
        let r2_sides: Vec<&NormalizedCond> = instance.ccs.iter().map(|cc| &cc.r2).collect();
        let combo_ccs = cond_masks(&r2_cc_cols, &combos, &r2_sides, cc_words);
        let cc_r2_pos = instance
            .ccs
            .iter()
            .map(|cc| {
                cc.r2
                    .columns()
                    .filter_map(|col| r2_cc_cols.iter().position(|c| c == col))
                    .collect()
            })
            .collect();

        // Intervalize R1's numeric attribute columns over their active domains.
        let r1_attr_names: Vec<String> = instance
            .r1
            .schema()
            .attr_cols()
            .into_iter()
            .map(|c| instance.r1.schema().column(c).name.clone())
            .collect();
        let numeric: Vec<&str> = instance
            .r1
            .schema()
            .attr_cols()
            .into_iter()
            .filter(|&c| instance.r1.schema().column(c).dtype == Dtype::Int)
            .map(|c| instance.r1.schema().column(c).name.as_str())
            .filter(|c| {
                // Only intervalize columns actually present (non-empty).
                instance
                    .r1
                    .schema()
                    .col_id(c)
                    .is_some_and(|id| instance.r1.int_range(id).is_some())
            })
            .collect();
        let domains = domain_ranges(&instance.r1, &numeric)?;
        let intervals = ColumnIntervals::build(&instance.ccs, &domains);
        let binning = Binning::new(r1_attr_names, intervals);

        let membership_span = cextend_obs::span("cc_membership");
        let cc_r1_bits =
            CcMembership::build(&instance.r1, instance.ccs.iter().map(|cc| &cc.r1))?.bitmaps();
        drop(membership_span);

        let n = instance.r1.n_rows();
        let (start_combo, start_pins) = if r2_cc_cols.is_empty() {
            (0, PIN_ALL)
        } else {
            (NO_COMBO, PIN_NONE)
        };
        let mut p1 = P1 {
            combos,
            households,
            cc_words,
            combo_ccs,
            binning,
            cc_r1_bits,
            row_combo: vec![start_combo; n],
            row_pins: vec![start_pins; n],
            pin_cols: Vec::new(),
            pin_cover: Vec::new(),
            cc_r2_pos,
            seed: config.seed,
            r2_cc_cols,
        };
        let cols = p1.r2_cc_cols.len();
        p1.add_pin_set(vec![false; cols]);
        p1.add_pin_set(vec![true; cols]);
        Ok(p1)
    }

    /// Appends a pin set over `cols` and returns its id.
    fn add_pin_set(&mut self, cols: Vec<bool>) -> u32 {
        let mut cover = vec![0u64; self.cc_words];
        for (c, pos) in self.cc_r2_pos.iter().enumerate() {
            if pos.iter().all(|&j| cols[j]) {
                cover[c / 64] |= 1 << (c % 64);
            }
        }
        self.pin_cover.extend_from_slice(&cover);
        self.pin_cols.push(cols);
        (self.pin_cols.len() - 1) as u32
    }

    /// The pin set of the CC columns `cond` constrains, added on first use.
    fn pin_set_of(&mut self, cond: &NormalizedCond) -> u32 {
        let cols: Vec<bool> = self
            .r2_cc_cols
            .iter()
            .map(|c| cond.get(c).is_some())
            .collect();
        match self.pin_cols.iter().position(|p| *p == cols) {
            Some(id) => id as u32,
            None => self.add_pin_set(cols),
        }
    }

    /// Records that `rows` take combo `combo` on the CC columns `cond`
    /// constrains (Algorithm 2's partial assignment). Returns `false`, and
    /// the rows stay empty, when `cond` constrains no CC column.
    pub(crate) fn pin(&mut self, rows: &[RowId], combo: usize, cond: &NormalizedCond) -> bool {
        let pins = self.pin_set_of(cond);
        if pins == PIN_NONE {
            return false;
        }
        for &r in rows {
            self.row_combo[r] = combo as u32;
            self.row_pins[r] = pins;
        }
        true
    }

    /// Completes `row` with combo `combo` on every CC column.
    pub(crate) fn set_combo(&mut self, row: RowId, combo: usize) {
        self.row_combo[row] = combo as u32;
        self.row_pins[row] = PIN_ALL;
    }

    /// Rows of `R1` the record covers.
    pub fn n_rows(&self) -> usize {
        self.row_pins.len()
    }

    /// Assignment state of `row` in Phase I's per-row record;
    /// [`row_state`](crate::phase1_internals::row_state) says the same of
    /// the cells of the view the record stands for.
    pub fn state(&self, row: RowId) -> RowState {
        match self.row_pins[row] {
            PIN_NONE => RowState::Empty,
            PIN_ALL => RowState::Full,
            _ => RowState::Partial,
        }
    }

    /// The combo of `row` when it is complete.
    pub(crate) fn complete_combo(&self, row: RowId) -> Option<usize> {
        (self.row_pins[row] == PIN_ALL).then(|| self.row_combo[row] as usize)
    }

    /// Hands Phase II each row's combo id if the row is complete,
    /// [`NO_COMBO`] if not, and drops the rest of the per-row record.
    pub(crate) fn take_row_combos(&mut self) -> Vec<u32> {
        let mut combos = std::mem::take(&mut self.row_combo);
        for (k, &pins) in combos.iter_mut().zip(&std::mem::take(&mut self.row_pins)) {
            if pins != PIN_ALL {
                *k = NO_COMBO;
            }
        }
        combos
    }

    /// The pin set and combo of `row`.
    fn pins_and_combo(&self, row: RowId) -> (u32, u32) {
        (self.row_pins[row], self.row_combo[row])
    }

    /// `true` if combo `k` agrees with combo `combo` on every column of pin
    /// set `pins`.
    fn agrees(&self, pins: u32, combo: u32, k: usize) -> bool {
        if pins == PIN_NONE {
            return true;
        }
        let (held, cand) = (&self.combos[combo as usize], &self.combos[k]);
        self.pin_cols[pins as usize]
            .iter()
            .zip(held.iter().zip(cand))
            .all(|(&pinned, (a, b))| !pinned || a == b)
    }

    /// Word `w` of the CCs whose `R2` side a row with pin set `pins` and
    /// combo `combo` already satisfies on its pinned columns: those all of
    /// whose `R2` columns the set pins and whose condition the combo meets.
    /// An unpinned row satisfies only the CCs with no `R2` condition. A row
    /// feeds exactly these of the CCs whose `R1` side it matches.
    fn fed_word(&self, pins: u32, combo: u32, w: usize) -> u64 {
        let cover = self.pin_cover[pins as usize * self.cc_words + w];
        if pins == PIN_NONE {
            cover
        } else {
            cover & self.combo_ccs[combo as usize * self.cc_words + w]
        }
    }

    /// The rows that feed CC `c`'s count: the count it would have on the
    /// view with every row's pins written.
    pub(crate) fn fed_count(&self, c: usize) -> u64 {
        let mut count = 0;
        for (wi, &bits) in self.cc_r1_bits[c].iter().enumerate() {
            let mut w = bits;
            while w != 0 {
                let row = (wi << 6) | w.trailing_zeros() as usize;
                let (pins, combo) = self.pins_and_combo(row);
                count += self.fed_word(pins, combo, c / 64) >> (c % 64) & 1;
                w &= w - 1;
            }
        }
        count
    }

    /// What invalid placement needs of the record for the invalid `rows`,
    /// taken while the `R1` bitmaps exist: every CC's [`P1::fed_count`],
    /// and each row's `R1` mask and the CCs its pins already feed. Complete
    /// rows feed exactly their combo's CCs, so the counts are those of the
    /// completed view before the invalid rows are placed. Nothing is
    /// counted when there are no invalid rows.
    pub(crate) fn invalid_rows(&self, rows: Vec<RowId>) -> InvalidRows {
        if rows.is_empty() {
            return InvalidRows::default();
        }
        let words = self.cc_words;
        let mut r1_masks = vec![0u64; rows.len() * words];
        for (c, bits) in self.cc_r1_bits.iter().enumerate() {
            for (mask, &row) in r1_masks.chunks_exact_mut(words).zip(&rows) {
                mask[c / 64] |= (bits[row >> 6] >> (row & 63) & 1) << (c % 64);
            }
        }
        let mut pinned = r1_masks.clone();
        for (mask, &row) in pinned.chunks_exact_mut(words).zip(&rows) {
            let (pins, combo) = self.pins_and_combo(row);
            for (w, word) in mask.iter_mut().enumerate() {
                *word &= self.fed_word(pins, combo, w);
            }
        }
        InvalidRows {
            fed: (0..self.cc_r1_bits.len())
                .map(|c| self.fed_count(c))
                .collect(),
            words,
            r1_masks,
            pinned,
            rows,
        }
    }

    /// `true` if `combo` satisfies the `R2`-side condition `cond`.
    pub fn combo_satisfies(&self, combo: &[Value], cond: &NormalizedCond) -> bool {
        combo_satisfies(&self.r2_cc_cols, combo, cond)
    }
}

/// The rows Phase I left incomplete — the paper's invalid tuples — and
/// what Phase II's invalid placement needs of the record about them
/// ([`P1::invalid_rows`]).
#[derive(Default)]
pub(crate) struct InvalidRows {
    /// The rows, ascending.
    pub rows: Vec<RowId>,
    /// Per CC of the instance, the rows that feed it before the invalid
    /// rows are placed.
    pub fed: Vec<u64>,
    /// Words per CC mask.
    pub words: usize,
    /// `r1_masks[i * words..(i + 1) * words]`: the CCs whose `R1` side
    /// `rows[i]` matches.
    pub r1_masks: Vec<u64>,
    /// Laid out like `r1_masks`: the CCs `rows[i]` already feeds through
    /// its pins, counted in `fed`. Its placement replaces them.
    pub pinned: Vec<u64>,
}

/// `true` if `combo` (aligned with `cols`) satisfies `cond`. Conditions
/// referencing columns outside `cols` cannot be satisfied by any combo.
pub(crate) fn combo_satisfies(cols: &[String], combo: &[Value], cond: &NormalizedCond) -> bool {
    cond.iter().all(|(col, set)| {
        cols.iter()
            .position(|c| c == col)
            .is_some_and(|i| set.contains(combo[i]))
    })
}

/// One condition bitset per key, `words` words each, row-major: bit `c` of
/// key `k` is set iff `keys[k]` (aligned with `cols`) satisfies `conds[c]`,
/// as [`combo_satisfies`] decides it. Each condition's columns are resolved
/// to key positions once.
pub(crate) fn cond_masks(
    cols: &[String],
    keys: &[Vec<Value>],
    conds: &[&NormalizedCond],
    words: usize,
) -> Vec<u64> {
    let resolved: Vec<Option<Vec<(usize, &ValueSet)>>> = conds
        .iter()
        .map(|cond| {
            cond.iter()
                .map(|(col, set)| Some((cols.iter().position(|c| c == col)?, set)))
                .collect()
        })
        .collect();
    let mut masks = vec![0u64; keys.len() * words];
    for (k, key) in keys.iter().enumerate() {
        for (c, at) in resolved.iter().enumerate() {
            if at.as_ref().is_some_and(|at| holds(at, key)) {
                masks[k * words + c / 64] |= 1 << (c % 64);
            }
        }
    }
    masks
}

/// `true` if every set holds the value at its position in `key`.
pub(crate) fn holds(at: &[(usize, &ValueSet)], key: &[Value]) -> bool {
    at.iter().all(|&(pos, set)| set.contains(key[pos]))
}

/// Runs the configured Phase I strategy, mutating `stats` with timings and
/// counters. Returns the context (its record complete) and the invalid
/// rows.
pub(crate) fn run_phase1(
    instance: &CExtensionInstance,
    config: &SolverConfig,
    stats: &mut SolveStats,
) -> Result<(P1, InvalidRows)> {
    hybrid::run(instance, config, stats)
}
