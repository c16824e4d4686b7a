//! Streaming universe construction: folding row chunks into weighted join
//! profiles with peak memory `O(distinct profiles)`, not `O(rows)`.
//!
//! [`Universe::build`] requires the full instance in RAM before the first
//! profile is extracted. But the universe itself only depends on the
//! *weighted distinct join profiles* of each side — a Z-set-shaped
//! representation where every row is a `+1` weight delta on one profile
//! key. This module ingests a stream of [`RowChunk`]s, folds every row into
//! the profile fold [`Universe::build`] uses, and hands the resulting
//! weighted profiles to the same pair-loop kernel. Rows are dropped the
//! moment their chunk is folded; what stays resident is one representative
//! [`Tuple`] and one counter per *distinct* profile.
//!
//! # Two passes, one bounded memory footprint
//!
//! Canonicalizing a row to its profile key requires knowing which symbols
//! occur on **both** sides — information only complete once the whole
//! stream has been seen. A single-pass fold would have to keep full rows
//! until the shared set stabilizes, which is exactly the `O(rows)` cost
//! streaming exists to avoid. [`Universe::build_streaming`] therefore takes
//! a *restartable* chunk source and makes two passes:
//!
//! 1. **Shared scan** — fold per-side symbol-occurrence sets (memory
//!    `O(distinct symbols)`), intersect them into the shared set.
//! 2. **Profile fold** — re-stream the chunks, canonicalize each row with
//!    the now-exact shared set, and fold it into its side's weighted
//!    profiles on the calling thread.
//!
//! Seeded generators (e.g. `jqi_datagen::stream`) replay for free, so the
//! second pass costs one more generation sweep, never a materialization.
//! That sweep, not the fold, bounds pass 2, which is why the fold is
//! serial.
//!
//! Both passes end in the universe's one class table and finishing step
//! (`Universe::assemble`), the same code [`Universe::build`] and
//! [`Universe::apply_delta`] use; `threads` parallelizes its profile-pair
//! scan and containment closure.
//!
//! # Determinism
//!
//! Chunks are folded in arrival order, so profiles are numbered by first
//! occurrence exactly as [`Universe::build`] numbers them on the
//! materialized equivalent. Profile order, representatives, class ids and
//! counts are identical for every thread count and chunk size
//! (property-tested in `tests/properties.rs`).

use crate::delta::{LiveTables, SideTable, SymbolSet};
use crate::universe::{Profile, ProfileFold, Universe};
use jqi_relation::{BitSet, RowChunk, Side, StreamSchema, Symbol, Tuple};
use std::mem::size_of;
use std::time::Instant;

/// Options for a streaming ingestion run.
#[derive(Debug, Clone, Copy)]
pub struct IngestOptions {
    /// Threads for the profile-pair scan and the containment closure of
    /// the assembled universe. The row fold always runs on the calling
    /// thread.
    pub threads: usize,
    /// Hard ceiling on tracked ingestion bytes, checked after each chunk:
    /// ingestion panics when the fold outgrows it. A memory blow-up (a
    /// stream whose profiles do *not* collapse) then fails fast — in CI,
    /// the bench smoke job dies with a message instead of OOMing the
    /// runner.
    pub byte_ceiling: Option<usize>,
}

impl IngestOptions {
    /// Options with the given thread count and defaults otherwise.
    pub fn with_threads(threads: usize) -> Self {
        IngestOptions {
            threads: threads.max(1),
            byte_ceiling: None,
        }
    }

    /// Sets the tracked-byte ceiling (see [`IngestOptions::byte_ceiling`]).
    pub fn with_byte_ceiling(mut self, bytes: usize) -> Self {
        self.byte_ceiling = Some(bytes);
        self
    }
}

impl Default for IngestOptions {
    fn default() -> Self {
        IngestOptions::with_threads(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }
}

/// What a streaming build measured about itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct IngestStats {
    /// Rows streamed into side `R`.
    pub rows_r: u64,
    /// Rows streamed into side `P`.
    pub rows_p: u64,
    /// Chunks consumed (second pass).
    pub chunks: u64,
    /// Distinct R-side join profiles after the fold.
    pub distinct_r: usize,
    /// Distinct P-side join profiles after the fold.
    pub distinct_p: usize,
    /// Peak tracked bytes of the fold — the profile keys, representatives
    /// and counters, or a live build's row tables. Excludes the chunk in
    /// flight and the final universe, and does not depend on `threads`.
    pub peak_tracked_bytes: usize,
    /// What the rows would occupy if materialized as interned tuples —
    /// the memory the streaming path avoids holding.
    pub materialized_row_bytes: u64,
    /// Threads the profile-pair scan and containment closure ran with.
    pub threads: usize,
    /// Wall clock of pass 2 (re-streaming the chunks and folding them),
    /// milliseconds.
    pub fold_ms: f64,
    /// Wall clock of the assembly (profile-pair scan and containment
    /// closure), milliseconds.
    pub scan_ms: f64,
}

/// Estimated tracked bytes of one folded profile beyond its key and
/// representative symbols: the map slot with its index, the
/// representative's `Tuple`, the counter, and allocator slack.
const PROFILE_OVERHEAD: usize =
    size_of::<(Box<[u32]>, u32)>() + size_of::<Tuple>() + size_of::<u64>() + 48;

/// Heap bytes a materialized interned row would cost (symbols + the
/// `Tuple` fat pointer inside a `Vec<Tuple>`).
fn materialized_bytes(arity: usize) -> u64 {
    (size_of::<Tuple>() + arity * size_of::<u32>()) as u64
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// The first streaming pass: per-side symbol-occurrence sets, intersected
/// into the exact shared-symbol set (the streaming analogue of
/// [`jqi_relation::Instance::shared_symbols`]).
///
/// Memory is `O(distinct symbols)`; rows are inspected and dropped.
pub(crate) fn scan_shared_symbols(
    schema: &StreamSchema,
    chunks: impl Iterator<Item = RowChunk>,
) -> BitSet {
    let mut r_syms = SymbolSet::default();
    let mut p_syms = SymbolSet::default();
    for chunk in chunks {
        let set = match chunk.side {
            Side::R => &mut r_syms,
            Side::P => &mut p_syms,
        };
        for row in &chunk.rows {
            for sym in row.symbols() {
                set.insert(sym.0);
            }
        }
    }
    r_syms.intersect(&p_syms, schema.interner().len())
}

/// What pass 2 folds rows into.
trait RowFold {
    /// Folds one streamed row of `side`.
    fn row(&mut self, side: Side, row: &Tuple);
    /// Tracked resident bytes, checked against the ceiling after each chunk.
    fn resident_bytes(&self) -> usize;
}

/// The plain streaming build's fold: one [`ProfileFold`] per side
/// (`[R, P]`), plus the row representing each profile.
struct StreamedProfiles<'a> {
    shared: &'a BitSet,
    folds: [ProfileFold; 2],
    reps: [Vec<Tuple>; 2],
    bytes: usize,
}

impl RowFold for StreamedProfiles<'_> {
    fn row(&mut self, side: Side, row: &Tuple) {
        let slot = match side {
            Side::R => 0,
            Side::P => 1,
        };
        let key = jqi_relation::stream::profile_key(row, self.shared);
        let key_bytes = key.len() * size_of::<u32>();
        if self.folds[slot].fold(key) {
            self.bytes += key_bytes + row.arity() * size_of::<u32>() + PROFILE_OVERHEAD;
            self.reps[slot].push(row.clone());
        }
    }

    fn resident_bytes(&self) -> usize {
        self.bytes
    }
}

/// The live build's fold: the live row tables, fed through one reused
/// symbol buffer.
struct LiveFold {
    tables: LiveTables,
    syms: Vec<u32>,
}

impl RowFold for LiveFold {
    fn row(&mut self, side: Side, row: &Tuple) {
        self.syms.clear();
        self.syms.extend(row.symbols().iter().map(|s| s.0));
        self.tables.ingest(side, &self.syms, false);
    }

    fn resident_bytes(&self) -> usize {
        self.tables.resident_bytes()
    }
}

/// Pass 2's one chunk loop, shared by both streaming builds: hands every
/// row to `fold` on the calling thread, counts rows and chunks, and checks
/// the byte ceiling after each chunk.
fn fold_chunks(
    schema: &StreamSchema,
    chunks: impl Iterator<Item = RowChunk>,
    fold: &mut impl RowFold,
    options: &IngestOptions,
) -> IngestStats {
    let start = Instant::now();
    let mut stats = IngestStats {
        threads: options.threads.max(1),
        ..IngestStats::default()
    };
    for chunk in chunks {
        stats.chunks += 1;
        match chunk.side {
            Side::R => stats.rows_r += chunk.rows.len() as u64,
            Side::P => stats.rows_p += chunk.rows.len() as u64,
        }
        for row in &chunk.rows {
            fold.row(chunk.side, row);
        }
        let resident = fold.resident_bytes();
        stats.peak_tracked_bytes = stats.peak_tracked_bytes.max(resident);
        if let Some(ceiling) = options.byte_ceiling {
            assert!(
                resident <= ceiling,
                "streaming ingestion exceeded its byte ceiling: {resident} tracked \
                 bytes > {ceiling} — the stream's profiles (for a live build, its \
                 distinct rows) are not collapsing"
            );
        }
    }
    stats.materialized_row_bytes = stats.rows_r * materialized_bytes(schema.side(Side::R).arity())
        + stats.rows_p * materialized_bytes(schema.side(Side::P).arity());
    stats.fold_ms = ms(start);
    stats
}

/// Assembles a streamed universe from each side's `(representatives,
/// profiles)`, recording the profile counts and `scan_ms` in `stats`.
fn assemble_streamed(
    schema: StreamSchema,
    shared: BitSet,
    (r_reps, r_profiles): (Vec<Tuple>, Vec<Profile>),
    (p_reps, p_profiles): (Vec<Tuple>, Vec<Profile>),
    stats: &mut IngestStats,
) -> Universe {
    stats.distinct_r = r_profiles.len();
    stats.distinct_p = p_profiles.len();
    let instance = schema
        .into_instance(r_reps, p_reps)
        .expect("streamed rows match their declared schemas");
    let start = Instant::now();
    let universe = Universe::assemble(instance, shared, r_profiles, p_profiles, stats.threads);
    stats.scan_ms = ms(start);
    universe
}

impl Universe {
    /// Builds the universe from a **restartable** stream of row chunks,
    /// with peak ingestion memory `O(distinct profiles)` instead of
    /// `O(rows)`.
    ///
    /// `source` is called twice: once for the shared-symbol scan, once for
    /// the profile fold (see the module docs for why two passes are the
    /// memory-honest design). Both passes stream; nothing row-shaped
    /// outlives its chunk. The finished universe is **equivalent to**
    /// [`Universe::build`] on the materialized instance — identical class
    /// signatures, ids, counts, and representative tuples — except that
    /// its embedded instance holds one representative row per distinct
    /// profile rather than every row (so `instance().product_size()` is
    /// the *profile* product; [`Universe::total_tuples`] still reports the
    /// true row product). `threads` parallelizes the assembly only.
    pub fn build_streaming<I>(
        schema: StreamSchema,
        source: impl Fn() -> I,
        threads: usize,
    ) -> (Universe, IngestStats)
    where
        I: Iterator<Item = RowChunk>,
    {
        Self::build_streaming_with_options(schema, source, &IngestOptions::with_threads(threads))
    }

    /// [`Universe::build_streaming`] with explicit [`IngestOptions`]
    /// (assembly threads, byte ceiling).
    pub fn build_streaming_with_options<I>(
        schema: StreamSchema,
        source: impl Fn() -> I,
        options: &IngestOptions,
    ) -> (Universe, IngestStats)
    where
        I: Iterator<Item = RowChunk>,
    {
        let shared = scan_shared_symbols(&schema, source());
        Self::build_streaming_with_shared(schema, shared, source(), options)
    }

    /// The single-pass streaming primitive: folds `chunks` into weighted
    /// profiles against a caller-provided `shared` symbol set and
    /// assembles the universe.
    ///
    /// `shared` must contain every symbol occurring on both sides.
    /// Providing exactly the true shared set (what
    /// `scan_shared_symbols` computes) reproduces [`Universe::build`]
    /// bit for bit; a strict **superset** still yields correct signatures
    /// and counts but may split profiles finer (more resident
    /// representatives, and class ids follow the finer enumeration).
    /// A set *missing* a genuinely shared symbol is unsound — its
    /// equality bits would be lost.
    pub(crate) fn build_streaming_with_shared(
        schema: StreamSchema,
        shared: BitSet,
        chunks: impl Iterator<Item = RowChunk>,
        options: &IngestOptions,
    ) -> (Universe, IngestStats) {
        let mut fold = StreamedProfiles {
            shared: &shared,
            folds: Default::default(),
            reps: Default::default(),
            bytes: 0,
        };
        let mut stats = fold_chunks(&schema, chunks, &mut fold, options);
        let StreamedProfiles {
            folds: [r_fold, p_fold],
            reps: [r_reps, p_reps],
            ..
        } = fold;
        let r_profiles = r_fold.into_profiles(0..r_reps.len() as u32);
        let p_profiles = p_fold.into_profiles(0..p_reps.len() as u32);
        let universe = assemble_streamed(
            schema,
            shared,
            (r_reps, r_profiles),
            (p_reps, p_profiles),
            &mut stats,
        );
        (universe, stats)
    }

    /// [`Universe::build_streaming`], but the result is **delta-capable**:
    /// it carries live row tables and accepts
    /// [`Universe::apply_delta`](crate::delta) without ever materializing
    /// the instance.
    ///
    /// The memory trade is explicit: where the plain streaming build keeps
    /// `O(distinct profiles)`, the live build keeps `O(distinct rows)` —
    /// every distinct full row with its multiplicity (a Z-set), which is
    /// exactly the state incremental maintenance needs. That is still far
    /// below `O(rows)` materialization for data with duplicate rows, and
    /// the embedded instance still holds representatives only.
    ///
    /// Rows go through the plain build's chunk loop into the live tables
    /// instead of a profile fold. Profile enumeration order is
    /// first-occurrence, so class ids, signatures, counts, and
    /// representatives are identical to [`Universe::build_streaming`] on
    /// the same stream.
    pub fn build_streaming_live<I>(
        schema: StreamSchema,
        source: impl Fn() -> I,
        threads: usize,
    ) -> (Universe, IngestStats)
    where
        I: Iterator<Item = RowChunk>,
    {
        Self::build_streaming_live_with_options(
            schema,
            source,
            &IngestOptions::with_threads(threads),
        )
    }

    /// [`Universe::build_streaming_live`] with explicit [`IngestOptions`]
    /// (`byte_ceiling` is enforced against the live tables' resident
    /// bytes).
    pub fn build_streaming_live_with_options<I>(
        schema: StreamSchema,
        source: impl Fn() -> I,
        options: &IngestOptions,
    ) -> (Universe, IngestStats)
    where
        I: Iterator<Item = RowChunk>,
    {
        let shared = scan_shared_symbols(&schema, source());
        let mut fold = LiveFold {
            tables: LiveTables::new(
                schema.side(Side::R).arity(),
                schema.side(Side::P).arity(),
                &shared,
            ),
            syms: Vec::new(),
        };
        let mut stats = fold_chunks(&schema, source(), &mut fold, options);
        let mut lt = fold.tables;
        lt.finalize_ingest();
        let side_profiles = |st: &SideTable| -> (Vec<Tuple>, Vec<Profile>) {
            (0..st.prof_count() as u32)
                .map(|p| {
                    let rep = st
                        .rep_syms(p)
                        .iter()
                        .map(|&s| Symbol(s))
                        .collect::<Vec<_>>();
                    let count = st.prof_weight(p);
                    (Tuple::new(rep), Profile { rep: p, count })
                })
                .unzip()
        };
        let (r, p) = (side_profiles(&lt.r), side_profiles(&lt.p));
        let mut universe = assemble_streamed(schema, shared, r, p, &mut stats);
        universe.live = Some(std::sync::Arc::new(lt));
        (universe, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jqi_relation::Value;

    fn schema() -> StreamSchema {
        StreamSchema::from_names("R", &["A1", "A2"], "P", &["B1"]).unwrap()
    }

    /// 6 R rows collapsing to 2 profiles, 4 P rows collapsing to 3.
    fn chunks(schema: &StreamSchema, chunk_rows: usize) -> Vec<RowChunk> {
        let r_rows: Vec<[i64; 2]> = vec![
            [1, 100],
            [1, 101], // 100/101 occur only in R → same profile as above
            [2, 100],
            [1, 102],
            [2, 103],
            [2, 104],
        ];
        let p_rows: Vec<[i64; 1]> = vec![[1], [2], [1], [3]];
        let mut out = Vec::new();
        for rows in r_rows.chunks(chunk_rows) {
            out.push(RowChunk {
                side: Side::R,
                rows: rows
                    .iter()
                    .map(|r| {
                        schema
                            .intern_row(Side::R, &[Value::int(r[0]), Value::int(r[1])])
                            .unwrap()
                    })
                    .collect(),
            });
        }
        for rows in p_rows.chunks(chunk_rows) {
            out.push(RowChunk {
                side: Side::P,
                rows: rows
                    .iter()
                    .map(|r| schema.intern_row(Side::P, &[Value::int(r[0])]).unwrap())
                    .collect(),
            });
        }
        out
    }

    #[test]
    fn streaming_build_collapses_profiles() {
        let schema = schema();
        let all = chunks(&schema, 2);
        let (u, stats) = Universe::build_streaming(schema, || all.clone().into_iter(), 1);
        assert_eq!(stats.rows_r, 6);
        assert_eq!(stats.rows_p, 4);
        assert_eq!(stats.distinct_r, 2);
        assert_eq!(stats.distinct_p, 3);
        assert_eq!(u.distinct_r_profiles(), 2);
        assert_eq!(u.distinct_p_profiles(), 3);
        // The compact instance holds reps only, but weights are preserved.
        assert_eq!(u.instance().r().len(), 2);
        assert_eq!(u.total_tuples(), 24);
        assert!(stats.peak_tracked_bytes > 0);
        assert!(stats.materialized_row_bytes > stats.peak_tracked_bytes as u64 / 10);
    }

    #[test]
    fn streaming_matches_thread_counts_and_chunk_sizes() {
        let schema0 = schema();
        let base_chunks = chunks(&schema0, 2);
        let (reference, _) =
            Universe::build_streaming(schema0, || base_chunks.clone().into_iter(), 1);
        for chunk_rows in [1, 3, 100] {
            let s = schema();
            let all = chunks(&s, chunk_rows);
            let (_, serial) = Universe::build_streaming(s.clone(), || all.clone().into_iter(), 1);
            for threads in [2, 4, 8] {
                let (u, stats) =
                    Universe::build_streaming(s.clone(), || all.clone().into_iter(), threads);
                assert_eq!(u.num_classes(), reference.num_classes());
                assert_eq!(u.counts(), reference.counts());
                assert_eq!(
                    u.sigs(),
                    reference.sigs(),
                    "threads={threads} chunk_rows={chunk_rows}"
                );
                // The fold is serial, so only `threads` (and the timings)
                // may differ from the one-thread run.
                assert_eq!(stats.threads, threads);
                assert_eq!(
                    ingestion_counts(&stats),
                    ingestion_counts(&serial),
                    "threads={threads} chunk_rows={chunk_rows}"
                );
            }
        }
    }

    /// Every [`IngestStats`] field except `threads` and the timings; the
    /// destructuring fails to compile when a field is added.
    fn ingestion_counts(stats: &IngestStats) -> [u64; 7] {
        let IngestStats {
            rows_r,
            rows_p,
            chunks,
            distinct_r,
            distinct_p,
            peak_tracked_bytes,
            materialized_row_bytes,
            threads: _,
            fold_ms: _,
            scan_ms: _,
        } = *stats;
        [
            rows_r,
            rows_p,
            chunks,
            distinct_r as u64,
            distinct_p as u64,
            peak_tracked_bytes as u64,
            materialized_row_bytes,
        ]
    }

    #[test]
    fn byte_ceiling_fails_fast() {
        let s = schema();
        let all = chunks(&s, 2);
        let shared = scan_shared_symbols(&s, all.clone().into_iter());
        let options = IngestOptions::with_threads(1).with_byte_ceiling(8);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Universe::build_streaming_with_shared(s, shared, all.into_iter(), &options)
        }));
        assert!(result.is_err(), "ceiling of 8 bytes must trip");
    }

    #[test]
    fn empty_stream_builds_empty_universe() {
        let s = schema();
        let (u, stats) = Universe::build_streaming(s, std::iter::empty::<RowChunk>, 2);
        assert_eq!(u.num_classes(), 0);
        assert_eq!(u.total_tuples(), 0);
        assert_eq!(stats.rows_r + stats.rows_p, 0);
    }

    #[test]
    fn live_streaming_matches_plain_streaming_and_accepts_deltas() {
        let s0 = schema();
        let all = chunks(&s0, 2);
        let (plain, _) = Universe::build_streaming(s0, || all.clone().into_iter(), 1);
        let s1 = schema();
        let all1 = chunks(&s1, 3);
        let tuple = s1
            .intern_row(Side::R, &[Value::int(3), Value::int(100)])
            .unwrap();
        let (live, stats) = Universe::build_streaming_live(s1, || all1.clone().into_iter(), 2);
        assert_eq!(live.sigs(), plain.sigs());
        assert_eq!(live.counts(), plain.counts());
        assert_eq!(live.fingerprint(), plain.fingerprint());
        assert_eq!(stats.distinct_r, 2);
        assert_eq!(stats.distinct_p, 3);
        assert!(stats.peak_tracked_bytes > 0);
        assert!(live.is_live());
        assert!(!plain.is_live(), "plain streaming build has no row tables");
        assert!(matches!(
            plain.apply_delta(&crate::delta::UniverseDelta::new()),
            Err(crate::delta::DeltaError::NotLive)
        ));
        // The live build takes deltas without ever materializing rows.
        let mut d = crate::delta::UniverseDelta::new();
        d.insert(Side::R, tuple);
        let next = live.apply_delta(&d).unwrap();
        assert_eq!(next.total_tuples(), live.total_tuples() + 4);
        assert_eq!(next.epoch(), 1);
    }

    #[test]
    fn live_byte_ceiling_fails_fast() {
        let s = schema();
        let all = chunks(&s, 2);
        let options = IngestOptions::with_threads(1).with_byte_ceiling(8);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Universe::build_streaming_live_with_options(s, || all.clone().into_iter(), &options)
        }));
        assert!(result.is_err(), "ceiling of 8 bytes must trip");
    }

    #[test]
    fn shared_superset_keeps_signatures_and_counts() {
        // A superset of the true shared set may split profiles finer but
        // must not change the signature/count multiset.
        let s = schema();
        let all = chunks(&s, 2);
        let exact = scan_shared_symbols(&s, all.clone().into_iter());
        let superset = BitSet::full(s.interner().len());
        let (u_exact, _) = Universe::build_streaming_with_shared(
            s.clone(),
            exact,
            all.clone().into_iter(),
            &IngestOptions::with_threads(1),
        );
        let (u_super, _) = Universe::build_streaming_with_shared(
            s,
            superset,
            all.into_iter(),
            &IngestOptions::with_threads(1),
        );
        assert!(u_super.distinct_r_profiles() >= u_exact.distinct_r_profiles());
        let mut a: Vec<(Vec<usize>, u64)> = u_exact
            .iter()
            .map(|(_, sig, n)| (sig.iter().collect(), n))
            .collect();
        let mut b: Vec<(Vec<usize>, u64)> = u_super
            .iter()
            .map(|(_, sig, n)| (sig.iter().collect(), n))
            .collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }
}
