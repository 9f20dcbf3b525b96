//! Seeded property suite: every kernel must produce bit-identical output on
//! a parallel device and on the sequential device, across row counts that
//! exercise the empty, singleton, odd-sized, and chunk-spanning regimes, and
//! across table shapes that hit both sorting algorithms (narrow rows → LSD
//! radix sort, wide rows → parallel merge sort).
//!
//! This is the contract the executor's differential suites
//! (`batch_agreement`, `sharded_agreement`, cross-provenance) lean on: if
//! each kernel is chunk-invariant, whole fix-points are.

use lobster_gpu::kernels::PackLane;
use lobster_gpu::{kernels, Device, DeviceConfig, HashIndex};

/// Parallelism degrees exercised against the sequential baseline.
const PARALLELISMS: [usize; 3] = [1, 3, 8];

/// Row-count regimes: empty, singleton, small odd, large odd (does not
/// divide evenly into chunks), large.
const ROW_COUNTS: [usize; 5] = [0, 1, 37, 4099, 6000];

/// A tiny deterministic xorshift generator so the suite needs no rand crate.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// A value in `0..bound` (bound > 0).
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

fn parallel_device(parallelism: usize) -> Device {
    Device::new(DeviceConfig {
        parallelism,
        // Tiny threshold so even the small regimes actually chunk.
        min_parallel_rows: 8,
        ..DeviceConfig::default()
    })
}

/// Random table: `arity` columns of `rows` values drawn from `0..key_space`
/// (small key spaces create the duplicate rows `unique`/`difference` need),
/// plus f64 tags with distinct bit patterns.
fn random_table(
    rng: &mut Rng,
    rows: usize,
    arity: usize,
    key_space: u64,
) -> (Vec<Vec<u64>>, Vec<f64>) {
    let cols = (0..arity)
        .map(|_| (0..rows).map(|_| rng.below(key_space)).collect())
        .collect();
    let tags = (0..rows).map(|_| rng.below(1 << 20) as f64 * 0.5).collect();
    (cols, tags)
}

fn refs(cols: &[Vec<u64>]) -> Vec<&[u64]> {
    cols.iter().map(|c| c.as_slice()).collect()
}

/// Sorts a table into the canonical (sorted rows, permuted tags) form on the
/// given device.
fn sorted_on(device: &Device, cols: &[Vec<u64>], tags: &[f64]) -> (Vec<Vec<u64>>, Vec<f64>) {
    let perm = kernels::sort_permutation(device, &refs(cols));
    kernels::apply_permutation(device, &perm, &refs(cols), tags)
}

/// Table shapes: (arity, key space). One column takes the one-word sort;
/// small key spaces force heavy duplication and few varying radix bytes; the
/// huge key space forces full-width radix passes — 16 of them at arity 2,
/// the whole budget — and at arity 3 blows the budget and lands on the
/// parallel merge sort.
const SHAPES: [(usize, u64); 5] = [
    (1, 11),
    (2, 97),
    (2, u64::MAX - 1),
    (3, u64::MAX - 1),
    (9, 5),
];

#[test]
fn sort_unique_merge_difference_agree_with_sequential() {
    let seq = Device::sequential();
    for (arity, key_space) in SHAPES {
        for rows in ROW_COUNTS {
            let mut rng = Rng::new(rows as u64 * 31 + arity as u64);
            let (cols, tags) = random_table(&mut rng, rows, arity, key_space);
            let (other_cols, other_tags) = random_table(&mut rng, rows / 2 + 1, arity, key_space);

            let seq_perm = kernels::sort_permutation(&seq, &refs(&cols));
            let (seq_sorted, seq_stags) = sorted_on(&seq, &cols, &tags);
            let (seq_uniq, seq_utags) =
                kernels::unique(&seq, &refs(&seq_sorted), &seq_stags, |a, b| a + b);
            let (seq_other, seq_otags) = sorted_on(&seq, &other_cols, &other_tags);
            let (seq_merged, seq_mtags) = kernels::merge(
                &seq,
                &refs(&seq_sorted),
                &seq_stags,
                &refs(&seq_other),
                &seq_otags,
            );
            let (seq_diff, seq_dtags) = kernels::difference(
                &seq,
                &refs(&seq_uniq),
                &seq_utags,
                &refs(&seq_other),
                seq_otags.len(),
            );

            for parallelism in PARALLELISMS {
                let par = parallel_device(parallelism);
                let ctx = format!("arity {arity}, keys {key_space}, rows {rows}, p {parallelism}");
                assert_eq!(
                    kernels::sort_permutation(&par, &refs(&cols)),
                    seq_perm,
                    "sort: {ctx}"
                );
                let (sorted, stags) = sorted_on(&par, &cols, &tags);
                assert_eq!(sorted, seq_sorted, "apply_permutation cols: {ctx}");
                assert_bits(
                    &stags,
                    &seq_stags,
                    &format!("apply_permutation tags: {ctx}"),
                );
                let (uniq, utags) = kernels::unique(&par, &refs(&sorted), &stags, |a, b| a + b);
                assert_eq!(uniq, seq_uniq, "unique cols: {ctx}");
                assert_bits(&utags, &seq_utags, &format!("unique tags: {ctx}"));
                let (merged, mtags) =
                    kernels::merge(&par, &refs(&sorted), &stags, &refs(&seq_other), &seq_otags);
                assert_eq!(merged, seq_merged, "merge cols: {ctx}");
                assert_bits(&mtags, &seq_mtags, &format!("merge tags: {ctx}"));
                let (diff, dtags) = kernels::difference(
                    &par,
                    &refs(&uniq),
                    &utags,
                    &refs(&seq_other),
                    seq_otags.len(),
                );
                assert_eq!(diff, seq_diff, "difference cols: {ctx}");
                assert_bits(&dtags, &seq_dtags, &format!("difference tags: {ctx}"));
            }
        }
    }
}

/// `difference_runs` against a host-side oracle (a set of every run's rows),
/// with run lengths on both sides of the galloping threshold: the longest
/// run is ≥ 8× the candidate (galloped), the shortest is shorter than it
/// (walked), and the kept set must not depend on which happened or on the
/// chunking.
#[test]
fn difference_over_many_runs_agrees_with_a_set_oracle() {
    use std::collections::BTreeSet;
    let seq = Device::sequential();
    for (arity, key_space) in [(1, 5_000u64), (2, 97), (2, u64::MAX - 1)] {
        for rows in [0usize, 1, 37, 640, 4099] {
            let mut rng = Rng::new(rows as u64 * 17 + arity as u64 + key_space % 7);
            let sorted_unique = |rng: &mut Rng, n: usize| {
                let (cols, tags) = random_table(rng, n, arity, key_space);
                let (sorted, stags) = sorted_on(&seq, &cols, &tags);
                kernels::unique(&seq, &refs(&sorted), &stags, |a, _| *a)
            };
            let (cand, cand_tags) = sorted_unique(&mut rng, rows / 16 + 1);
            let runs: Vec<(Vec<Vec<u64>>, Vec<f64>)> = [rows, rows / 4, rows / 40]
                .into_iter()
                .map(|n| sorted_unique(&mut rng, n))
                .collect();
            let known: BTreeSet<Vec<u64>> = runs
                .iter()
                .flat_map(|(cols, tags)| {
                    (0..tags.len()).map(move |r| cols.iter().map(|c| c[r]).collect())
                })
                .collect();
            let kept: Vec<usize> = (0..cand_tags.len())
                .filter(|&r| !known.contains(&cand.iter().map(|c| c[r]).collect::<Vec<u64>>()))
                .collect();
            let want_cols: Vec<Vec<u64>> = cand
                .iter()
                .map(|c| kept.iter().map(|&r| c[r]).collect())
                .collect();
            let want_tags: Vec<f64> = kept.iter().map(|&r| cand_tags[r]).collect();

            let run_refs: Vec<Vec<&[u64]>> = runs.iter().map(|(cols, _)| refs(cols)).collect();
            let run_args: Vec<(&[&[u64]], usize)> = run_refs
                .iter()
                .zip(&runs)
                .map(|(r, (_, tags))| (r.as_slice(), tags.len()))
                .collect();
            for parallelism in PARALLELISMS {
                let par = parallel_device(parallelism);
                let ctx = format!("arity {arity}, keys {key_space}, rows {rows}, p {parallelism}");
                let (cols, tags) =
                    kernels::difference_runs(&par, &refs(&cand), &cand_tags, &run_args);
                assert_eq!(cols, want_cols, "difference_runs cols: {ctx}");
                assert_bits(&tags, &want_tags, &format!("difference_runs tags: {ctx}"));
            }
        }
    }
}

/// f64 comparisons must be *bit*-identical (the provenance contract), not
/// merely approximately equal.
fn assert_bits(a: &[f64], b: &[f64], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: tag {i}");
    }
}

#[test]
fn scan_eval_gathers_agree_with_sequential() {
    let seq = Device::sequential();
    for rows in ROW_COUNTS {
        let mut rng = Rng::new(rows as u64 + 7);
        let counts: Vec<u64> = (0..rows).map(|_| rng.below(5)).collect();
        let data: Vec<u64> = (0..rows).map(|_| rng.below(1 << 40)).collect();
        let indices: Vec<u64> = (0..rows).map(|_| rng.below(rows.max(1) as u64)).collect();
        let tags: Vec<f64> = (0..rows)
            .map(|_| rng.below(1 << 20) as f64 * 0.25)
            .collect();

        let (seq_offsets, seq_total) = kernels::scan(&seq, &counts);
        let eval_fn = |range: std::ops::Range<usize>, sink: &mut kernels::EvalSink| {
            let mut out = [0u64; 2];
            for i in range {
                if data[i] % 3 != 0 {
                    out[0] = data[i] / 3;
                    out[1] = data[i].rotate_left(5);
                    sink.emit(i, &out);
                }
            }
        };
        let (seq_eval_cols, seq_eval_src) = kernels::eval(&seq, rows, 2, eval_fn);
        let seq_gather = kernels::gather(&seq, &indices, &data);
        let seq_gtags = kernels::gather_tags(&seq, &indices, &tags);

        for parallelism in PARALLELISMS {
            let par = parallel_device(parallelism);
            let ctx = format!("rows {rows}, p {parallelism}");
            let (offsets, total) = kernels::scan(&par, &counts);
            assert_eq!(offsets, seq_offsets, "scan offsets: {ctx}");
            assert_eq!(total, seq_total, "scan total: {ctx}");
            let (eval_cols, eval_src) = kernels::eval(&par, rows, 2, eval_fn);
            assert_eq!(eval_cols, seq_eval_cols, "eval cols: {ctx}");
            assert_eq!(eval_src, seq_eval_src, "eval sources: {ctx}");
            assert_eq!(
                kernels::gather(&par, &indices, &data),
                seq_gather,
                "gather: {ctx}"
            );
            assert_bits(
                &kernels::gather_tags(&par, &indices, &tags),
                &seq_gtags,
                &format!("gather_tags: {ctx}"),
            );
        }
    }
}

#[test]
fn joins_and_append_agree_with_sequential() {
    let seq = Device::sequential();
    for rows in ROW_COUNTS {
        for key_width in [1usize, 2] {
            let mut rng = Rng::new(rows as u64 * 13 + key_width as u64);
            let key_space = (rows as u64 / 7).max(3);
            let (build_cols, _) = random_table(&mut rng, rows, key_width, key_space);
            let (probe_cols, _) = random_table(&mut rng, rows.div_ceil(2), key_width, key_space);

            let seq_index = HashIndex::build(&seq, &refs(&build_cols), 2);
            let seq_counts = kernels::count_matches(&seq, &seq_index, &refs(&probe_cols));
            let (seq_offsets, seq_total) = kernels::scan(&seq, &seq_counts);
            let (seq_bi, seq_pi) = kernels::hash_join(
                &seq,
                &seq_index,
                &refs(&probe_cols),
                &seq_counts,
                &seq_offsets,
                seq_total,
            );
            let seq_append = kernels::append(&seq, &[&refs(&build_cols), &refs(&probe_cols)]);

            for parallelism in PARALLELISMS {
                let par = parallel_device(parallelism);
                let ctx = format!("rows {rows}, width {key_width}, p {parallelism}");
                let index = HashIndex::build(&par, &refs(&build_cols), 2);
                let counts = kernels::count_matches(&par, &index, &refs(&probe_cols));
                assert_eq!(counts, seq_counts, "count_matches: {ctx}");
                let (offsets, total) = kernels::scan(&par, &counts);
                let (bi, pi) =
                    kernels::hash_join(&par, &index, &refs(&probe_cols), &counts, &offsets, total);
                assert_eq!(bi, seq_bi, "hash_join build indices: {ctx}");
                assert_eq!(pi, seq_pi, "hash_join probe indices: {ctx}");
                assert_eq!(
                    kernels::append(&par, &[&refs(&build_cols), &refs(&probe_cols)]),
                    seq_append,
                    "append: {ctx}"
                );
            }
        }
    }
}

/// The merge-path join must be indistinguishable from the hash join — not
/// just the same match *set* but the same bytes in the same positions:
/// identical per-probe counts, and identical `(build, probe)` index columns.
/// The executor switches between the two paths on a static sort-order fact,
/// so any divergence here would make results depend on a compile-time
/// heuristic.
#[test]
fn merge_join_is_bit_identical_to_hash_join() {
    let seq = Device::sequential();
    for rows in ROW_COUNTS {
        for key_width in [1usize, 2] {
            let mut rng = Rng::new(rows as u64 * 17 + key_width as u64);
            let key_space = (rows as u64 / 7).max(3);
            let (build_raw, build_tags) = random_table(&mut rng, rows, key_width, key_space);
            let (probe_cols, _) = random_table(&mut rng, rows.div_ceil(2), key_width, key_space);
            // The merge path requires a sorted build side; the hash path
            // accepts one. Sort once and feed the same table to both.
            let (build_cols, _) = sorted_on(&seq, &build_raw, &build_tags);

            let index = HashIndex::build(&seq, &refs(&build_cols), 2);
            let hash_counts = kernels::count_matches(&seq, &index, &refs(&probe_cols));
            let (hash_offsets, hash_total) = kernels::scan(&seq, &hash_counts);
            let (hash_bi, hash_pi) = kernels::hash_join(
                &seq,
                &index,
                &refs(&probe_cols),
                &hash_counts,
                &hash_offsets,
                hash_total,
            );

            for parallelism in PARALLELISMS {
                let par = parallel_device(parallelism);
                let ctx = format!("rows {rows}, width {key_width}, p {parallelism}");
                let counts = kernels::merge_count(&par, &refs(&build_cols), &refs(&probe_cols));
                assert_eq!(counts, hash_counts, "merge_count vs count_matches: {ctx}");
                let (offsets, total) = kernels::scan(&par, &counts);
                let (bi, pi) = kernels::merge_join(
                    &par,
                    &refs(&build_cols),
                    &refs(&probe_cols),
                    &counts,
                    &offsets,
                    total,
                );
                assert_eq!(bi, hash_bi, "merge_join build indices: {ctx}");
                assert_eq!(pi, hash_pi, "merge_join probe indices: {ctx}");
            }
        }
    }
}

/// The join a hash index must reproduce, computed without one: every
/// (build row, probe row) pair with equal keys, probe rows ascending and
/// build rows ascending within a probe row. Returns `(counts, build
/// indices, probe indices)`.
fn nested_loop_join(build: &[&[u64]], probe: &[&[u64]]) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    let probe_rows = probe.first().map_or(0, |c| c.len());
    let (mut counts, mut bi, mut pi) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..probe_rows {
        let before = bi.len();
        // A bare indexed loop whose first column rejects almost every build
        // row: the 20 000 × 10 000 case has to stay affordable unoptimized.
        let (first, key) = (build[0], probe[0][i]);
        let mut row = 0;
        while row < first.len() {
            if first[row] == key && build.iter().zip(probe).all(|(b, p)| b[row] == p[i]) {
                bi.push(row as u64);
                pi.push(i as u64);
            }
            row += 1;
        }
        counts.push((bi.len() - before) as u64);
    }
    (counts, bi, pi)
}

/// Partitioning the hash index must be invisible: whatever the partition
/// count and whatever the device parallelism (pooled workers vs sequential),
/// `count_matches` and `hash_join` must return the nested-loop join's bytes
/// — probe rows ascending, build rows ascending within each.
#[test]
fn partitioned_hash_join_is_bit_identical_to_monolithic() {
    // 20_000 rows crosses the auto-partition threshold (16_384); the smaller
    // regimes only partition when we force an explicit partition count.
    for rows in [0usize, 37, 4099, 20_000] {
        for key_width in [1usize, 2] {
            let mut rng = Rng::new(rows as u64 * 29 + key_width as u64);
            let key_space = (rows as u64 / 7).max(3);
            let (build_cols, _) = random_table(&mut rng, rows, key_width, key_space);
            let (probe_cols, _) = random_table(&mut rng, rows.div_ceil(2), key_width, key_space);
            let (want_counts, want_bi, want_pi) =
                nested_loop_join(&refs(&build_cols), &refs(&probe_cols));
            if rows == 20_000 {
                // Non-vacuity: the default build really partitions here, and
                // the join has duplicate keys to order.
                let auto = HashIndex::build(&Device::sequential(), &refs(&build_cols), 2);
                assert!(auto.partitions() > 1, "20 000 rows must auto-partition");
                assert!(want_counts.iter().any(|&c| c > 1), "no duplicate matches");
            }

            for parallelism in PARALLELISMS {
                let par = parallel_device(parallelism);
                for partitions in [1usize, 4, 32] {
                    let ctx =
                        format!("rows {rows}, width {key_width}, p {parallelism}, P {partitions}");
                    let index =
                        HashIndex::build_partitioned(&par, &refs(&build_cols), 2, partitions);
                    if rows > 0 {
                        assert_eq!(index.partitions(), partitions, "{ctx}");
                    }
                    let counts = kernels::count_matches(&par, &index, &refs(&probe_cols));
                    assert_eq!(counts, want_counts, "count_matches: {ctx}");
                    let (offsets, total) = kernels::scan(&par, &counts);
                    let (bi, pi) = kernels::hash_join(
                        &par,
                        &index,
                        &refs(&probe_cols),
                        &counts,
                        &offsets,
                        total,
                    );
                    assert_eq!(bi, want_bi, "hash_join build indices: {ctx}");
                    assert_eq!(pi, want_pi, "hash_join probe indices: {ctx}");
                    index.recycle(&par);
                }
            }
        }
    }
}

/// The test-local index of a build side: for every key, the rows holding it
/// in ascending order, found by one walk over the rows.
type RowsOfKey = std::collections::BTreeMap<Vec<u64>, Vec<usize>>;

/// A build side whose keys each occur 1 to 64 times, the occurrences
/// scattered over the table: `keys` distinct keys of `width` columns, with
/// its [`RowsOfKey`].
fn duplicated_keys(rng: &mut Rng, keys: usize, width: usize) -> (Vec<Vec<u64>>, RowsOfKey) {
    let mut rows: Vec<Vec<u64>> = Vec::new();
    for k in 0..keys as u64 {
        // Distinct in the first column alone, so the second one is free to
        // collide across keys.
        let key: Vec<u64> = (0..width as u64)
            .map(|c| if c == 0 { k * 7 + 3 } else { rng.below(4) })
            .collect();
        // Every count from 1 to 64 occurs, the two ends first.
        let copies = match k {
            0 => 1,
            1 => 64,
            _ => 1 + rng.below(64),
        };
        rows.extend((0..copies).map(|_| key.clone()));
    }
    for i in (1..rows.len()).rev() {
        rows.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut rows_of_key = RowsOfKey::new();
    for (row, key) in rows.iter().enumerate() {
        rows_of_key.entry(key.clone()).or_default().push(row);
    }
    let cols = (0..width)
        .map(|c| rows.iter().map(|key| key[c]).collect())
        .collect();
    (cols, rows_of_key)
}

/// One slot per distinct key over row ids grouped by key: whatever the
/// number of duplicates, the partition count and the parallelism of the
/// build, a probe must walk exactly the rows that hold its key, ascending —
/// the order the oracle's walk over the rows found them in — and count them
/// without walking.
#[test]
fn grouped_index_enumerates_the_oracles_ascending_rows() {
    for width in [1usize, 2] {
        let mut rng = Rng::new(0x600d + width as u64);
        let (build_cols, rows_of_key) = duplicated_keys(&mut rng, 150, width);
        let build_rows = build_cols[0].len();
        assert!(rows_of_key.values().any(|rows| rows.len() == 1));
        assert!(rows_of_key.values().any(|rows| rows.len() == 64));
        // Probe every key there is, and as many that are absent — some of
        // them differing from a present key in the last column only.
        let mut probe_keys: Vec<Vec<u64>> = rows_of_key.keys().cloned().collect();
        for key in rows_of_key.keys() {
            let mut absent = key.clone();
            *absent.last_mut().expect("width > 0") += 1000;
            probe_keys.push(absent);
        }
        let probe_cols: Vec<Vec<u64>> = (0..width)
            .map(|c| probe_keys.iter().map(|key| key[c]).collect())
            .collect();
        for parallelism in [1usize, 4] {
            let device = parallel_device(parallelism);
            for partitions in [1usize, 2, 8] {
                let ctx = format!("width {width}, p {parallelism}, P {partitions}");
                let index =
                    HashIndex::build_partitioned(&device, &refs(&build_cols), 2, partitions);
                assert_eq!(index.partitions(), partitions, "{ctx}");
                assert_eq!(index.len(), build_rows, "{ctx}");
                for (i, key) in probe_keys.iter().enumerate() {
                    let want = rows_of_key.get(key).cloned().unwrap_or_default();
                    let mut got = Vec::new();
                    index.for_each_match_cols(&refs(&probe_cols), i, |row| got.push(row));
                    assert_eq!(got, want, "for_each_match_cols of {key:?}: {ctx}");
                    assert_eq!(
                        index.count_cols(&refs(&probe_cols), i),
                        want.len(),
                        "count_cols of {key:?}: {ctx}"
                    );
                    let mut by_key = Vec::new();
                    index.for_each_match(key, |row| by_key.push(row));
                    assert_eq!(by_key, want, "for_each_match of {key:?}: {ctx}");
                    assert_eq!(index.count(key), want.len(), "count of {key:?}: {ctx}");
                }
                index.recycle(&device);
            }
        }
    }
}

/// A tag conjunction that is neither commutative nor associative, so a
/// swapped operand or a reordered match shows in the bits.
fn tag_mul(build: &f64, probe: &f64) -> f64 {
    build.mul_add(3.0, *probe * 0.5)
}

/// The fused write pass must emit what the unfused pipeline did — index
/// pairs, a gather per column, a `mul` over the gathered tags — computed
/// here from the nested-loop oracle with plain indexing: same columns, same
/// tags, same order, bit for bit. On the hash path over a build side with 1
/// to 64 scattered duplicates per key at partitions 1 / 2 / 8, and on both
/// paths over the same table sorted, at parallelism 1 / 4. The pair-returning
/// kernels are the same loop and must return the oracle's pairs.
#[test]
fn fused_join_write_equals_pairs_gather_mul_from_the_oracle() {
    use kernels::{JoinBuild, JoinColumn, JoinWrite};
    let seq = Device::sequential();
    for width in [1usize, 2] {
        let mut rng = Rng::new(0xf00d + width as u64);
        let (scattered_keys, rows_of_key) = duplicated_keys(&mut rng, 60, width);
        let build_rows = scattered_keys[0].len();
        let (payload, build_tags) = random_table(&mut rng, build_rows, 2, 1 << 40);
        // The same rows sorted by key for the merge path (payload and tags
        // travel with their row).
        let mut order: Vec<usize> = (0..build_rows).collect();
        order.sort_by_key(|&row| scattered_keys.iter().map(|c| c[row]).collect::<Vec<u64>>());
        let permuted = |cols: &[Vec<u64>]| -> Vec<Vec<u64>> {
            cols.iter()
                .map(|c| order.iter().map(|&row| c[row]).collect())
                .collect()
        };
        let sorted_keys = permuted(&scattered_keys);
        let sorted_payload = permuted(&payload);
        let sorted_tags: Vec<f64> = order.iter().map(|&row| build_tags[row]).collect();

        // Probe rows: present keys several times over, in no order, and
        // absent ones between them.
        let present: Vec<&Vec<u64>> = rows_of_key.keys().collect();
        let probe_rows = 400;
        let probe_key_rows: Vec<Vec<u64>> = (0..probe_rows)
            .map(|_| {
                let mut key = present[rng.below(present.len() as u64) as usize].clone();
                if rng.below(4) == 0 {
                    key[width - 1] += 1000;
                }
                key
            })
            .collect();
        let probe_keys: Vec<Vec<u64>> = (0..width)
            .map(|c| probe_key_rows.iter().map(|key| key[c]).collect())
            .collect();
        let (probe_payload, probe_tags) = random_table(&mut rng, probe_rows, 1, 1 << 40);

        let cases = [
            ("scattered", &scattered_keys, &payload, &build_tags, false),
            ("sorted", &sorted_keys, &sorted_payload, &sorted_tags, true),
        ];
        for (shape, build_keys, build_payload, build_tags, sorted) in cases {
            let (want_counts, want_bi, want_pi) =
                nested_loop_join(&refs(build_keys), &refs(&probe_keys));
            assert!(want_counts.contains(&0) && want_counts.iter().any(|&c| c > 32));
            let (want_offsets, want_total) = kernels::scan(&seq, &want_counts);
            assert_eq!(want_total as usize, want_bi.len());
            // pairs → gather → mul, by hand.
            let gather = |col: &[u64], indices: &[u64]| -> Vec<u64> {
                indices.iter().map(|&i| col[i as usize]).collect()
            };
            let want_cols = vec![
                gather(&probe_payload[0], &want_pi),
                gather(&build_payload[1], &want_bi),
                gather(&probe_keys[0], &want_pi),
                gather(&build_payload[0], &want_bi),
                want_bi.clone(),
                want_pi.clone(),
            ];
            let want_tags: Vec<f64> = want_bi
                .iter()
                .zip(&want_pi)
                .map(|(&b, &p)| tag_mul(&build_tags[b as usize], &probe_tags[p as usize]))
                .collect();
            let columns = [
                JoinColumn::Probe(&probe_payload[0]),
                JoinColumn::Build(&build_payload[1]),
                JoinColumn::Probe(&probe_keys[0]),
                JoinColumn::Build(&build_payload[0]),
                JoinColumn::BuildRow,
                JoinColumn::ProbeRow,
            ];

            for parallelism in [1usize, 4] {
                let device = parallel_device(parallelism);
                let check = |path: &str, build: JoinBuild<'_>, counts: Vec<u64>| {
                    let ctx = format!("{path}, {shape}, width {width}, p {parallelism}");
                    assert_eq!(counts, want_counts, "counts: {ctx}");
                    let (offsets, total) = kernels::scan(&device, &counts);
                    assert_eq!(offsets, want_offsets, "offsets: {ctx}");
                    let write = JoinWrite {
                        counts: &counts,
                        offsets: &offsets,
                        columns: &columns,
                        build_tags,
                        probe_tags: &probe_tags,
                    };
                    let (cols, tags) =
                        kernels::join_write(&device, build, &refs(&probe_keys), &write, tag_mul);
                    assert_eq!(cols, want_cols, "fused columns: {ctx}");
                    assert_bits(&tags, &want_tags, &format!("fused tags: {ctx}"));
                    let (bi, pi) = match build {
                        JoinBuild::Hash(index) => kernels::hash_join(
                            &device,
                            index,
                            &refs(&probe_keys),
                            &counts,
                            &offsets,
                            total,
                        ),
                        JoinBuild::Sorted(build_key_cols) => kernels::merge_join(
                            &device,
                            build_key_cols,
                            &refs(&probe_keys),
                            &counts,
                            &offsets,
                            total,
                        ),
                    };
                    assert_eq!(bi, want_bi, "pair build indices: {ctx}");
                    assert_eq!(pi, want_pi, "pair probe indices: {ctx}");
                };
                for partitions in [1usize, 2, 8] {
                    let index =
                        HashIndex::build_partitioned(&device, &refs(build_keys), 2, partitions);
                    let counts = kernels::count_matches(&device, &index, &refs(&probe_keys));
                    check(
                        &format!("hash P {partitions}"),
                        JoinBuild::Hash(&index),
                        counts,
                    );
                    index.recycle(&device);
                }
                if sorted {
                    let counts =
                        kernels::merge_count(&device, &refs(build_keys), &refs(&probe_keys));
                    check("merge", JoinBuild::Sorted(&refs(build_keys)), counts);
                }
            }
        }
    }
}

/// A pooled device is reused across many launches: repeating the same
/// sort → unique → join pipeline on one long-lived parallel device must keep
/// producing exactly the first run's bytes (no cross-launch state in the
/// persistent workers), and must agree with a fresh device every time.
#[test]
fn pooled_device_reuse_is_stable_across_repeated_launches() {
    let par = parallel_device(4);
    let mut rng = Rng::new(4242);
    let rows = 6000;
    let (cols, tags) = random_table(&mut rng, rows, 2, 401);
    let (probe_cols, _) = random_table(&mut rng, rows / 2, 2, 401);

    let mut baseline = None;
    for round in 0..10 {
        let (sorted, stags) = sorted_on(&par, &cols, &tags);
        let (uniq, utags) = kernels::unique(&par, &refs(&sorted), &stags, |a, b| a + b);
        let index = HashIndex::build(&par, &refs(&uniq), 2);
        let counts = kernels::count_matches(&par, &index, &refs(&probe_cols));
        let (offsets, total) = kernels::scan(&par, &counts);
        let (bi, pi) =
            kernels::hash_join(&par, &index, &refs(&probe_cols), &counts, &offsets, total);
        let run = (
            uniq,
            utags.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
            bi,
            pi,
        );
        match &baseline {
            None => baseline = Some(run),
            Some(first) => assert_eq!(&run, first, "round {round} diverged"),
        }
        index.recycle(&par);
    }
}

/// Narrow encoded rows: for every physical lane width the dictionary layer
/// can emit (1, 2, 4, 8 bytes), packing logical columns into group words and
/// unpacking them back must be the identity, must be chunk-invariant across
/// parallelism degrees, and — the property the encoded storage layer leans
/// on — sorting the packed words must order rows exactly like sorting the
/// full-width columns (first lane most significant ⇒ word order is
/// column-lexicographic order).
#[test]
fn packed_narrow_rows_sort_like_wide_rows() {
    let seq = Device::sequential();
    const ARITY: usize = 3;
    for width_bytes in [1usize, 2, 4, 8] {
        let bits = width_bytes as u32 * 8;
        let mask = if bits == 64 {
            u64::MAX
        } else {
            (1 << bits) - 1
        };
        // Small key spaces force duplicate rows (sort-tie coverage); cap at
        // the lane's capacity so every value fits its mask.
        let key_space = mask.min(97) + 1;
        // Greedy grouping, matching the layout planner: as many lanes per
        // 8-byte word as fit, first logical column in the topmost lane.
        let per_group = 8 / width_bytes;
        let groups: Vec<Vec<PackLane>> = (0..ARITY)
            .collect::<Vec<_>>()
            .chunks(per_group)
            .map(|chunk| {
                chunk
                    .iter()
                    .enumerate()
                    .map(|(i, &column)| PackLane {
                        column,
                        shift: (chunk.len() - 1 - i) as u32 * bits,
                        mask,
                    })
                    .collect()
            })
            .collect();

        for rows in ROW_COUNTS {
            let mut rng = Rng::new(rows as u64 * 43 + width_bytes as u64);
            let (cols, _) = random_table(&mut rng, rows, ARITY, key_space);
            let seq_packed = kernels::pack_columns(&seq, &refs(&cols), &groups);
            let unpacked = kernels::unpack_columns(&seq, &refs(&seq_packed), &groups, ARITY);
            assert_eq!(unpacked, cols, "w {width_bytes}, rows {rows}: round trip");
            let wide_perm = kernels::sort_permutation(&seq, &refs(&cols));
            let packed_perm = kernels::sort_permutation(&seq, &refs(&seq_packed));
            assert_eq!(
                packed_perm, wide_perm,
                "w {width_bytes}, rows {rows}: packed sort order"
            );

            for parallelism in PARALLELISMS {
                let par = parallel_device(parallelism);
                let ctx = format!("w {width_bytes}, rows {rows}, p {parallelism}");
                let packed = kernels::pack_columns(&par, &refs(&cols), &groups);
                assert_eq!(packed, seq_packed, "pack: {ctx}");
                // Packing a table in pieces is packing their concatenation.
                let (head, tail): (Vec<&[u64]>, Vec<&[u64]>) =
                    cols.iter().map(|c| c.split_at(rows / 3)).unzip();
                assert_eq!(
                    kernels::pack_tables(&par, &[&head, &tail, &[]], &groups),
                    seq_packed,
                    "pack in pieces: {ctx}"
                );
                assert_eq!(
                    kernels::unpack_columns(&par, &refs(&packed), &groups, ARITY),
                    cols,
                    "unpack: {ctx}"
                );
                assert_eq!(
                    kernels::sort_permutation(&par, &refs(&packed)),
                    wide_perm,
                    "packed sort: {ctx}"
                );
            }
        }
    }
}

/// The radix/merge algorithm switch must be invisible: a table sorted just
/// under the radix pass budget and one just over it (same data, one extra
/// wide column appended) order their shared prefix identically.
#[test]
fn algorithm_switch_is_invisible_on_shared_prefix() {
    let seq = Device::sequential();
    let par = parallel_device(4);
    let mut rng = Rng::new(99);
    let rows = 2048;
    let (mut cols, _) = random_table(&mut rng, rows, 2, 50);
    // Wide columns that are a function of the first two: every byte of them
    // varies, which forces the merge-sort path (constant bytes would cost no
    // radix pass), while rows that tie on the prefix tie on them too, so the
    // lexicographic order of the rows does not change.
    for salt in 1..=3u64 {
        let wide = (0..rows)
            .map(|i| (cols[0][i] * 50 + cols[1][i] + salt).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        cols.push(wide);
    }
    let narrow = &cols[..2];
    let wide = &cols[..];
    for device in [&seq, &par] {
        let narrow_perm = kernels::sort_permutation(device, &refs(narrow));
        let wide_perm = kernels::sort_permutation(device, &refs(wide));
        assert_eq!(
            narrow_perm, wide_perm,
            "columns determined by the prefix change nothing"
        );
    }
}

/// A one-word table of `rows` rows whose word holds `8 / width` lanes of
/// `width` bytes, the first in the most significant position. The leading
/// lane follows `leading` (row index → value, reduced to the lane), every
/// other lane is drawn from `0..key_space`.
fn laned_words(
    rng: &mut Rng,
    rows: usize,
    width: usize,
    key_space: u64,
    leading: impl Fn(usize, &mut Rng) -> u64,
) -> Vec<u64> {
    let bits = 8 * width as u32;
    let mask = u64::MAX >> (64 - bits);
    (0..rows)
        .map(|i| {
            let mut word = leading(i, rng) & mask;
            for _ in 1..8 / width {
                word = (word << bits) | (rng.below(key_space) & mask);
            }
            word
        })
        .collect()
}

/// The one-word sort — taken by [`kernels::sort_words`] and by
/// `sort_permutation` of a single column — must return exactly the
/// permutation a stable comparison sort returns, whichever way it gets
/// there: a table in no order (one segment), a sorted one (copied through),
/// a non-decreasing leading lane (sorted inside runs of equal prefix, by
/// comparison when a run is short and by radix passes when it is long), and
/// the shapes in between.
#[test]
fn one_word_sort_is_the_stable_comparison_sort() {
    let seq = Device::sequential();
    for width in [1usize, 2, 4, 8] {
        for rows in [0usize, 1, 37, 700, 4099] {
            for key_space in [3, u64::MAX] {
                let mut rng = Rng::new((rows * 8 + width) as u64 + key_space % 7);
                let r = rows as u64;
                let mut tables: Vec<(&str, Vec<u64>)> = vec![
                    (
                        "random",
                        laned_words(&mut rng, rows, width, key_space, |_, rng| rng.next()),
                    ),
                    (
                        "leading lane descending",
                        laned_words(&mut rng, rows, width, key_space, |i, _| (r - i as u64) / 5),
                    ),
                    (
                        "all rows equal",
                        laned_words(&mut rng, rows, width, 1, |_, _| 7),
                    ),
                    (
                        "one giant segment",
                        laned_words(&mut rng, rows, width, key_space, |_, _| 7),
                    ),
                ];
                // Non-decreasing leading lane, in runs of 1, 5 and 700 rows
                // (a one-byte lane only counts to 255, so its runs are at
                // least rows / 256 long).
                for run in [1usize, 5, 700] {
                    let run = run.max(if width == 1 { rows.div_ceil(256) } else { 1 });
                    tables.push((
                        "leading lane non-decreasing",
                        laned_words(&mut rng, rows, width, key_space, |i, _| (i / run) as u64),
                    ));
                }
                let mut sorted = tables[0].1.clone();
                sorted.sort_unstable();
                tables.push(("already sorted", sorted));

                for (shape, words) in &tables {
                    let mut want: Vec<u64> = (0..rows as u64).collect();
                    want.sort_by_key(|&i| words[i as usize]);
                    let want_words: Vec<u64> = want.iter().map(|&i| words[i as usize]).collect();
                    for parallelism in PARALLELISMS {
                        let par = parallel_device(parallelism);
                        for device in [&seq, &par] {
                            let ctx = format!(
                                "{shape}, width {width}, rows {rows}, keys {key_space}, \
                                 p {parallelism}"
                            );
                            assert_eq!(
                                kernels::sort_permutation(device, &[words]),
                                want,
                                "sort_permutation: {ctx}"
                            );
                            let (got_words, got_perm) = kernels::sort_words(device, words);
                            assert_eq!(got_perm, want, "sort_words permutation: {ctx}");
                            assert_eq!(got_words, want_words, "sort_words words: {ctx}");
                        }
                    }
                }
            }
        }
    }
}

/// `unique` over one word column folds the tags of a duplicate run strictly
/// left to right, wherever the chunk boundaries fall: pinned with a
/// disjunction that is neither commutative nor associative.
#[test]
fn one_word_unique_folds_tags_left_to_right() {
    let or = |a: &u64, b: &u64| a.wrapping_mul(31).wrapping_add(*b) ^ (a >> 7);
    for (rows, key_space) in [
        (0usize, 5u64),
        (1, 5),
        (37, 5),
        (4099, 1),
        (4099, 40),
        (6000, 5000),
    ] {
        let mut rng = Rng::new(rows as u64 + key_space);
        let mut words: Vec<u64> = (0..rows).map(|_| rng.below(key_space) << 32 | 9).collect();
        words.sort_unstable();
        let tags: Vec<u64> = (0..rows).map(|_| rng.next()).collect();
        let mut want_words: Vec<u64> = Vec::new();
        let mut want_tags: Vec<u64> = Vec::new();
        for (i, &word) in words.iter().enumerate() {
            if want_words.last() == Some(&word) {
                let folded = want_tags.last_mut().expect("one tag per word");
                *folded = or(folded, &tags[i]);
            } else {
                want_words.push(word);
                want_tags.push(tags[i]);
            }
        }
        for parallelism in PARALLELISMS {
            let par = parallel_device(parallelism);
            let (got_words, got_tags) = kernels::unique(&par, &[&words], &tags, or);
            let ctx = format!("rows {rows}, keys {key_space}, p {parallelism}");
            assert_eq!(got_words, vec![want_words.clone()], "words: {ctx}");
            assert_eq!(got_tags, want_tags, "tags: {ctx}");
        }
    }
}
