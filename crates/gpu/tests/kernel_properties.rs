//! Seeded property suite: every kernel must produce bit-identical output on
//! a parallel device and on the sequential device, across row counts that
//! exercise the empty, singleton, odd-sized, and chunk-spanning regimes, and
//! across table shapes from one narrow word to nine columns. The sequential
//! references `sort_permutation` and `unique` build the sorted inputs and
//! the expected outputs; `sort_unique` is held to them.
//!
//! This is the contract the executor's differential suites
//! (`batch_agreement`, `strategy_agreement`, cross-provenance) lean on: if
//! each kernel is chunk-invariant, whole fix-points are.

use lobster_gpu::kernels::PackLane;
use lobster_gpu::{kernels, Device, DeviceConfig, HashIndex, KnownSketch};

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
    let sorted = cols
        .iter()
        .map(|col| perm.iter().map(|&i| col[i as usize]).collect())
        .collect();
    (sorted, kernels::gather_tags(device, &perm, tags))
}

/// Table shapes: (arity, key space). One column is the one-word table shape;
/// small key spaces force heavy duplication; the huge key space makes every
/// byte of every column vary.
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
                let (merged, mtags) = kernels::merge(
                    &par,
                    &refs(&seq_sorted),
                    &seq_stags,
                    &refs(&seq_other),
                    &seq_otags,
                );
                assert_eq!(merged, seq_merged, "merge cols: {ctx}");
                assert_bits(&mtags, &seq_mtags, &format!("merge tags: {ctx}"));
                let (diff, dtags) = kernels::difference(
                    &par,
                    &refs(&seq_uniq),
                    &seq_utags,
                    &refs(&seq_other),
                    seq_otags.len(),
                );
                assert_eq!(diff, seq_diff, "difference cols: {ctx}");
                assert_bits(&dtags, &seq_dtags, &format!("difference tags: {ctx}"));
            }
        }
    }
}

/// The known-row filter of `sort_unique` over several runs against a
/// host-side oracle (a set of every run's rows), with run lengths on both
/// sides of the galloping threshold: the longest run is ≥ 8× the candidate
/// (galloped), the shortest is shorter than it (walked), and the kept set
/// must not depend on which happened, on the chunking, or on whether the
/// distinct candidate rows arrive in order or reversed.
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

            let known: Vec<&[u64]> = runs.iter().flat_map(|(cols, _)| refs(cols)).collect();
            let reversed: Vec<Vec<u64>> = cand
                .iter()
                .map(|c| c.iter().rev().copied().collect())
                .collect();
            let reversed_tags: Vec<f64> = cand_tags.iter().rev().copied().collect();
            for parallelism in PARALLELISMS {
                let par = parallel_device(parallelism);
                let ctx = format!("arity {arity}, keys {key_space}, rows {rows}, p {parallelism}");
                let first = |a: &f64, _: &f64| *a;
                for (order, cols, tags) in [
                    ("in order", &cand, &cand_tags),
                    ("reversed", &reversed, &reversed_tags),
                ] {
                    let (cols, tags, _) =
                        kernels::sort_unique(&par, &refs(cols), tags, first, &known, None);
                    assert_eq!(cols, want_cols, "filtered cols, {order}: {ctx}");
                    assert_bits(&tags, &want_tags, &format!("filtered tags, {order}: {ctx}"));
                }
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
            assert_bits(
                &kernels::gather_tags(&par, &indices, &tags),
                &seq_gtags,
                &format!("gather_tags: {ctx}"),
            );
        }
    }
}

#[test]
fn joins_agree_with_sequential() {
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
                        pack: &kernels::identity_lanes(columns.len()),
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

/// The lane groups the layout planner makes for columns of these byte
/// widths: greedy, in column order, each group's first column in its most
/// significant lane.
fn planned_lanes(widths: &[u32]) -> Vec<Vec<PackLane>> {
    let mut groups: Vec<Vec<(usize, u32)>> = Vec::new();
    let mut used = 8;
    for (column, &bytes) in widths.iter().enumerate() {
        if used + bytes > 8 {
            groups.push(Vec::new());
            used = 0;
        }
        groups.last_mut().unwrap().push((column, bytes));
        used += bytes;
    }
    groups
        .into_iter()
        .map(|group| {
            let mut below: u32 = group.iter().map(|&(_, bytes)| bytes).sum();
            group
                .into_iter()
                .map(|(column, bytes)| {
                    below -= bytes;
                    let mask = if bytes == 8 {
                        u64::MAX
                    } else {
                        (1 << (bytes * 8)) - 1
                    };
                    PackLane {
                        column,
                        shift: below * 8,
                        mask,
                    }
                })
                .collect()
        })
        .collect()
}

/// A join that feeds a `store` writes the stored relation's words itself:
/// its packed write pass must equal `pack_columns` over its write through
/// the identity lanes (checked against the oracle above) —
/// words and tags, bit for bit — on the hash and the merge path, at
/// parallelism 1 and 4, for each layout a store meets: TC's one word,
/// CLUTRR's two, the batched form with its leading sample column, a `bool`
/// / symbol / 64-bit mix whose first group has two build lanes around a
/// probe lane, and groups whose lanes all come from one side.
#[test]
fn packed_join_write_equals_pack_columns_of_the_unpacked_write() {
    use kernels::{JoinBuild, JoinColumn, JoinWrite};
    // The output columns: (lane bytes, read on the build side).
    let layouts: [(&str, &[(u32, bool)]); 5] = [
        ("(u32, u32)", &[(4, false), (4, true)]),
        ("(u32, u32, u32)", &[(4, true), (4, false), (4, true)]),
        (
            "(sample, u32, u32, u32)",
            &[(4, false), (4, true), (4, false), (4, true)],
        ),
        (
            "(bool, symbol, bool, symbol, i64)",
            &[(1, true), (4, false), (1, true), (4, true), (8, false)],
        ),
        (
            "probe-only and build-only groups",
            &[(4, false), (4, false), (4, true), (4, true)],
        ),
    ];
    let seq = Device::sequential();
    for (layout, outputs) in layouts {
        let widths: Vec<u32> = outputs.iter().map(|&(bytes, _)| bytes).collect();
        let groups = planned_lanes(&widths);
        let mut rng = Rng::new(0x9ac4 + widths.len() as u64);
        let (scattered_keys, rows_of_key) = duplicated_keys(&mut rng, 40, 1);
        let build_rows = scattered_keys[0].len();
        let present: Vec<u64> = rows_of_key.keys().map(|key| key[0]).collect();
        let probe_rows = 300;
        // Present keys several times over, in no order, and absent ones.
        let probe_keys = vec![(0..probe_rows)
            .map(|_| {
                let key = present[rng.below(present.len() as u64) as usize];
                key + 1000 * u64::from(rng.below(4) == 0)
            })
            .collect::<Vec<u64>>()];
        let lane_values = |rng: &mut Rng, rows: usize, bytes: u32| -> Vec<u64> {
            let space = if bytes == 8 {
                1 << 40
            } else {
                1 << (bytes * 8)
            };
            (0..rows).map(|_| rng.below(space)).collect()
        };
        let payload: Vec<Vec<u64>> = outputs
            .iter()
            .map(|&(bytes, build)| {
                let rows = if build { build_rows } else { probe_rows };
                lane_values(&mut rng, rows, bytes)
            })
            .collect();
        let (_, build_tags) = random_table(&mut rng, build_rows, 0, 1);
        let (_, probe_tags) = random_table(&mut rng, probe_rows, 0, 1);
        // The build side sorted on its key for the merge path, payload and
        // tags travelling with their row.
        let mut order: Vec<usize> = (0..build_rows).collect();
        order.sort_by_key(|&row| scattered_keys[0][row]);
        let sort = |col: &[u64]| -> Vec<u64> { order.iter().map(|&row| col[row]).collect() };
        let sorted_keys = vec![sort(&scattered_keys[0])];
        let sorted_payload: Vec<Vec<u64>> = outputs
            .iter()
            .zip(&payload)
            .map(|(&(_, build), col)| if build { sort(col) } else { col.clone() })
            .collect();
        let sorted_tags: Vec<f64> = order.iter().map(|&row| build_tags[row]).collect();
        let cases = [
            ("hash", &scattered_keys, &payload, &build_tags),
            ("merge", &sorted_keys, &sorted_payload, &sorted_tags),
        ];
        for (path, build_keys, payload, build_tags) in cases {
            let columns: Vec<JoinColumn<'_>> = outputs
                .iter()
                .zip(payload)
                .map(|(&(_, build), col)| {
                    if build {
                        JoinColumn::Build(col)
                    } else {
                        JoinColumn::Probe(col)
                    }
                })
                .collect();
            for parallelism in [1usize, 4] {
                let device = parallel_device(parallelism);
                let ctx = format!("{layout}, {path}, p {parallelism}");
                let index = HashIndex::build(&device, &refs(build_keys), 2);
                let (build, counts) = if path == "hash" {
                    let counts = kernels::count_matches(&device, &index, &refs(&probe_keys));
                    (JoinBuild::Hash(&index), counts)
                } else {
                    let counts =
                        kernels::merge_count(&device, &refs(build_keys), &refs(&probe_keys));
                    (JoinBuild::Sorted(&refs(build_keys)), counts)
                };
                assert!(
                    counts.contains(&0) && counts.iter().any(|&c| c > 32),
                    "{ctx}"
                );
                let (offsets, _) = kernels::scan(&device, &counts);
                let write = |pack: &[Vec<PackLane>]| {
                    let write = JoinWrite {
                        counts: &counts,
                        offsets: &offsets,
                        columns: &columns,
                        pack,
                        build_tags,
                        probe_tags: &probe_tags,
                    };
                    kernels::join_write(&device, build, &refs(&probe_keys), &write, tag_mul)
                };
                let (wide, wide_tags) = write(&kernels::identity_lanes(columns.len()));
                let (words, tags) = write(&groups);
                assert_eq!(words.len(), groups.len(), "{ctx}");
                assert_eq!(
                    words,
                    kernels::pack_columns(&seq, &refs(&wide), &groups),
                    "packed words: {ctx}"
                );
                assert_bits(&tags, &wide_tags, &format!("packed tags: {ctx}"));
                index.recycle(&device);
            }
        }
    }
}

/// A pooled device is reused across many launches: repeating the same
/// `sort_unique` → join pipeline on one long-lived parallel device must keep
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
        let (uniq, utags, _) =
            kernels::sort_unique(&par, &refs(&cols), &tags, |a, b| a + b, &[], None);
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

/// Narrow encoded rows: for every lane width a pack lane may have (1, 2, 4,
/// 8 bytes; layouts plan 1 for `bool`, 4 for `u32` and `symbol`, 8 for the
/// 64-bit types), packing logical columns into group words and
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
                let pieces: Vec<Vec<u64>> = kernels::pack_columns(&par, &head, &groups)
                    .into_iter()
                    .zip(kernels::pack_columns(&par, &tail, &groups))
                    .map(|(mut head, tail)| {
                        head.extend(tail);
                        head
                    })
                    .collect();
                assert_eq!(pieces, seq_packed, "pack in pieces: {ctx}");
                assert_eq!(
                    kernels::unpack_columns(&par, &refs(&packed), &groups, ARITY),
                    cols,
                    "unpack: {ctx}"
                );
            }
        }
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

/// `sort_permutation` of a single packed-word column must return exactly
/// the permutation the standard library's stable sort returns, on the
/// shapes a one-word table takes: a table in no order, a sorted one, a
/// non-decreasing leading lane in short and long runs of equal prefix, and
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
                    assert_eq!(
                        kernels::sort_permutation(&seq, &[words]),
                        want,
                        "sort_permutation: {shape}, width {width}, rows {rows}, keys {key_space}"
                    );
                }
            }
        }
    }
}

/// `unique` over one word column folds the tags of a duplicate run strictly
/// left to right: pinned with a disjunction that is neither commutative nor
/// associative.
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
        let (got_words, got_tags) = kernels::unique(&Device::sequential(), &[&words], &tags, or);
        let ctx = format!("rows {rows}, keys {key_space}");
        assert_eq!(got_words, vec![want_words], "words: {ctx}");
        assert_eq!(got_tags, want_tags, "tags: {ctx}");
    }
}

/// A tag disjunction that is neither commutative nor associative, so a fold
/// in any order but left to right shows in the bits.
fn ordered_or(a: &u64, b: &u64) -> u64 {
    a.wrapping_mul(31).wrapping_add(*b) ^ (a >> 7)
}

/// A one-word table cut into one segment per entry of `runs`: the bits
/// above `bits` count the runs up, and the low `bits` bits of each of the
/// run's rows are drawn at random. Every `sorted_every`-th run is sorted, so
/// some segments arrive in order inside an unsorted table.
fn segmented_words(rng: &mut Rng, bits: u32, runs: &[usize], sorted_every: usize) -> Vec<Vec<u64>> {
    let mut words = Vec::new();
    for (r, &n) in runs.iter().enumerate() {
        let start = words.len();
        words.extend((0..n).map(|_| (r as u64 + 1) << bits | rng.below(1 << bits)));
        if r % sorted_every == 0 {
            words[start..].sort_unstable();
        }
    }
    words.into_iter().map(|word| vec![word]).collect()
}

/// Rows of `k ≥ 2` words cut into one segment per entry of `runs`: the
/// leading word holds the run's number above bit 8 and `lead_bits` random
/// bits below it (none: it is constant in the segment), each middle word is
/// drawn from `0..middle` (1: constant), and the last word's low `bits` bits
/// at random. Every `sorted_every`-th run is sorted.
fn segmented_rows(
    rng: &mut Rng,
    k: usize,
    (lead_bits, middle, bits): (u32, u64, u32),
    runs: &[usize],
    sorted_every: usize,
) -> Vec<Vec<u64>> {
    let mut rows = Vec::new();
    for (r, &n) in runs.iter().enumerate() {
        let start = rows.len();
        rows.extend((0..n).map(|_| {
            let mut row = vec![(r as u64 + 1) << 8 | rng.below(1 << lead_bits)];
            row.extend((2..k).map(|_| rng.below(middle)));
            row.push(rng.below(1 << bits));
            row
        }));
        if r % sorted_every == 0 {
            rows[start..].sort_unstable();
        }
    }
    rows
}

/// Known runs for candidate `rows`: sorted, duplicate-free, and drawn partly
/// from the candidate's own rows. `None`; one run holding every other
/// distinct row together with the smallest and the largest (so the run
/// starts and ends on candidate rows); and several runs splitting three
/// quarters of the distinct rows, each holding rows no other run does —
/// joined, for a candidate small enough, by a run ≥ 8× the candidate of
/// mostly other rows spread over the same range, whose cursor gallops.
fn known_runs(rng: &mut Rng, rows: &[Vec<u64>]) -> Vec<(&'static str, Vec<Vec<Vec<u64>>>)> {
    let mut distinct = rows.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    let mut sets: Vec<(&'static str, Vec<Vec<Vec<u64>>>)> = vec![("no runs", Vec::new())];
    let (Some(first), Some(last)) = (distinct.first(), distinct.last()) else {
        return sets;
    };
    let mut one: Vec<Vec<u64>> = distinct.iter().step_by(2).cloned().collect();
    one.push(last.clone());
    one.dedup();
    sets.push(("one run", vec![one]));
    let mut several = vec![Vec::new(), Vec::new(), Vec::new()];
    for (i, row) in distinct.iter().enumerate() {
        if rng.below(4) != 0 {
            several[i % 3].push(row.clone());
        }
    }
    if rows.len() <= 8192 {
        let span = last[0] - first[0];
        let mut long: Vec<Vec<u64>> = (0..8 * rows.len() + 1)
            .map(|_| {
                let mut row = distinct[rng.below(distinct.len() as u64) as usize].clone();
                row[0] = first[0] + rng.below(span.max(1));
                row
            })
            .chain(distinct.iter().step_by(5).cloned())
            .collect();
        long.sort_unstable();
        long.dedup();
        several.insert(1, long);
    }
    sets.push(("several runs", several));
    sets
}

/// `rows` of `k` words as `k` columns.
fn columns_of(rows: &[Vec<u64>], k: usize) -> Vec<Vec<u64>> {
    (0..k)
        .map(|c| rows.iter().map(|row| row[c]).collect())
        .collect()
}

/// `sort_unique` against an oracle that shares no code with it: a
/// `BTreeMap` folding each row's tags in input order, less a `HashSet` of
/// every known run's rows — rows, tags and order, bit for bit. One-word
/// rows put segments on both sides of the direct-addressing lines
/// (`2^low ≤ 2·n` and `low ≤ 16`), take in single rows, segments of at most
/// 32 rows, segments already in order and tables in order or in none. Rows
/// of two and three words take the same paths: segments in which only the
/// last word varies on both sides of the dense lines, segments whose middle
/// words vary and segments whose leading words descend (both sorted), whole
/// tables in order, at random over a narrow and over the full 64-bit range.
/// The known runs are none, one and several, one of them galloped;
/// parallelism 1 / 3 / 8.
#[test]
fn sort_unique_is_fold_then_filter() {
    use std::collections::{BTreeMap, HashSet};
    let mut rng = Rng::new(0x5e9);
    let mut random = |n: usize, k: usize, space: u64| -> Vec<Vec<u64>> {
        (0..n)
            .map(|_| (0..k).map(|_| rng.below(space)).collect())
            .collect()
    };
    let mut tables: Vec<(String, usize, Vec<Vec<u64>>)> = Vec::new();
    for k in 1..=3 {
        let mut sorted = random(3000, k, 700 >> (3 * (k - 1)));
        sorted.sort_unstable();
        tables.extend([
            (format!("k {k}, empty"), k, Vec::new()),
            (format!("k {k}, one row"), k, random(1, k, 9)),
            (format!("k {k}, sorted"), k, sorted),
            (format!("k {k}, sparse"), k, random(3000, k, u64::MAX)),
            (format!("k {k}, narrow"), k, random(3000, k, 4)),
        ]);
    }
    tables.push(("k 1, one dense segment".into(), 1, random(3000, 1, 1 << 11)));
    let mut rng = Rng::new(0xde5);
    // Around 2^9 ≤ 2·n: 256 rows is dense, 255 is not; single rows,
    // segments up to 32 rows, and segments in order between them.
    let around_half = [256, 255, 1, 1, 257, 5, 1, 32, 33, 300, 511, 1, 512, 2];
    // At the `low ≤ 16` line: 2^16 slots for 2^15 rows is dense, one row
    // fewer is not; 17 low bits are never dense, however many rows.
    let shapes: [(&str, u32, &[usize], usize); 3] = [
        ("9 low bits", 9, &around_half, 4),
        ("16 low bits", 16, &[32_768, 32_767, 3, 40_000], 5),
        ("17 low bits", 17, &[65_536, 70_000], 5),
    ];
    for k in 1..=3 {
        for (shape, bits, runs, sorted_every) in shapes {
            let rows = if k == 1 {
                segmented_words(&mut rng, bits, runs, sorted_every)
            } else {
                segmented_rows(&mut rng, k, (0, 1, bits), runs, sorted_every)
            };
            tables.push((format!("k {k}, {shape}"), k, rows));
        }
    }
    for k in 2..=3 {
        let runs = [300, 40, 1000, 1, 33];
        let middle = segmented_rows(&mut rng, k, (0, 5, 9), &runs, 3);
        tables.push((format!("k {k}, middle words vary"), k, middle));
        let descents = segmented_rows(&mut rng, k, (4, 3, 6), &runs, 3);
        tables.push((format!("k {k}, leading words descend"), k, descents));
    }
    for (shape, k, rows) in &tables {
        let columns = columns_of(rows, *k);
        let tags: Vec<u64> = (0..rows.len()).map(|_| rng.next()).collect();
        let mut folded: BTreeMap<&[u64], u64> = BTreeMap::new();
        for (row, tag) in rows.iter().zip(&tags) {
            folded
                .entry(row)
                .and_modify(|acc| *acc = ordered_or(acc, tag))
                .or_insert(*tag);
        }
        for (known_shape, runs) in known_runs(&mut rng, rows) {
            let known: HashSet<&[u64]> = runs.iter().flatten().map(Vec::as_slice).collect();
            let (want_rows, want_tags): (Vec<&[u64]>, Vec<u64>) = folded
                .iter()
                .filter(|(row, _)| !known.contains(*row))
                .unzip();
            if !runs.is_empty() && !rows.is_empty() {
                assert!(want_rows.len() < folded.len(), "{shape}: no known row");
            }
            let want_rows: Vec<Vec<u64>> = want_rows.iter().map(|row| row.to_vec()).collect();
            let want_columns = columns_of(&want_rows, *k);
            // Every run's columns, one run after another.
            let known_columns: Vec<Vec<u64>> =
                runs.iter().flat_map(|run| columns_of(run, *k)).collect();
            let known_columns = refs(&known_columns);
            for parallelism in PARALLELISMS {
                let device = parallel_device(parallelism);
                let ctx = format!("{shape}, {known_shape}, p {parallelism}");
                let (got_columns, got_tags, _) = kernels::sort_unique(
                    &device,
                    &refs(&columns),
                    &tags,
                    ordered_or,
                    &known_columns,
                    None,
                );
                assert_eq!(got_columns, want_columns, "rows: {ctx}");
                assert_eq!(got_tags, want_tags, "tags: {ctx}");
            }
        }
    }
}

/// The rows of a table as tuples, for the oracles below.
fn row_of(cols: &[Vec<u64>], r: usize) -> Vec<u64> {
    cols.iter().map(|c| c[r]).collect()
}

/// `lookup` against a filter that keeps every row whose key is among the
/// probe rows, in table order. Two layouts: one word per row holding the
/// key in its upper 32-bit lane, and two words per row whose key is all of
/// the first word and the top 16 bits of the second. The probe keys are
/// absent ones, duplicates, the first row's and the last row's key, or
/// none at all.
#[test]
fn lookup_keeps_exactly_the_rows_a_filter_oracle_keeps() {
    use kernels::KeyLane;
    use std::collections::BTreeSet;
    let one_word = [KeyLane {
        column: 0,
        shift: 32,
        mask: u32::MAX as u64,
    }];
    let two_words = [
        KeyLane {
            column: 0,
            shift: 0,
            mask: u64::MAX,
        },
        KeyLane {
            column: 1,
            shift: 48,
            mask: 0xFFFF,
        },
    ];
    let key_of = |key: &[KeyLane], cols: &[Vec<u64>], r: usize| -> Vec<u64> {
        key.iter()
            .map(|lane| (cols[lane.column][r] >> lane.shift) & lane.mask)
            .collect()
    };
    let seq = Device::sequential();
    for (layout, key, arity) in [("one word", &one_word[..], 1), ("two words", &two_words, 2)] {
        for rows in [0usize, 1, 37, 4099] {
            let mut rng = Rng::new(rows as u64 * 5 + arity as u64);
            // Few distinct keys, so that each matches a stretch of rows.
            let (noise, tags) = random_table(&mut rng, rows, arity, u64::MAX);
            let drawn: Vec<u64> = (0..rows).map(|_| rng.below(rows as u64 / 8 + 2)).collect();
            let with_key = |noise: &[u64], word: fn(u64, u64) -> u64| {
                drawn.iter().zip(noise).map(|(&k, &n)| word(k, n)).collect()
            };
            let cols: Vec<Vec<u64>> = match arity {
                1 => vec![with_key(&noise[0], |k, n| {
                    (k << 32) | (n & u32::MAX as u64)
                })],
                _ => vec![
                    with_key(&noise[0], |k, _| k % 3),
                    with_key(&noise[1], |k, n| (k << 48) | (n >> 16)),
                ],
            };
            let (sorted, stags) = sorted_on(&seq, &cols, &tags);
            let keys: Vec<Vec<u64>> = (0..rows).map(|r| key_of(key, &sorted, r)).collect();
            let absent = vec![u32::MAX as u64 - 1; key.len()];
            let mut probe_sets: Vec<(&str, Vec<Vec<u64>>)> = vec![
                ("no keys", Vec::new()),
                ("an absent key", vec![absent.clone()]),
            ];
            if rows > 0 {
                let some: Vec<Vec<u64>> = (0..7)
                    .map(|_| keys[rng.below(rows as u64) as usize].clone())
                    .collect();
                let mut twice = some.clone();
                twice.extend(some.iter().rev().cloned());
                twice.push(absent.clone());
                probe_sets.extend([
                    ("the first row's key", vec![keys[0].clone()]),
                    ("the last row's key", vec![keys[rows - 1].clone()]),
                    ("keys drawn from the table", some),
                    ("duplicated and absent keys", twice),
                    ("every row's key", keys.clone()),
                ]);
            }
            for (what, probe_rows) in &probe_sets {
                let wanted: BTreeSet<&Vec<u64>> = probe_rows.iter().collect();
                let kept: Vec<usize> = (0..rows).filter(|&r| wanted.contains(&keys[r])).collect();
                let want_cols: Vec<Vec<u64>> = sorted
                    .iter()
                    .map(|c| kept.iter().map(|&r| c[r]).collect())
                    .collect();
                let want_tags: Vec<f64> = kept.iter().map(|&r| stags[r]).collect();
                let probes: Vec<Vec<u64>> = (0..key.len())
                    .map(|c| probe_rows.iter().map(|k| k[c]).collect())
                    .collect();
                for parallelism in PARALLELISMS {
                    let par = parallel_device(parallelism);
                    let ctx = format!("{layout}, rows {rows}, {what}, p {parallelism}");
                    let (got, got_tags) =
                        kernels::lookup(&par, &refs(&sorted), &stags, key, &refs(&probes));
                    assert_eq!(got, want_cols, "lookup rows: {ctx}");
                    assert_bits(&got_tags, &want_tags, &format!("lookup tags: {ctx}"));
                }
            }
        }
    }
}

/// The merge every other kernel is checked against: two pointers, `a`'s
/// row first on a tie.
fn two_pointer_merge(
    a: &[Vec<u64>],
    a_tags: &[f64],
    b: &[Vec<u64>],
    b_tags: &[f64],
) -> (Vec<Vec<u64>>, Vec<f64>) {
    let (mut i, mut j) = (0, 0);
    let mut cols = vec![Vec::new(); a.len()];
    let mut tags = Vec::new();
    while i < a_tags.len() || j < b_tags.len() {
        let take_a = j == b_tags.len() || (i < a_tags.len() && row_of(a, i) <= row_of(b, j));
        let (table, table_tags, r) = if take_a {
            (a, a_tags, i)
        } else {
            (b, b_tags, j)
        };
        for (out, col) in cols.iter_mut().zip(table) {
            out.push(col[r]);
        }
        tags.push(table_tags[r]);
        if take_a {
            i += 1;
        } else {
            j += 1;
        }
    }
    (cols, tags)
}

/// `merge` of a long table and a short one — the short one on either side,
/// at length ratios on both sides of the one where `merge` stops comparing
/// the long side's rows and copies its stretches instead — against the
/// two-pointer merge. The key space is small, so rows of `a` and `b` tie
/// and `a`'s must come first.
#[test]
fn merge_by_block_copy_equals_the_two_pointer_merge() {
    let seq = Device::sequential();
    for arity in [1usize, 2] {
        for long in [0usize, 1, 640, 4099] {
            for ratio in [1usize, 2, 7, 8, 9, 64] {
                let short = long / ratio + usize::from(ratio == 64);
                let mut rng = Rng::new((long * 97 + ratio * 7 + arity) as u64);
                let table = |rng: &mut Rng, rows: usize| {
                    let (cols, tags) = random_table(rng, rows, arity, 13);
                    sorted_on(&seq, &cols, &tags)
                };
                let (long_cols, long_tags) = table(&mut rng, long);
                let (short_cols, short_tags) = table(&mut rng, short);
                for short_first in [false, true] {
                    let ((a, a_tags), (b, b_tags)) = if short_first {
                        ((&short_cols, &short_tags), (&long_cols, &long_tags))
                    } else {
                        ((&long_cols, &long_tags), (&short_cols, &short_tags))
                    };
                    let (want, want_tags) = two_pointer_merge(a, a_tags, b, b_tags);
                    for parallelism in PARALLELISMS {
                        let par = parallel_device(parallelism);
                        let ctx = format!(
                            "arity {arity}, long {long}, ratio {ratio}, short first \
                             {short_first}, p {parallelism}"
                        );
                        let (got, got_tags) =
                            kernels::merge(&par, &refs(a), a_tags, &refs(b), b_tags);
                        assert_eq!(got, want, "merge rows: {ctx}");
                        assert_bits(&got_tags, &want_tags, &format!("merge tags: {ctx}"));
                    }
                }
            }
        }
    }
}

/// `sort_unique` with a known-row sketch returns the bytes it returns
/// without one: a row the sketch rules out is certainly not known, and one
/// it passes is searched as before. Rows of one to three words, at
/// parallelism 1 and 4, against three sketches of the known runs: exact
/// (their rows alone), saturated (every row of the domain, so every row is
/// searched) and one over a random superset of their rows. Without a
/// sketch, and with the saturated one, every distinct row is searched; with
/// the others at most that many, and at least the known ones.
#[test]
fn sort_unique_with_a_sketch_returns_the_same_bytes() {
    use std::collections::BTreeSet;
    let mut rng = Rng::new(0x5ce7c4);
    for k in 1..=3usize {
        // A domain of 4,096 rows, so the saturated sketch can hold all.
        let space: u64 = [4096, 64, 16][k - 1];
        let domain: Vec<Vec<u64>> = (0..4096u64)
            .map(|i| {
                (0..k)
                    .rev()
                    .map(|c| i / space.pow(c as u32) % space)
                    .collect()
            })
            .collect();
        let draw = |rng: &mut Rng, n: usize| -> Vec<Vec<u64>> {
            (0..n)
                .map(|_| domain[rng.below(domain.len() as u64) as usize].clone())
                .collect()
        };
        let rows = draw(&mut rng, 3000);
        let tags: Vec<u64> = (0..rows.len()).map(|_| rng.next()).collect();
        let distinct: BTreeSet<&[u64]> = rows.iter().map(Vec::as_slice).collect();
        // Three known runs, sorted and disjoint.
        let mut known_rows: Vec<Vec<u64>> = draw(&mut rng, 1500);
        known_rows.sort_unstable();
        known_rows.dedup();
        let runs: Vec<Vec<Vec<u64>>> = (0..3)
            .map(|r| known_rows.iter().skip(r).step_by(3).cloned().collect())
            .collect();
        let run_columns: Vec<Vec<Vec<u64>>> = runs.iter().map(|run| columns_of(run, k)).collect();
        let known: Vec<&[u64]> = run_columns.iter().flat_map(|run| refs(run)).collect();
        let hits = distinct
            .iter()
            .filter(|row| known_rows.binary_search(&row.to_vec()).is_ok())
            .count();
        let mut superset = known_rows.clone();
        superset.extend(draw(&mut rng, 700));
        let sketch_of = |device: &Device, tables: &[Vec<Vec<u64>>]| {
            let columns: Vec<Vec<Vec<u64>>> = tables.iter().map(|t| columns_of(t, k)).collect();
            let tables: Vec<&[Vec<u64>]> = columns.iter().map(Vec::as_slice).collect();
            KnownSketch::build(device, &tables)
        };
        let columns = columns_of(&rows, k);
        for parallelism in [1, 4] {
            let device = parallel_device(parallelism);
            let run = |sketch: Option<&KnownSketch>| {
                kernels::sort_unique(&device, &refs(&columns), &tags, ordered_or, &known, sketch)
            };
            let (want_columns, want_tags, searched) = run(None);
            assert_eq!(searched, distinct.len(), "k {k}, p {parallelism}");
            let sketches = [
                ("exact", sketch_of(&device, &runs)),
                (
                    "saturated",
                    sketch_of(&device, std::slice::from_ref(&domain)),
                ),
                (
                    "superset",
                    sketch_of(&device, std::slice::from_ref(&superset)),
                ),
            ];
            for (name, sketch) in sketches {
                let ctx = format!("k {k}, p {parallelism}, {name} sketch");
                let (got_columns, got_tags, searched) = run(Some(&sketch));
                assert_eq!(got_columns, want_columns, "rows: {ctx}");
                assert_eq!(got_tags, want_tags, "tags: {ctx}");
                assert!(hits <= searched && searched <= distinct.len(), "{ctx}");
                if name == "saturated" {
                    assert_eq!(searched, distinct.len(), "{ctx}");
                } else {
                    assert!(searched < distinct.len(), "{ctx}: nothing ruled out");
                }
                sketch.recycle(&device);
            }
        }
    }
}

/// A known-row sketch has no false negatives: after any sequence of
/// inserts, some of which grow it by rebuilding, every row inserted so far
/// reads "maybe" — for rows of one to three words, batches of random sizes
/// (empty ones among them) and a start from no rows at all.
#[test]
fn a_known_row_sketch_has_no_false_negatives() {
    let device = Device::sequential();
    let mut rng = Rng::new(0xb100);
    for k in 1..=3usize {
        for start in [0, 1, 500] {
            let mut batches: Vec<Vec<Vec<u64>>> = vec![(0..start)
                .map(|_| (0..k).map(|_| rng.next()).collect())
                .collect()];
            let first = columns_of(&batches[0], k);
            let mut sketch = KnownSketch::build(&device, &[&first]);
            let mut sizes = vec![sketch.size_bytes()];
            for _ in 0..40 {
                let n = [0, 1, 7, 100, 900][rng.below(5) as usize];
                batches.push(
                    (0..n)
                        .map(|_| (0..k).map(|_| rng.below(1 << 20)).collect())
                        .collect(),
                );
                let columns: Vec<Vec<Vec<u64>>> =
                    batches.iter().map(|batch| columns_of(batch, k)).collect();
                if !sketch.insert(&columns[columns.len() - 1]) {
                    let all: Vec<&[Vec<u64>]> = columns.iter().map(Vec::as_slice).collect();
                    let grown = KnownSketch::build(&device, &all);
                    std::mem::replace(&mut sketch, grown).recycle(&device);
                }
                sizes.push(sketch.size_bytes());
                let held: usize = batches.iter().map(Vec::len).sum();
                assert_eq!(sketch.rows(), held, "k {k}, start {start}");
                for row in batches.iter().flatten() {
                    assert!(
                        sketch.may_contain(row),
                        "k {k}, start {start}: {row:?} lost"
                    );
                }
            }
            assert!(
                sizes.windows(2).any(|w| w[1] > w[0]),
                "k {k}, start {start}: never grew: {sizes:?}"
            );
            sketch.recycle(&device);
        }
    }
}
