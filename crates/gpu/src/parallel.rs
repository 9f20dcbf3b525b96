//! Minimal data-parallel helpers used by the kernel library.
//!
//! Kernels in this crate are written as bulk per-row operations. When the
//! input is large enough and the device is configured with more than one
//! worker, the work is split into disjoint index ranges that are executed on
//! the device's persistent worker pool ([`crate::pool`] — long-lived threads
//! spawned at [`Device`] construction, never per launch); otherwise the work
//! runs sequentially on the calling thread. Every helper here guarantees
//! that the observable result is *independent of the chunking and of which
//! pool thread runs a chunk*: chunk boundaries only decide which thread
//! computes an element, never what the element is, and results are
//! reassembled strictly in chunk-index order.
//!
//! Chunks that run on the pool report their execution time to the device's
//! busy-time buckets (`kernel_time.*` of [`Device::metrics`]), attributed to
//! the active launch on the calling thread; chunks that run inline are part
//! of that launch's own wall time and are not timed apart.

use crate::{Column, Device};
use std::ops::{Deref, Range};
use std::sync::Mutex;
use std::time::Instant;

/// One value per chunk of a launch, in chunk order: held inline for the one
/// chunk of every launch below the parallel threshold, so such a launch
/// builds no list of ranges, states or results on the heap.
#[derive(Debug)]
pub(crate) enum PerChunk<T> {
    One([T; 1]),
    Many(Vec<T>),
}

impl<T> PerChunk<T> {
    /// The values as a `Vec`, for a caller that keeps them.
    pub(crate) fn into_vec(self) -> Vec<T> {
        match self {
            PerChunk::One(one) => one.into(),
            PerChunk::Many(many) => many,
        }
    }
}

impl<T> Deref for PerChunk<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            PerChunk::One(one) => one,
            PerChunk::Many(many) => many,
        }
    }
}

impl<T> FromIterator<T> for PerChunk<T> {
    fn from_iter<I: IntoIterator<Item = T>>(values: I) -> Self {
        let mut values = values.into_iter();
        match (values.next(), values.next()) {
            (Some(only), None) => PerChunk::One([only]),
            (first, second) => {
                PerChunk::Many(first.into_iter().chain(second).chain(values).collect())
            }
        }
    }
}

impl<T> IntoIterator for PerChunk<T> {
    type Item = T;
    type IntoIter = PerChunkIter<T>;

    fn into_iter(self) -> PerChunkIter<T> {
        match self {
            PerChunk::One(one) => PerChunkIter::One(one.into_iter()),
            PerChunk::Many(many) => PerChunkIter::Many(many.into_iter()),
        }
    }
}

impl<'a, T> IntoIterator for &'a PerChunk<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> std::slice::Iter<'a, T> {
        self.iter()
    }
}

/// The by-value iterator of a [`PerChunk`].
pub(crate) enum PerChunkIter<T> {
    One(std::array::IntoIter<T, 1>),
    Many(std::vec::IntoIter<T>),
}

impl<T> Iterator for PerChunkIter<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        match self {
            PerChunkIter::One(one) => one.next(),
            PerChunkIter::Many(many) => many.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            PerChunkIter::One(one) => one.size_hint(),
            PerChunkIter::Many(many) => many.size_hint(),
        }
    }
}

/// The chunking a kernel launch uses: `0..len` split into at most
/// [`Device::parallelism`] disjoint ranges, or a single range when the input
/// is below [`Device::min_parallel_rows`] (or the device is sequential).
pub(crate) fn chunks_for(device: &Device, len: usize) -> PerChunk<Range<usize>> {
    let workers = device.parallelism();
    if workers <= 1 || len < device.min_parallel_rows() {
        // One chunk covering everything (an array *of* one range, not the
        // range's elements — hence no `[0..len]` literal).
        return PerChunk::One([Range { start: 0, end: len }]);
    }
    let chunk = len.div_ceil(workers);
    let starts = (0..len).step_by(chunk);
    PerChunk::Many(
        starts
            .map(|start| start..(start + chunk).min(len))
            .collect(),
    )
}

/// Runs `f(chunk_index, range, state)` for every chunk — on `device`'s
/// worker pool when there is more than one chunk and the device has pool
/// workers, inline otherwise — collecting the return values in chunk order.
/// `states` carries per-chunk resources (typically disjoint `&mut` views of
/// an output buffer) into the workers, one per range. Pooled chunks report
/// their summed execution time as device busy time
/// ([`Device::record_pooled`]).
pub(crate) fn run_chunks<S, R, F>(
    device: &Device,
    ranges: &[Range<usize>],
    states: impl IntoIterator<Item = S>,
    f: F,
) -> PerChunk<R>
where
    S: Send,
    R: Send,
    F: Fn(usize, Range<usize>, S) -> R + Sync,
{
    let states = states.into_iter();
    if ranges.len() <= 1 || device.pool_workers() == 0 {
        let out: PerChunk<R> = states
            .enumerate()
            .map(|(c, state)| f(c, ranges[c].clone(), state))
            .collect();
        debug_assert_eq!(ranges.len(), out.len());
        return out;
    }
    // Per-chunk cells hand each state to exactly one worker and collect each
    // result under its chunk index, so the output order is deterministic no
    // matter which pool thread ran which chunk.
    let states: Vec<Mutex<Option<S>>> = states.map(|s| Mutex::new(Some(s))).collect();
    debug_assert_eq!(ranges.len(), states.len());
    let results: Vec<Mutex<Option<R>>> = ranges.iter().map(|_| Mutex::new(None)).collect();
    let start = Instant::now();
    let busy = device.pool().run(ranges.len(), &|c| {
        let state = states[c]
            .lock()
            .expect("chunk state poisoned")
            .take()
            .expect("chunk claimed once");
        let result = f(c, ranges[c].clone(), state);
        *results[c].lock().expect("chunk result poisoned") = Some(result);
    });
    device.record_pooled(busy, start.elapsed());
    results
        .into_iter()
        .map(|cell| {
            cell.into_inner()
                .expect("chunk result poisoned")
                .expect("chunk completed")
        })
        .collect()
}

/// [`run_chunks`] without per-chunk state.
pub(crate) fn map_chunks<R, F>(device: &Device, ranges: &[Range<usize>], f: F) -> PerChunk<R>
where
    R: Send,
    F: Fn(usize, Range<usize>) -> R + Sync,
{
    let states = std::iter::repeat(()).take(ranges.len());
    run_chunks(device, ranges, states, |c, range, ()| f(c, range))
}

/// Splits `slice` into one sub-slice per entry of `bounds`, where `bounds`
/// holds ascending `[start, end)` pairs covering the slice exactly. The
/// safe-Rust route to handing disjoint output regions to chunk workers.
pub(crate) fn split_by_ranges<'a, T>(
    mut slice: &'a mut [T],
    bounds: &[Range<usize>],
) -> PerChunk<&'a mut [T]> {
    let mut consumed = 0;
    let out = bounds
        .iter()
        .map(|range| {
            debug_assert_eq!(range.start, consumed, "bounds must tile the slice");
            let (head, rest) = std::mem::take(&mut slice).split_at_mut(range.end - range.start);
            slice = rest;
            consumed = range.end;
            head
        })
        .collect();
    debug_assert!(slice.is_empty(), "bounds must cover the slice");
    out
}

/// A fresh arena column of `len` words for allocation site `site`, with
/// `column[i] = f(i)`, split across the device's worker pool when
/// profitable. Each word is written once: a launch of one chunk pushes into
/// an empty column, and only chunks that run in parallel, each writing its
/// own slice, need the column zero-filled first.
pub(crate) fn par_map_column<F>(device: &Device, site: usize, len: usize, f: F) -> Column
where
    F: Fn(usize) -> u64 + Sync,
{
    let arena = device.arena();
    let ranges = chunks_for(device, len);
    if ranges.len() == 1 {
        let mut out = arena.alloc_empty(site, len);
        out.extend((0..len).map(f));
        return out;
    }
    let mut out = arena.alloc_zeroed(site, len);
    let slices = split_by_ranges(&mut out, &ranges);
    run_chunks(device, &ranges, slices, |_, range, slice| {
        for (slot, i) in slice.iter_mut().zip(range) {
            *slot = f(i);
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Device, DeviceConfig};

    fn par_device(parallelism: usize) -> Device {
        Device::new(DeviceConfig {
            parallelism,
            min_parallel_rows: 1,
            ..DeviceConfig::default()
        })
    }

    #[test]
    fn par_map_matches_sequential() {
        let seq = Device::sequential();
        let par = par_device(8);
        let n = 10_000;
        let a = par_map_column(&seq, 0, n, |i| (i * 3 + 1) as u64);
        let b = par_map_column(&par, 0, n, |i| (i * 3 + 1) as u64);
        assert_eq!(a.len(), n);
        assert_eq!(a, b);
        // A pooled buffer comes back holding exactly the new words, from
        // either path.
        for (device, words) in [(&seq, a), (&par, b)] {
            device.arena().recycle(0, words);
            let again = par_map_column(device, 0, n / 2, |i| i as u64);
            assert!(again.iter().copied().eq(0..(n / 2) as u64));
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let dev = Device::sequential();
        let out = par_map_column(&dev, 0, 0, |i| i as u64);
        assert!(out.is_empty());
        let collected = map_chunks(&dev, &chunks_for(&dev, 0), |_, r| {
            r.map(|i| i as u64).collect::<Vec<_>>()
        });
        assert_eq!(collected.len(), 1);
        assert!(collected[0].is_empty());
    }

    #[test]
    fn chunks_tile_the_input() {
        let par = par_device(3);
        let ranges = chunks_for(&par, 10);
        assert_eq!(ranges.first().map(|r| r.start), Some(0));
        assert_eq!(ranges.last().map(|r| r.end), Some(10));
        for pair in ranges.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
    }

    #[test]
    fn split_by_ranges_covers_disjointly() {
        let mut data = vec![0u64; 10];
        let bounds = vec![0..3, 3..3, 3..10];
        let slices = split_by_ranges(&mut data, &bounds);
        assert_eq!(
            slices.iter().map(|s| s.len()).collect::<Vec<_>>(),
            [3, 0, 7]
        );
    }

    #[test]
    fn run_chunks_threads_state_in_order() {
        let par = par_device(4);
        let ranges = vec![0..2, 2..5, 5..6];
        let out = run_chunks(&par, &ranges, vec![10usize, 20, 30], |c, range, s| {
            s + range.len() + c
        });
        assert_eq!(*out, [12, 24, 33]);
    }

    #[test]
    fn run_chunks_records_busy_time() {
        let par = par_device(4);
        let ranges = chunks_for(&par, 3_000);
        assert_eq!(ranges.len(), 4);
        let busy = |device: &Device| device.metrics().get("kernel_time.other_ns").unwrap();
        let before = busy(&par);
        let _sums = map_chunks(&par, &ranges, |_, range| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            range.map(|i| i as u64).sum::<u64>()
        });
        // Pooled chunks outside a launch report their own busy time: four
        // chunks of at least 1 ms each.
        assert!(busy(&par) >= before + 4_000_000);
    }

    #[test]
    fn one_chunk_is_held_inline() {
        let seq = Device::sequential();
        let ranges = chunks_for(&seq, 10);
        assert!(matches!(ranges, PerChunk::One(_)));
        let out = map_chunks(&seq, &ranges, |_, range| range.len());
        assert!(matches!(out, PerChunk::One([10])));
        let many: PerChunk<usize> = (0..3).collect();
        assert_eq!(&*many, [0, 1, 2]);
        assert_eq!(many.into_iter().count(), 3);
    }

    #[test]
    fn more_chunks_than_workers_self_balance() {
        let par = par_device(2);
        let ranges: Vec<Range<usize>> = (0..37).map(|c| c * 10..(c + 1) * 10).collect();
        let out = map_chunks(&par, &ranges, |c, range| (c, range.start));
        for (c, entry) in out.iter().enumerate() {
            assert_eq!(*entry, (c, c * 10));
        }
    }
}
