//! The MOFT's canonical order, written once: records sorted by
//! `(Oid, t)`, each duplicate key keeping its **last arrival**.
//! [`Moft::rebuild_index`](crate::Moft::rebuild_index) and the stream
//! layer's sealing both call [`canonicalize`].
//!
//! The kernel is a stable LSD radix sort over one packed `u64` per
//! record: `((oid − oid_min) << tbits | (t − t_min)) << ibits | i`, where
//! `i` is the record's arrival index. Only the key bits in use are
//! sorted, in 8-bit passes (a pass whose digit is the same for every
//! record is skipped), and the arrival index in the low bits carries
//! stability: among equal keys the last in sorted order is the last to
//! arrive. The sorted keys are a permutation, applied to the records in
//! place one cycle at a time; one pass then drops superseded keys.
//! Inputs already in order skip the sort; inputs shorter than
//! [`RADIX_MIN_RECORDS`] or longer than [`RADIX_MAX_RECORDS`], or whose
//! key and index do not fit 64 bits together, take the comparison sort,
//! with the same result.

use std::cell::RefCell;

use crate::moft::Record;

/// Inputs shorter than this take the comparison sort: the radix
/// passes' fixed cost (a 16 KiB histogram, a scan for the key's span)
/// does not pay for itself.
pub const RADIX_MIN_RECORDS: usize = 64;

/// Inputs longer than this take the comparison sort too: past the
/// caches, the in-place permutation misses on every step and the radix
/// kernel loses its lead (on a 2-core x86-64 host, bounded-shuffle
/// input: 3× faster than `sort_by` at 24k records, about even at 300k,
/// slower at 1M). It caps the radix buffers a thread keeps between
/// calls at 1 MiB, so sealing partition after partition allocates them
/// once.
pub const RADIX_MAX_RECORDS: usize = 1 << 16;

/// Packed keys and the ping-pong buffer of the radix passes, kept per
/// thread.
#[derive(Default)]
struct Scratch {
    keys: Vec<u64>,
    swap: Vec<u64>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Sorts `records` by `(oid, t)` and keeps the last arrival of each key
/// (arrival = position in `records`), in place. The result is strictly
/// ascending by `(oid, t)` and no longer than the input.
pub fn canonicalize(mut records: Vec<Record>) -> Vec<Record> {
    // Input already in order (a generator's per-object tracks) is
    // stably sorted as it stands.
    let in_order = (records.windows(2)).all(|w| (w[0].oid, w[0].t) <= (w[1].oid, w[1].t));
    if !in_order && !SCRATCH.with(|s| radix_sort(&mut records, &mut s.borrow_mut())) {
        records.sort_by(|a, b| a.oid.cmp(&b.oid).then(a.t.cmp(&b.t)));
    }
    // Of each run of equal keys keep one slot, holding the last arrival.
    records.dedup_by(|later, kept| {
        let same = (later.oid, later.t) == (kept.oid, kept.t);
        if same {
            *kept = *later;
        }
        same
    });
    // A buffer grown by doubling would keep up to twice the records.
    records.shrink_to_fit();
    records
}

/// Significant bits of `v`.
fn bits(v: u64) -> u32 {
    u64::BITS - v.leading_zeros()
}

/// Stable-sorts `records` by `(oid, t)` with the radix kernel and
/// returns `true`, or returns `false` untouched when they are too few or
/// too many, or their packed key and index need more than 64 bits.
fn radix_sort(records: &mut [Record], s: &mut Scratch) -> bool {
    let n = records.len();
    if !(RADIX_MIN_RECORDS..=RADIX_MAX_RECORDS).contains(&n) {
        return false;
    }
    let (mut omin, mut omax, mut tmin, mut tmax) = (u64::MAX, 0u64, i64::MAX, i64::MIN);
    for r in records.iter() {
        omin = omin.min(r.oid.0);
        omax = omax.max(r.oid.0);
        tmin = tmin.min(r.t.0);
        tmax = tmax.max(r.t.0);
    }
    let tbits = bits(tmax.wrapping_sub(tmin) as u64);
    let kbits = bits(omax - omin) + tbits;
    let ibits = bits(n as u64 - 1);
    if kbits + ibits > u64::BITS {
        return false;
    }

    let passes = kbits.div_ceil(8) as usize;
    let mut counts = [[0usize; 256]; 8];
    s.keys.clear();
    s.keys.extend(records.iter().enumerate().map(|(i, r)| {
        let key = ((r.oid.0 - omin) << tbits) | r.t.0.wrapping_sub(tmin) as u64;
        let k = (key << ibits) | i as u64;
        for (p, count) in counts.iter_mut().enumerate().take(passes) {
            count[((k >> (ibits as usize + 8 * p)) & 0xFF) as usize] += 1;
        }
        k
    }));
    s.swap.resize(n, 0);
    for (p, count) in counts.iter().enumerate().take(passes) {
        let shift = ibits as usize + 8 * p;
        if count[((s.keys[0] >> shift) & 0xFF) as usize] == n {
            continue; // every record has this digit
        }
        let mut at = [0usize; 256];
        let mut sum = 0;
        for (slot, &c) in at.iter_mut().zip(count) {
            *slot = sum;
            sum += c;
        }
        for &k in &s.keys {
            let d = ((k >> shift) & 0xFF) as usize;
            s.swap[at[d]] = k;
            at[d] += 1;
        }
        std::mem::swap(&mut s.keys, &mut s.swap);
    }

    // Position `j` takes the record that arrived `from[j]`-th: apply that
    // permutation in place, one cycle at a time, marking each position
    // done as it is filled.
    let index = (1u64 << ibits) - 1;
    let from = &mut s.keys;
    from.iter_mut().for_each(|k| *k &= index);
    for start in 0..n {
        if from[start] == DONE {
            continue;
        }
        let first = records[start];
        let mut at = start;
        loop {
            let src = from[at] as usize;
            from[at] = DONE;
            if src == start {
                records[at] = first;
                break;
            }
            records[at] = records[src];
            at = src;
        }
    }
    true
}

/// Marks a position the permutation has filled (no index reaches it:
/// indices have at most 63 bits).
const DONE: u64 = u64::MAX;
