//! Reservoir sampling (Vitter's Algorithm R).
//!
//! Strober cannot know the length of a program's execution a priori, so it
//! cannot pick `n` uniform snapshot points up front. Reservoir sampling
//! solves this: the first `n` candidate elements are always recorded, and the
//! `k`-th element (`k > n`) is recorded with probability `n/k`, replacing a
//! uniformly random existing reservoir entry. When the stream ends, the
//! reservoir holds a uniform random sample of size `n` drawn without
//! replacement (§III-B, [Vitter 1985]).

use crate::error::StatsError;
use rand::Rng;

/// The outcome of offering one stream element to a [`Reservoir`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReservoirEvent {
    /// The element was recorded into the given reservoir slot.
    ///
    /// In Strober, a `Recorded` event is the point at which the simulator
    /// stalls, reads the scan chains, and stores a replayable RTL snapshot —
    /// the expensive operation whose count the analytic performance model
    /// (§IV-E) bounds by `2n·ln(N/nL)`.
    Recorded {
        /// Index of the reservoir slot that received the element.
        slot: usize,
    },
    /// The element was not selected.
    Skipped,
}

/// A uniform random sample of fixed capacity over a stream of unknown length.
///
/// # Examples
///
/// ```
/// use strober_sampling::Reservoir;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let mut res = Reservoir::new(30);
/// for value in 0u64..100_000 {
///     res.offer(value, &mut rng);
/// }
/// let sample = res.into_sample();
/// assert_eq!(sample.len(), 30);
/// ```
#[derive(Debug, Clone)]
pub struct Reservoir<T> {
    capacity: usize,
    seen: u64,
    records: u64,
    slots: Vec<T>,
}

impl<T> Reservoir<T> {
    /// Creates an empty reservoir that will retain `capacity` elements.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "reservoir capacity must be nonzero");
        Reservoir {
            capacity,
            seen: 0,
            records: 0,
            slots: Vec::with_capacity(capacity),
        }
    }

    /// The sample size `n` this reservoir maintains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many stream elements have been offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// How many record operations have occurred (including the initial fill).
    ///
    /// This is the quantity reported in Table III of the paper ("Record
    /// Counts"): each record corresponds to one snapshot capture on the
    /// FPGA simulator. A record is counted when the element is actually
    /// stored by [`Reservoir::place`] — a [`Reservoir::decide`] that is
    /// never followed by a `place` (failed capture, adaptive stop) does
    /// not count, so `records()` matches the snapshots that truly exist.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Decides whether the next stream element should be recorded, without
    /// providing the element itself.
    ///
    /// Returns `Some(slot)` when the caller should materialise the element
    /// (e.g. capture an RTL snapshot, which is expensive) and store it via
    /// [`Reservoir::place`]; returns `None` when the element is skipped.
    ///
    /// This split lets Strober avoid the scan-chain readout cost for skipped
    /// cycles entirely.
    pub fn decide<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<usize> {
        self.seen += 1;
        if self.slots.len() < self.capacity {
            // The slot index the caller must fill next.
            Some(self.slots.len())
        } else {
            // Record the k-th element with probability n/k.
            let k = self.seen;
            let idx = rng.gen_range(0..k);
            if (idx as usize) < self.capacity {
                Some(idx as usize)
            } else {
                strober_probe::counter_add("strober.sampling.skips", 1);
                None
            }
        }
    }

    /// Stores `value` into `slot`, as directed by a previous
    /// [`Reservoir::decide`] call, and counts the record.
    ///
    /// Record accounting (and the `strober.sampling.accepts` /
    /// `strober.sampling.evictions` counters) happens here rather than in
    /// [`Reservoir::decide`], so a decision abandoned before the element
    /// is materialised — a failed snapshot capture, or an adaptive stop
    /// between `decide` and `place` — never inflates [`Reservoir::records`].
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::BadReservoirSlot`] when `slot` is at or
    /// beyond the capacity, or skips ahead of the fill front (slots fill
    /// densely from index 0). The reservoir is unchanged on error.
    pub fn place(&mut self, slot: usize, value: T) -> Result<(), StatsError> {
        if slot >= self.capacity || slot > self.slots.len() {
            return Err(StatsError::BadReservoirSlot {
                slot,
                filled: self.slots.len(),
                capacity: self.capacity,
            });
        }
        let evicting = slot < self.slots.len();
        if evicting {
            self.slots[slot] = value;
        } else {
            self.slots.push(value);
        }
        self.records += 1;
        strober_probe::counter_add("strober.sampling.accepts", 1);
        if evicting && self.slots.len() == self.capacity {
            strober_probe::counter_add("strober.sampling.evictions", 1);
        }
        Ok(())
    }

    /// Offers one element to the reservoir.
    pub fn offer<R: Rng + ?Sized>(&mut self, value: T, rng: &mut R) -> ReservoirEvent {
        match self.decide(rng) {
            Some(slot) => {
                self.place(slot, value)
                    .expect("decide always yields a placeable slot");
                ReservoirEvent::Recorded { slot }
            }
            None => ReservoirEvent::Skipped,
        }
    }

    /// A view of the current reservoir contents.
    ///
    /// The order of elements carries no meaning.
    pub fn sample(&self) -> &[T] {
        &self.slots
    }

    /// Consumes the reservoir and returns the sampled elements.
    pub fn into_sample(self) -> Vec<T> {
        self.slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fills_to_capacity_first() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut res = Reservoir::new(5);
        for i in 0..5u32 {
            assert_eq!(
                res.offer(i, &mut rng),
                ReservoirEvent::Recorded { slot: i as usize }
            );
        }
        assert_eq!(res.records(), 5);
        assert_eq!(res.sample().len(), 5);
    }

    #[test]
    fn sample_never_exceeds_capacity() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut res = Reservoir::new(8);
        for i in 0..10_000u32 {
            res.offer(i, &mut rng);
        }
        assert_eq!(res.sample().len(), 8);
        assert_eq!(res.seen(), 10_000);
        assert!(res.records() >= 8);
    }

    #[test]
    fn short_stream_keeps_every_element() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut res = Reservoir::new(100);
        for i in 0..40u32 {
            res.offer(i, &mut rng);
        }
        let mut s = res.into_sample();
        s.sort_unstable();
        assert_eq!(s, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn uniformity_over_many_trials() {
        // Every element of a 20-element stream should appear in a size-5
        // sample with probability 1/4. Chi-squared style sanity bound.
        let trials = 20_000;
        let mut counts = [0u32; 20];
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..trials {
            let mut res = Reservoir::new(5);
            for i in 0..20u32 {
                res.offer(i, &mut rng);
            }
            for v in res.into_sample() {
                counts[v as usize] += 1;
            }
        }
        let expected = trials as f64 * 5.0 / 20.0;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.06, "element {i} frequency off by {dev}");
        }
    }

    #[test]
    fn record_count_grows_logarithmically() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 50usize;
        let mut res = Reservoir::new(n);
        let mut records_at = Vec::new();
        for i in 0..1_000_000u64 {
            res.offer(i, &mut rng);
            if i == 9_999 || i == 99_999 || i == 999_999 {
                records_at.push(res.records());
            }
        }
        // Each decade past n should add roughly n·ln(10) ≈ 115 records.
        let d1 = records_at[1] - records_at[0];
        let d2 = records_at[2] - records_at[1];
        let expect = n as f64 * 10f64.ln();
        for d in [d1, d2] {
            let rel = (d as f64 - expect).abs() / expect;
            assert!(rel < 0.35, "decade increment {d} far from {expect}");
        }
    }

    #[test]
    fn decide_and_place_round_trip_matches_offer_semantics() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut res = Reservoir::new(4);
        for i in 0..1_000u32 {
            if let Some(slot) = res.decide(&mut rng) {
                res.place(slot, i).unwrap();
            }
        }
        assert_eq!(res.sample().len(), 4);
        for &v in res.sample() {
            assert!(v < 1_000);
        }
    }

    #[test]
    fn abandoned_decides_do_not_count_as_records() {
        // A `decide` whose element is never materialised (failed capture,
        // adaptive stop) must not inflate `records()` — Table III reports
        // the number of snapshots that actually exist.
        let mut rng = StdRng::seed_from_u64(7);
        let mut res = Reservoir::new(3);
        let slot = res.decide(&mut rng).expect("fill phase always accepts");
        assert_eq!(res.records(), 0, "no record until place");
        res.place(slot, 1u32).unwrap();
        assert_eq!(res.records(), 1);
        // Abandon the next decision entirely.
        let _ = res.decide(&mut rng).expect("fill phase always accepts");
        assert_eq!(res.records(), 1);
    }

    #[test]
    fn place_rejects_bad_slots_with_a_typed_error() {
        let mut res = Reservoir::new(3);
        // Skipping the fill front (slot 1 while slot 0 is empty).
        assert_eq!(
            res.place(1, 9u32),
            Err(StatsError::BadReservoirSlot {
                slot: 1,
                filled: 0,
                capacity: 3,
            })
        );
        // At or beyond the capacity.
        assert!(matches!(
            res.place(3, 9u32),
            Err(StatsError::BadReservoirSlot { slot: 3, .. })
        ));
        // The reservoir is untouched by the failed placements.
        assert_eq!(res.records(), 0);
        assert!(res.sample().is_empty());
        res.place(0, 9u32).unwrap();
        assert_eq!(res.records(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be nonzero")]
    fn zero_capacity_rejected() {
        let _ = Reservoir::<u32>::new(0);
    }
}
