//! Shared-resource contention models.
//!
//! Two primitives cover every bottleneck in the Haswell-EP memory system:
//!
//! * [`ThroughputResource`] — a serializing byte pipe with a fixed rate.
//!   Models QPI link directions (19.2 GB/s each), DDR4 channel data buses
//!   (17.06 GB/s each), L3 slice read ports, and the ring segments. Under
//!   load, transfers queue back-to-back, which is exactly how bandwidth
//!   saturation appears in the paper's Table VII/VIII scaling curves.
//! * [`TimedPool`] — a bounded occupancy pool whose slots free themselves
//!   at known times. Models core line-fill buffers (10 per core on
//!   Haswell), L2 superqueue entries, and home-agent tracker entries; by
//!   Little's law the pool bound times the round-trip latency caps
//!   single-source bandwidth, which is what limits a single Haswell core
//!   to ~10 GB/s from local DRAM despite 68 GB/s of channel bandwidth.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A transfer size and the time it occupies a pipe of one rate.
///
/// Walks book a handful of fixed sizes (a 64-byte line, a QPI control or
/// data message), so the owner converts each size once, when it builds
/// its resources, and a booking adds integer picoseconds only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Booking {
    /// Bytes moved.
    pub bytes: u64,
    /// Serialization time of `bytes` at the rate the booking was made for.
    pub dur: SimDuration,
}

impl Booking {
    /// `bytes` at `gb_s` GB/s: [`SimDuration::for_bytes`], evaluated once.
    pub fn at_rate(bytes: u64, gb_s: f64) -> Self {
        Booking { bytes, dur: SimDuration::for_bytes(bytes, gb_s) }
    }
}

/// A serializing resource that moves bytes at a fixed rate: the rate its
/// [`Booking`]s were converted at.
///
/// Reservations are **gap-fitting**: a transfer occupies the earliest free
/// interval at or after its request time. With monotonically increasing
/// request times this is identical to a FIFO pipe; with out-of-order
/// requests (a transaction walk reserving a writeback at its *completion*
/// time while later-issued demand reads target earlier times) it behaves
/// like a scheduling memory/link controller: earlier work slips into the
/// gaps instead of queueing behind future reservations.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ThroughputResource {
    /// Sorted, disjoint busy intervals `(start_ps, end_ps)`. Adjacent and
    /// overlapping intervals are merged, so under saturation the list stays
    /// tiny (everything coalesces into one blob). Latency-bound callers
    /// leave gaps between reservations, so the list can instead grow to
    /// [`Self::MAX_INTERVALS`]; a deque keeps dropping the oldest interval
    /// O(1), and reservations locate their gap by binary search rather
    /// than a front-to-back scan.
    intervals: VecDeque<(u64, u64)>,
    /// Total bytes moved.
    bytes: u64,
}

impl ThroughputResource {
    /// Keep at most this many disjoint busy intervals; the oldest are
    /// dropped (callers never ask about the distant past).
    const MAX_INTERVALS: usize = 1024;

    /// Reserve the pipe for `b` starting no earlier than `now`.
    ///
    /// Returns the completion time; the transfer occupies the earliest
    /// gap of sufficient length starting at or after `now`. `b` carries
    /// its duration at the rate of the pipe it is booked on.
    pub fn transfer(&mut self, now: SimTime, b: Booking) -> SimTime {
        self.transfer_with_wait(now, b).0
    }

    /// Like [`transfer`](Self::transfer) but also returns the queueing delay
    /// experienced (`start - now`).
    pub fn transfer_with_wait(&mut self, now: SimTime, b: Booking) -> (SimTime, SimDuration) {
        let Booking { bytes, dur } = b;
        // Monotone fast path: a booking at or after the end of the last
        // interval lands past every existing reservation, so the binary
        // search finds `len`, the gap scan never runs, and the insert is an
        // append (merging with the final interval when they touch). Walk
        // kernels chain issue times, so nearly every booking takes this
        // path instead of searching a 1024-entry deque.
        match self.intervals.back_mut() {
            Some(&mut (_, ref mut last_end)) if *last_end <= now.0 => {
                let end = now.0 + dur.0;
                if *last_end == now.0 {
                    *last_end = end;
                } else {
                    self.intervals.push_back((now.0, end));
                    if self.intervals.len() > Self::MAX_INTERVALS {
                        self.intervals.pop_front();
                    }
                }
                self.bytes += bytes;
                return (SimTime(end), SimDuration::ZERO);
            }
            None => {
                let end = now.0 + dur.0;
                self.intervals.push_back((now.0, end));
                self.bytes += bytes;
                return (SimTime(end), SimDuration::ZERO);
            }
            Some(_) => {}
        }
        let mut start = now.0;
        // Intervals ending at or before `start` cannot constrain this
        // transfer; binary-search past them (they are sorted and disjoint,
        // so ends are sorted too). After the first overlap pushes `start`
        // to an interval's end, every following interval ends later, so
        // the skip condition can never recur mid-walk.
        let mut i = {
            let (mut lo, mut hi) = (0, self.intervals.len());
            while lo < hi {
                let mid = (lo + hi) / 2;
                if self.intervals[mid].1 <= start {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            lo
        };
        let mut insert_at = self.intervals.len();
        while i < self.intervals.len() {
            let (s, e) = self.intervals[i];
            if s >= start + dur.0 {
                // Fits entirely before this interval.
                insert_at = i;
                break;
            }
            // Overlaps: push past this interval and keep looking.
            start = e;
            i += 1;
            insert_at = i;
        }
        let end = start + dur.0;
        self.intervals.insert(insert_at, (start, end));
        self.coalesce(insert_at);
        while self.intervals.len() > Self::MAX_INTERVALS {
            self.intervals.pop_front();
        }
        self.bytes += bytes;
        (SimTime(end), SimTime(start).since(now))
    }

    /// Merge the interval at `idx` with touching neighbours.
    fn coalesce(&mut self, idx: usize) {
        // Merge with previous.
        let mut i = idx;
        if i > 0 && self.intervals[i - 1].1 >= self.intervals[i].0 {
            self.intervals[i - 1].1 = self.intervals[i - 1].1.max(self.intervals[i].1);
            self.intervals.remove(i);
            i -= 1;
        }
        // Merge with next.
        while i + 1 < self.intervals.len() && self.intervals[i].1 >= self.intervals[i + 1].0 {
            self.intervals[i].1 = self.intervals[i].1.max(self.intervals[i + 1].1);
            self.intervals.remove(i + 1);
        }
    }

    /// Total bytes moved through this resource.
    pub fn total_bytes(&self) -> u64 {
        self.bytes
    }
}

/// A bounded pool whose tokens free themselves at known times.
///
/// Callers ask *when* a slot is available (`wait_for_slot`), compute their
/// completion given that start, then reserve the slot until completion
/// (`occupy_until`). This models FIFO admission to tracker/buffer pools in
/// a transaction-walk simulation without explicit release events: home
/// agent trackers, line-fill-buffer windows, superqueue entries.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimedPool {
    capacity: usize,
    /// Completion times of in-flight occupants (min-heap via sorted Vec
    /// would be O(n); use BinaryHeap of Reverse).
    #[serde(skip)]
    busy: std::collections::BinaryHeap<std::cmp::Reverse<u64>>,
}

impl TimedPool {
    /// A pool of `capacity` slots. Panics if zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "timed pool must have capacity");
        TimedPool { capacity, busy: std::collections::BinaryHeap::new() }
    }

    /// Earliest time at or after `now` when a slot is free. Slots whose
    /// occupants completed by `now` are reclaimed.
    pub fn wait_for_slot(&mut self, now: SimTime) -> SimTime {
        while let Some(&std::cmp::Reverse(t)) = self.busy.peek() {
            if t <= now.0 {
                self.busy.pop();
            } else {
                break;
            }
        }
        if self.busy.len() < self.capacity {
            now
        } else {
            let std::cmp::Reverse(t) = self.busy.pop().expect("pool non-empty");
            SimTime(t.max(now.0))
        }
    }

    /// Mark one slot busy until `t` (pairs with a prior `wait_for_slot`).
    pub fn occupy_until(&mut self, t: SimTime) {
        self.busy.push(std::cmp::Reverse(t.0));
    }
}

#[cfg(test)]
impl ThroughputResource {
    /// The original always-searching booking path, kept verbatim as the
    /// differential reference for the monotone append fast path.
    fn transfer_reference(&mut self, now: SimTime, b: Booking) -> SimTime {
        let Booking { bytes, dur } = b;
        let mut start = now.0;
        let mut i = {
            let (mut lo, mut hi) = (0, self.intervals.len());
            while lo < hi {
                let mid = (lo + hi) / 2;
                if self.intervals[mid].1 <= start {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            lo
        };
        let mut insert_at = self.intervals.len();
        while i < self.intervals.len() {
            let (s, e) = self.intervals[i];
            if s >= start + dur.0 {
                insert_at = i;
                break;
            }
            start = e;
            i += 1;
            insert_at = i;
        }
        let end = start + dur.0;
        self.intervals.insert(insert_at, (start, end));
        self.coalesce(insert_at);
        while self.intervals.len() > Self::MAX_INTERVALS {
            self.intervals.pop_front();
        }
        self.bytes += bytes;
        SimTime(end)
    }

    fn state_tuple(&self) -> (Vec<(u64, u64)>, u64) {
        (self.intervals.iter().copied().collect(), self.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 64-byte line at 10 GB/s: 6.4 ns.
    fn line() -> Booking {
        Booking::at_rate(64, 10.0)
    }

    #[test]
    fn transfers_serialize() {
        let mut r = ThroughputResource::default();
        let t0 = SimTime::ZERO;
        let f1 = r.transfer(t0, line());
        let f2 = r.transfer(t0, line());
        assert_eq!(f1, SimTime(6_400));
        assert_eq!(f2, SimTime(12_800));
    }

    #[test]
    fn transfer_with_wait_reports_queueing() {
        let mut r = ThroughputResource::default();
        r.transfer(SimTime::ZERO, line());
        let (_, wait) = r.transfer_with_wait(SimTime(1_000), line());
        assert_eq!(wait, SimDuration(5_400));
    }

    #[test]
    fn rate_sets_effective_bandwidth() {
        // Saturate for ~1 us and check achieved bytes/sec equals the rate.
        let mut r = ThroughputResource::default();
        let mut now = SimTime::ZERO;
        while now.0 < 1_000_000 {
            now = r.transfer(now, Booking::at_rate(64, 38.4));
        }
        let gbs = r.total_bytes() as f64 / now.as_secs() / 1e9;
        assert!((gbs - 38.4).abs() < 0.5, "{gbs}");
    }

    #[test]
    fn gap_fit_lets_earlier_work_slip_in() {
        let mut r = ThroughputResource::default();
        // A writeback reserved far in the future...
        let f1 = r.transfer(SimTime(100_000), line());
        assert_eq!(f1, SimTime(106_400));
        // ...must not delay a demand read at an earlier time.
        let f2 = r.transfer(SimTime(1_000), line());
        assert_eq!(f2, SimTime(7_400));
        // A transfer that does not fit before the future blob goes after it.
        let f3 = r.transfer(SimTime(99_000), line());
        assert_eq!(f3, SimTime(112_800));
        // But one that fits into the remaining gap still slips in.
        let f4 = r.transfer(SimTime(93_000), line());
        assert_eq!(f4, SimTime(99_400));
    }

    #[test]
    fn gap_fit_coalesces_intervals() {
        let mut r = ThroughputResource::default();
        for _ in 0..100 {
            r.transfer(SimTime::ZERO, line());
        }
        // Back-to-back reservations merge into one busy blob.
        assert_eq!(r.intervals, [(0, 640_000)]);
    }

    #[test]
    fn timed_pool_admits_up_to_capacity_instantly() {
        let mut p = TimedPool::new(2);
        assert_eq!(p.wait_for_slot(SimTime(0)), SimTime(0));
        p.occupy_until(SimTime(100));
        assert_eq!(p.wait_for_slot(SimTime(0)), SimTime(0));
        p.occupy_until(SimTime(50));
        // Third request at t=0 must wait for the earliest completion (50).
        assert_eq!(p.wait_for_slot(SimTime(0)), SimTime(50));
        p.occupy_until(SimTime(200));
    }

    #[test]
    fn timed_pool_reclaims_expired_slots() {
        let mut p = TimedPool::new(1);
        p.wait_for_slot(SimTime(0));
        p.occupy_until(SimTime(10));
        // At t=20 the slot expired: no waiting.
        assert_eq!(p.wait_for_slot(SimTime(20)), SimTime(20));
    }

    #[test]
    fn timed_pool_throughput_is_capacity_over_latency() {
        // Little's law check: capacity 10, service 100 ns → 0.1/ns.
        let mut p = TimedPool::new(10);
        let mut done = SimTime::ZERO;
        let n = 1000;
        for _ in 0..n {
            let start = p.wait_for_slot(SimTime::ZERO);
            done = start + crate::time::SimDuration(100_000); // 100 ns
            p.occupy_until(done);
        }
        let rate = n as f64 / done.as_ns();
        assert!((rate - 0.1).abs() < 0.01, "{rate}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The pipe is never over-committed: every transfer starts at or
        /// after its request time, and the end of the last reservation is
        /// at least the total busy time (intervals never overlap).
        #[test]
        fn no_overcommit(
            ops in proptest::collection::vec((0u64..10_000, 1u64..512), 1..100)
        ) {
            let mut r = ThroughputResource::default();
            let mut total_dur = SimDuration::ZERO;
            for &(at, bytes) in &ops {
                let dur = SimDuration::for_bytes(bytes, 5.0);
                let (f, wait) = r.transfer_with_wait(SimTime(at), Booking::at_rate(bytes, 5.0));
                prop_assert!(f.0 >= at + dur.0);
                prop_assert_eq!(f.0 - dur.0 - wait.0, at, "start = now + wait");
                total_dur += dur;
            }
            let last_end = r.intervals.back().map_or(0, |&(_, e)| e);
            prop_assert!(last_end >= total_dur.0);
        }

        /// With monotone request times gap-fit degenerates to FIFO:
        /// completions are monotone.
        #[test]
        fn fifo_when_monotone(
            mut ops in proptest::collection::vec((0u64..10_000, 1u64..512), 1..100)
        ) {
            ops.sort_by_key(|&(at, _)| at);
            let mut r = ThroughputResource::default();
            let mut last = SimTime::ZERO;
            for &(at, bytes) in &ops {
                let f = r.transfer(SimTime(at), Booking::at_rate(bytes, 5.0));
                prop_assert!(f >= last);
                last = f;
            }
        }

        /// TimedPool never admits more than `capacity` overlapping
        /// occupancies: for any admission pattern, at most `cap` intervals
        /// cover any point in time.
        #[test]
        fn timed_pool_never_overcommits(
            reqs in proptest::collection::vec((0u64..10_000, 1u64..500), 1..120)
        ) {
            let cap = 5usize;
            let mut p = TimedPool::new(cap);
            let mut intervals: Vec<(u64, u64)> = Vec::new();
            for &(at, dur) in &reqs {
                let start = p.wait_for_slot(SimTime(at));
                let end = SimTime(start.0 + dur * 1000);
                p.occupy_until(end);
                intervals.push((start.0, end.0));
            }
            // Check overlap count at every interval start.
            for &(t, _) in &intervals {
                let overlapping = intervals
                    .iter()
                    .filter(|&&(s, e)| s <= t && t < e)
                    .count();
                prop_assert!(overlapping <= cap, "{} overlapping at {}", overlapping, t);
            }
        }

        /// The monotone append fast path is bit-identical to the original
        /// always-searching booking path, for arbitrary (including
        /// out-of-order) request patterns, down to interval and byte
        /// state.
        #[test]
        fn fast_path_matches_reference(
            ops in proptest::collection::vec((0u64..50_000, 1u64..512), 1..200)
        ) {
            let mut fast = ThroughputResource::default();
            let mut slow = ThroughputResource::default();
            for &(at, bytes) in &ops {
                let b = Booking::at_rate(bytes, 5.0);
                let f = fast.transfer(SimTime(at), b);
                let s = slow.transfer_reference(SimTime(at), b);
                prop_assert_eq!(f, s);
            }
            prop_assert_eq!(fast.state_tuple(), slow.state_tuple());
        }

        /// The fast path stays identical under long monotone runs that
        /// overflow MAX_INTERVALS (the perf-kernel regime: chained issue
        /// times with gaps, so nothing coalesces and the deque rides the
        /// cap).
        #[test]
        fn fast_path_matches_reference_at_cap(
            gaps in proptest::collection::vec(0u64..40_000, 1100..1300)
        ) {
            let mut fast = ThroughputResource::default();
            let mut slow = ThroughputResource::default();
            let mut t = 0u64;
            for &g in &gaps {
                t += g;
                let b = Booking::at_rate(64, 5.0);
                let f = fast.transfer(SimTime(t), b);
                let s = slow.transfer_reference(SimTime(t), b);
                prop_assert_eq!(f, s);
            }
            prop_assert_eq!(fast.state_tuple(), slow.state_tuple());
        }
    }
}
