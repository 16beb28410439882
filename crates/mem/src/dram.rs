//! DDR4 channel and bank timing model.
//!
//! Models what the paper's memory measurements sit on: per-socket memory is
//! four DDR4-2133 channels (17.066 GB/s each, 68.3 GB/s per socket — Table
//! II). Each channel has 16 banks with an open-page policy; a line read is a
//! row *hit* (CAS only), *closed* (ACT + CAS), or *conflict* (PRE + ACT +
//! CAS). The paper's footnote 7 attributes its sub-256 KiB DRAM latency
//! variation to "the portion of accesses that read from already open pages" —
//! this model reproduces that effect mechanically: small footprints touch few
//! rows, so revisits hit open rows.

use crate::addr::LineAddr;
use hswx_engine::{Booking, SimDuration, SimTime, ThroughputResource};
use serde::{Deserialize, Serialize};

/// DDR4 device timing parameters (defaults: DDR4-2133, CL15-15-15).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DdrTimings {
    /// Column access latency (CAS), ns.
    pub t_cas: f64,
    /// Row activate to column command (RCD), ns.
    pub t_rcd: f64,
    /// Precharge, ns.
    pub t_rp: f64,
    /// Burst transfer time for one 64-byte line (BL8 on an 8-byte bus), ns.
    pub t_burst: f64,
    /// Write recovery added to write completions, ns.
    pub t_wr: f64,
    /// Banks per channel.
    pub banks: u32,
    /// Row (page) size in bytes.
    pub row_bytes: u64,
    /// Peak data-bus rate, GB/s.
    pub bus_gb_s: f64,
}

impl Default for DdrTimings {
    fn default() -> Self {
        Self::ddr4_2133()
    }
}

impl DdrTimings {
    /// DDR4-2133 CL15: the paper's DIMM configuration.
    pub fn ddr4_2133() -> Self {
        // tCK = 0.9375 ns at 1066.5 MHz; 15 clocks = 14.06 ns.
        DdrTimings {
            t_cas: 14.06,
            t_rcd: 14.06,
            t_rp: 14.06,
            t_burst: 3.75,
            t_wr: 14.06,
            banks: 16,
            row_bytes: 8 * 1024,
            bus_gb_s: 17.066,
        }
    }
}

/// How a DRAM access met the row buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RowOutcome {
    /// Requested row already open: CAS-only access.
    Hit,
    /// Bank idle (no open row): activate first.
    Closed,
    /// Different row open: precharge, then activate.
    Conflict,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Bank {
    open_row: Option<u64>,
    busy_until: SimTime,
}

/// [`DdrTimings`] in picoseconds, converted once per channel from the
/// same f64 expressions an access would otherwise evaluate every time.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct DramSteps {
    /// Delay before the column command, indexed by [`RowOutcome`]: none
    /// for a hit, RCD for a closed bank, RP + RCD (summed in ns) for a
    /// conflict.
    pre_cas: [SimDuration; 3],
    cas: SimDuration,
    burst: SimDuration,
    wr: SimDuration,
    /// One 64-byte line on the data bus.
    line: Booking,
}

impl DramSteps {
    fn new(t: &DdrTimings) -> Self {
        DramSteps {
            pre_cas: [
                SimDuration::from_ns(0.0),
                SimDuration::from_ns(t.t_rcd),
                SimDuration::from_ns(t.t_rp + t.t_rcd),
            ],
            cas: SimDuration::from_ns(t.t_cas),
            burst: SimDuration::from_ns(t.t_burst),
            wr: SimDuration::from_ns(t.t_wr),
            line: Booking::at_rate(64, t.bus_gb_s),
        }
    }
}

/// One DDR4 channel: banks plus a shared data bus.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DramChannel {
    timings: DdrTimings,
    steps: DramSteps,
    banks: Vec<Bank>,
    bus: ThroughputResource,
    pub hits: u64,
    pub closed: u64,
    pub conflicts: u64,
    pub reads: u64,
    pub writes: u64,
}

impl DramChannel {
    /// An idle channel with all banks precharged.
    pub fn new(timings: DdrTimings) -> Self {
        DramChannel {
            banks: (0..timings.banks)
                .map(|_| Bank { open_row: None, busy_until: SimTime::ZERO })
                .collect(),
            bus: ThroughputResource::default(),
            steps: DramSteps::new(&timings),
            timings,
            hits: 0,
            closed: 0,
            conflicts: 0,
            reads: 0,
            writes: 0,
        }
    }

    /// Map a channel-local line address to (bank, row).
    ///
    /// Consecutive lines fill a row; consecutive rows rotate across banks so
    /// streaming accesses overlap activates with transfers.
    fn decode(&self, line: LineAddr) -> (usize, u64) {
        let lines_per_row = self.timings.row_bytes / 64;
        let row_seq = line.0 / lines_per_row;
        // Bank-address hashing (real controllers XOR higher address bits
        // into the bank index) spreads concurrent streams across banks
        // even when their base addresses are aligned.
        let mut z = row_seq.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 27;
        let bank = (z % self.timings.banks as u64) as usize;
        (bank, row_seq)
    }

    /// Perform one line access starting no earlier than `now`.
    ///
    /// Returns the data-available time and the row-buffer outcome.
    pub fn access(&mut self, now: SimTime, line: LineAddr, is_write: bool) -> (SimTime, RowOutcome) {
        let (bank_idx, row) = self.decode(line);
        let t = self.steps;
        let bank = &self.banks[bank_idx];
        let start = now.max(bank.busy_until);

        let outcome = match bank.open_row {
            Some(r) if r == row => RowOutcome::Hit,
            None => RowOutcome::Closed,
            Some(_) => RowOutcome::Conflict,
        };
        match outcome {
            RowOutcome::Hit => self.hits += 1,
            RowOutcome::Closed => self.closed += 1,
            RowOutcome::Conflict => self.conflicts += 1,
        }
        if is_write {
            self.writes += 1;
        } else {
            self.reads += 1;
        }

        let cas_issued = start + t.pre_cas[outcome as usize];
        // The burst occupies the shared channel bus; data arrives a CAS
        // latency after the column command.
        let data_done = self.bus.transfer(cas_issued + t.cas, t.line);
        // The bank can accept its next column command one burst slot after
        // this one (tCCD chaining); it does not hold the bank for the full
        // CAS latency. Writes add write recovery.
        let mut busy = cas_issued + t.burst;
        if is_write {
            busy += t.wr;
        }
        let bank = &mut self.banks[bank_idx];
        bank.open_row = Some(row);
        bank.busy_until = busy;
        (data_done, outcome)
    }

    /// Total bytes moved over the channel bus.
    pub fn total_bytes(&self) -> u64 {
        self.bus.total_bytes()
    }
}

/// A socket's memory controller front end: several interleaved channels.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MemoryController {
    channels: Vec<DramChannel>,
}

impl MemoryController {
    /// `n_channels` identical channels (the paper's sockets have four).
    pub fn new(n_channels: u32, timings: DdrTimings) -> Self {
        assert!(n_channels > 0);
        MemoryController {
            channels: (0..n_channels).map(|_| DramChannel::new(timings)).collect(),
        }
    }

    /// Which channel serves `line` (line-granular interleave).
    pub fn channel_of(&self, line: LineAddr) -> usize {
        (line.0 % self.channels.len() as u64) as usize
    }

    /// Access `line`, returning data-ready time and row outcome.
    pub fn access(&mut self, now: SimTime, line: LineAddr, is_write: bool) -> (SimTime, RowOutcome) {
        let ch = self.channel_of(line);
        // Channel-local line index preserves row locality within a channel.
        let local = LineAddr(line.0 / self.channels.len() as u64);
        self.channels[ch].access(now, local, is_write)
    }

    /// Per-controller aggregate row-hit rate.
    pub fn row_hit_rate(&self) -> f64 {
        let (h, t): (u64, u64) = self
            .channels
            .iter()
            .map(|c| (c.hits, c.hits + c.closed + c.conflicts))
            .fold((0, 0), |(a, b), (h, t)| (a + h, b + t));
        if t == 0 {
            0.0
        } else {
            h as f64 / t as f64
        }
    }

    /// Controller-wide counter totals, summed over channels:
    /// `[reads, writes, row_hits, row_closed, row_conflicts, bytes]`.
    /// One stable shape for metrics aggregation.
    pub fn totals(&self) -> [u64; 6] {
        let mut t = [0u64; 6];
        for c in &self.channels {
            t[0] += c.reads;
            t[1] += c.writes;
            t[2] += c.hits;
            t[3] += c.closed;
            t[4] += c.conflicts;
            t[5] += c.total_bytes();
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ch() -> DramChannel {
        DramChannel::new(DdrTimings::ddr4_2133())
    }

    #[test]
    fn first_access_is_closed_then_hits() {
        let mut c = ch();
        let (t1, o1) = c.access(SimTime::ZERO, LineAddr(0), false);
        assert_eq!(o1, RowOutcome::Closed);
        // ACT + CAS + burst = 14.06 + 14.06 + 3.75 ns
        assert!((t1.as_ns() - 31.87).abs() < 0.1, "{t1}");
        let (t2, o2) = c.access(t1, LineAddr(1), false);
        assert_eq!(o2, RowOutcome::Hit);
        assert!((t2.as_ns() - t1.as_ns() - 17.81).abs() < 0.1);
    }

    #[test]
    fn different_row_same_bank_conflicts() {
        let mut c = ch();
        let lines_per_row = 8 * 1024 / 64; // 128
        // Find two distinct rows that hash to the same bank.
        let (b0, _) = c.decode(LineAddr(0));
        let clash_row = (1..1000u64)
            .find(|&r| c.decode(LineAddr(r * lines_per_row)).0 == b0)
            .expect("some row collides within 1000");
        let (_, o1) = c.access(SimTime::ZERO, LineAddr(0), false);
        assert_eq!(o1, RowOutcome::Closed);
        let (_, o2) =
            c.access(SimTime(1_000_000), LineAddr(clash_row * lines_per_row), false);
        assert_eq!(o2, RowOutcome::Conflict);
    }

    #[test]
    fn bank_hash_spreads_rows() {
        let c = ch();
        let lines_per_row = 128u64;
        let mut seen = std::collections::HashSet::new();
        for r in 0..64u64 {
            seen.insert(c.decode(LineAddr(r * lines_per_row)).0);
        }
        assert!(seen.len() >= 12, "rows spread over banks: {}", seen.len());
    }

    #[test]
    fn aligned_streams_use_different_banks() {
        // Streams based at large aligned offsets (the multi-core buffer
        // layout) must not all collapse onto one bank.
        let c = ch();
        let mut banks = std::collections::HashSet::new();
        for i in 0..12u64 {
            banks.insert(c.decode(LineAddr(i << 23)).0);
        }
        assert!(banks.len() >= 6, "aligned bases spread: {}", banks.len());
    }

    #[test]
    fn streaming_hits_open_rows() {
        let mut c = ch();
        let mut now = SimTime::ZERO;
        for i in 0..1024u64 {
            let (t, _) = c.access(now, LineAddr(i), false);
            now = t;
        }
        // More than 90% of the accesses hit an open row.
        let misses = c.closed + c.conflicts;
        assert!(c.hits > 9 * misses, "{} hits, {misses} misses", c.hits);
    }

    #[test]
    fn channel_bus_caps_bandwidth() {
        let mut c = ch();
        // Saturate with pipelined requests (all issued at t=0; the bank and
        // bus serialize them back-to-back, as a loaded controller would).
        let mut last = SimTime::ZERO;
        for i in 0..10_000u64 {
            let (t, _) = c.access(SimTime::ZERO, LineAddr(i), false);
            last = last.max(t);
        }
        let gbs = c.total_bytes() as f64 / last.as_secs() / 1e9;
        assert!(gbs <= 17.2, "exceeded bus rate: {gbs}");
        assert!(gbs > 14.0, "unexpectedly slow: {gbs}");
    }

    #[test]
    fn controller_interleaves_lines_across_channels() {
        let mc = MemoryController::new(4, DdrTimings::ddr4_2133());
        let chans: Vec<usize> = (0..8).map(|i| mc.channel_of(LineAddr(i))).collect();
        assert_eq!(chans, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn four_channels_scale_bandwidth() {
        let mut mc = MemoryController::new(4, DdrTimings::ddr4_2133());
        // Issue a dense pipelined stream; channels serialize internally.
        let mut last = SimTime::ZERO;
        for i in 0..40_000u64 {
            let (t, _) = mc.access(SimTime::ZERO, LineAddr(i), false);
            last = last.max(t);
        }
        let gbs = mc.totals()[5] as f64 / last.as_secs() / 1e9;
        assert!(gbs > 55.0 && gbs < 68.5, "aggregate {gbs} GB/s");
    }

    #[test]
    fn writes_add_recovery_to_bank_busy() {
        let mut c = ch();
        let (t_w, _) = c.access(SimTime::ZERO, LineAddr(0), true);
        // Next access to the same bank cannot start before write recovery.
        let (t_r, o) = c.access(t_w, LineAddr(2), false);
        assert_eq!(o, RowOutcome::Hit);
        assert!(t_r.as_ns() - t_w.as_ns() >= 14.0, "wr gap {}", t_r.as_ns() - t_w.as_ns());
    }

    #[test]
    fn steps_equal_the_ns_expressions_they_replace() {
        let ns = SimDuration::from_ns;
        // The last timing set has half-picosecond RP and RCD, so rounding
        // each before summing would be off by one picosecond.
        let half_ps = DdrTimings { t_rp: 14.0625, t_rcd: 14.0625, ..DdrTimings::ddr4_2133() };
        for t in [DdrTimings::ddr4_2133(), half_ps] {
            let s = DramChannel::new(t).steps;
            assert_eq!(s.pre_cas, [ns(0.0), ns(t.t_rcd), ns(t.t_rp + t.t_rcd)]);
            assert_eq!(s.cas, ns(t.t_cas));
            assert_eq!(s.burst, ns(t.t_burst));
            assert_eq!(s.wr, ns(t.t_wr));
            assert_eq!(s.line, Booking { bytes: 64, dur: SimDuration::for_bytes(64, t.bus_gb_s) });
        }
        assert_ne!(ns(half_ps.t_rp + half_ps.t_rcd), ns(half_ps.t_rp) + ns(half_ps.t_rcd));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Completion times are causal (>= request time) and bank state stays
        /// consistent for arbitrary access sequences.
        #[test]
        fn causal_completions(
            accesses in proptest::collection::vec((0u64..100_000, any::<bool>()), 1..200)
        ) {
            let mut c = DramChannel::new(DdrTimings::ddr4_2133());
            let mut now = SimTime::ZERO;
            for &(line, w) in &accesses {
                let (done, _) = c.access(now, LineAddr(line), w);
                prop_assert!(done > now);
                now = SimTime(now.0 + 100); // requests trickle in
            }
            let total = c.hits + c.closed + c.conflicts;
            prop_assert_eq!(total, accesses.len() as u64);
            prop_assert_eq!(c.reads + c.writes, accesses.len() as u64);
        }

        /// Row-hit latency is never worse than closed, which is never worse
        /// than conflict, measured on an idle channel.
        #[test]
        fn outcome_latency_ordering(line in 0u64..10_000) {
            let t = DdrTimings::ddr4_2133();
            // Hit
            let mut c1 = DramChannel::new(t);
            c1.access(SimTime::ZERO, LineAddr(line), false);
            let idle = SimTime(1_000_000);
            let (hit_done, o) = c1.access(idle, LineAddr(line), false);
            prop_assert_eq!(o, RowOutcome::Hit);
            // Closed
            let mut c2 = DramChannel::new(t);
            let (closed_done, o) = c2.access(idle, LineAddr(line), false);
            prop_assert_eq!(o, RowOutcome::Closed);
            // Conflict: open a different row on the same bank first.
            let mut c3 = DramChannel::new(t);
            let lines_per_row = 128u64;
            let (bank, row) = c3.decode(LineAddr(line));
            let clash_row = (0..100_000u64)
                .filter(|&r| r != row)
                .find(|&r| c3.decode(LineAddr(r * lines_per_row)).0 == bank)
                .expect("hash collides within 100k rows");
            c3.access(SimTime::ZERO, LineAddr(clash_row * lines_per_row), false);
            let (conf_done, o) = c3.access(idle, LineAddr(line), false);
            prop_assert_eq!(o, RowOutcome::Conflict);
            prop_assert!(hit_done < closed_done);
            prop_assert!(closed_done < conf_done);
        }
    }
}
