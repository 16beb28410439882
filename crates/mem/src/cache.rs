//! Generic set-associative cache array with true-LRU replacement.
//!
//! The same container backs L1D, L2, the L3 slices, and the HitME directory
//! cache; the payload `S` carries whatever per-line metadata the level needs
//! (MESIF state, core-valid bits, presence vectors). Lookups are structural
//! only — hit/miss bookkeeping and coherence decisions belong to the caller.
//!
//! # Layout
//!
//! The array is stored *flat*: one contiguous `ways`-strided buffer per
//! field (packed tags, LRU ticks, payloads) plus a per-set occupancy count,
//! instead of a `Vec<Vec<Way>>` of heap-allocated sets. A set probe is one
//! linear scan over at most `ways` adjacent `u64` tags — a single cache
//! line or two of the *host* — where the nested layout cost a double
//! pointer chase per probe. Set-relative slot order replicates the old
//! `Vec` semantics exactly (push at the end, `swap_remove` on removal), so
//! victim choice under every policy — including the slot-indexed Random
//! policy — is bit-identical to the original implementation (proved by the
//! differential proptests against the retained [`reference`] oracle).
//!
//! Only the per-set arrays (occupancy, PLRU bits) exist from construction.
//! The per-slot arrays (tags, LRU ticks, payloads) are allocated by the
//! first [`insert`](SetAssocCache::insert): a simulated system owns
//! megabytes of slots, most runs fill a fraction of its caches, and
//! writing every empty payload slot up front dominated building one.
//! An empty set is answered from its zero occupancy alone, so a cache
//! that was never filled behaves exactly like a filled one that was
//! emptied.

use crate::addr::LineAddr;
use crate::geometry::CacheGeometry;
use serde::{Deserialize, Serialize};

/// Victim-selection policy.
///
/// Real Haswell caches use tree-PLRU-style approximations rather than true
/// LRU; the simulator defaults to true LRU (indistinguishable for the
/// paper's controlled single-pass workloads) and offers the alternatives
/// for ablation studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Replacement {
    /// True least-recently-used (default).
    #[default]
    Lru,
    /// Tree pseudo-LRU approximation (power-of-two ways; other
    /// associativities fall back to NRU-style oldest-untouched).
    TreePlru,
    /// Uniform random victim (deterministic xorshift stream).
    Random,
}

/// Match mask over `tags`: bit `i` is set when `tags[i] == tag`.
///
/// The compares run branchlessly in chunks of four `u64`s — one AVX2
/// `vpcmpeqq` per chunk under autovectorization — with a short scalar
/// tail for the remainder. Callers only hand in the *occupied* span of a
/// set, so stale tags past `occ` can never produce a false match.
#[inline]
fn probe_mask(tags: &[u64], tag: u64) -> u32 {
    debug_assert!(tags.len() <= 32);
    let mut mask = 0u32;
    let mut i = 0;
    while i + 4 <= tags.len() {
        let m = u32::from(tags[i] == tag)
            | u32::from(tags[i + 1] == tag) << 1
            | u32::from(tags[i + 2] == tag) << 2
            | u32::from(tags[i + 3] == tag) << 3;
        mask |= m << i;
        i += 4;
    }
    while i < tags.len() {
        mask |= u32::from(tags[i] == tag) << i;
        i += 1;
    }
    mask
}

/// A set-associative cache indexed by [`LineAddr`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SetAssocCache<S> {
    /// Packed tags, `ways`-strided; slots `[set*ways, set*ways+occ[set])`
    /// are valid. This is the only array touched by a miss probe. Empty
    /// until the first insert, like `lru` and `states`.
    tags: Vec<u64>,
    /// LRU ticks, parallel to `tags`.
    lru: Vec<u64>,
    /// Payloads, parallel to `tags` (`None` in unoccupied slots).
    states: Vec<Option<S>>,
    /// Occupied slots per set.
    occ: Vec<u16>,
    /// Tree-PLRU direction bits per set (bit i = internal node i).
    plru: Vec<u32>,
    n_sets: usize,
    ways: usize,
    /// `n_sets - 1` when the set count is a power of two, else `u64::MAX`
    /// as a "use modulo" sentinel (the HitME organization has 224 sets).
    set_mask: u64,
    tick: u64,
    policy: Replacement,
    rng_state: u64,
}

impl<S> SetAssocCache<S> {
    /// An empty cache with the given geometry and the default (true LRU)
    /// replacement policy.
    pub fn new(geom: CacheGeometry) -> Self {
        Self::with_policy(geom, Replacement::Lru)
    }

    /// An empty cache with an explicit replacement policy.
    pub fn with_policy(geom: CacheGeometry, policy: Replacement) -> Self {
        let n_sets = geom.sets() as usize;
        let ways = geom.ways as usize;
        SetAssocCache {
            tags: Vec::new(),
            lru: Vec::new(),
            states: Vec::new(),
            occ: vec![0; n_sets],
            plru: vec![0; n_sets],
            n_sets,
            ways,
            set_mask: if n_sets.is_power_of_two() {
                n_sets as u64 - 1
            } else {
                u64::MAX
            },
            tick: 0,
            policy,
            rng_state: 0x9E3779B97F4A7C15,
        }
    }

    /// Zeroed tags and LRU ticks and empty payloads for `slots` slots.
    fn slot_arrays(slots: usize) -> (Vec<u64>, Vec<u64>, Vec<Option<S>>) {
        let mut states = Vec::new();
        states.resize_with(slots, || None);
        (vec![0; slots], vec![0; slots], states)
    }

    /// Walk the PLRU tree of `set` away from the way that was just
    /// touched (classic tree-PLRU update).
    fn plru_touch(&mut self, set: usize, way_idx: usize) {
        if !self.ways.is_power_of_two() {
            return;
        }
        let mut node = 0usize; // root
        let mut lo = 0usize;
        let mut hi = self.ways;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            let go_right = way_idx >= mid;
            // Point the bit AWAY from the accessed half.
            if go_right {
                self.plru[set] &= !(1 << node);
                lo = mid;
            } else {
                self.plru[set] |= 1 << node;
                hi = mid;
            }
            node = 2 * node + 1 + usize::from(go_right);
        }
    }

    /// The way tree-PLRU would evict from `set` (only called on full sets).
    fn plru_victim(&self, set: usize) -> usize {
        if !self.ways.is_power_of_two() {
            // NRU-ish fallback: oldest tick.
            return self.min_lru_slot(set);
        }
        let bits = self.plru[set];
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = self.ways;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            let go_right = bits & (1 << node) != 0;
            if go_right {
                lo = mid;
            } else {
                hi = mid;
            }
            node = 2 * node + 1 + usize::from(go_right);
        }
        lo
    }

    /// Set-relative slot holding the smallest LRU tick of a full set.
    /// Ticks are unique, so this matches the old per-set `min_by_key`.
    ///
    /// Branchless select form: the strict `<` keeps the *first* minimum
    /// exactly like [`Self::min_lru_slot_scalar`], but compiles to
    /// conditional moves instead of a data-dependent branch per way.
    fn min_lru_slot(&self, set: usize) -> usize {
        let base = set * self.ways;
        let occ = self.occ[set] as usize;
        let mut best = 0usize;
        let mut best_lru = u64::MAX;
        for (i, &l) in self.lru[base..base + occ].iter().enumerate() {
            let better = l < best_lru;
            best = if better { i } else { best };
            best_lru = if better { l } else { best_lru };
        }
        best
    }

    /// The original early-exit-branch argmin, kept as the differential
    /// reference for [`Self::min_lru_slot`].
    #[cfg(test)]
    fn min_lru_slot_scalar(&self, set: usize) -> usize {
        let base = set * self.ways;
        let occ = self.occ[set] as usize;
        let mut best = 0usize;
        let mut best_lru = u64::MAX;
        for (i, &l) in self.lru[base..base + occ].iter().enumerate() {
            if l < best_lru {
                best_lru = l;
                best = i;
            }
        }
        best
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Pick the victim slot for a full `set` under the active policy.
    fn victim_idx(&mut self, set: usize) -> usize {
        match self.policy {
            Replacement::Lru => self.min_lru_slot(set),
            Replacement::TreePlru => self.plru_victim(set),
            Replacement::Random => (self.next_rand() % self.ways as u64) as usize,
        }
    }

    #[inline]
    fn set_of(&self, line: LineAddr) -> usize {
        if self.set_mask != u64::MAX {
            (line.0 & self.set_mask) as usize
        } else {
            (line.0 % self.n_sets as u64) as usize
        }
    }

    /// Absolute slot of `line` within `set`, if resident.
    ///
    /// The probe compares the whole occupied span of the packed tag array
    /// at once via [`probe_mask`] — chunked branchless `u64` equality the
    /// autovectorizer lowers to `vpcmpeqq` — and picks the lowest set bit,
    /// which is exactly the first-match index the early-exit scalar scan
    /// ([`Self::find_scalar`], the differential reference) returns.
    #[inline]
    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        let occ = self.occ[set] as usize;
        if occ == 0 {
            // Also the only answer before the slot arrays exist.
            return None;
        }
        let base = set * self.ways;
        let mask = probe_mask(&self.tags[base..base + occ], tag);
        if mask == 0 {
            None
        } else {
            Some(base + mask.trailing_zeros() as usize)
        }
    }

    /// The original early-exit linear probe, kept as the differential
    /// reference for the chunked [`Self::find`].
    #[cfg(test)]
    fn find_scalar(&self, set: usize, tag: u64) -> Option<usize> {
        let base = set * self.ways;
        let occ = self.occ[set] as usize;
        if occ == 0 {
            return None;
        }
        self.tags[base..base + occ]
            .iter()
            .position(|&t| t == tag)
            .map(|i| base + i)
    }

    /// Hint the host CPU to pull `line`'s set metadata (tags, LRU ticks,
    /// payloads, occupancy, PLRU bits) into its cache ahead of an
    /// upcoming probe.
    ///
    /// Semantically a no-op — nothing is read or written, so a prefetched
    /// walk is bit-identical to an unprefetched one. The batch engine's
    /// staging pass issues these across independent pending walks: a
    /// long-walk set probe is otherwise a dependent chain of cold host
    /// loads over ~24 slice-sized arrays, and overlapping those misses is
    /// where most of the batch throughput comes from. A cache that was
    /// never filled has nothing to prefetch.
    #[inline]
    pub fn prefetch_set(&self, line: LineAddr) {
        if self.tags.is_empty() {
            return;
        }
        #[cfg(target_arch = "x86_64")]
        {
            use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let set = self.set_of(line);
            let base = set * self.ways;
            unsafe {
                // A 20-way tag span is 160 bytes: touch every host line
                // of it, plus the first line of each parallel array.
                let tags = self.tags.as_ptr().add(base) as *const i8;
                let tag_bytes = self.ways * core::mem::size_of::<u64>();
                let mut off = 0;
                while off < tag_bytes {
                    _mm_prefetch::<_MM_HINT_T0>(tags.add(off));
                    off += 64;
                }
                _mm_prefetch::<_MM_HINT_T0>(self.lru.as_ptr().add(base) as *const i8);
                _mm_prefetch::<_MM_HINT_T0>(self.states.as_ptr().add(base) as *const i8);
                _mm_prefetch::<_MM_HINT_T0>(self.occ.as_ptr().add(set) as *const i8);
                _mm_prefetch::<_MM_HINT_T0>(self.plru.as_ptr().add(set) as *const i8);
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = line;
    }

    fn bump(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Total line capacity.
    pub fn capacity(&self) -> usize {
        self.n_sets * self.ways
    }

    /// Whether `line` is resident.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find(self.set_of(line), line.0).is_some()
    }

    /// Shared view of the payload for `line`, without touching LRU.
    pub fn peek(&self, line: LineAddr) -> Option<&S> {
        let idx = self.find(self.set_of(line), line.0)?;
        self.states[idx].as_ref()
    }

    /// Mutable view of the payload for `line`, without touching LRU.
    pub fn peek_mut(&mut self, line: LineAddr) -> Option<&mut S> {
        let idx = self.find(self.set_of(line), line.0)?;
        self.states[idx].as_mut()
    }

    /// Access `line`: returns its payload and promotes it to MRU.
    pub fn access(&mut self, line: LineAddr) -> Option<&mut S> {
        let tick = self.bump();
        let s = self.set_of(line);
        let idx = self.find(s, line.0)?;
        self.plru_touch(s, idx - s * self.ways);
        self.lru[idx] = tick;
        self.states[idx].as_mut()
    }

    /// Insert `line` with `state`, evicting the LRU way of a full set.
    ///
    /// Returns the evicted `(line, payload)` if any. If `line` was already
    /// resident its payload is replaced (and returned as "evicted" with the
    /// same address) — callers that care should `access` first.
    pub fn insert(&mut self, line: LineAddr, state: S) -> Option<(LineAddr, S)> {
        let tick = self.bump();
        let s = self.set_of(line);
        let base = s * self.ways;
        if let Some(idx) = self.find(s, line.0) {
            self.plru_touch(s, idx - base);
            self.lru[idx] = tick;
            let old = self.states[idx].replace(state).expect("resident slot");
            return Some((line, old));
        }
        let occ = self.occ[s] as usize;
        if occ < self.ways {
            if self.tags.is_empty() {
                (self.tags, self.lru, self.states) = Self::slot_arrays(self.capacity());
            }
            let idx = base + occ;
            self.tags[idx] = line.0;
            self.lru[idx] = tick;
            self.states[idx] = Some(state);
            self.occ[s] += 1;
            self.plru_touch(s, occ);
            return None;
        }
        let victim = self.victim_idx(s);
        self.plru_touch(s, victim);
        let idx = base + victim;
        let vtag = self.tags[idx];
        self.tags[idx] = line.0;
        self.lru[idx] = tick;
        let vstate = self.states[idx].replace(state).expect("full set slot");
        Some((LineAddr(vtag), vstate))
    }

    /// Remove the absolute slot `idx` of set `s` with `Vec::swap_remove`
    /// semantics (the set's last slot moves into the hole).
    fn swap_remove_slot(&mut self, s: usize, idx: usize) -> S {
        let base = s * self.ways;
        let last = base + self.occ[s] as usize - 1;
        let state = self.states[idx].take().expect("occupied slot");
        if idx != last {
            self.tags[idx] = self.tags[last];
            self.lru[idx] = self.lru[last];
            self.states[idx] = self.states[last].take();
        }
        self.occ[s] -= 1;
        state
    }

    /// Remove `line`, returning its payload.
    pub fn remove(&mut self, line: LineAddr) -> Option<S> {
        let s = self.set_of(line);
        let idx = self.find(s, line.0)?;
        Some(self.swap_remove_slot(s, idx))
    }

    /// Iterate all resident lines (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &S)> {
        (0..self.n_sets).flat_map(move |s| {
            let base = s * self.ways;
            (base..base + self.occ[s] as usize)
                .map(move |idx| (LineAddr(self.tags[idx]), self.states[idx].as_ref().expect("occupied slot")))
        })
    }
}

/// The original nested-`Vec` implementation, kept verbatim as the
/// reference oracle for the differential proptests below: every public
/// operation of the flat array must return bit-identical results.
#[cfg(test)]
#[allow(missing_docs)]
pub mod reference {
    use super::{CacheGeometry, LineAddr, Replacement};

    #[derive(Debug, Clone)]
    struct Way<S> {
        tag: u64,
        lru: u64,
        state: S,
    }

    #[derive(Debug, Clone)]
    pub struct RefSetAssocCache<S> {
        sets: Vec<Vec<Way<S>>>,
        plru: Vec<u32>,
        ways: usize,
        tick: u64,
        len: usize,
        policy: Replacement,
        rng_state: u64,
    }

    impl<S> RefSetAssocCache<S> {
        pub fn with_policy(geom: CacheGeometry, policy: Replacement) -> Self {
            let sets = geom.sets() as usize;
            RefSetAssocCache {
                sets: (0..sets).map(|_| Vec::with_capacity(geom.ways as usize)).collect(),
                plru: vec![0; sets],
                ways: geom.ways as usize,
                tick: 0,
                len: 0,
                policy,
                rng_state: 0x9E3779B97F4A7C15,
            }
        }

        fn plru_touch(&mut self, set: usize, way_idx: usize) {
            if !self.ways.is_power_of_two() {
                return;
            }
            let mut node = 0usize;
            let mut lo = 0usize;
            let mut hi = self.ways;
            while hi - lo > 1 {
                let mid = (lo + hi) / 2;
                let go_right = way_idx >= mid;
                if go_right {
                    self.plru[set] &= !(1 << node);
                    lo = mid;
                } else {
                    self.plru[set] |= 1 << node;
                    hi = mid;
                }
                node = 2 * node + 1 + usize::from(go_right);
            }
        }

        fn plru_victim(&self, set: usize) -> usize {
            if !self.ways.is_power_of_two() {
                return self.sets[set]
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, w)| w.lru)
                    .map(|(i, _)| i)
                    .unwrap_or(0);
            }
            let bits = self.plru[set];
            let mut node = 0usize;
            let mut lo = 0usize;
            let mut hi = self.ways;
            while hi - lo > 1 {
                let mid = (lo + hi) / 2;
                let go_right = bits & (1 << node) != 0;
                if go_right {
                    lo = mid;
                } else {
                    hi = mid;
                }
                node = 2 * node + 1 + usize::from(go_right);
            }
            lo
        }

        fn next_rand(&mut self) -> u64 {
            let mut x = self.rng_state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.rng_state = x;
            x.wrapping_mul(0x2545F4914F6CDD1D)
        }

        fn victim_idx(&mut self, set: usize) -> usize {
            match self.policy {
                Replacement::Lru => self.sets[set]
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, w)| w.lru)
                    .map(|(i, _)| i)
                    .expect("full set is non-empty"),
                Replacement::TreePlru => self.plru_victim(set),
                Replacement::Random => (self.next_rand() % self.ways as u64) as usize,
            }
        }

        fn set_of(&self, line: LineAddr) -> usize {
            (line.0 % self.sets.len() as u64) as usize
        }

        fn bump(&mut self) -> u64 {
            self.tick += 1;
            self.tick
        }

        #[allow(clippy::len_without_is_empty)]
        pub fn len(&self) -> usize {
            self.len
        }

        pub fn contains(&self, line: LineAddr) -> bool {
            let s = self.set_of(line);
            self.sets[s].iter().any(|w| w.tag == line.0)
        }

        pub fn peek(&self, line: LineAddr) -> Option<&S> {
            let s = self.set_of(line);
            self.sets[s].iter().find(|w| w.tag == line.0).map(|w| &w.state)
        }

        pub fn access(&mut self, line: LineAddr) -> Option<&mut S> {
            let tick = self.bump();
            let s = self.set_of(line);
            let idx = self.sets[s].iter().position(|w| w.tag == line.0)?;
            self.plru_touch(s, idx);
            let way = &mut self.sets[s][idx];
            way.lru = tick;
            Some(&mut way.state)
        }

        pub fn insert(&mut self, line: LineAddr, state: S) -> Option<(LineAddr, S)> {
            let tick = self.bump();
            let ways = self.ways;
            let s = self.set_of(line);
            if let Some(idx) = self.sets[s].iter().position(|w| w.tag == line.0) {
                self.plru_touch(s, idx);
                let w = &mut self.sets[s][idx];
                w.lru = tick;
                let old = std::mem::replace(&mut w.state, state);
                return Some((line, old));
            }
            if self.sets[s].len() < ways {
                let idx = self.sets[s].len();
                self.sets[s].push(Way { tag: line.0, lru: tick, state });
                self.plru_touch(s, idx);
                self.len += 1;
                return None;
            }
            let victim_idx = self.victim_idx(s);
            self.plru_touch(s, victim_idx);
            let victim = std::mem::replace(
                &mut self.sets[s][victim_idx],
                Way { tag: line.0, lru: tick, state },
            );
            Some((LineAddr(victim.tag), victim.state))
        }

        pub fn remove(&mut self, line: LineAddr) -> Option<S> {
            let s = self.set_of(line);
            let set = &mut self.sets[s];
            let idx = set.iter().position(|w| w.tag == line.0)?;
            self.len -= 1;
            Some(set.swap_remove(idx).state)
        }

        pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &S)> {
            self.sets
                .iter()
                .flat_map(|set| set.iter().map(|w| (LineAddr(w.tag), &w.state)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache<u32> {
        // 4 sets x 2 ways = 8 lines of 64 B.
        SetAssocCache::new(CacheGeometry::new(8 * 64, 2))
    }

    #[test]
    fn insert_lookup_remove() {
        let mut c = tiny();
        assert!(c.insert(LineAddr(5), 50).is_none());
        assert_eq!(c.peek(LineAddr(5)), Some(&50));
        assert!(c.contains(LineAddr(5)));
        assert_eq!(c.remove(LineAddr(5)), Some(50));
        assert!(!c.contains(LineAddr(5)));
        assert_eq!(c.iter().count(), 0);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Lines 0, 4, 8 all map to set 0 (4 sets).
        c.insert(LineAddr(0), 0);
        c.insert(LineAddr(4), 4);
        // Touch line 0 so line 4 is LRU.
        c.access(LineAddr(0));
        let evicted = c.insert(LineAddr(8), 8).unwrap();
        assert_eq!(evicted, (LineAddr(4), 4));
        assert!(c.contains(LineAddr(0)));
        assert!(c.contains(LineAddr(8)));
    }

    #[test]
    fn reinsert_replaces_payload() {
        let mut c = tiny();
        c.insert(LineAddr(1), 10);
        let old = c.insert(LineAddr(1), 11).unwrap();
        assert_eq!(old, (LineAddr(1), 10));
        assert_eq!(c.peek(LineAddr(1)), Some(&11));
        assert_eq!(c.iter().count(), 1);
    }

    #[test]
    fn tree_plru_protects_recently_touched_ways() {
        // 1 set x 4 ways.
        let mut c: SetAssocCache<u32> =
            SetAssocCache::with_policy(CacheGeometry::new(4 * 64, 4), Replacement::TreePlru);
        for i in 0..4 {
            c.insert(LineAddr(i), i as u32);
        }
        // Touch lines 0 and 1; the victim must come from {2, 3}.
        c.access(LineAddr(0));
        c.access(LineAddr(1));
        let (victim, _) = c.insert(LineAddr(10), 10).unwrap();
        assert!(victim == LineAddr(2) || victim == LineAddr(3), "{victim}");
        assert!(c.contains(LineAddr(0)) && c.contains(LineAddr(1)));
    }

    #[test]
    fn random_policy_is_deterministic_and_bounded() {
        let run = || {
            let mut c: SetAssocCache<()> =
                SetAssocCache::with_policy(CacheGeometry::new(4 * 64, 4), Replacement::Random);
            let mut victims = Vec::new();
            for i in 0..64u64 {
                if let Some((v, _)) = c.insert(LineAddr(i), ()) {
                    victims.push(v.0);
                }
            }
            assert!(c.iter().count() <= c.capacity());
            victims
        };
        assert_eq!(run(), run(), "same seed, same victim stream");
        // Random evicts more than one distinct way over time.
        let distinct: std::collections::HashSet<u64> =
            run().into_iter().map(|v| v % 4).collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn plru_differs_from_lru_on_adversarial_pattern() {
        // Zig-zag access pattern where PLRU's approximation diverges from
        // true LRU: just assert both stay correct containers.
        let mk = |p| -> SetAssocCache<u32> {
            SetAssocCache::with_policy(CacheGeometry::new(8 * 64, 8), p)
        };
        for policy in [Replacement::Lru, Replacement::TreePlru, Replacement::Random] {
            let mut c = mk(policy);
            for i in 0..1000u64 {
                c.insert(LineAddr(i % 24), i as u32);
                c.access(LineAddr(i % 7));
            }
            assert!(c.iter().count() <= c.capacity(), "{policy:?}");
        }
    }

    #[test]
    fn capacity_matches_geometry() {
        let c = tiny();
        assert_eq!(c.capacity(), 8);
    }

    #[test]
    fn peek_does_not_disturb_lru() {
        let mut c = tiny();
        c.insert(LineAddr(0), 0);
        c.insert(LineAddr(4), 4);
        // Peek at 0 only; 0 is still older than 4 (peek must not promote).
        c.peek(LineAddr(0));
        let evicted = c.insert(LineAddr(8), 8).unwrap();
        assert_eq!(evicted.0, LineAddr(0));
    }

    #[test]
    fn non_power_of_two_ways_basics() {
        // 4 sets x 3 ways: tree-PLRU falls back to oldest-tick.
        let mut c: SetAssocCache<u32> =
            SetAssocCache::with_policy(CacheGeometry::new(12 * 64, 3), Replacement::TreePlru);
        for i in 0..12u64 {
            c.insert(LineAddr(i), i as u32);
        }
        assert_eq!(c.iter().count(), 12);
        // Set 0 holds lines 0, 4, 8; inserting 12 evicts the oldest (0).
        let (victim, _) = c.insert(LineAddr(12), 12).unwrap();
        assert_eq!(victim, LineAddr(0));
    }
}

#[cfg(test)]
mod proptests {
    use super::reference::RefSetAssocCache;
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// Reference model: an unbounded map + per-set recency lists.
    #[derive(Default)]
    struct RefModel {
        map: HashMap<u64, u32>,
        recency: HashMap<u64, Vec<u64>>, // set -> lines, LRU first
        sets: u64,
        ways: usize,
    }

    impl RefModel {
        fn new(sets: u64, ways: usize) -> Self {
            RefModel { sets, ways, ..Default::default() }
        }
        fn touch(&mut self, line: u64) {
            let set = line % self.sets;
            let rec = self.recency.entry(set).or_default();
            rec.retain(|&l| l != line);
            rec.push(line);
        }
        fn insert(&mut self, line: u64, v: u32) -> Option<u64> {
            let set = line % self.sets;
            if let std::collections::hash_map::Entry::Occupied(mut e) = self.map.entry(line) {
                e.insert(v);
                self.touch(line);
                return Some(line);
            }
            let resident =
                self.recency.get(&set).map(|r| r.len()).unwrap_or(0);
            let mut evicted = None;
            if resident == self.ways {
                let victim = self.recency.get_mut(&set).unwrap().remove(0);
                self.map.remove(&victim);
                evicted = Some(victim);
            }
            self.map.insert(line, v);
            self.touch(line);
            evicted
        }
        fn remove(&mut self, line: u64) -> Option<u32> {
            let v = self.map.remove(&line)?;
            let set = line % self.sets;
            if let Some(rec) = self.recency.get_mut(&set) {
                rec.retain(|&l| l != line);
            }
            Some(v)
        }
    }

    proptest! {
        /// The cache agrees with a simple reference model on residency and
        /// eviction choice for arbitrary access/insert interleavings.
        #[test]
        fn matches_reference_model(
            ops in proptest::collection::vec((0u64..32, any::<bool>()), 1..400)
        ) {
            let mut c: SetAssocCache<u32> =
                SetAssocCache::new(CacheGeometry::new(8 * 64, 2));
            let mut m = RefModel::new(4, 2);
            for (i, &(line, is_insert)) in ops.iter().enumerate() {
                let la = LineAddr(line);
                if is_insert {
                    let got = c.insert(la, i as u32).map(|(l, _)| l.0);
                    let want = m.insert(line, i as u32);
                    prop_assert_eq!(got, want, "insert of {}", line);
                } else {
                    let got = c.access(la).is_some();
                    let want = m.map.contains_key(&line);
                    prop_assert_eq!(got, want, "access of {}", line);
                    if want { m.touch(line); }
                }
                prop_assert_eq!(c.iter().count(), m.map.len());
            }
        }

        /// LRU behaviour matches the model through remove interleavings,
        /// on a non-power-of-two way count.
        #[test]
        fn matches_reference_model_with_removals(
            ops in proptest::collection::vec((0u64..36, 0u8..4), 1..400)
        ) {
            // 4 sets x 3 ways (non-power-of-two associativity).
            let mut c: SetAssocCache<u32> =
                SetAssocCache::new(CacheGeometry::new(12 * 64, 3));
            let mut m = RefModel::new(4, 3);
            for (i, &(line, op)) in ops.iter().enumerate() {
                let la = LineAddr(line);
                match op {
                    0..=1 => {
                        let got = c.insert(la, i as u32).map(|(l, _)| l.0);
                        let want = m.insert(line, i as u32);
                        prop_assert_eq!(got, want, "insert of {}", line);
                    }
                    2 => {
                        let got = c.access(la).is_some();
                        let want = m.map.contains_key(&line);
                        prop_assert_eq!(got, want, "access of {}", line);
                        if want { m.touch(line); }
                    }
                    _ => {
                        prop_assert_eq!(c.remove(la), m.remove(line), "remove of {}", line);
                    }
                }
                prop_assert_eq!(c.iter().count(), m.map.len());
            }
        }

        /// Occupancy never exceeds capacity and residency is consistent.
        #[test]
        fn occupancy_bounded(lines in proptest::collection::vec(0u64..1000, 1..500)) {
            let mut c: SetAssocCache<()> =
                SetAssocCache::new(CacheGeometry::new(16 * 64, 4));
            for &l in &lines {
                c.insert(LineAddr(l), ());
                prop_assert!(c.iter().count() <= c.capacity());
            }
            for (l, _) in c.iter() {
                prop_assert!(c.contains(l));
            }
        }

        /// The chunked SIMD-friendly probe and the branchless argmin agree
        /// with their retained scalar references on every set, at every
        /// point of a random operation stream, across way counts that
        /// exercise both the 4-wide chunks and the scalar tail.
        #[test]
        fn simd_probe_matches_scalar_reference(
            ways_sel in 0u8..5,
            ops in proptest::collection::vec((0u64..96, any::<bool>()), 1..300),
            probes in proptest::collection::vec(0u64..96, 1..50),
        ) {
            // 4 sets with 2 / 3 / 5 / 8 / 20 ways (20 = the L3 slice shape).
            let ways = [2u32, 3, 5, 8, 20][ways_sel as usize];
            let geom = CacheGeometry::new(4 * ways as u64 * 64, ways);
            let mut c: SetAssocCache<u32> = SetAssocCache::new(geom);
            for (i, &(line, is_insert)) in ops.iter().enumerate() {
                if is_insert {
                    c.insert(LineAddr(line), i as u32);
                } else {
                    c.access(LineAddr(line));
                }
            }
            for set in 0..4usize {
                for &p in &probes {
                    prop_assert_eq!(
                        c.find(set, p),
                        c.find_scalar(set, p),
                        "find diverged: set {} tag {}", set, p
                    );
                }
                if c.occ[set] > 0 {
                    prop_assert_eq!(
                        c.min_lru_slot(set),
                        c.min_lru_slot_scalar(set),
                        "argmin diverged on set {}", set
                    );
                }
            }
        }

        /// Full-API differential against the retained nested-Vec reference
        /// implementation: every operation's result — including victim
        /// identity under each policy, swap-remove slot reordering, payload
        /// returns, and iteration order — must be bit-identical, across
        /// power-of-two and non-power-of-two way counts.
        #[test]
        fn bit_identical_to_nested_vec_reference(
            policy_sel in 0u8..3,
            ways_sel in 0u8..4,
            cold in 0usize..6,
            ops in proptest::collection::vec((0u64..64, 0u8..7), 1..600)
        ) {
            let policy = [Replacement::Lru, Replacement::TreePlru, Replacement::Random]
                [policy_sel as usize];
            // 4 sets with 2 / 3 / 5 / 8 ways.
            let ways = [2u32, 3, 5, 8][ways_sel as usize];
            let geom = CacheGeometry::new(4 * ways as u64 * 64, ways);
            let mut new: SetAssocCache<u32> = SetAssocCache::with_policy(geom, policy);
            let mut old: RefSetAssocCache<u32> = RefSetAssocCache::with_policy(geom, policy);
            // Before the first insert the slot arrays do not exist: every
            // path that reads or removes must still match the reference.
            for &(line, _) in ops.iter().take(cold) {
                let la = LineAddr(line);
                new.prefetch_set(la);
                prop_assert_eq!(new.peek(la), old.peek(la), "cold peek {}", line);
                prop_assert_eq!(new.contains(la), old.contains(la));
                prop_assert_eq!(new.remove(la), old.remove(la), "cold remove {}", line);
                let a = new.access(la).map(|s| *s);
                prop_assert_eq!(a, old.access(la).map(|s| *s), "cold access {}", line);
                prop_assert_eq!(new.iter().count(), 0);
            }
            if cold > 0 {
                prop_assert!(new.tags.is_empty(), "no slot array before the first insert");
                // A clone stays unallocated too, and the differential
                // below runs on the clone.
                new = new.clone();
                prop_assert!(new.tags.is_empty());
            }
            for (i, &(line, op)) in ops.iter().enumerate() {
                let la = LineAddr(line);
                let v = i as u32;
                match op {
                    0..=2 => {
                        prop_assert_eq!(new.insert(la, v), old.insert(la, v), "insert {}", line);
                    }
                    3 => {
                        let a = new.access(la).map(|s| *s);
                        let b = old.access(la).map(|s| *s);
                        prop_assert_eq!(a, b, "access {}", line);
                    }
                    4 => {
                        prop_assert_eq!(new.remove(la), old.remove(la), "remove {}", line);
                    }
                    5 => {
                        prop_assert_eq!(new.peek(la), old.peek(la), "peek {}", line);
                        prop_assert_eq!(new.contains(la), old.contains(la));
                    }
                    _ => {
                        let a: Vec<(LineAddr, u32)> = new.iter().map(|(l, &s)| (l, s)).collect();
                        let b: Vec<(LineAddr, u32)> = old.iter().map(|(l, &s)| (l, s)).collect();
                        prop_assert_eq!(a, b, "iteration order diverged");
                    }
                }
                prop_assert_eq!(new.iter().count(), old.len());
            }
        }
    }
}
