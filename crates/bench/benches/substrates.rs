//! Criterion benches for the substrate crates: cache array, DRAM model,
//! and single-access walk throughput.

use criterion::{criterion_group, criterion_main, Criterion};
use hswx_engine::SimTime;
use hswx_haswell::{CoherenceMode, System, SystemConfig};
use hswx_mem::{
    CacheGeometry, DdrTimings, DramChannel, LineAddr, SetAssocCache,
};

fn cache_array(c: &mut Criterion) {
    c.bench_function("mem/l3_slice_insert_access_10k", |b| {
        b.iter(|| {
            let mut cache: SetAssocCache<u32> =
                SetAssocCache::new(CacheGeometry::l3_slice_haswell());
            for i in 0..10_000u64 {
                cache.insert(LineAddr(i * 17), i as u32);
                cache.access(LineAddr((i / 2) * 17));
            }
            cache.len()
        })
    });
}

fn dram_channel(c: &mut Criterion) {
    c.bench_function("mem/dram_channel_10k_accesses", |b| {
        b.iter(|| {
            let mut ch = DramChannel::new(DdrTimings::ddr4_2133());
            let mut last = SimTime::ZERO;
            for i in 0..10_000u64 {
                let (t, _) = ch.access(SimTime(i * 5_000), LineAddr(i * 3), i % 4 == 0);
                last = last.max(t);
            }
            last
        })
    });
}

fn access_walks(c: &mut Criterion) {
    c.bench_function("haswell/read_walk_l3_hit", |b| {
        let mut sys = System::new(SystemConfig::e5_2680_v3(CoherenceMode::SourceSnoop));
        let line = sys.topo.numa_base(hswx_mem::NodeId(0)).line();
        let mut t = sys.read(hswx_mem::CoreId(0), line, SimTime::ZERO).done;
        // Evict from private caches so every iteration hits the L3 path.
        b.iter(|| {
            sys.demote_to_l3(hswx_mem::CoreId(0), line, t);
            let out = sys.read(hswx_mem::CoreId(0), line, t);
            t = out.done;
            out.source
        })
    });
    c.bench_function("haswell/read_walk_cold_memory", |b| {
        let mut sys = System::new(SystemConfig::e5_2680_v3(CoherenceMode::ClusterOnDie));
        let base = sys.topo.numa_base(hswx_mem::NodeId(0)).line();
        let mut i = 0u64;
        let mut t = SimTime::ZERO;
        b.iter(|| {
            i += 1;
            let out = sys.read(hswx_mem::CoreId(0), LineAddr(base.0 + i), t);
            t = out.done;
            out.source
        })
    });
}

criterion_group! {
    name = substrates;
    config = Criterion::default().sample_size(20);
    targets = cache_array, dram_channel, access_walks
}
criterion_main!(substrates);
