use hswx_benchmark::units::{deal, pass_units, Workload};
use hswx_engine::DetRng;

#[test]
fn a_pass_deals_every_unit_once_keeping_slots_together() {
    for (w, n) in Workload::ALL.into_iter().zip([627, 327, 81, 2]) {
        let units = pass_units(w);
        assert_eq!(units.len(), n, "{}", w.name());
        for seed in 0..4 {
            let rounds = deal(&units, w.rounds_per_pass(), &mut DetRng::new(seed));
            assert_eq!(
                rounds,
                deal(&units, w.rounds_per_pass(), &mut DetRng::new(seed))
            );
            assert_eq!(rounds.len(), w.rounds_per_pass());
            let mut all: Vec<usize> = rounds.concat();
            all.sort();
            assert_eq!(all, (0..n).collect::<Vec<_>>());
            for r in &rounds {
                for &i in r {
                    let slot = units[i].slot;
                    let together = r.iter().filter(|&&j| units[j].slot == slot).count();
                    assert_eq!(together, units.iter().filter(|u| u.slot == slot).count());
                }
            }
        }
    }
}

#[test]
fn every_round_gets_the_same_mix() {
    let steps = |w: Workload, family: usize, seed: u64| {
        let units = pass_units(w);
        deal(&units, w.rounds_per_pass(), &mut DetRng::new(seed))
            .into_iter()
            .map(|r| {
                let mut s: Vec<usize> = r
                    .iter()
                    .filter(|&&i| units[i].slot.family == family)
                    .map(|&i| units[i].slot.step)
                    .collect();
                s.sort();
                s
            })
            .collect::<Vec<_>>()
    };
    for seed in 0..4 {
        // One point of every size per latency round.
        for r in steps(Workload::LatencySweep, 0, seed) {
            assert_eq!(r, (0..33).collect::<Vec<_>>());
        }
        // One Table VII cell of every core count per bandwidth round.
        for r in steps(Workload::BandwidthStream, 1, seed) {
            assert_eq!(r, (0..6).collect::<Vec<_>>());
        }
    }
}
