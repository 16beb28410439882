//! # hswx-coherence — MESIF protocol rules, directory, and HitME cache
//!
//! The protocol brain of the simulator, kept free of timing and topology so
//! every rule is unit-testable in isolation:
//!
//! * [`state`] — the MESIF line states (core-level and node-level) and the
//!   2-bit in-memory directory states of the directory-assisted-snoop (DAS)
//!   protocol: *remote-invalid*, *snoop-all*, *shared*.
//! * [`presence`] — node bitsets (the 8-bit presence vectors the HitME cache
//!   stores).
//! * [`l3meta`] — per-line L3 tag metadata: node-level MESIF state plus
//!   core-valid bits, and the *silent-eviction* rules that make the paper's
//!   44.4 ns "exclusive line needs a core snoop" effect happen.
//! * [`dir`] — the in-memory directory (conceptually stored in DRAM ECC
//!   bits; modelled as a side table with piggybacked read cost).
//! * [`hitme`] — the 14 KiB per-home-agent "HitME" directory cache with the
//!   AllocateShared allocation policy (Moga et al., US 8,631,210).
//! * [`decision`] — pure decision tables: what a caching agent does with a
//!   core request given its L3 lookup, and which snoops a home agent sends
//!   under source snooping, home snooping, or home snooping + directory.
//!
//! The `hswx-haswell` crate drives these rules inside the discrete-event
//! system and attaches latencies/bandwidths to each step.

pub mod decision;
pub mod dir;
pub mod hitme;
pub mod l3meta;
pub mod presence;
pub mod state;

pub use decision::{
    ca_local_action, dir_after_read, dir_after_rfo, dir_after_writeback,
    fill_state_after_read, ha_read_arrival_plan, ha_read_dir_plan, CaAction, DataSource, DirPlan,
    HaPlan, ProtocolConfig, ReqType, SnoopMode,
};
pub use hitme::HitMeEntry;
pub use dir::InMemoryDirectory;
pub use hitme::HitMeCache;
pub use l3meta::L3Meta;
pub use presence::NodeSet;
pub use state::{CoreState, DirState, MesifState};
