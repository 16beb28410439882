//! # hswx-workloads — SPEC OMP2012 / SPEC MPI2007 application proxies
//!
//! The paper's §VIII runs SPEC OMP2012 (14 shared-memory applications) and
//! SPEC MPI2007 (13 message-passing applications) under the three coherence
//! configurations. We cannot run SPEC (proprietary sources, hours of
//! runtime), so each application is replaced by a **proxy**: a synthetic
//! thread-per-core workload parameterized by the memory-behaviour traits
//! that determine coherence-mode sensitivity —
//!
//! * working-set size and NUMA locality,
//! * the fraction of accesses to lines *shared across nodes* (the trait
//!   that exposes COD's broadcast worst cases, which the paper identifies
//!   as the cause of 362.fma3d's and 371.applu331's slowdowns),
//! * write intensity (RFO / migratory-line traffic),
//! * bandwidth-boundedness (streaming window) vs latency-boundedness, and
//! * compute intensity (ns of work per memory access).
//!
//! The proxies exercise the same simulator paths the real applications
//! would stress, so the *relative runtime* across protocol configurations —
//! Figure 10's content — is reproduced by mechanism rather than curve
//! fitting. `DESIGN.md` documents this substitution.

pub mod proxy;
pub mod suites;

pub use proxy::{run_proxy, AppProxy, Suite};
pub use suites::{mpi2007_proxies, omp2012_proxies};
