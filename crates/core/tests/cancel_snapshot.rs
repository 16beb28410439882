//! Cancellation and its edge cases.
//!
//! A supervisor's watchdog can fire at any instant, including mid-walk.
//! These tests pin the guarantees the campaign supervisor leans on:
//!
//! * a system built or forked under an ambient [`CancelToken`] aborts its
//!   walks once the token fires, and one built without a token never
//!   does;
//! * a cancelled walk refuses with the typed [`SimError::Cancelled`]
//!   *before touching any state*: a fork taken after the refused walks
//!   continues exactly like one taken before them.

use hswx_engine::{CancelToken, SimTime};
use hswx_haswell::{CoherenceMode, SimError, System, SystemConfig};
use hswx_mem::{CoreId, LineAddr};
use std::time::Duration;

fn cod_system() -> System {
    System::new(SystemConfig::e5_2680_v3(CoherenceMode::ClusterOnDie))
}

/// Build a system that captured `token` as its ambient cancellation
/// handle, with a few warmup walks run before the token is installed.
fn warmed_with_token(token: CancelToken) -> (System, SimTime) {
    let mut sys = System::new(SystemConfig::e5_8core(CoherenceMode::SourceSnoop));
    let mut t = SimTime::ZERO;
    for i in 0..64 {
        t = sys.read(CoreId((i % 16) as u16), LineAddr(i * 3), t).done;
    }
    // A fork captures the ambient token, so fork under the guard: the
    // warm state carries over and the fork answers to `token`.
    let _guard = CancelToken::set_ambient(token);
    (sys.fork(), t)
}

#[test]
fn ambient_cancellation_aborts_walks() {
    let token = CancelToken::new();
    let _guard = CancelToken::set_ambient(token.clone());
    let mut sys = cod_system();
    assert!(sys.try_read(CoreId(0), LineAddr(1), SimTime::ZERO).is_ok());
    token.cancel();
    let err = sys.try_read(CoreId(0), LineAddr(2), SimTime::from_ns(500.0)).unwrap_err();
    assert!(matches!(err, SimError::Cancelled { .. }));
    let err = sys.try_write(CoreId(0), LineAddr(3), SimTime::from_ns(900.0)).unwrap_err();
    assert!(matches!(err, SimError::Cancelled { .. }));
}

#[test]
fn systems_without_ambient_token_never_cancel() {
    let mut sys = cod_system();
    for i in 0..64 {
        assert!(sys
            .try_read(CoreId(0), LineAddr(100 + i), SimTime::from_ns(i as f64 * 300.0))
            .is_ok());
    }
}

#[test]
fn zero_time_budget_refuses_the_first_walk() {
    let token = CancelToken::with_deadline(Duration::ZERO);
    assert!(token.is_cancelled(), "zero-budget deadline latches eagerly");
    let (mut sys, t) = warmed_with_token(token);
    let digest = sys.state_digest();
    match sys.try_read(CoreId(0), LineAddr(9999), t) {
        Err(SimError::Cancelled { .. }) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    assert_eq!(sys.state_digest(), digest, "refused walk must not touch state");
}

#[test]
fn negative_remaining_budget_saturates_and_refuses() {
    // `budget - elapsed` past the deadline saturates to Duration::ZERO.
    let remaining = Duration::from_millis(1).saturating_sub(Duration::from_secs(5));
    let token = CancelToken::with_deadline(remaining);
    assert!(token.is_cancelled());
    let (mut sys, t) = warmed_with_token(token);
    assert!(matches!(
        sys.try_write(CoreId(3), LineAddr(4), t),
        Err(SimError::Cancelled { .. })
    ));
}

#[test]
fn cancelled_walks_leave_the_state_bit_identical() {
    let token = CancelToken::new();
    let (mut sys, t) = warmed_with_token(token.clone());
    // Forks taken with no ambient token never cancel, so both can run
    // the same continuation.
    let mut before = sys.fork();
    token.cancel();
    for i in 0..10u64 {
        assert!(matches!(
            sys.try_read(CoreId((i % 16) as u16), LineAddr(100 + i), t),
            Err(SimError::Cancelled { .. })
        ));
    }
    let mut after = sys.fork();
    assert_eq!(before.txns(), after.txns(), "refused walks are not transactions");
    let (mut ta, mut tb) = (t, t);
    for i in 0..64u64 {
        let (core, line) = (CoreId((i * 5 % 16) as u16), LineAddr(i * 11 % 300));
        let (a, b) = if i % 3 == 0 {
            (before.write(core, line, ta), after.write(core, line, tb))
        } else {
            (before.read(core, line, ta), after.read(core, line, tb))
        };
        assert_eq!(a, b, "walk {i} diverged after the refused walks");
        (ta, tb) = (a.done, b.done);
    }
    assert_eq!(format!("{:?}", before.stats), format!("{:?}", after.stats));
    assert_eq!(before.state_digest(), after.state_digest());
}
