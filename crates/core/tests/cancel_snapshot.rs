//! Cancellation, including its edge cases at the snapshot boundary.
//!
//! A supervisor's watchdog can fire at any instant — including while a
//! campaign is mid-walk with a snapshot file half-written. These tests
//! pin the guarantees the campaign supervisor leans on:
//!
//! * a system built under an ambient [`CancelToken`] aborts its walks
//!   once the token fires, and one built without a token never does;
//! * a cancelled walk refuses with the typed [`SimError::Cancelled`]
//!   *before touching any state* (digest and re-encoded frame unchanged);
//! * snapshot files are **whole-or-absent**: because [`System::save_snapshot`]
//!   goes through `atomic_write` (tmp + rename), a cancellation — even one
//!   racing the write from another thread — leaves either the previous
//!   complete frame or the new complete frame on disk, never a torn one.

use hswx_engine::{CancelToken, SimTime};
use hswx_haswell::{CoherenceMode, SimError, System, SystemConfig};
use hswx_mem::{CoreId, LineAddr};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hswx-cancel-snap-{tag}-{}", std::process::id()))
}

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
    // The token is captured at construction, so rebuild from a snapshot
    // under the ambient guard — exactly how a supervisor restores a
    // checkpointed job under its watchdog.
    let frame = sys.snapshot();
    let _guard = CancelToken::set_ambient(token);
    let sys = System::restore(&frame).expect("clean snapshot restores");
    (sys, t)
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
fn cancelled_walks_leave_the_frame_bit_identical() {
    let token = CancelToken::new();
    let (mut sys, t) = warmed_with_token(token.clone());
    let frame = sys.snapshot();
    token.cancel();
    for i in 0..10u64 {
        assert!(matches!(
            sys.try_read(CoreId((i % 16) as u16), LineAddr(100 + i), t),
            Err(SimError::Cancelled { .. })
        ));
    }
    assert_eq!(sys.snapshot(), frame, "cancelled walks re-encode to the same bytes");
}

#[test]
fn cancellation_mid_campaign_leaves_a_whole_snapshot_on_disk() {
    let path = tmp("mid-campaign");
    let _ = std::fs::remove_file(&path);
    let token = CancelToken::new();
    let (mut sys, mut t) = warmed_with_token(token.clone());

    // Campaign loop: walk, then checkpoint. The token fires mid-loop.
    let mut last_saved_digest = None;
    for i in 0..40u64 {
        if i == 17 {
            token.cancel();
        }
        match sys.try_read(CoreId((i % 16) as u16), LineAddr(i * 7), t) {
            Ok(out) => t = out.done,
            Err(SimError::Cancelled { .. }) => break,
            Err(e) => panic!("unexpected walk error: {e}"),
        }
        sys.save_snapshot(&path, false).expect("checkpoint write");
        last_saved_digest = Some(sys.state_digest());
    }
    let last_saved_digest = last_saved_digest.expect("at least one checkpoint before the cancel");

    // Whole-or-absent: what's on disk is the *complete* last checkpoint.
    let resumed = System::load_snapshot(&path).expect("disk frame is whole");
    assert_eq!(resumed.state_digest(), last_saved_digest);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn concurrent_cancel_never_tears_the_snapshot_file() {
    let path = tmp("race");
    let _ = std::fs::remove_file(&path);
    let sys = {
        let mut sys = System::new(SystemConfig::e5_8core(CoherenceMode::SourceSnoop));
        let mut t = SimTime::ZERO;
        for i in 0..64 {
            t = sys.read(CoreId((i % 16) as u16), LineAddr(i * 3), t).done;
        }
        sys
    };
    let expected = sys.state_digest();
    let first_write_done = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        let writer_flag = Arc::clone(&first_write_done);
        let writer_path = path.clone();
        let writer = scope.spawn(move || {
            // Keep rewriting the same frame while the main thread cancels
            // and reads: every rename publishes a complete file.
            for _ in 0..50 {
                sys.save_snapshot(&writer_path, false).expect("atomic save");
                writer_flag.store(true, Ordering::Release);
            }
        });

        while !first_write_done.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
        // The "cancellation storm" side: fire tokens and reload the file
        // concurrently with the writer's renames. Every load must see a
        // whole frame with the writer's digest.
        for _ in 0..25 {
            let token = CancelToken::with_deadline(Duration::ZERO);
            assert!(token.is_cancelled());
            let loaded = System::load_snapshot(&path).expect("no torn reads through rename");
            assert_eq!(loaded.state_digest(), expected);
        }
        writer.join().expect("writer thread");
    });
    let _ = std::fs::remove_file(&path);
}
