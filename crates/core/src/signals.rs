//! Minimal POSIX signal plumbing, dependency-free.
//!
//! The multi-process launcher and the serving daemon both need three
//! things no std API provides: notice SIGTERM/SIGINT, make sure no
//! spawned `__pace-worker` outlives its parent, and exit with the
//! conventional `128 + signo` status. This module does exactly that
//! with three `extern "C"` declarations against libc (which every Linux
//! process already links) — no external crate.
//!
//! Design constraints respected here:
//!
//! * The handler itself is async-signal-safe: it only stores into an
//!   atomic. All real work (killing children, exiting) happens on a
//!   normal thread that polls [`pending`].
//! * Child pids live in a global registry guarded by a `Mutex`; the
//!   watchdog SIGKILLs and reaps whatever is registered at the moment
//!   the signal lands, so an inopportune signal cannot leak workers. A
//!   child is spawned and registered under that lock
//!   ([`spawn_registered`]), and the watchdog holds it from its sweep to
//!   the exit, so no child is forked unseen by the sweep.
//! * Handlers are installed once per process ([`install`] is
//!   idempotent); repeated launches reuse them.

use std::process::{Child, Command};
use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// SIGINT (Ctrl-C).
pub const SIGINT: i32 = 2;
/// SIGKILL (cannot be caught; used to stop children).
pub const SIGKILL: i32 = 9;
/// SIGTERM (polite termination request).
pub const SIGTERM: i32 = 15;

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
    fn kill(pid: i32, sig: i32) -> i32;
    fn waitpid(pid: i32, status: *mut i32, options: i32) -> i32;
}

/// Last fatal signal received, 0 if none.
static PENDING: AtomicI32 = AtomicI32::new(0);
static INSTALLED: AtomicBool = AtomicBool::new(false);
/// Live child pids that must not outlive this process.
static CHILDREN: Mutex<Vec<i32>> = Mutex::new(Vec::new());

extern "C" fn on_fatal_signal(signum: i32) {
    // Async-signal-safe: a single atomic store.
    PENDING.store(signum, Ordering::SeqCst);
}

/// Install SIGTERM/SIGINT handlers (idempotent). After this, a fatal
/// signal no longer kills the process outright — it parks in
/// [`pending`] for a polling loop to act on, so the launcher can kill
/// its workers and the daemon can finish its checkpoint first.
pub fn install() {
    if INSTALLED.swap(true, Ordering::SeqCst) {
        return;
    }
    let handler = on_fatal_signal as *const () as usize;
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

/// The fatal signal received so far, if any.
pub fn pending() -> Option<i32> {
    match PENDING.load(Ordering::SeqCst) {
        0 => None,
        s => Some(s),
    }
}

/// Test hook: forget a previously received signal.
pub fn clear_pending() {
    PENDING.store(0, Ordering::SeqCst);
}

/// Track a spawned child so a fatal signal reaps it.
pub fn register_child(pid: u32) {
    CHILDREN.lock().unwrap().push(pid as i32);
}

/// Spawn `cmd` and register the child while holding the registry lock,
/// so a fatal signal's sweep either waits for the registration or runs
/// before the child exists.
pub fn spawn_registered(cmd: &mut Command) -> std::io::Result<Child> {
    // Every update leaves the pid list valid, so a poisoned lock is safe
    // to recover.
    let mut children = CHILDREN.lock().unwrap_or_else(PoisonError::into_inner);
    let child = cmd.spawn()?;
    children.push(child.id() as i32);
    Ok(child)
}

/// Stop tracking a child that was reaped normally.
pub fn unregister_child(pid: u32) {
    CHILDREN.lock().unwrap().retain(|&p| p != pid as i32);
}

/// SIGKILL and reap every registered child. Called by the watchdog on a
/// fatal signal; harmless if children already exited (kill/waitpid on a
/// reaped pid just returns an error we ignore).
pub fn kill_registered_children() {
    kill_and_reap(&mut CHILDREN.lock().unwrap());
}

fn kill_and_reap(children: &mut Vec<i32>) {
    for pid in std::mem::take(children) {
        unsafe {
            kill(pid, SIGKILL);
            waitpid(pid, std::ptr::null_mut(), 0);
        }
    }
}

/// The conventional exit status for "terminated by signal `signum`".
pub fn exit_status_for(signum: i32) -> i32 {
    128 + signum
}

/// Spawn a watchdog thread that polls [`pending`]; on a fatal signal it
/// SIGKILLs + reaps all registered children and exits the process with
/// `128 + signo`. The thread is detached and dies with the process —
/// spawn one per launch; extra watchdogs are cheap and race-free
/// (child reaping drains a shared registry).
pub fn spawn_watchdog() {
    install();
    std::thread::Builder::new()
        .name("pace-signal-watchdog".into())
        .spawn(|| loop {
            if let Some(signum) = pending() {
                // Sweep and exit under the registry lock, so no child is
                // spawned after the sweep.
                let mut children = CHILDREN.lock().unwrap_or_else(PoisonError::into_inner);
                kill_and_reap(&mut children);
                std::process::exit(exit_status_for(signum));
            }
            std::thread::sleep(Duration::from_millis(10));
        })
        .expect("spawning signal watchdog");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_status_follows_convention() {
        assert_eq!(exit_status_for(SIGTERM), 143);
        assert_eq!(exit_status_for(SIGINT), 130);
    }

    #[test]
    fn child_registry_add_remove() {
        register_child(999_999);
        unregister_child(999_999);
        assert!(!CHILDREN.lock().unwrap().contains(&999_999));
    }

    #[test]
    fn pending_starts_empty_and_clears() {
        clear_pending();
        assert_eq!(pending(), None);
        PENDING.store(SIGTERM, Ordering::SeqCst);
        assert_eq!(pending(), Some(SIGTERM));
        clear_pending();
        assert_eq!(pending(), None);
    }

    #[test]
    fn kill_registered_children_tolerates_dead_pids() {
        // A pid far beyond the kernel's pid_max: kill/waitpid fail with
        // ESRCH/ECHILD and are ignored.
        register_child(2_000_000_000);
        kill_registered_children();
        assert!(CHILDREN.lock().unwrap().is_empty());
    }
}
