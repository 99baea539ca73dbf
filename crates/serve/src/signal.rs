//! SIGINT/SIGTERM → a global shutdown flag; SIGHUP → a reload flag.
//!
//! There is no `libc` crate in the build environment, so the handler
//! registration goes through a direct FFI declaration of `signal(2)`.
//! The handlers only store to atomics — the one thing that is
//! async-signal-safe — and the `pge serve` loop polls the flags.

use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);
static RELOAD: AtomicBool = AtomicBool::new(false);

/// Has a shutdown signal (SIGINT or SIGTERM) been received?
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Trip the flag programmatically (used by tests and by the CLI on
/// fatal errors).
pub fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Consume a pending reload request (SIGHUP, or programmatic via
/// [`request_reload`]). Returns `true` at most once per request —
/// the flag clears on read, so a serving loop polls this and triggers
/// one model hot-swap per signal.
pub fn take_reload_request() -> bool {
    RELOAD.swap(false, Ordering::SeqCst)
}

/// Trip the reload flag programmatically (tests, admin tooling).
pub fn request_reload() {
    RELOAD.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
mod imp {
    const SIGHUP: i32 = 1;
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    type Handler = extern "C" fn(i32);

    extern "C" {
        /// POSIX `signal(2)`; the return value (previous handler) is
        /// pointer-sized.
        fn signal(signum: i32, handler: Handler) -> usize;
    }

    extern "C" fn on_signal(sig: i32) {
        if sig == SIGHUP {
            super::RELOAD.store(true, std::sync::atomic::Ordering::SeqCst);
        } else {
            super::SHUTDOWN.store(true, std::sync::atomic::Ordering::SeqCst);
        }
    }

    pub fn install() {
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
            signal(SIGHUP, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() {
        // No signal handling off Unix; ctrl-c terminates the process.
    }
}

/// Install handlers for SIGINT/SIGTERM (shutdown flag) and SIGHUP
/// (reload flag).
pub fn install_handlers() {
    imp::install();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_starts_clear_and_latches() {
        // Single test touching the global shutdown flag (tests in
        // this module would race each other otherwise).
        install_handlers();
        assert!(!shutdown_requested());
        request_shutdown();
        assert!(shutdown_requested());
    }

    #[test]
    fn reload_request_is_consumed_once() {
        assert!(!take_reload_request());
        request_reload();
        assert!(take_reload_request());
        assert!(!take_reload_request(), "flag clears on read");
    }
}
