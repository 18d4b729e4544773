//! Engine configuration for the overlay runners.
//!
//! All core runners that instantiate the simulation engine go through
//! [`select`], so one knob picks the engine for the whole stack — parity on
//! one shard, or fast mode with a shard count:
//!
//! * the `SIMNET_BACKEND` environment variable (`xl`, `xl:1`, `xl:fast`,
//!   `xl:fast:<shards>`; unset or empty means parity) picks the
//!   process-wide default;
//! * [`with_backend`] overrides it for one scope on the current thread —
//!   the mechanism tests and benchmarks use, since mutating the process
//!   environment is racy under a multi-threaded test harness.
//!
//! Parity runs produce the golden digest streams (see the `simnet-xl`
//! crate docs). `xl:fast:<k>` splits the engine over `k` shards and relaxes
//! delivery order: runs stay deterministic per `(seed, shards)` but are
//! only statistically equivalent to the parity stream (at one shard fast
//! mode is parity, fault model included) — see [`ExecMode`] and DESIGN.md
//! §10. The
//! oracles (`nodert::replay`, `dos::group_sim`) never consult the knob:
//! they build a parity engine explicitly.

pub use simnet_xl::{
    default_shards, AnyNet, Backend, BackendEnvError, ExecMode, XlNetwork, BACKEND_ENV,
};
use std::cell::Cell;

thread_local! {
    static OVERRIDE: Cell<Option<Backend>> = const { Cell::new(None) };
}

/// The backend new simulation runs on this thread should use: the
/// innermost [`with_backend`] override if any, else [`Backend::from_env`].
///
/// # Panics
///
/// If `SIMNET_BACKEND` holds a value [`Backend::parse`] rejects, with the
/// [`BackendEnvError`] text. Running an engine configuration other than
/// the one asked for is never the answer; binaries that want a clean exit
/// call [`Backend::from_env`] themselves first.
pub fn select() -> Backend {
    OVERRIDE
        .with(Cell::get)
        .unwrap_or_else(|| Backend::from_env().unwrap_or_else(|e| panic!("{e}")))
}

/// Run `f` with [`select`] returning `backend` on this thread; the
/// previous override (if any) is restored on exit, including on panic.
pub fn with_backend<T>(backend: Backend, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<Backend>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|o| o.replace(Some(backend))));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn override_nests_and_restores() {
        // Note: no assertion on the un-overridden value — the process
        // environment may legitimately set SIMNET_BACKEND.
        with_backend(Backend::fast(3), || {
            assert_eq!(select(), Backend::fast(3));
            with_backend(Backend::Parity, || {
                assert_eq!(select(), Backend::Parity);
            });
            assert_eq!(select(), Backend::fast(3));
        });
    }

    #[test]
    fn override_survives_panic() {
        with_backend(Backend::fast(2), || {
            let caught = std::panic::catch_unwind(|| {
                with_backend(Backend::fast(1), || panic!("boom"));
            });
            assert!(caught.is_err());
            assert_eq!(select(), Backend::fast(2));
        });
    }
}
