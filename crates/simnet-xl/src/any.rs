//! Runtime engine configuration: [`Backend`] names the two switches the
//! engine has — execution mode and shard count — and parses them from the
//! `SIMNET_BACKEND` environment variable; [`AnyNet`] is the engine type
//! runners hold.

use crate::{ExecMode, XlNetwork};
use simnet::Protocol;
use std::fmt;

/// Environment variable consulted by [`Backend::from_env`]; see
/// [`Backend::parse`] for the accepted spellings.
pub const BACKEND_ENV: &str = "SIMNET_BACKEND";

/// Automatic shard count for [`XlNetwork`]: the size of the rayon pool the
/// caller runs in, clamped to `[1, 16]`. Shards only buy parallelism in
/// the compute walk, so more shards than workers add merge and dispatch
/// cost for nothing (measured: 2 shards on 1 worker lost to 1 shard by
/// 12–19 % on `engine_gossip`), and past 16 the per-round merge overhead of
/// mostly-empty runs outweighs compute wins. Parity digests are
/// shard-invariant, so the choice is never visible in results.
pub fn default_shards() -> usize {
    rayon::current_num_threads().clamp(1, 16)
}

/// How to run the engine: an execution mode and a shard count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Backend {
    /// Delivery-order contract (see [`ExecMode`]).
    pub mode: ExecMode,
    /// Shard count, `0` for automatic ([`default_shards`]).
    pub shards: usize,
}

impl Backend {
    /// Parity mode with `shards` shards (`0` = automatic).
    pub const fn parity(shards: usize) -> Self {
        Self { mode: ExecMode::Parity, shards }
    }

    /// Fast mode with `shards` shards (`0` = automatic).
    pub const fn fast(shards: usize) -> Self {
        Self { mode: ExecMode::Fast, shards }
    }

    /// Parse a backend spec: `""`/`"xl"` → parity with the automatic shard
    /// count, `"xl:<k>"` → parity with `k` shards, `"xl:fast"` /
    /// `"xl:fast:<k>"` → fast mode. Anything else is `None`.
    pub fn parse(spec: &str) -> Option<Backend> {
        let shards = |k: &str| k.parse::<usize>().ok();
        match spec.trim() {
            "" | "xl" => Some(Backend::parity(0)),
            "xl:fast" => Some(Backend::fast(0)),
            other => {
                let rest = other.strip_prefix("xl:")?;
                match rest.strip_prefix("fast:") {
                    Some(k) => shards(k).map(Backend::fast),
                    None => shards(rest).map(Backend::parity),
                }
            }
        }
    }

    /// Read the backend from the `SIMNET_BACKEND` environment variable.
    /// Unset or empty means parity with the automatic shard count; a value
    /// [`Backend::parse`] does not accept is an error, never a fallback.
    pub fn from_env() -> Result<Backend, BackendEnvError> {
        match std::env::var(BACKEND_ENV) {
            Ok(spec) => Backend::parse(&spec).ok_or(BackendEnvError { value: spec }),
            Err(std::env::VarError::NotPresent) => Ok(Backend::default()),
            Err(std::env::VarError::NotUnicode(raw)) => {
                Err(BackendEnvError { value: raw.to_string_lossy().into_owned() })
            }
        }
    }

    /// Instantiate an empty network of this backend.
    pub fn build<P: Protocol>(self, master_seed: u64) -> AnyNet<P> {
        XlNetwork::with_shards_mode(master_seed, self.shards, self.mode)
    }
}

/// The spelling [`Backend::parse`] reads back: `xl:<k>` / `xl:fast:<k>`.
impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.mode {
            ExecMode::Parity => write!(f, "xl:{}", self.shards),
            ExecMode::Fast => write!(f, "xl:fast:{}", self.shards),
        }
    }
}

/// `SIMNET_BACKEND` holds a value [`Backend::parse`] does not accept.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BackendEnvError {
    /// The offending value.
    pub value: String,
}

impl fmt::Display for BackendEnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{BACKEND_ENV}=`{}` is not a backend: expected unset, empty, `xl`, `xl:<shards>`, \
             `xl:fast` or `xl:fast:<shards>`",
            self.value
        )
    }
}

impl std::error::Error for BackendEnvError {}

/// The engine type runners hold: whatever [`Backend::build`] returns.
pub type AnyNet<P> = XlNetwork<P>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_parses_specs() {
        assert_eq!(Backend::parse(""), Some(Backend::parity(0)));
        assert_eq!(Backend::parse("xl"), Some(Backend::parity(0)));
        assert_eq!(Backend::parse("xl:4"), Some(Backend::parity(4)));
        assert_eq!(Backend::parse(" xl:16 "), Some(Backend::parity(16)));
        assert_eq!(Backend::parse("xl:fast"), Some(Backend::fast(0)));
        assert_eq!(Backend::parse("xl:fast:8"), Some(Backend::fast(8)));
        assert_eq!(Backend::parse(" xl:fast:2 "), Some(Backend::fast(2)));
        for bad in ["xl:", "xl:four", "xl:fast:", "xl:fast:many", "turbo", "legacy", "xl:fats"] {
            assert_eq!(Backend::parse(bad), None, "{bad}");
        }
    }

    #[test]
    fn backend_names_and_modes() {
        assert_eq!(Backend::default(), Backend::parity(0));
        assert_eq!(Backend::parity(3).to_string(), "xl:3");
        assert_eq!(Backend::fast(3).to_string(), "xl:fast:3");
        for be in [Backend::parity(0), Backend::parity(7), Backend::fast(0), Backend::fast(2)] {
            assert_eq!(Backend::parse(&be.to_string()), Some(be));
        }
    }

    #[test]
    fn env_values_are_the_default_or_a_typed_rejection() {
        // The only test in this crate that touches the variable, so the
        // process environment is not raced.
        std::env::remove_var(BACKEND_ENV);
        assert_eq!(Backend::from_env(), Ok(Backend::default()));
        std::env::set_var(BACKEND_ENV, "");
        assert_eq!(Backend::from_env(), Ok(Backend::default()));
        std::env::set_var(BACKEND_ENV, "xl:fast:3");
        assert_eq!(Backend::from_env(), Ok(Backend::fast(3)));
        for bad in ["turbo", "xl:", "xl:fast:many", "legacy"] {
            std::env::set_var(BACKEND_ENV, bad);
            let err = Backend::from_env().expect_err(bad);
            assert_eq!(err.value, bad);
            let shown = err.to_string();
            assert!(shown.contains(BACKEND_ENV) && shown.contains(bad), "{shown}");
            assert!(shown.contains("xl:fast:<shards>"), "grammar missing: {shown}");
        }
        std::env::remove_var(BACKEND_ENV);
    }

    #[test]
    fn built_fast_network_reports_its_backend() {
        struct Nop;
        impl Protocol for Nop {
            type Msg = ();
            fn on_round(&mut self, _ctx: &mut simnet::protocol::Ctx<'_, ()>) {}
        }
        let net: AnyNet<Nop> = Backend::fast(3).build(7);
        assert_eq!((net.exec_mode(), net.shard_count()), (ExecMode::Fast, 3));
        let net: AnyNet<Nop> = Backend::parity(2).build(7);
        assert_eq!((net.exec_mode(), net.shard_count()), (ExecMode::Parity, 2));
        let net: AnyNet<Nop> = Backend::default().build(7);
        assert_eq!(net.shard_count(), default_shards());
    }

    #[test]
    fn default_shards_is_clamped() {
        let s = default_shards();
        assert!((1..=16).contains(&s), "got {s}");
        // It follows the pool the caller runs in, not the host.
        let pool = rayon::ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        assert_eq!(pool.install(default_shards), 3);
    }
}
