//! Runtime engine configuration: [`Backend`] names the choice the engine
//! offers — parity on one shard, or fast mode with a shard count — and
//! parses it from the `SIMNET_BACKEND` environment variable; [`AnyNet`] is
//! the engine type runners hold.

use crate::XlNetwork;
use simnet::Protocol;
use std::fmt;

/// Environment variable consulted by [`Backend::from_env`]; see
/// [`Backend::parse`] for the accepted spellings.
pub const BACKEND_ENV: &str = "SIMNET_BACKEND";

/// Automatic shard count for fast mode: the size of the rayon pool the
/// caller runs in, clamped to `[1, 16]`. Shards only buy parallelism, so
/// more shards than workers add routing and dispatch cost for nothing
/// (measured: 2 shards on 1 worker lost to 1 shard by 12–19 % on
/// `engine_gossip`), and past 16 the per-round bucket matrix of mostly
/// empty cells outweighs compute wins.
pub fn default_shards() -> usize {
    rayon::current_num_threads().clamp(1, 16)
}

/// How to run the engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// [`crate::ExecMode::Parity`]: one shard, the golden digest stream.
    #[default]
    Parity,
    /// [`crate::ExecMode::Fast`] over `shards` shards (`0` = automatic,
    /// [`default_shards`]).
    Fast {
        /// Shard count, `0` for automatic.
        shards: usize,
    },
}

impl Backend {
    /// Fast mode with `shards` shards (`0` = automatic).
    pub const fn fast(shards: usize) -> Self {
        Self::Fast { shards }
    }

    /// Parse a backend spec: `""`, `"xl"` and `"xl:1"` → parity,
    /// `"xl:fast"` → fast mode with the automatic shard count,
    /// `"xl:fast:<k>"` → fast mode with `k` shards. Anything else is
    /// `None`; [`Backend::from_env`] says why.
    pub fn parse(spec: &str) -> Option<Backend> {
        match spec.trim() {
            "" | "xl" => Some(Backend::Parity),
            "xl:fast" => Some(Backend::fast(0)),
            other => {
                let rest = other.strip_prefix("xl:")?;
                match rest.strip_prefix("fast:") {
                    Some(k) => k.parse().ok().map(Backend::fast),
                    None => (rest.parse::<usize>().ok()? == 1).then_some(Backend::Parity),
                }
            }
        }
    }

    /// Read the backend from the `SIMNET_BACKEND` environment variable.
    /// Unset or empty means parity; a value [`Backend::parse`] does not
    /// accept is an error, never a fallback.
    pub fn from_env() -> Result<Backend, BackendEnvError> {
        let value = match std::env::var(BACKEND_ENV) {
            Ok(spec) => spec,
            Err(std::env::VarError::NotPresent) => return Ok(Backend::default()),
            Err(std::env::VarError::NotUnicode(raw)) => raw.to_string_lossy().into_owned(),
        };
        Backend::parse(&value).ok_or_else(|| BackendEnvError::rejecting(value))
    }

    /// Instantiate an empty network of this backend.
    pub fn build<P: Protocol>(self, master_seed: u64) -> AnyNet<P> {
        match self {
            Backend::Parity => XlNetwork::new(master_seed),
            Backend::Fast { shards } => XlNetwork::fast(master_seed, shards),
        }
    }
}

/// The spelling [`Backend::parse`] reads back: `xl` / `xl:fast:<k>`.
impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Backend::Parity => f.write_str("xl"),
            Backend::Fast { shards } => write!(f, "xl:fast:{shards}"),
        }
    }
}

/// `SIMNET_BACKEND` holds a value [`Backend::parse`] does not accept.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BackendEnvError {
    /// Not a spelling of any backend.
    Unknown {
        /// The offending value.
        value: String,
    },
    /// `xl:<k>` with `k ≠ 1`: parity has exactly one shard; shard counts
    /// belong to `xl:fast:<k>`.
    ParityShards {
        /// The offending value.
        value: String,
        /// The shard count it asked parity for.
        shards: usize,
    },
}

impl BackendEnvError {
    fn rejecting(value: String) -> Self {
        let shards = value.trim().strip_prefix("xl:").and_then(|k| k.parse().ok());
        match shards {
            Some(shards) => BackendEnvError::ParityShards { value, shards },
            None => BackendEnvError::Unknown { value },
        }
    }

    fn value(&self) -> &str {
        match self {
            BackendEnvError::Unknown { value } | BackendEnvError::ParityShards { value, .. } => {
                value
            }
        }
    }
}

impl fmt::Display for BackendEnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{BACKEND_ENV}=`{}` is not a backend: ", self.value())?;
        match self {
            BackendEnvError::Unknown { .. } => {
                f.write_str("expected unset, empty, `xl`, `xl:1`, `xl:fast` or `xl:fast:<shards>`")
            }
            BackendEnvError::ParityShards { shards, .. } => write!(
                f,
                "parity runs on exactly one shard; for {shards} shards use fast mode, \
                 `xl:fast:{shards}`"
            ),
        }
    }
}

impl std::error::Error for BackendEnvError {}

/// The engine type runners hold: whatever [`Backend::build`] returns.
pub type AnyNet<P> = XlNetwork<P>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExecMode;

    #[test]
    fn backend_parses_specs() {
        for parity in ["", "xl", "xl:1", " xl:1 ", "xl:01"] {
            assert_eq!(Backend::parse(parity), Some(Backend::Parity), "{parity:?}");
        }
        assert_eq!(Backend::parse("xl:fast"), Some(Backend::fast(0)));
        assert_eq!(Backend::parse("xl:fast:8"), Some(Backend::fast(8)));
        assert_eq!(Backend::parse(" xl:fast:2 "), Some(Backend::fast(2)));
        assert_eq!(Backend::parse("xl:fast:1"), Some(Backend::fast(1)));
        for bad in ["xl:", "xl:four", "xl:fast:", "xl:fast:many", "turbo", "legacy", "xl:fats"] {
            assert_eq!(Backend::parse(bad), None, "{bad}");
        }
        // Parity has one shard: any other count is not a spelling of it.
        for bad in ["xl:0", "xl:2", "xl:4", " xl:16 "] {
            assert_eq!(Backend::parse(bad), None, "{bad}");
        }
    }

    #[test]
    fn backend_names_and_modes() {
        assert_eq!(Backend::default(), Backend::Parity);
        assert_eq!(Backend::Parity.to_string(), "xl");
        assert_eq!(Backend::fast(3).to_string(), "xl:fast:3");
        for be in [Backend::Parity, Backend::fast(0), Backend::fast(1), Backend::fast(2)] {
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
        std::env::set_var(BACKEND_ENV, "xl:1");
        assert_eq!(Backend::from_env(), Ok(Backend::Parity));
        std::env::set_var(BACKEND_ENV, "xl:fast:3");
        assert_eq!(Backend::from_env(), Ok(Backend::fast(3)));
        for bad in ["turbo", "xl:", "xl:fast:many", "legacy"] {
            std::env::set_var(BACKEND_ENV, bad);
            let err = Backend::from_env().expect_err(bad);
            assert_eq!(err, BackendEnvError::Unknown { value: bad.into() });
            let shown = err.to_string();
            assert!(shown.contains(BACKEND_ENV) && shown.contains(bad), "{shown}");
            assert!(shown.contains("xl:fast:<shards>"), "grammar missing: {shown}");
        }
        for (bad, shards) in [("xl:4", 4), ("xl:0", 0), (" xl:16", 16)] {
            std::env::set_var(BACKEND_ENV, bad);
            let err = Backend::from_env().expect_err(bad);
            assert_eq!(err, BackendEnvError::ParityShards { value: bad.into(), shards });
            let shown = err.to_string();
            assert!(shown.contains(BACKEND_ENV) && shown.contains(bad), "{shown}");
            assert!(shown.contains("one shard"), "{shown}");
            assert!(shown.contains(&format!("`xl:fast:{shards}`")), "{shown}");
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
        let net: AnyNet<Nop> = Backend::fast(0).build(7);
        assert_eq!(net.shard_count(), default_shards());
        let net: AnyNet<Nop> = Backend::default().build(7);
        assert_eq!((net.exec_mode(), net.shard_count()), (ExecMode::Parity, 1));
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
