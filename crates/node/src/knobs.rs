//! Validated environment knobs for the node daemon.
//!
//! Follows the `overlay_adversary::knobs` contract: unset means default,
//! set means it must parse and sit inside the documented band — invalid
//! values are *rejected with a typed error naming the variable and the
//! band*, never silently clamped or defaulted.
//!
//! | variable | default | band | meaning |
//! |---|---|---|---|
//! | `NODE_LISTEN_ADDR` | `127.0.0.1:0` | parseable socket address | peer listener bind address |
//! | `NODE_EPOCH_MS` | `30` | `[1, 60000]` | minimum wall-clock round duration |
//! | `NODE_MAX_FRAME` | `1048576` | `[64, 16777216]` | wire frame payload cap in bytes |

use std::net::SocketAddr;

use overlay_adversary::knobs::{parse_knob, KnobError};

use crate::wire::DEFAULT_MAX_FRAME;

/// Peer listener bind address.
pub const NODE_LISTEN_ADDR: &str = "NODE_LISTEN_ADDR";
/// Minimum wall-clock round duration, milliseconds.
pub const NODE_EPOCH_MS: &str = "NODE_EPOCH_MS";
/// Maximum wire frame payload, bytes.
pub const NODE_MAX_FRAME: &str = "NODE_MAX_FRAME";

const DEFAULT_LISTEN_ADDR: &str = "127.0.0.1:0";
const DEFAULT_EPOCH_MS: u64 = 30;
const EPOCH_MS_BAND: (u64, u64) = (1, 60_000);
const MAX_FRAME_BAND: (usize, usize) = (64, 1 << 24);

/// Why a daemon knob was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NodeKnobError {
    /// An integer knob failed the shared parse/band check.
    Knob(KnobError),
    /// `NODE_LISTEN_ADDR` is not a parseable socket address.
    BadAddr {
        /// The offending value.
        value: String,
    },
}

impl std::fmt::Display for NodeKnobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeKnobError::Knob(e) => e.fmt(f),
            NodeKnobError::BadAddr { value } => write!(
                f,
                "environment variable {NODE_LISTEN_ADDR} must be a socket address \
                 like 127.0.0.1:0, got `{value}`"
            ),
        }
    }
}

impl std::error::Error for NodeKnobError {}

impl From<KnobError> for NodeKnobError {
    fn from(e: KnobError) -> Self {
        NodeKnobError::Knob(e)
    }
}

/// The daemon's resolved configuration knobs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeKnobs {
    /// Address the peer listener binds (port 0 = ephemeral).
    pub listen_addr: SocketAddr,
    /// Minimum round duration the coordinator paces to, in ms.
    pub epoch_ms: u64,
    /// Wire frame payload cap in bytes.
    pub max_frame: usize,
}

impl Default for NodeKnobs {
    fn default() -> Self {
        Self {
            listen_addr: DEFAULT_LISTEN_ADDR.parse().expect("default addr parses"),
            epoch_ms: DEFAULT_EPOCH_MS,
            max_frame: DEFAULT_MAX_FRAME,
        }
    }
}

/// Parse already-fetched raw values (`None` = unset).
pub fn parse_knobs(
    listen_addr: Option<&str>,
    epoch_ms: Option<&str>,
    max_frame: Option<&str>,
) -> Result<NodeKnobs, NodeKnobError> {
    let listen_addr = match listen_addr {
        None => DEFAULT_LISTEN_ADDR.parse().expect("default addr parses"),
        Some(text) => text
            .trim()
            .parse::<SocketAddr>()
            .map_err(|_| NodeKnobError::BadAddr { value: text.to_string() })?,
    };
    let epoch_ms =
        parse_knob(NODE_EPOCH_MS, epoch_ms, DEFAULT_EPOCH_MS, EPOCH_MS_BAND.0, EPOCH_MS_BAND.1)?;
    let max_frame = parse_knob(
        NODE_MAX_FRAME,
        max_frame,
        DEFAULT_MAX_FRAME,
        MAX_FRAME_BAND.0,
        MAX_FRAME_BAND.1,
    )?;
    Ok(NodeKnobs { listen_addr, epoch_ms, max_frame })
}

/// Read all three knobs from the environment.
pub fn env_knobs() -> Result<NodeKnobs, NodeKnobError> {
    let addr = std::env::var(NODE_LISTEN_ADDR).ok();
    let epoch = std::env::var(NODE_EPOCH_MS).ok();
    let frame = std::env::var(NODE_MAX_FRAME).ok();
    parse_knobs(addr.as_deref(), epoch.as_deref(), frame.as_deref())
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlay_adversary::knobs::KnobReason;

    #[test]
    fn unset_yields_defaults() {
        let knobs = parse_knobs(None, None, None).unwrap();
        assert_eq!(knobs, NodeKnobs::default());
        assert_eq!(knobs.epoch_ms, 30);
        assert_eq!(knobs.max_frame, 1 << 20);
        assert_eq!(knobs.listen_addr.port(), 0);
    }

    #[test]
    fn valid_overrides_pass_through() {
        let knobs = parse_knobs(Some("0.0.0.0:9000"), Some("1"), Some("64")).unwrap();
        assert_eq!(knobs.listen_addr.port(), 9000);
        assert_eq!(knobs.epoch_ms, 1);
        assert_eq!(knobs.max_frame, 64);
        let knobs = parse_knobs(None, Some("60000"), Some("16777216")).unwrap();
        assert_eq!((knobs.epoch_ms, knobs.max_frame), (60_000, 1 << 24));
    }

    #[test]
    fn boundary_violations_are_rejected_not_clamped() {
        for (epoch, frame) in
            [(Some("0"), None), (Some("60001"), None), (None, Some("63")), (None, Some("16777217"))]
        {
            let err = parse_knobs(None, epoch, frame).unwrap_err();
            match err {
                NodeKnobError::Knob(k) => {
                    assert!(matches!(k.reason, KnobReason::OutOfRange { .. }), "{k:?}");
                }
                other => panic!("expected band rejection, got {other:?}"),
            }
        }
    }

    #[test]
    fn garbage_is_rejected_with_the_offending_value() {
        let err = parse_knobs(None, Some("fast"), None).unwrap_err();
        assert!(matches!(
            err,
            NodeKnobError::Knob(KnobError { reason: KnobReason::NotAnInteger, .. })
        ));
        // Empty string is a rejection, not a default.
        assert!(parse_knobs(None, Some(""), None).is_err());
        assert!(parse_knobs(None, None, Some("")).is_err());

        let err = parse_knobs(Some("localhost"), None, None).unwrap_err();
        assert_eq!(err, NodeKnobError::BadAddr { value: "localhost".to_string() });
    }
}
