//! The reconfiguration epoch shared by the Section 5 and 6 overlays and
//! the robust DHT (Lemmas 14/15).

use crate::config::{SamplingParams, Schedule};
use crate::metrics::DosRoundMetrics;
use serde_json::Value;
use simnet::checkpoint::{field, get_bool, get_u64};
use simnet::{BlockSet, Checkpoint, CkptError, CkptResult, Digest};
use telemetry::{EventKind, Telemetry};

/// The epoch every group family runs: every `epoch_len` rounds the groups
/// are resampled, but only if every group kept an available member — one
/// unblocked in two consecutive rounds — for the whole epoch. The family
/// keeps its own availability test (against [`Self::prev_blocked`]) and
/// its own resample; the clock counts rounds and epochs, keeps the
/// previous round's block set and judges each boundary.
#[derive(Clone, Debug)]
pub struct EpochClock {
    epoch_len: u64,
    round: u64,
    epochs_done: u64,
    failed_epochs: u64,
    /// Whether the current epoch still satisfies the Lemma 14 precondition.
    epoch_ok: bool,
    prev_blocked: BlockSet,
    /// `Some(reconfigures)` when the last closed round ended an epoch.
    /// Neither digested nor checkpointed: a loaded clock reads `None`.
    closed: Option<bool>,
}

impl EpochClock {
    /// A clock at round 0 with epochs of `epoch_len` rounds.
    pub fn new(epoch_len: u64) -> Self {
        assert!(epoch_len > 0, "an epoch lasts at least one round");
        Self {
            epoch_len,
            round: 0,
            epochs_done: 0,
            failed_epochs: 0,
            epoch_ok: true,
            prev_blocked: BlockSet::none(),
            closed: None,
        }
    }

    /// The dimension the sampling primitive runs on for supernodes of
    /// dimension `dim`: rounded up to a power of two, the paper's `d = 2^k`.
    pub fn schedule_dim(dim: u32) -> u32 {
        (dim as usize).next_power_of_two() as u32
    }

    /// The Section 5 epoch length for supernodes of dimension `dim`: the
    /// group-simulated Algorithm 2 run on [`Self::schedule_dim`] (two
    /// overlay rounds per primitive round: simulate + synchronize) plus
    /// the four-step reorganization of Lemma 15.
    pub fn epoch_len_for(dim: u32, sampling: &SamplingParams) -> u64 {
        2 * Schedule::algorithm2(Self::schedule_dim(dim), sampling).rounds() as u64 + 4
    }

    /// Rounds per epoch — `Theta(log log n)`. An adversary must be at
    /// least `2t`-late for Theorem 6's argument.
    pub fn epoch_len(&self) -> u64 {
        self.epoch_len
    }

    /// Rounds closed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Completed (successful or failed) epochs.
    pub fn epochs(&self) -> u64 {
        self.epochs_done
    }

    /// Epochs that failed because some group starved mid-epoch.
    pub fn failed_epochs(&self) -> u64 {
        self.failed_epochs
    }

    /// The block set the previous round was closed under.
    pub fn prev_blocked(&self) -> &BlockSet {
        &self.prev_blocked
    }

    /// `Some(reconfigures)` if the last closed round ended an epoch.
    pub fn closed_epoch(&self) -> Option<bool> {
        self.closed
    }

    /// Close the next round, held under `blocked`; `starved` is the
    /// family's verdict that some group had no available member in it.
    /// At an epoch boundary, returns whether the epoch reconfigures (the
    /// family then resamples); `None` mid-epoch.
    pub fn close(&mut self, starved: bool, blocked: &BlockSet) -> Option<bool> {
        self.round += 1;
        self.epoch_ok &= !starved;
        if self.prev_blocked != *blocked {
            self.prev_blocked.clone_from(blocked);
        }
        self.closed = (self.round % self.epoch_len == 0).then_some(self.epoch_ok);
        if self.closed.is_some() {
            self.epochs_done += 1;
            self.failed_epochs += u64::from(!self.epoch_ok);
            self.epoch_ok = true;
        }
        self.closed
    }

    /// A family's state digest: the clock's counters, then what `body`
    /// writes, then the previous block set.
    pub(crate) fn digest(&self, body: impl FnOnce(&mut Digest)) -> u64 {
        let mut d = Digest::new();
        d.write_u64(self.round)
            .write_u64(self.epochs_done)
            .write_u64(self.failed_epochs)
            .write_bool(self.epoch_ok);
        body(&mut d);
        d.write_usize(self.prev_blocked.len());
        for v in self.prev_blocked.iter() {
            d.write_u64(v.raw());
        }
        d.finish()
    }

    /// Mirror a closed round into `tel`: the per-round `overlay.*` metrics
    /// and, at a boundary, the epoch counters and an `EpochFinished` event
    /// whose value is the success flag.
    pub(crate) fn record(&self, tel: &Telemetry, m: &DosRoundMetrics) {
        if tel.enabled() {
            tel.counter("overlay.rounds", &[]).inc();
            if !m.connected {
                tel.counter("overlay.disconnected_rounds", &[]).inc();
            }
            if m.min_group_available == 0 {
                tel.counter("overlay.starved_rounds", &[]).inc();
            }
            tel.histogram("overlay.blocked", &[]).record(m.blocked as u64);
            tel.gauge("overlay.max_group_size", &[]).record_max(m.max_group_size as u64);
        }
        let Some(ok) = self.closed else { return };
        tel.counter("overlay.epochs", &[]).inc();
        if !ok {
            tel.counter("overlay.failed_epochs", &[]).inc();
        }
        let epoch = self.epochs_done;
        tel.emit(self.round, EventKind::EpochFinished, None, u64::from(ok), || {
            format!("epoch {epoch} {}", if ok { "reconfigured" } else { "failed" })
        });
    }

    /// The family's checkpoint object `family` with the clock's keys and
    /// the family's `digest_stamp` added at its top level.
    pub(crate) fn save(&self, family: Value, stamp: u64) -> Value {
        let Value::Object(mut top) = family else { panic!("a checkpoint is a JSON object") };
        top.insert("epoch_len".into(), self.epoch_len.into());
        top.insert("round".into(), self.round.into());
        top.insert("epochs_done".into(), self.epochs_done.into());
        top.insert("failed_epochs".into(), self.failed_epochs.into());
        top.insert("epoch_ok".into(), self.epoch_ok.into());
        top.insert("prev_blocked".into(), self.prev_blocked.save());
        top.insert("digest_stamp".into(), stamp.into());
        Value::Object(top)
    }

    /// Read the clock's keys from the top level of a family's checkpoint;
    /// the family then [`verify`](Self::verify)s what it restored.
    pub(crate) fn load(v: &Value) -> CkptResult<Self> {
        Ok(Self {
            epoch_len: get_u64(v, "epoch_len")?,
            round: get_u64(v, "round")?,
            epochs_done: get_u64(v, "epochs_done")?,
            failed_epochs: get_u64(v, "failed_epochs")?,
            epoch_ok: get_bool(v, "epoch_ok")?,
            prev_blocked: BlockSet::load(field(v, "prev_blocked")?)?,
            closed: None,
        })
    }

    /// Check a restored family against checkpoint `v`: its state digest
    /// `restored` must equal the stamp, and since the stamp does not cover
    /// `epoch_len` (and a stamp is no proof), the clock must then hold what
    /// every genuine checkpoint does — `epoch_len > 0`,
    /// `epochs_done == round / epoch_len` and `failed_epochs <= epochs_done`.
    /// A breach of those is [`CkptError::Corrupt`], naming the field.
    pub(crate) fn verify(&self, v: &Value, restored: u64) -> CkptResult<()> {
        let stamped = get_u64(v, "digest_stamp")?;
        if restored != stamped {
            return Err(CkptError::DigestMismatch { stamped, restored });
        }
        let (t, r, e, f) = (self.epoch_len, self.round, self.epochs_done, self.failed_epochs);
        let why = if t == 0 {
            "epoch_len is 0".to_string()
        } else if e != r / t {
            format!("epochs_done {e} is not round {r} / epoch_len {t}")
        } else if f > e {
            format!("failed_epochs {f} exceeds epochs_done {e}")
        } else {
            return Ok(());
        };
        Err(CkptError::Corrupt(why))
    }
}
