//! Crash-consistent checkpointing of simulation state.
//!
//! The serde shim deliberately has no typed serialization, so checkpointing
//! is explicit: every state-bearing type implements [`Checkpoint`], mapping
//! itself to and from a [`serde_json::Value`] tree. Floats are stored as
//! IEEE-754 bit patterns (`f64::to_bits`) — a checkpoint must restore the
//! *exact* value, not a decimal approximation, or replay digests diverge.
//!
//! Files are written crash-consistently: the value is serialized to a
//! `*.tmp` sibling, flushed, and renamed over the final path, so a reader
//! never observes a torn checkpoint. [`Checkpointer`] implements the
//! `checkpoint_every(k)` cadence and names files by round.

use crate::rng::NodeRng;
use crate::NodeId;
use rand_chacha::ChaChaState;
pub use serde_json::{Map, Value};
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Why a checkpoint could not be loaded.
#[derive(Debug)]
pub enum CkptError {
    /// Filesystem error while reading or writing.
    Io(std::io::Error),
    /// The file is not valid JSON.
    Parse(String),
    /// The JSON shape does not match what the loader expects.
    Corrupt(String),
    /// The restored state does not reproduce the digest stamped at save
    /// time — the checkpoint is internally inconsistent.
    DigestMismatch {
        /// Digest recorded when the checkpoint was written.
        stamped: u64,
        /// Digest of the state actually restored.
        restored: u64,
    },
    /// The checkpoint was written under a different execution mode than
    /// the engine asked to restore it (e.g. a relaxed-order `fast` run
    /// resumed into a parity engine). Cross-mode resumes would silently
    /// change the run's ordering guarantees, so they must be explicit.
    ModeMismatch {
        /// Execution mode recorded in the checkpoint.
        checkpoint: &'static str,
        /// Execution mode of the engine attempting the restore.
        engine: &'static str,
    },
    /// A directory scan found no checkpoint that loads cleanly — every
    /// candidate was missing, torn, or corrupt.
    NoUsableCheckpoint {
        /// Directory that was scanned.
        dir: String,
        /// Candidate files considered.
        scanned: usize,
        /// Candidates skipped because they failed to read, parse, or load.
        skipped: usize,
    },
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CkptError::Parse(m) => write!(f, "checkpoint is not valid JSON: {m}"),
            CkptError::Corrupt(m) => write!(f, "corrupt checkpoint: {m}"),
            CkptError::DigestMismatch { stamped, restored } => write!(
                f,
                "checkpoint digest mismatch: stamped {stamped:#018x}, restored state hashes \
                 to {restored:#018x}"
            ),
            CkptError::ModeMismatch { checkpoint, engine } => write!(
                f,
                "checkpoint exec-mode mismatch: the checkpoint was written by a `{checkpoint}` \
                 run but a `{engine}` engine is restoring it; resume with a matching engine (or \
                 convert explicitly via XlNetwork::from_state_as)"
            ),
            CkptError::NoUsableCheckpoint { dir, scanned, skipped } => write!(
                f,
                "no usable checkpoint in `{dir}`: {scanned} candidate(s), {skipped} skipped as \
                 torn or corrupt"
            ),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<std::io::Error> for CkptError {
    fn from(e: std::io::Error) -> Self {
        CkptError::Io(e)
    }
}

/// Shorthand for checkpoint results.
pub type CkptResult<T> = Result<T, CkptError>;

/// Explicit state serialization to a [`Value`] tree.
///
/// `load(save(x))` must reconstruct `x` exactly — including RNG stream
/// positions — so that a resumed run continues the original's digest
/// stream bit for bit.
pub trait Checkpoint: Sized {
    /// Serialize the full state.
    fn save(&self) -> Value;
    /// Reconstruct state from [`Self::save`] output.
    fn load(v: &Value) -> CkptResult<Self>;
}

// ---------------------------------------------------------------------------
// Value helpers (used by Checkpoint impls across the workspace)
// ---------------------------------------------------------------------------

/// Missing-field error with context.
pub fn missing(what: &str) -> CkptError {
    CkptError::Corrupt(format!("missing or mistyped field `{what}`"))
}

/// A value of the wrong JSON kind for its codec.
fn expected(what: &str) -> CkptError {
    CkptError::Corrupt(format!("mistyped value, expected {what}"))
}

/// Fetch an object member or fail with a named error.
fn field<'v>(v: &'v Value, name: &str) -> CkptResult<&'v Value> {
    v.get(name).ok_or_else(|| missing(name))
}

/// Fetch member `key` of `v` through its type's [`Checkpoint`] codec. A
/// missing member, or one its codec refuses, is [`CkptError::Corrupt`]
/// naming `key` (nested members name their whole path).
pub fn get<T: Checkpoint>(v: &Value, key: &str) -> CkptResult<T> {
    get_with(v, key, T::load)
}

/// [`get`] through the codec `load` instead of the member type's own.
pub fn get_with<T>(
    v: &Value,
    key: &str,
    load: impl FnOnce(&Value) -> CkptResult<T>,
) -> CkptResult<T> {
    load(field(v, key)?).map_err(|e| match e {
        CkptError::Corrupt(m) => CkptError::Corrupt(format!("`{key}`: {m}")),
        e => e,
    })
}

/// Fetch a string member.
pub fn get_str<'v>(v: &'v Value, name: &str) -> CkptResult<&'v str> {
    field(v, name)?.as_str().ok_or_else(|| missing(name))
}

/// Check the `"format"` tag every checkpoint and repro file opens with: a
/// missing or non-string tag is a missing field, a tag other than
/// `expected` a corrupt file naming both.
pub fn check_format(v: &Value, expected: &str) -> CkptResult<()> {
    match get_str(v, "format")? {
        found if found == expected => Ok(()),
        found => Err(CkptError::Corrupt(format!("format `{found}`, expected `{expected}`"))),
    }
}

/// Check the `"digest_stamp"` a checkpoint was written with against the
/// digest of the state `restored` from it: a corrupt or hand-edited file
/// is refused instead of silently diverging.
pub fn check_stamp(v: &Value, restored: u64) -> CkptResult<()> {
    let stamped = get(v, "digest_stamp")?;
    if restored != stamped {
        return Err(CkptError::DigestMismatch { stamped, restored });
    }
    Ok(())
}

/// Fetch an array member.
pub fn get_array<'v>(v: &'v Value, name: &str) -> CkptResult<&'v Vec<Value>> {
    field(v, name)?.as_array().ok_or_else(|| missing(name))
}

/// Serialize a slice of checkpointable items.
pub fn save_slice<T: Checkpoint>(items: &[T]) -> Value {
    Value::Array(items.iter().map(Checkpoint::save).collect())
}

/// Deserialize a vector of checkpointable items.
pub fn load_vec<T: Checkpoint>(v: &Value) -> CkptResult<Vec<T>> {
    v.as_array().ok_or_else(|| expected("array"))?.iter().map(T::load).collect()
}

// ---------------------------------------------------------------------------
// Schemas: a type's persisted members, declared once
// ---------------------------------------------------------------------------

/// One persisted member of a [`Schema`] type.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FieldKey {
    /// The JSON key.
    pub key: &'static str,
    /// For a member of a stamped type that the digest stamp does not
    /// cover: why not, and what checks it instead.
    pub undigested: Option<&'static str>,
}

/// A type whose persisted members are declared once, by
/// [`checkpoint_schema!`](crate::checkpoint_schema), which generates this
/// impl and the type's [`Checkpoint`] impl from the declaration.
pub trait Schema: Checkpoint {
    /// Every key `save` writes, in declaration order: `"format"` and
    /// `"digest_stamp"` when declared, then the members, then the keys of
    /// each flattened member.
    fn keys() -> Vec<FieldKey>;
    /// Write the members into `out` (no format tag, no stamp).
    fn save_into(&self, out: &mut Map);
    /// Decode the members of `v`, checking neither stamp nor invariants.
    fn load_fields(v: &Value) -> CkptResult<Self>;
    /// The declared invariants, a flattened member's included.
    fn check(&self) -> CkptResult<()>;
}

/// Declare the persisted members of a struct once and generate its
/// [`Checkpoint`] and [`Schema`] impls from the list.
///
/// ```ignore
/// checkpoint_schema! {
///     LinkFaults {
///         fields { drop_prob => "drop_bits", max_delay }
///     }
/// }
/// ```
///
/// Each member is saved under its name, or under the key after `=>`,
/// through its type's [`Checkpoint`] impl, or through the `save` and
/// `load` functions of module `<codec>` after `with <codec>` (for a type
/// whose own impl writes another shape). After the member may come
/// `: undigested "<why>"` (the stamp does not cover it) and an invariant
/// `where |s| <holds> => <message>`, checked on the restored value; a
/// breach is [`CkptError::Corrupt`] naming the key. Optional sections, in
/// this order:
///
/// - `format: "<tag>",` — saved as `"format"`, checked by
///   [`check_format`] before anything else;
/// - `stamp: <method>,` — `self.<method>()` is saved as `"digest_stamp"`
///   and [`check_stamp`] verifies it after decoding, before the
///   invariants;
/// - `flat { <member>: <Type> }` — a [`Schema`] member whose keys sit in
///   this object; its invariants are checked after this type's stamp;
/// - `skip { <member>: <init> }` — state that is not persisted, rebuilt
///   by `<init>` on load.
///
/// `load` builds `Self { .. }` from every section, so a struct member
/// that is not declared does not compile.
#[macro_export]
macro_rules! checkpoint_schema {
    (@key $field:ident) => { stringify!($field) };
    (@key $field:ident => $key:literal) => { $key };
    (@save $value:expr) => { $crate::checkpoint::Checkpoint::save($value) };
    (@save $value:expr, $codec:ident) => { $codec::save($value) };
    (@load $v:ident $key:expr) => { $crate::checkpoint::get($v, $key) };
    (@load $v:ident $key:expr, $codec:ident) => {
        $crate::checkpoint::get_with($v, $key, $codec::load)
    };
    (@opt) => { None };
    (@opt $why:literal) => { Some($why) };
    (@first $key:literal $($driver:tt)*) => { $key };
    (@check $this:ident $key:expr) => {};
    (@check $this:ident $key:expr, |$s:ident| $holds:expr => $why:expr) => {{
        let $s = $this;
        if !$holds {
            return Err($crate::CkptError::Corrupt(format!("`{}`: {}", $key, $why)));
        }
    }};
    (
        $name:ident $(<$($param:ident: $bound:path),+>)? {
            $(format: $format:literal,)?
            $(stamp: $stamp:ident,)?
            fields {
                $($field:ident $(=> $key:literal)? $(with $codec:ident)?
                    $(: undigested $undigested:literal)?
                    $(where |$s:ident| $holds:expr => $why:expr)?),+ $(,)?
            }
            $(flat { $($flat:ident: $flat_ty:ty),+ $(,)? })?
            $(skip { $($skip:ident: $skip_init:expr),+ $(,)? })?
        }
    ) => {
        impl$(<$($param: $bound),+>)? $crate::checkpoint::Schema for $name$(<$($param),+>)? {
            fn keys() -> Vec<$crate::checkpoint::FieldKey> {
                let key = |key, undigested| $crate::checkpoint::FieldKey { key, undigested };
                let own = vec![
                    $(key($crate::checkpoint_schema!(@first "format" $format), None),)?
                    $(key($crate::checkpoint_schema!(@first "digest_stamp" $stamp), None),)?
                    $(key(
                        $crate::checkpoint_schema!(@key $field $(=> $key)?),
                        $crate::checkpoint_schema!(@opt $($undigested)?),
                    ),)+
                ];
                [own, $($(<$flat_ty as $crate::checkpoint::Schema>::keys()),+)?].concat()
            }

            fn save_into(&self, out: &mut $crate::checkpoint::Map) {
                $(out.insert(
                    $crate::checkpoint_schema!(@key $field $(=> $key)?).into(),
                    $crate::checkpoint_schema!(@save &self.$field $(, $codec)?),
                );)+
                $($($crate::checkpoint::Schema::save_into(&self.$flat, out);)+)?
            }

            fn load_fields(v: &$crate::checkpoint::Value) -> $crate::CkptResult<Self> {
                Ok(Self {
                    $($field: $crate::checkpoint_schema!(
                        @load v $crate::checkpoint_schema!(@key $field $(=> $key)?) $(, $codec)?
                    )?,)+
                    $($($flat: <$flat_ty as $crate::checkpoint::Schema>::load_fields(v)?,)+)?
                    $($($skip: $skip_init,)+)?
                })
            }

            fn check(&self) -> $crate::CkptResult<()> {
                $($crate::checkpoint_schema!(
                    @check self $crate::checkpoint_schema!(@key $field $(=> $key)?)
                    $(, |$s| $holds => $why)?
                );)+
                $($($crate::checkpoint::Schema::check(&self.$flat)?;)+)?
                Ok(())
            }
        }

        impl$(<$($param: $bound),+>)? $crate::checkpoint::Checkpoint for $name$(<$($param),+>)? {
            fn save(&self) -> $crate::checkpoint::Value {
                let mut out = $crate::checkpoint::Map::new();
                $(out.insert("format".into(), $crate::checkpoint::Value::from($format));)?
                $crate::checkpoint::Schema::save_into(self, &mut out);
                $(out.insert(
                    "digest_stamp".into(),
                    $crate::checkpoint::Value::from(self.$stamp()),
                );)?
                $crate::checkpoint::Value::Object(out)
            }

            fn load(v: &$crate::checkpoint::Value) -> $crate::CkptResult<Self> {
                $($crate::checkpoint::check_format(v, $format)?;)?
                let restored = <Self as $crate::checkpoint::Schema>::load_fields(v)?;
                $($crate::checkpoint::check_stamp(v, restored.$stamp())?;)?
                $crate::checkpoint::Schema::check(&restored)?;
                Ok(restored)
            }
        }
    };
}

// ---------------------------------------------------------------------------
// Codecs
// ---------------------------------------------------------------------------

impl Checkpoint for NodeId {
    fn save(&self) -> Value {
        Value::from(self.raw())
    }

    fn load(v: &Value) -> CkptResult<Self> {
        u64::load(v).map(NodeId)
    }
}

impl Checkpoint for u64 {
    fn save(&self) -> Value {
        Value::from(*self)
    }

    fn load(v: &Value) -> CkptResult<Self> {
        v.as_u64().ok_or_else(|| expected("an unsigned integer"))
    }
}

impl Checkpoint for usize {
    fn save(&self) -> Value {
        Value::from(*self)
    }

    fn load(v: &Value) -> CkptResult<Self> {
        let x = u64::load(v)?;
        usize::try_from(x).map_err(|_| CkptError::Corrupt(format!("{x} exceeds usize")))
    }
}

/// Exact, as the IEEE-754 bit pattern: a decimal would not restore the
/// same value, and replay digests would diverge.
impl Checkpoint for f64 {
    fn save(&self) -> Value {
        Value::from(self.to_bits())
    }

    fn load(v: &Value) -> CkptResult<Self> {
        u64::load(v).map(f64::from_bits)
    }
}

impl Checkpoint for bool {
    fn save(&self) -> Value {
        Value::Bool(*self)
    }

    fn load(v: &Value) -> CkptResult<Self> {
        v.as_bool().ok_or_else(|| expected("a boolean"))
    }
}

impl Checkpoint for String {
    fn save(&self) -> Value {
        Value::from(self.as_str())
    }

    fn load(v: &Value) -> CkptResult<Self> {
        v.as_str().map(str::to_string).ok_or_else(|| expected("a string"))
    }
}

/// Any JSON, verbatim.
impl Checkpoint for Value {
    fn save(&self) -> Value {
        self.clone()
    }

    fn load(v: &Value) -> CkptResult<Self> {
        Ok(v.clone())
    }
}

impl Checkpoint for () {
    fn save(&self) -> Value {
        Value::Null
    }

    fn load(_v: &Value) -> CkptResult<Self> {
        Ok(())
    }
}

/// `None` as `null`.
impl<T: Checkpoint> Checkpoint for Option<T> {
    fn save(&self) -> Value {
        self.as_ref().map_or(Value::Null, T::save)
    }

    fn load(v: &Value) -> CkptResult<Self> {
        match v {
            Value::Null => Ok(None),
            v => T::load(v).map(Some),
        }
    }
}

impl<T: Checkpoint> Checkpoint for Arc<T> {
    fn save(&self) -> Value {
        T::save(self)
    }

    fn load(v: &Value) -> CkptResult<Self> {
        T::load(v).map(Arc::new)
    }
}

impl<T: Checkpoint> Checkpoint for Vec<T> {
    fn save(&self) -> Value {
        save_slice(self)
    }

    fn load(v: &Value) -> CkptResult<Self> {
        load_vec(v)
    }
}

impl Checkpoint for NodeRng {
    fn save(&self) -> Value {
        let s = self.state();
        serde_json::json!({
            "key": s.key.to_vec(),
            "counter": s.counter,
            "nonce": s.nonce.to_vec(),
            "pos": s.pos,
            "spare": match s.spare {
                Some(w) => Value::from(w),
                None => Value::Null,
            },
        })
    }

    fn load(v: &Value) -> CkptResult<Self> {
        // A value that does not fit its field is corruption, not something
        // to truncate into a different, valid-looking stream.
        let word = |w: &Value, name: &str| -> CkptResult<u32> {
            let x = w.as_u64().ok_or_else(|| missing(name))?;
            u32::try_from(x)
                .map_err(|_| CkptError::Corrupt(format!("rng `{name}` word {x} exceeds 32 bits")))
        };
        let words = |name: &str| -> CkptResult<Vec<u32>> {
            get_array(v, name)?.iter().map(|w| word(w, name)).collect()
        };
        let key_v = words("key")?;
        let nonce_v = words("nonce")?;
        let mut key = [0u32; 8];
        let mut nonce = [0u32; 2];
        if key_v.len() != 8 || nonce_v.len() != 2 {
            return Err(CkptError::Corrupt("rng key/nonce length".into()));
        }
        key.copy_from_slice(&key_v);
        nonce.copy_from_slice(&nonce_v);
        let spare = match field(v, "spare")? {
            Value::Null => None,
            w => Some(word(w, "spare")?),
        };
        // `counter` counts the blocks generated so far and a generator makes
        // its first on construction, so a saved counter is at least 1
        // (`from_state` would wrap 0 to block 2^64 - 1); `pos` indexes the
        // 16-word block, 16 meaning exhausted.
        let counter: u64 = get(v, "counter")?;
        if counter == 0 {
            return Err(CkptError::Corrupt("rng `counter` is 0, below the first block".into()));
        }
        let pos: usize = get(v, "pos")?;
        if pos > 16 {
            return Err(CkptError::Corrupt(format!("rng `pos` {pos} is past the 16-word block")));
        }
        Ok(NodeRng::from_state(ChaChaState { key, counter, nonce, pos, spare }))
    }
}

// ---------------------------------------------------------------------------
// Crash-consistent files
// ---------------------------------------------------------------------------

/// Serialize `value` to `path` crash-consistently: write a `*.tmp`
/// sibling, flush it, then atomically rename over the final name. A crash
/// at any point leaves either the old file or the new one, never a torn
/// mix.
pub fn write_value_atomic(path: &Path, value: &Value) -> CkptResult<()> {
    let text = serde_json::to_string_pretty(value).map_err(|e| CkptError::Parse(e.to_string()))?;
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.write_all(b"\n")?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Read and parse a checkpoint file.
pub fn read_value(path: &Path) -> CkptResult<Value> {
    let text = std::fs::read_to_string(path)?;
    serde_json::from_str(&text).map_err(|e| CkptError::Parse(e.to_string()))
}

/// Periodic checkpoint policy: every `k` rounds, write the state into a
/// directory, one file per checkpointed round plus a stable `latest.json`
/// alias (both written atomically).
pub struct Checkpointer {
    dir: PathBuf,
    every: u64,
    written: u64,
}

impl Checkpointer {
    /// Checkpoint every `every` rounds into `dir` (created if absent).
    /// `every` must be nonzero.
    pub fn checkpoint_every(every: u64, dir: impl Into<PathBuf>) -> CkptResult<Self> {
        if every == 0 {
            return Err(CkptError::Corrupt("checkpoint interval must be nonzero".into()));
        }
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir, every, written: 0 })
    }

    /// Is a checkpoint due after completing `round`? (Rounds are counted
    /// from 0, so the first checkpoint lands after round `every - 1`.)
    pub fn due(&self, round: u64) -> bool {
        (round + 1) % self.every == 0
    }

    /// Path of the checkpoint for `round`.
    pub fn path_for(&self, round: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{round:010}.json"))
    }

    /// Path of the rolling `latest.json` alias.
    pub fn latest_path(&self) -> PathBuf {
        self.dir.join("latest.json")
    }

    /// Number of checkpoints written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Write `state` as the checkpoint for `round` (and as `latest.json`).
    pub fn save(&mut self, round: u64, state: &Value) -> CkptResult<PathBuf> {
        let path = self.path_for(round);
        write_value_atomic(&path, state)?;
        write_value_atomic(&self.latest_path(), state)?;
        self.written += 1;
        Ok(path)
    }

    /// Load the newest checkpoint in `dir` that actually loads as a `T`,
    /// skipping torn or corrupt files instead of failing on the first one.
    ///
    /// Tries `latest.json` first, then the round-named `ckpt-*.json` files
    /// newest-first (round numbers are zero-padded, so lexicographic
    /// filename order is round order). The atomic writer makes torn files
    /// unlikely, but a full disk, an interrupted copy, or a stray editor
    /// can still leave one — recovery must not be blocked by the very
    /// artifact meant to enable it. Returns the path it loaded alongside
    /// the state, or [`CkptError::NoUsableCheckpoint`] when every
    /// candidate fails.
    pub fn latest<T: Checkpoint>(dir: &Path) -> CkptResult<(PathBuf, T)> {
        let mut candidates = vec![dir.join("latest.json")];
        let mut rounds: Vec<PathBuf> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("ckpt-") && n.ends_with(".json"))
            })
            .collect();
        rounds.sort();
        candidates.extend(rounds.into_iter().rev());

        let mut scanned = 0;
        let mut skipped = 0;
        for path in candidates {
            if !path.is_file() {
                continue;
            }
            scanned += 1;
            match read_value(&path).and_then(|v| T::load(&v)) {
                Ok(state) => return Ok((path, state)),
                Err(_) => skipped += 1,
            }
        }
        Err(CkptError::NoUsableCheckpoint { dir: dir.display().to_string(), scanned, skipped })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::stream;
    use rand::RngCore;

    #[test]
    fn rng_checkpoint_round_trips_stream() {
        let mut a = stream(42, 7, 3);
        for _ in 0..29 {
            a.next_u32();
        }
        let saved = a.save();
        let mut b = NodeRng::load(&saved).unwrap();
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn f64_bits_are_exact() {
        for x in [0.1, 0.30000000000000004, f64::MIN_POSITIVE, 1.0 / 3.0] {
            let v = serde_json::json!({ "x": x.save() });
            let text = serde_json::to_string(&v).unwrap();
            let back = serde_json::from_str(&text).unwrap();
            assert_eq!(get::<f64>(&back, "x").unwrap(), x);
        }
    }

    #[test]
    fn atomic_write_then_read() {
        let dir = std::env::temp_dir().join("simnet-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.json");
        let v = serde_json::json!({ "a": 1u64, "b": vec![2u64, 3u64] });
        write_value_atomic(&path, &v).unwrap();
        assert_eq!(read_value(&path).unwrap(), v);
        assert!(!path.with_extension("tmp").exists(), "tmp renamed away");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checkpointer_cadence_and_paths() {
        let dir = std::env::temp_dir().join("simnet-ckpt-cadence");
        let ck = Checkpointer::checkpoint_every(5, &dir).unwrap();
        assert!(!ck.due(0));
        assert!(ck.due(4));
        assert!(ck.due(9));
        assert!(!ck.due(5));
        assert!(Checkpointer::checkpoint_every(0, &dir).is_err());
    }

    #[test]
    fn corrupt_input_reports_field() {
        let v = serde_json::json!({ "counter": 1u64 });
        let err = NodeRng::load(&v).unwrap_err();
        assert!(err.to_string().contains("key"), "got: {err}");
    }

    /// A saved generator with one field replaced.
    fn rng_with(name: &str, value: Value) -> Value {
        let Value::Object(mut saved) = crate::rng::stream(1, 2, 3).save() else {
            unreachable!("a generator saves as an object")
        };
        saved.insert(name.to_string(), value);
        Value::Object(saved)
    }

    #[test]
    fn rng_pos_past_the_block_is_corrupt() {
        assert!(NodeRng::load(&rng_with("pos", Value::from(16u64))).is_ok(), "16 = exhausted");
        let err = NodeRng::load(&rng_with("pos", Value::from(17u64))).unwrap_err();
        assert!(matches!(err, CkptError::Corrupt(_)) && err.to_string().contains("`pos`"), "{err}");
    }

    #[test]
    fn rng_counter_zero_is_corrupt() {
        let err = NodeRng::load(&rng_with("counter", Value::from(0u64))).unwrap_err();
        assert!(
            matches!(err, CkptError::Corrupt(_)) && err.to_string().contains("`counter`"),
            "{err}"
        );
    }

    #[test]
    fn rng_words_above_32_bits_are_corrupt() {
        let wide = 1u64 << 32;
        let mut key = vec![0u64; 8];
        key[3] = wide;
        for (name, value) in [
            ("key", Value::from(key)),
            ("nonce", Value::from(vec![0u64, wide])),
            ("spare", Value::from(wide)),
        ] {
            let err = NodeRng::load(&rng_with(name, value)).unwrap_err();
            assert!(
                matches!(err, CkptError::Corrupt(_)) && err.to_string().contains(name),
                "{name}: {err}"
            );
        }
        assert!(NodeRng::load(&rng_with("spare", Value::from(u32::MAX as u64))).is_ok());
    }

    /// Scratch directory unique to a test, emptied on entry.
    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("simnet-ckpt-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn latest_falls_back_past_torn_and_corrupt_files() {
        let dir = scratch("torn");
        let mut ck = Checkpointer::checkpoint_every(1, &dir).unwrap();
        ck.save(4, &7u64.save()).unwrap();
        ck.save(9, &8u64.save()).unwrap();
        ck.save(14, &9u64.save()).unwrap();
        // Tear the newest round file mid-token and corrupt latest.json
        // with valid JSON of the wrong shape.
        std::fs::write(ck.path_for(14), "{\"trunc").unwrap();
        std::fs::write(ck.latest_path(), "[\"not a u64\"]").unwrap();
        let (path, state) = Checkpointer::latest::<u64>(&dir).unwrap();
        assert_eq!(state, 8);
        assert_eq!(path, ck.path_for(9));
    }

    #[test]
    fn latest_prefers_the_latest_alias_when_it_loads() {
        let dir = scratch("alias");
        let mut ck = Checkpointer::checkpoint_every(1, &dir).unwrap();
        ck.save(3, &5u64.save()).unwrap();
        let (path, state) = Checkpointer::latest::<u64>(&dir).unwrap();
        assert_eq!(state, 5);
        assert_eq!(path, ck.latest_path());
    }

    #[test]
    fn latest_reports_no_usable_checkpoint() {
        let dir = scratch("allbad");
        std::fs::write(dir.join("latest.json"), "garbage").unwrap();
        std::fs::write(dir.join("ckpt-0000000004.json"), "{").unwrap();
        let err = Checkpointer::latest::<u64>(&dir).unwrap_err();
        match err {
            CkptError::NoUsableCheckpoint { scanned, skipped, .. } => {
                assert_eq!(scanned, 2);
                assert_eq!(skipped, 2);
            }
            other => panic!("expected NoUsableCheckpoint, got {other}"),
        }
    }
}
