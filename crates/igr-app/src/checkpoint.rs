//! Checkpoint / restart: binary field dumps with exact (bit-level) state
//! round-tripping.
//!
//! Production campaigns at the paper's scale run for many wall-clock hours
//! (the Fig. 1 case ran 16 hours on 9.2 K GH200s) and restart from
//! checkpoints. This module serializes the conserved state — *in its
//! storage precision*, so an FP16-storage run restarts from exactly the
//! bits it would have had — plus the entropic pressure Σ (part of the
//! paper's 17 N persistent state: restoring it keeps the warm-started
//! elliptic solve on the same trajectory) and metadata to refuse
//! mismatched restarts.

use crate::actions::ActionLog;
use crate::recovery::RecoveryLog;
use igr_core::Fields;
use igr_core::State;
use igr_grid::{Field, GridShape};
use igr_prec::{f16, Real, Storage};
use std::io::{Read as _, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Magic bytes + format version.
///
/// v3 (this format): the conserved-field count is explicit in the header, so
/// one format serves the 5-field single-fluid state and the 7-field
/// two-fluid state, and the frozen time step (grind runs pin `dt`) rides
/// along so a resumed run replays the identical step sizes. A run whose
/// boundary state was mutated mid-flight appends its [`ActionLog`] as an
/// `ACTLOG` trailer after the field payload, and a run that rolled back
/// through divergence recovery appends its [`RecoveryLog`] as a `RECLOG`
/// trailer after that (both additive: trailer-free files are byte-identical
/// to before the trailers existed, and old payload-only files still load).
const MAGIC: &[u8; 8] = b"IGRCKPT\x03";
/// Header: magic(8) + width-tag(1) + n-fields(1) + has-sigma(1) + dims(4×8)
/// + t(8) + step(8) + fixed-dt(8, NaN = none).
const HEADER: usize = 8 + 1 + 1 + 1 + 32 + 8 + 8 + 8;
/// Byte offsets of the header fields after the magic.
const OFF_WIDTH: usize = 8;
const OFF_NFIELDS: usize = 9;
const OFF_SIGMA: usize = 10;
const OFF_DIMS: usize = 11;
const OFF_T: usize = 43;
const OFF_STEP: usize = 51;
const OFF_FIXED_DT: usize = 59;

/// Magic bytes + version of the rank-metadata trailer a decomposed run's
/// per-rank snapshot carries (`<hash>.rank<N>.ckpt` files).
const RANK_MAGIC: &[u8; 8] = b"IGRRANK\x01";
/// Fixed trailer size: magic(8) + 14 u64 fields (rank, n_ranks,
/// global[3], dims[3], offset[3], extent[3]).
const RANK_META_BYTES: usize = 8 + 14 * 8;

/// The decomposition identity of one rank's snapshot: which shard of which
/// global run this file is.
///
/// Decomposed (`ranks > 1`) runs snapshot **per rank** — each rank writes
/// `<stem>.rank<N>.ckpt` with its local block (interior + ghosts) and this
/// trailer. A resume refuses a file whose decomposition does not match the
/// solver being restored (different rank count, rank grid, or block
/// placement), because a bitwise resume is only defined on the identical
/// decomposition. All fields are u64 on disk so the codec is
/// precision-free; the codec round-trips bit-exactly (pinned by the wire
/// property test).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankMeta {
    /// This shard's rank index, `0..n_ranks`.
    pub rank: u64,
    /// Total ranks in the decomposition.
    pub n_ranks: u64,
    /// Global interior cell counts `[nx, ny, nz]`.
    pub global: [u64; 3],
    /// Rank-grid dimensions `[px, py, pz]` (`px·py·pz == n_ranks`).
    pub dims: [u64; 3],
    /// This rank's interior offset in global cells.
    pub offset: [u64; 3],
    /// This rank's interior extent in cells.
    pub extent: [u64; 3],
}

impl RankMeta {
    /// Encode as the fixed-size `IGRRANK` trailer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(RANK_META_BYTES);
        out.extend_from_slice(RANK_MAGIC);
        for v in [self.rank, self.n_ranks]
            .into_iter()
            .chain(self.global)
            .chain(self.dims)
            .chain(self.offset)
            .chain(self.extent)
        {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Decode a fixed-size `IGRRANK` trailer (exactly
    /// [`RankMeta::encoded_len`] bytes).
    pub fn decode(bytes: &[u8]) -> Result<RankMeta, String> {
        if bytes.len() != RANK_META_BYTES {
            return Err(format!(
                "rank trailer is {} bytes, expected {RANK_META_BYTES}",
                bytes.len()
            ));
        }
        if &bytes[..8] != RANK_MAGIC {
            return Err("bad rank-trailer magic".into());
        }
        let u = |i: usize| u64::from_le_bytes(bytes[8 + i * 8..16 + i * 8].try_into().unwrap());
        let triple = |i: usize| [u(i), u(i + 1), u(i + 2)];
        Ok(RankMeta {
            rank: u(0),
            n_ranks: u(1),
            global: triple(2),
            dims: triple(5),
            offset: triple(8),
            extent: triple(11),
        })
    }

    /// On-disk size of the trailer, bytes.
    pub fn encoded_len() -> usize {
        RANK_META_BYTES
    }
}

/// Frame a replay log as a checkpoint trailer: `magic`(8) + record count
/// (8, LE) + the records at `record_bytes` each, as written by `put`.
pub(crate) fn encode_log<T>(
    magic: &[u8; 8],
    record_bytes: usize,
    records: &[T],
    mut put: impl FnMut(&T, &mut Vec<u8>),
) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + records.len() * record_bytes);
    out.extend_from_slice(magic);
    out.extend_from_slice(&(records.len() as u64).to_le_bytes());
    for rec in records {
        put(rec, &mut out);
    }
    debug_assert_eq!(out.len(), 16 + records.len() * record_bytes);
    out
}

/// Parse one [`encode_log`] trailer from the front of `bytes`, returning the
/// records (each decoded by `get` from its `record_bytes` slice) and the
/// number of bytes consumed. The count is untrusted input: it is checked
/// against the bytes actually present before anything is allocated.
pub(crate) fn decode_log<T>(
    what: &str,
    magic: &[u8; 8],
    record_bytes: usize,
    bytes: &[u8],
    get: impl FnMut(&[u8]) -> Result<T, String>,
) -> Result<(Vec<T>, usize), String> {
    if bytes.len() < 16 || &bytes[..8] != magic {
        return Err(format!("bad {what} magic"));
    }
    let count = u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte slice"));
    let total = usize::try_from(count)
        .ok()
        .and_then(|n| n.checked_mul(record_bytes))
        .and_then(|n| n.checked_add(16))
        .filter(|total| *total <= bytes.len())
        .ok_or_else(|| {
            format!(
                "{what} holds {} bytes, too few for {count} records",
                bytes.len()
            )
        })?;
    let records = bytes[16..total]
        .chunks_exact(record_bytes)
        .map(get)
        .collect::<Result<Vec<T>, String>>()?;
    Ok((records, total))
}

/// [`decode_log`] for a slice that must hold exactly one trailer (no slack).
pub(crate) fn decode_log_exact<T>(
    what: &str,
    magic: &[u8; 8],
    record_bytes: usize,
    bytes: &[u8],
    get: impl FnMut(&[u8]) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let (records, used) = decode_log(what, magic, record_bytes, bytes, get)?;
    if used != bytes.len() {
        return Err(format!(
            "{what} trailer has {} trailing bytes",
            bytes.len() - used
        ));
    }
    Ok(records)
}

/// Errors from checkpoint I/O.
#[derive(Debug)]
pub enum CheckpointError {
    /// Reading or writing the file failed.
    Io(std::io::Error),
    /// Not a checkpoint file or wrong version.
    BadMagic,
    /// Grid shape or precision of the file does not match the solver.
    Mismatch(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O: {e}"),
            CheckpointError::BadMagic => write!(f, "not an IGR checkpoint (bad magic/version)"),
            CheckpointError::Mismatch(m) => write!(f, "checkpoint mismatch: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Storage scalars that can be dumped bit-exactly.
pub trait CheckpointScalar: Copy {
    /// The header's width tag for this scalar (its byte width).
    const TAG: u8;
    /// Bytes one value occupies on disk.
    const WIDTH: usize;
    /// Append the value's little-endian bit pattern.
    fn write_to(&self, out: &mut Vec<u8>);
    /// Rebuild a value from exactly [`CheckpointScalar::WIDTH`] bytes.
    fn read_from(bytes: &[u8]) -> Self;
}

impl CheckpointScalar for f64 {
    const TAG: u8 = 8;
    const WIDTH: usize = 8;
    fn write_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn read_from(bytes: &[u8]) -> Self {
        f64::from_le_bytes(bytes.try_into().unwrap())
    }
}

impl CheckpointScalar for f32 {
    const TAG: u8 = 4;
    const WIDTH: usize = 4;
    fn write_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn read_from(bytes: &[u8]) -> Self {
        f32::from_le_bytes(bytes.try_into().unwrap())
    }
}

impl CheckpointScalar for f16 {
    const TAG: u8 = 2;
    const WIDTH: usize = 2;
    fn write_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn read_from(bytes: &[u8]) -> Self {
        f16::from_bits(u16::from_le_bytes(bytes.try_into().unwrap()))
    }
}

/// A restartable snapshot: simulation time, step count, optional frozen
/// time step, the packed conserved state (interior + ghosts), and
/// optionally Σ.
pub struct Checkpoint {
    /// Simulation time at capture.
    pub t: f64,
    /// Absolute step count at capture.
    pub step: usize,
    /// The solver's pinned time step at capture, if any (grind measurement
    /// freezes `dt`; restoring it keeps a resumed run on the identical step
    /// sizes).
    pub fixed_dt: Option<f64>,
    /// Actions applied to the run before this snapshot, in application
    /// order. A resume replays these against the freshly built solver to
    /// reconstruct boundary state the field payload does not carry (engine
    /// knock-outs, gimbal ramps, backpressure changes). Empty for
    /// action-free runs — and then the on-disk file is byte-identical to a
    /// trailer-less checkpoint.
    pub actions: ActionLog,
    /// Rollbacks the recovered run performed before this snapshot. A resume
    /// seeds the driver's recovery log from it so the dt backoff schedule
    /// replays bit-exactly and the chaos injection does not re-fire. Empty
    /// for recovery-free runs — and then the on-disk file is byte-identical
    /// to a trailer-less checkpoint.
    pub recoveries: RecoveryLog,
    /// For per-rank snapshots of a decomposed run: which shard this file
    /// is. `None` (no trailer on disk) for single-block snapshots — and
    /// then the file is byte-identical to a pre-trailer checkpoint.
    pub rank_meta: Option<RankMeta>,
    bytes: Vec<u8>,
}

impl Checkpoint {
    /// Capture a snapshot of `q` (and optionally the scheme's Σ field) at
    /// time `t` / step `step`.
    pub fn capture<R, S>(q: &State<R, S>, sigma: Option<&Field<R, S>>, t: f64, step: usize) -> Self
    where
        R: Real,
        S: Storage<R>,
        S::Packed: CheckpointScalar,
    {
        Self::capture_fields(&q.fields(), sigma, t, step, None)
    }

    /// Capture an arbitrary conserved-field list (5 for the single-fluid
    /// state, 7 for the two-fluid state) plus optional Σ and pinned dt.
    pub fn capture_fields<R, S>(
        fields: &[&Field<R, S>],
        sigma: Option<&Field<R, S>>,
        t: f64,
        step: usize,
        fixed_dt: Option<f64>,
    ) -> Self
    where
        R: Real,
        S: Storage<R>,
        S::Packed: CheckpointScalar,
    {
        assert!(
            !fields.is_empty() && fields.len() <= u8::MAX as usize,
            "field count must fit the header byte"
        );
        let shape = fields[0].shape();
        let n_fields = fields.len() + usize::from(sigma.is_some());
        let mut bytes = Vec::with_capacity(HEADER + n_fields * shape.n_total() * S::Packed::WIDTH);
        bytes.extend_from_slice(MAGIC);
        bytes.push(S::Packed::TAG);
        bytes.push(fields.len() as u8);
        bytes.push(u8::from(sigma.is_some()));
        for dim in [shape.nx, shape.ny, shape.nz, shape.ng] {
            bytes.extend_from_slice(&(dim as u64).to_le_bytes());
        }
        bytes.extend_from_slice(&t.to_le_bytes());
        bytes.extend_from_slice(&(step as u64).to_le_bytes());
        bytes.extend_from_slice(&fixed_dt.unwrap_or(f64::NAN).to_le_bytes());
        for f in fields {
            assert_eq!(f.shape(), shape, "all checkpointed fields share a shape");
            for p in f.packed() {
                p.write_to(&mut bytes);
            }
        }
        if let Some(sig) = sigma {
            for p in sig.packed() {
                p.write_to(&mut bytes);
            }
        }
        Checkpoint {
            t,
            step,
            fixed_dt,
            actions: ActionLog::new(),
            recoveries: RecoveryLog::new(),
            rank_meta: None,
            bytes,
        }
    }

    /// Attach the run's action log; it rides along in the `ACTLOG` trailer
    /// on save and is replayed by controlled resumes.
    pub fn with_actions(mut self, actions: ActionLog) -> Self {
        self.actions = actions;
        self
    }

    /// Attach the run's recovery log; it rides along in the `RECLOG`
    /// trailer on save and seeds the driver's log on resume so the dt
    /// backoff schedule replays bit-exactly.
    pub fn with_recoveries(mut self, recoveries: RecoveryLog) -> Self {
        self.recoveries = recoveries;
        self
    }

    /// Mark this snapshot as one rank's shard of a decomposed run; the
    /// metadata rides in the `IGRRANK` trailer and is validated on resume.
    pub fn with_rank_meta(mut self, meta: RankMeta) -> Self {
        self.rank_meta = Some(meta);
        self
    }

    /// The one serializer behind [`Checkpoint::save`] and
    /// [`Checkpoint::save_atomic`]: payload, then (when non-empty) the
    /// `ACTLOG` trailer, then (when non-empty) the `RECLOG` trailer, then
    /// (for rank shards) the fixed-size `IGRRANK` trailer.
    fn write_to(&self, f: &mut std::fs::File) -> Result<(), CheckpointError> {
        f.write_all(&self.bytes)?;
        if !self.actions.is_empty() {
            f.write_all(&self.actions.encode())?;
        }
        if !self.recoveries.is_empty() {
            f.write_all(&self.recoveries.encode())?;
        }
        if let Some(meta) = &self.rank_meta {
            f.write_all(&meta.encode())?;
        }
        Ok(())
    }

    /// Write to disk (non-atomic, non-durable — tests and tooling; restart
    /// files go through [`Checkpoint::save_atomic`]).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        let mut f = std::fs::File::create(path)?;
        self.write_to(&mut f)
    }

    /// Write to disk atomically *and durably*: a uniquely named temporary
    /// in the target directory, fsync'd before `rename` into place, with
    /// the containing directory fsync'd after — so an autosave survives
    /// power loss, not just process death (a rename alone only orders the
    /// name change, not the data, and the new name itself lives in the
    /// directory). This is the one checkpoint writer shared by the autosave
    /// observer, controller-requested snapshots, recovered-run boundary
    /// saves, and the per-rank `<hash>.rank<N>.ckpt` writer, so two writers
    /// racing on the same path can never interleave bytes — the last rename
    /// wins with a complete, durable file.
    pub fn save_atomic(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let path = path.as_ref();
        let tmp = path.with_extension(format!(
            "ckpt.tmp.{}.{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let written = (|| {
            let mut f = std::fs::File::create(&tmp)?;
            self.write_to(&mut f)?;
            f.sync_all().map_err(CheckpointError::from)
        })();
        if let Err(e) = written {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        if let Err(e) = std::fs::rename(&tmp, path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e.into());
        }
        #[cfg(unix)]
        {
            let dir = path
                .parent()
                .filter(|d| !d.as_os_str().is_empty())
                .unwrap_or_else(|| Path::new("."));
            std::fs::File::open(dir)?.sync_all()?;
        }
        Ok(())
    }

    /// Read from disk. The field payload's size is computed from the header
    /// (the width tag doubles as the scalar byte width); anything after it
    /// must be valid trailers (`ACTLOG`, then `RECLOG`, then `IGRRANK`).
    /// Full payload validation happens at [`Checkpoint::restore`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        let mut bytes = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut bytes)?;
        if bytes.len() < HEADER || &bytes[..8] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let width = bytes[OFF_WIDTH] as usize;
        if !matches!(width, 2 | 4 | 8) {
            return Err(CheckpointError::BadMagic);
        }
        let t = f64::from_le_bytes(bytes[OFF_T..OFF_T + 8].try_into().unwrap());
        let step = u64::from_le_bytes(bytes[OFF_STEP..OFF_STEP + 8].try_into().unwrap()) as usize;
        let dt = f64::from_le_bytes(bytes[OFF_FIXED_DT..OFF_FIXED_DT + 8].try_into().unwrap());
        let dim = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap()) as usize;
        let shape = GridShape::new(
            dim(OFF_DIMS),
            dim(OFF_DIMS + 8),
            dim(OFF_DIMS + 16),
            dim(OFF_DIMS + 24),
        );
        let n_fields = bytes[OFF_NFIELDS] as usize + usize::from(bytes[OFF_SIGMA] != 0);
        let expected = HEADER + n_fields * shape.n_total() * width;
        if bytes.len() < expected {
            return Err(CheckpointError::Mismatch(format!(
                "file holds {} bytes, field payload needs {expected}",
                bytes.len()
            )));
        }
        // Trailers after the payload: an optional ACTLOG, then an optional
        // RECLOG, then an optional fixed-size IGRRANK. Each log block is
        // dispatched by its magic and must consume exactly its own bytes.
        // Try the rank-trailer split first; if the rest then fails to parse
        // as log blocks, fall back to reading the whole tail as logs (a log
        // whose last record happens to mimic the rank magic must still
        // load).
        let tail = &bytes[expected..];
        let parse_logs = |tail: &[u8]| -> Result<(ActionLog, RecoveryLog), String> {
            let mut rest = tail;
            let mut actions = ActionLog::new();
            let mut recoveries = RecoveryLog::new();
            if rest.starts_with(crate::actions::ACTLOG_MAGIC) {
                let (log, used) = ActionLog::decode_prefix(rest)?;
                actions = log;
                rest = &rest[used..];
            }
            if rest.starts_with(crate::recovery::RECLOG_MAGIC) {
                let (log, used) = RecoveryLog::decode_prefix(rest)?;
                recoveries = log;
                rest = &rest[used..];
            }
            if !rest.is_empty() {
                return Err(format!("{} unrecognized trailer bytes", rest.len()));
            }
            Ok((actions, recoveries))
        };
        let parse_tail =
            |tail: &[u8]| -> Result<(ActionLog, RecoveryLog, Option<RankMeta>), String> {
                if tail.len() >= RANK_META_BYTES
                    && tail[tail.len() - RANK_META_BYTES..].starts_with(RANK_MAGIC)
                {
                    let (rest, trailer) = tail.split_at(tail.len() - RANK_META_BYTES);
                    if let Ok(meta) = RankMeta::decode(trailer) {
                        if let Ok((actions, recoveries)) = parse_logs(rest) {
                            return Ok((actions, recoveries, Some(meta)));
                        }
                    }
                }
                parse_logs(tail).map(|(a, r)| (a, r, None))
            };
        let (actions, recoveries, rank_meta) =
            parse_tail(tail).map_err(CheckpointError::Mismatch)?;
        bytes.truncate(expected);
        Ok(Checkpoint {
            t,
            step,
            fixed_dt: (!dt.is_nan()).then_some(dt),
            actions,
            recoveries,
            rank_meta,
            bytes,
        })
    }

    /// Shape recorded in the snapshot.
    pub fn shape(&self) -> GridShape {
        let dim = |o: usize| u64::from_le_bytes(self.bytes[o..o + 8].try_into().unwrap()) as usize;
        GridShape::new(
            dim(OFF_DIMS),
            dim(OFF_DIMS + 8),
            dim(OFF_DIMS + 16),
            dim(OFF_DIMS + 24),
        )
    }

    /// Conserved-field count recorded in the snapshot (5 single-fluid,
    /// 7 two-fluid).
    pub fn n_fields(&self) -> usize {
        self.bytes[OFF_NFIELDS] as usize
    }

    /// Whether the snapshot carries a Σ field.
    pub fn has_sigma(&self) -> bool {
        self.bytes[OFF_SIGMA] != 0
    }

    /// Restore into a state (and optional Σ) of matching shape and storage
    /// precision, bit-exactly.
    pub fn restore<R, S>(
        &self,
        q: &mut State<R, S>,
        sigma: Option<&mut Field<R, S>>,
    ) -> Result<(), CheckpointError>
    where
        R: Real,
        S: Storage<R>,
        S::Packed: CheckpointScalar,
    {
        self.restore_fields(&mut q.fields_mut(), sigma)
    }

    /// Restore an arbitrary conserved-field list (and optional Σ) of
    /// matching count, shape, and storage precision, bit-exactly.
    pub fn restore_fields<R, S>(
        &self,
        fields: &mut [&mut Field<R, S>],
        sigma: Option<&mut Field<R, S>>,
    ) -> Result<(), CheckpointError>
    where
        R: Real,
        S: Storage<R>,
        S::Packed: CheckpointScalar,
    {
        if self.n_fields() != fields.len() {
            return Err(CheckpointError::Mismatch(format!(
                "{} conserved fields vs file {}",
                fields.len(),
                self.n_fields()
            )));
        }
        if sigma.is_some() && !self.has_sigma() {
            return Err(CheckpointError::Mismatch(
                "snapshot carries no sigma field".into(),
            ));
        }
        let w = self.validate_payload::<R, S>(fields[0].shape())?;
        let mut off = HEADER;
        for f in fields.iter_mut() {
            for p in f.packed_mut() {
                *p = S::Packed::read_from(&self.bytes[off..off + w]);
                off += w;
            }
        }
        if let Some(sig) = sigma {
            for p in sig.packed_mut() {
                *p = S::Packed::read_from(&self.bytes[off..off + w]);
                off += w;
            }
        }
        Ok(())
    }

    /// Restore just the Σ payload (for restores that must split the state
    /// and Σ borrows). Errors if the snapshot carries no Σ or the shape or
    /// precision mismatch.
    pub fn restore_sigma_into<R, S>(&self, sigma: &mut Field<R, S>) -> Result<(), CheckpointError>
    where
        R: Real,
        S: Storage<R>,
        S::Packed: CheckpointScalar,
    {
        if !self.has_sigma() {
            return Err(CheckpointError::Mismatch(
                "snapshot carries no sigma field".into(),
            ));
        }
        let shape = sigma.shape();
        let w = self.validate_payload::<R, S>(shape)?;
        let mut off = HEADER + self.n_fields() * shape.n_total() * w;
        for p in sigma.packed_mut() {
            *p = S::Packed::read_from(&self.bytes[off..off + w]);
            off += w;
        }
        Ok(())
    }

    /// Shared restore-side header validation: storage width tag, grid
    /// shape, and total payload length (conserved fields + optional Σ, per
    /// the header's own counts). Returns the scalar width in bytes.
    fn validate_payload<R, S>(&self, shape: GridShape) -> Result<usize, CheckpointError>
    where
        R: Real,
        S: Storage<R>,
        S::Packed: CheckpointScalar,
    {
        if self.bytes[OFF_WIDTH] != S::Packed::TAG {
            return Err(CheckpointError::Mismatch(format!(
                "storage width {} vs file {}",
                S::Packed::TAG,
                self.bytes[OFF_WIDTH]
            )));
        }
        if self.shape() != shape {
            return Err(CheckpointError::Mismatch(format!(
                "grid {:?} vs file {:?}",
                shape,
                self.shape()
            )));
        }
        let w = S::Packed::WIDTH;
        let n_fields = self.n_fields() + usize::from(self.has_sigma());
        let expected = HEADER + n_fields * shape.n_total() * w;
        if self.bytes.len() != expected {
            return Err(CheckpointError::Mismatch(format!(
                "payload {} bytes, expected {expected}",
                self.bytes.len()
            )));
        }
        Ok(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases;
    use igr_prec::{StoreF16, StoreF64};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("igr_ckpt_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn roundtrip_is_bit_exact_f64() {
        let case = cases::steepening_wave(48, 0.3);
        let mut solver = case.igr_solver::<f64, StoreF64>();
        for _ in 0..3 {
            solver.step().unwrap();
        }
        let ck = Checkpoint::capture(&solver.q, None, solver.t(), solver.steps_taken());
        let path = tmp("rt64.ckpt");
        ck.save(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded.t, solver.t());
        assert_eq!(loaded.step, 3);
        assert!(!loaded.has_sigma());
        let mut q2: State<f64, StoreF64> = State::zeros(case.domain.shape);
        loaded.restore(&mut q2, None).unwrap();
        assert_eq!(solver.q.max_diff(&q2), 0.0);
    }

    #[test]
    fn roundtrip_preserves_f16_bits() {
        let case = cases::steepening_wave(32, 0.3);
        let mut solver = case.igr_solver::<f32, StoreF16>();
        solver.step().unwrap();
        let ck = Checkpoint::capture(&solver.q, Some(solver.scheme.sigma()), solver.t(), 1);
        let path = tmp("rt16.ckpt");
        ck.save(&path).unwrap();
        let mut q2: State<f32, StoreF16> = State::zeros(case.domain.shape);
        let mut sig2: Field<f32, StoreF16> = Field::zeros(case.domain.shape);
        let loaded = Checkpoint::load(&path).unwrap();
        loaded.restore(&mut q2, Some(&mut sig2)).unwrap();
        for (a, b) in solver.q.fields().into_iter().zip(q2.fields()) {
            for (x, y) in a.packed().iter().zip(b.packed()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        for (x, y) in solver.scheme.sigma().packed().iter().zip(sig2.packed()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// The production property: run N steps straight == run k steps,
    /// checkpoint (state + Σ), restore into a FRESH solver, run N-k more —
    /// bit for bit.
    #[test]
    fn restart_reproduces_uninterrupted_run_bitwise() {
        let case = cases::steepening_wave(64, 0.25);

        let mut straight = case.igr_solver::<f64, StoreF64>();
        for _ in 0..8 {
            straight.step().unwrap();
        }

        let mut first = case.igr_solver::<f64, StoreF64>();
        for _ in 0..4 {
            first.step().unwrap();
        }
        let ck = Checkpoint::capture(
            &first.q,
            Some(first.scheme.sigma()),
            first.t(),
            first.steps_taken(),
        );
        let path = tmp("restart.ckpt");
        ck.save(&path).unwrap();

        let loaded = Checkpoint::load(&path).unwrap();
        let mut resumed = case.igr_solver::<f64, StoreF64>();
        loaded
            .restore(&mut resumed.q, Some(resumed.scheme.sigma_mut()))
            .unwrap();
        for _ in 0..4 {
            resumed.step().unwrap();
        }
        assert_eq!(
            straight.q.max_diff(&resumed.q),
            0.0,
            "restart must reproduce the uninterrupted run bitwise"
        );
    }

    #[test]
    fn mismatched_shape_is_refused() {
        let case = cases::steepening_wave(32, 0.2);
        let solver = case.igr_solver::<f64, StoreF64>();
        let ck = Checkpoint::capture(&solver.q, None, 0.0, 0);
        let mut wrong: State<f64, StoreF64> = State::zeros(GridShape::new(16, 1, 1, 3));
        assert!(matches!(
            ck.restore(&mut wrong, None),
            Err(CheckpointError::Mismatch(_))
        ));
    }

    #[test]
    fn mismatched_precision_is_refused() {
        let case = cases::steepening_wave(32, 0.2);
        let solver = case.igr_solver::<f64, StoreF64>();
        let ck = Checkpoint::capture(&solver.q, None, 0.0, 0);
        let mut wrong: State<f32, StoreF16> = State::zeros(case.domain.shape);
        assert!(matches!(
            ck.restore(&mut wrong, None),
            Err(CheckpointError::Mismatch(_))
        ));
    }

    #[test]
    fn sigma_request_without_sigma_payload_is_refused() {
        let case = cases::steepening_wave(32, 0.2);
        let solver = case.igr_solver::<f64, StoreF64>();
        let ck = Checkpoint::capture(&solver.q, None, 0.0, 0);
        let mut q2: State<f64, StoreF64> = State::zeros(case.domain.shape);
        let mut sig: Field<f64, StoreF64> = Field::zeros(case.domain.shape);
        assert!(matches!(
            ck.restore(&mut q2, Some(&mut sig)),
            Err(CheckpointError::Mismatch(_))
        ));
    }

    #[test]
    fn fixed_dt_and_field_count_round_trip() {
        let case = cases::steepening_wave(32, 0.2);
        let solver = case.igr_solver::<f64, StoreF64>();
        let fields = solver.q.fields();
        let ck = Checkpoint::capture_fields(&fields, None, 0.5, 7, Some(1.25e-3));
        let path = tmp("fixed_dt.ckpt");
        ck.save(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded.fixed_dt.unwrap().to_bits(), 1.25e-3f64.to_bits());
        assert_eq!(loaded.n_fields(), 5);
        assert_eq!(loaded.step, 7);
        // A 4-field restore target is refused.
        let mut q2: State<f64, StoreF64> = State::zeros(case.domain.shape);
        let mut fields2 = q2.fields_mut();
        let (subset, _) = fields2.split_at_mut(4);
        assert!(matches!(
            loaded.restore_fields(subset, None),
            Err(CheckpointError::Mismatch(_))
        ));
    }

    #[test]
    fn action_trailer_round_trips_and_empty_log_changes_nothing() {
        use crate::actions::{Action, ActionLog};
        let case = cases::steepening_wave(32, 0.2);
        let solver = case.igr_solver::<f64, StoreF64>();
        let plain = Checkpoint::capture(&solver.q, None, 0.25, 4);
        let p_plain = tmp("trail_plain.ckpt");
        plain.save(&p_plain).unwrap();

        // Empty log → byte-identical file, loads with an empty log.
        let p_empty = tmp("trail_empty.ckpt");
        Checkpoint::capture(&solver.q, None, 0.25, 4)
            .with_actions(ActionLog::new())
            .save(&p_empty)
            .unwrap();
        assert_eq!(
            std::fs::read(&p_plain).unwrap(),
            std::fs::read(&p_empty).unwrap()
        );
        assert!(Checkpoint::load(&p_plain).unwrap().actions.is_empty());

        // Non-empty log rides the trailer and restores bit-exactly — and
        // the field payload still restores untouched.
        let mut log = ActionLog::new();
        log.record(3, 0.125, Action::EngineOut { engine: 1 });
        log.record(
            4,
            f64::NAN,
            Action::SetGimbal {
                engine: 0,
                target: [f64::INFINITY, -0.0],
                rate: 0.5,
            },
        );
        let p_log = tmp("trail_log.ckpt");
        Checkpoint::capture(&solver.q, None, 0.25, 4)
            .with_actions(log.clone())
            .save(&p_log)
            .unwrap();
        let loaded = Checkpoint::load(&p_log).unwrap();
        assert_eq!(loaded.actions, log);
        let mut q2: State<f64, StoreF64> = State::zeros(case.domain.shape);
        loaded.restore(&mut q2, None).unwrap();
        assert_eq!(solver.q.max_diff(&q2), 0.0);

        // Garbage after the payload is refused at load.
        let mut bytes = std::fs::read(&p_plain).unwrap();
        bytes.extend_from_slice(b"junk");
        let p_junk = tmp("trail_junk.ckpt");
        std::fs::write(&p_junk, &bytes).unwrap();
        assert!(matches!(
            Checkpoint::load(&p_junk),
            Err(CheckpointError::Mismatch(_))
        ));
    }

    /// A log trailer's record count is untrusted input: crafted counts whose
    /// `16 + count × RECORD_BYTES` wraps in release arithmetic, and a trailer
    /// one byte short of its records, must come back as typed errors from
    /// `load` — never a panic or a count-sized allocation.
    #[test]
    fn hostile_log_trailers_are_typed_errors_not_panics() {
        use crate::actions::{Action, ActionLog};
        use crate::recovery::RecoveryLog;
        let case = cases::steepening_wave(8, 0.2);
        let solver = case.igr_solver::<f64, StoreF64>();
        let plain = tmp("hostile_plain.ckpt");
        Checkpoint::capture(&solver.q, None, 0.0, 0)
            .save(&plain)
            .unwrap();
        let payload = std::fs::read(&plain).unwrap();
        let mut log = ActionLog::new();
        log.record(1, 0.5, Action::EngineOut { engine: 0 });
        let mut short = log.encode();
        short.pop();

        let crafted = |magic: &[u8; 8], count: u64| [&magic[..], &count.to_le_bytes()].concat();
        for (name, trailer) in [
            ("actlog", crafted(b"ACTLOG\x01\0", 252695124297391118)),
            ("reclog", crafted(b"RECLOG\x01\0", 329406144173384850)),
            ("actlog_max", crafted(b"ACTLOG\x01\0", u64::MAX)),
            ("short", short),
        ] {
            assert!(ActionLog::decode_prefix(&trailer).is_err(), "{name}");
            assert!(RecoveryLog::decode_prefix(&trailer).is_err(), "{name}");
            let path = tmp(&format!("hostile_{name}.ckpt"));
            std::fs::write(&path, [&payload[..], &trailer[..]].concat()).unwrap();
            assert!(
                matches!(Checkpoint::load(&path), Err(CheckpointError::Mismatch(_))),
                "{name}: hostile trailer must be a typed load error"
            );
        }
    }

    #[test]
    fn recovery_trailer_round_trips_and_empty_log_changes_nothing() {
        use crate::recovery::{RecoveryLog, RecoveryRecord};
        let case = cases::steepening_wave(32, 0.2);
        let solver = case.igr_solver::<f64, StoreF64>();
        let plain = Checkpoint::capture(&solver.q, None, 0.25, 4);
        let p_plain = tmp("rec_plain.ckpt");
        plain.save(&p_plain).unwrap();

        // Empty log → byte-identical file, loads with an empty log.
        let p_empty = tmp("rec_empty.ckpt");
        Checkpoint::capture(&solver.q, None, 0.25, 4)
            .with_recoveries(RecoveryLog::new())
            .save(&p_empty)
            .unwrap();
        assert_eq!(
            std::fs::read(&p_plain).unwrap(),
            std::fs::read(&p_empty).unwrap()
        );
        assert!(Checkpoint::load(&p_plain).unwrap().recoveries.is_empty());

        // Non-empty log (with non-finite dt values) rides the trailer and
        // restores bit-exactly; the field payload restores untouched.
        let mut log = RecoveryLog::new();
        log.push(RecoveryRecord {
            trip_step: 37,
            rollback_step: 32,
            rollback_t: 0.125,
            prev_dt: f64::NAN,
            backoff_dt: 1.5e-4,
            hold_until: 64,
            retry: 1,
        });
        let p_log = tmp("rec_log.ckpt");
        Checkpoint::capture(&solver.q, None, 0.25, 4)
            .with_recoveries(log.clone())
            .save(&p_log)
            .unwrap();
        let loaded = Checkpoint::load(&p_log).unwrap();
        assert_eq!(loaded.recoveries, log);
        assert!(loaded.actions.is_empty());
        let mut q2: State<f64, StoreF64> = State::zeros(case.domain.shape);
        loaded.restore(&mut q2, None).unwrap();
        assert_eq!(solver.q.max_diff(&q2), 0.0);

        // All three trailers compose: ACTLOG, then RECLOG, then IGRRANK.
        use crate::actions::{Action, ActionLog};
        let mut actions = ActionLog::new();
        actions.record(2, 0.125, Action::EngineOut { engine: 0 });
        let meta = RankMeta {
            rank: 0,
            n_ranks: 2,
            global: [64, 1, 1],
            dims: [2, 1, 1],
            offset: [0, 0, 0],
            extent: [32, 1, 1],
        };
        let p_all = tmp("rec_all.ckpt");
        Checkpoint::capture(&solver.q, None, 0.25, 4)
            .with_actions(actions.clone())
            .with_recoveries(log.clone())
            .with_rank_meta(meta)
            .save(&p_all)
            .unwrap();
        let loaded = Checkpoint::load(&p_all).unwrap();
        assert_eq!(loaded.actions, actions);
        assert_eq!(loaded.recoveries, log);
        assert_eq!(loaded.rank_meta, Some(meta));

        // A torn RECLOG trailer is refused at load.
        let mut bytes = std::fs::read(&p_log).unwrap();
        bytes.truncate(bytes.len() - 1);
        let p_torn = tmp("rec_torn.ckpt");
        std::fs::write(&p_torn, &bytes).unwrap();
        assert!(matches!(
            Checkpoint::load(&p_torn),
            Err(CheckpointError::Mismatch(_))
        ));
    }

    #[test]
    fn rank_trailer_round_trips_and_composes_with_the_action_log() {
        use crate::actions::{Action, ActionLog};
        let case = cases::steepening_wave(32, 0.2);
        let solver = case.igr_solver::<f64, StoreF64>();
        let meta = RankMeta {
            rank: 1,
            n_ranks: u64::MAX, // codec must carry the full u64 range
            global: [64, 1, 1],
            dims: [2, 1, 1],
            offset: [32, 0, 0],
            extent: [32, 1, 1],
        };
        assert_eq!(RankMeta::decode(&meta.encode()).unwrap(), meta);

        // No trailer on disk when rank_meta is None: file stays identical.
        let p_plain = tmp("rank_plain.ckpt");
        Checkpoint::capture(&solver.q, None, 0.25, 4)
            .save(&p_plain)
            .unwrap();
        assert!(Checkpoint::load(&p_plain).unwrap().rank_meta.is_none());

        // Rank trailer alone.
        let p_rank = tmp("rank_only.ckpt");
        Checkpoint::capture(&solver.q, None, 0.25, 4)
            .with_rank_meta(meta)
            .save(&p_rank)
            .unwrap();
        assert_eq!(
            std::fs::read(&p_rank).unwrap().len(),
            std::fs::read(&p_plain).unwrap().len() + RankMeta::encoded_len()
        );
        let loaded = Checkpoint::load(&p_rank).unwrap();
        assert_eq!(loaded.rank_meta, Some(meta));
        assert!(loaded.actions.is_empty());
        let mut q2: State<f64, StoreF64> = State::zeros(case.domain.shape);
        loaded.restore(&mut q2, None).unwrap();
        assert_eq!(solver.q.max_diff(&q2), 0.0);

        // Both trailers: ACTLOG first, IGRRANK last.
        let mut log = ActionLog::new();
        log.record(2, 0.125, Action::EngineOut { engine: 0 });
        let p_both = tmp("rank_actions.ckpt");
        Checkpoint::capture(&solver.q, None, 0.25, 4)
            .with_actions(log.clone())
            .with_rank_meta(meta)
            .save(&p_both)
            .unwrap();
        let loaded = Checkpoint::load(&p_both).unwrap();
        assert_eq!(loaded.rank_meta, Some(meta));
        assert_eq!(loaded.actions, log);

        // A truncated rank trailer is still refused as garbage.
        let mut bytes = std::fs::read(&p_rank).unwrap();
        bytes.truncate(bytes.len() - 1);
        let p_torn = tmp("rank_torn.ckpt");
        std::fs::write(&p_torn, &bytes).unwrap();
        assert!(matches!(
            Checkpoint::load(&p_torn),
            Err(CheckpointError::Mismatch(_))
        ));
    }

    #[test]
    fn save_atomic_leaves_only_the_final_file() {
        let case = cases::steepening_wave(32, 0.2);
        let solver = case.igr_solver::<f64, StoreF64>();
        let ck = Checkpoint::capture(&solver.q, None, 0.5, 2);
        let dir = std::env::temp_dir().join("igr_ckpt_atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.ckpt");
        ck.save_atomic(&path).unwrap();
        ck.save_atomic(&path).unwrap();
        let entries: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(entries, vec!["snap.ckpt".to_string()], "no tmp residue");
        assert_eq!(Checkpoint::load(&path).unwrap().step, 2);
    }

    #[test]
    fn garbage_file_is_refused() {
        let path = tmp("garbage.ckpt");
        std::fs::write(&path, b"not a checkpoint").unwrap();
        assert!(matches!(
            Checkpoint::load(&path),
            Err(CheckpointError::BadMagic)
        ));
    }

    use igr_core::State;
    use igr_grid::{Field, GridShape};
}
