//! The shared frame codec: every byte that crosses a monitoring link —
//! in-process or on a real socket — goes through here.
//!
//! Frame layout (header integers big-endian):
//!
//! ```text
//! +---------+-------------------+---------------------+-----------------+
//! | version | payload length u32| FNV-1a-32 checksum  | payload         |
//! |  1 byte |      4 bytes      |       4 bytes       | `length` bytes  |
//! +---------+-------------------+---------------------+-----------------+
//! ```
//!
//! The version byte names the one payload layout this build speaks —
//! version 4: a hand-rolled compact encoding of one tag byte, LEB128
//! varints for every id/seqno/count, and raw little-endian `f64` bits,
//! encoded into a caller-provided buffer and decoded straight off the
//! frame with no intermediate allocation. Any other version byte fails
//! fast on the first byte. The checksum rejects payload corruption
//! before the parser sees it (UDP's 16-bit checksum is weak and
//! optional, and a TCP stream that desynchronizes mid-frame would
//! otherwise feed garbage lengths forever). The codec is symmetric and
//! self-delimiting: a TCP byte stream decodes incrementally through a
//! [`FrameBuf`], and a UDP datagram carries exactly one frame decoded
//! with [`decode_datagram`].
//!
//! Binary payload layout (`varint` = unsigned LEB128, ≤ 10 bytes):
//!
//! ```text
//! payload   := tag:u8 body
//! tag       := 0 Update | 1 Alert | 2 Hello | 3 Fin
//!            | 4 UpdateBatch | 6 Derived
//!              (5 was AlertBatch: retired, never to be reused)
//! update    := var:varint seqno:varint value:f64-le-bits
//! alert     := cond:varint ce:varint index:varint
//!              nvars:varint { var:varint nseq:varint seqno:varint* }*
//!              nsnap:varint value:f64-le-bits*
//!              (variables strictly ascending, each with at least one
//!              seqno, newest first; nsnap is 0 or the fingerprint's
//!              seqno count, and the values follow its order: the
//!              fingerprint already names each value's variable and
//!              seqno, so the snapshot carries the values alone)
//! hello/fin := node:varint
//! batches   := count:varint item*
//! derived   := var:varint seqno:varint kind:u8 alert
//!              kind 1 (verdict) is the only kind
//!              (0 was aggregate: retired, never to be reused)
//! ```

use rcm_core::{
    Alert, AlertId, CeId, CondId, DerivedUpdate, FingerprintBuilder, FingerprintError, SeqNo,
    Snapshot, SnapshotError, Update, VarId,
};

/// Bytes of one `f64` on the wire.
const F64_LEN: usize = 8;

/// A message on a monitoring link.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// A data update (front links).
    Update(Update),
    /// An alert (back links).
    Alert(Alert),
    /// Connection preamble: which node is speaking. Sent by a TCP back
    /// link on every (re)connect so the receiver can attribute the
    /// stream.
    Hello {
        /// Sender's node index (CE replica index on back links).
        node: u32,
    },
    /// End-of-stream marker: the sending node has no more messages.
    /// On a UDP front link the CE echoes each Fin, byte for byte, to
    /// its sender, and a DM repeats its Fin (at most a set number of
    /// times, 500 µs apart) until that echo comes back, so neither
    /// side's shutdown hinges on one datagram surviving. A TCP back link
    /// sends it once.
    Fin {
        /// Sender's node index (DM index on front links, CE replica
        /// index on back links).
        node: u32,
    },
    /// Several updates in one datagram: a DM sends each feed's round
    /// this way. Receivers run each update through the seqno gate in
    /// batch order, so delivery is indistinguishable from the updates
    /// having arrived as individual frames.
    UpdateBatch(Vec<Update>),
    /// One derived update on a hierarchical tier link (leaf or
    /// interior CE → parent CE): a synthetic variable id, the
    /// emitter's per-stream consecutive seqno, and an aggregate or
    /// verdict payload. Version-gated like every other message — a
    /// build that predates the tag rejects the frame cleanly as an
    /// unknown message tag instead of misparsing it.
    Derived(DerivedUpdate),
}

/// Errors produced while encoding or decoding frames.
#[derive(Debug)]
pub enum WireError {
    /// A payload was structurally invalid (bad tag, truncated body,
    /// overflowing varint, malformed fingerprint, …).
    Malformed {
        /// What the decoder tripped on.
        context: &'static str,
    },
    /// A frame declared a length larger than the cap.
    FrameTooLarge {
        /// Declared payload size.
        declared: usize,
    },
    /// The frame's version byte is not [`BINARY_WIRE_VERSION`].
    BadVersion {
        /// The version byte found on the wire.
        found: u8,
    },
    /// The payload failed its checksum: corruption in flight.
    BadChecksum {
        /// Checksum carried in the header.
        declared: u32,
        /// Checksum computed over the received payload.
        computed: u32,
    },
    /// A datagram ended before its declared payload did.
    Truncated {
        /// Declared payload size.
        declared: usize,
        /// Payload bytes actually present.
        got: usize,
    },
    /// A datagram carried bytes past its single frame.
    TrailingBytes {
        /// Extra byte count.
        extra: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Malformed { context } => write!(f, "malformed binary payload: {context}"),
            WireError::FrameTooLarge { declared } => {
                write!(f, "frame of {declared} bytes exceeds the {MAX_FRAME} byte cap")
            }
            WireError::BadVersion { found } => {
                write!(f, "wire version {found} (this build speaks {BINARY_WIRE_VERSION})")
            }
            WireError::BadChecksum { declared, computed } => {
                write!(f, "payload checksum {computed:#010x} != declared {declared:#010x}")
            }
            WireError::Truncated { declared, got } => {
                write!(f, "datagram truncated: {got} of {declared} payload bytes")
            }
            WireError::TrailingBytes { extra } => {
                write!(f, "datagram carries {extra} bytes past its frame")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// The version byte every frame carries.
pub const BINARY_WIRE_VERSION: u8 = 4;

/// Bytes before the payload: version, length, checksum.
pub const HEADER_LEN: usize = 9;

/// Maximum accepted payload size; an alert's histories are bounded by
/// the condition degree and a datagram by [`DATAGRAM_BUDGET`], so real
/// frames are tiny — the cap exists to fail fast on corrupted length
/// prefixes.
pub const MAX_FRAME: usize = 1 << 20;

/// The most bytes one front-link datagram takes, header included: under
/// common path MTUs, so a datagram never fragments — losing one IP
/// fragment would lose the whole datagram, which amplifies loss.
pub const DATAGRAM_BUDGET: usize = 1200;

/// The payload codec. There is exactly one and nothing can select
/// another: the type survives only as the first parameter of
/// [`encode_into`] and [`encode_updates_into`], which
/// `benchmark/src/replay.rs` calls with `Codec::Binary` and a PR
/// outside `benchmark/` may not edit. Delete the parameter and this
/// type in the PR after a `benchmark` PR stops passing it.
#[derive(Debug, Clone, Copy)]
pub enum Codec {
    /// Version-4 compact binary payloads.
    Binary,
}

/// Message tags of the binary payload layout. Tag 5 (`AlertBatch`) is
/// retired: it decodes as an unknown tag and must never be reused.
mod tag {
    pub const UPDATE: u8 = 0;
    pub const ALERT: u8 = 1;
    pub const HELLO: u8 = 2;
    pub const FIN: u8 = 3;
    pub const UPDATE_BATCH: u8 = 4;
    pub const DERIVED: u8 = 6;
}

/// The payload-kind byte of a [`tag::DERIVED`] body: a verdict. Kind 0
/// (aggregate) is retired and decodes as malformed.
const DERIVED_VERDICT: u8 = 1;

/// Smallest possible binary encoding of one update (two 1-byte varints
/// plus the 8 value bytes) — used to bound declared batch counts.
const UPDATE_WIRE_MIN: usize = 10;

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn varint_len(mut v: u64) -> usize {
    let mut len = 1;
    while v >= 0x80 {
        v >>= 7;
        len += 1;
    }
    len
}

fn put_f64(out: &mut Vec<u8>, value: f64) {
    out.extend_from_slice(&value.to_bits().to_le_bytes());
}

fn put_update(out: &mut Vec<u8>, update: &Update) {
    put_varint(out, u64::from(update.var.index()));
    put_varint(out, update.seqno.get());
    put_f64(out, update.value);
}

fn update_wire_len(update: &Update) -> usize {
    varint_len(u64::from(update.var.index())) + varint_len(update.seqno.get()) + F64_LEN
}

fn put_alert(out: &mut Vec<u8>, alert: &Alert) {
    put_varint(out, u64::from(alert.cond.index()));
    put_varint(out, u64::from(alert.id.ce.index()));
    put_varint(out, alert.id.index);
    put_varint(out, alert.fingerprint.iter().count() as u64);
    for (var, seqnos) in alert.fingerprint.iter() {
        put_varint(out, u64::from(var.index()));
        put_varint(out, seqnos.len() as u64);
        for s in seqnos {
            put_varint(out, s.get());
        }
    }
    put_varint(out, alert.snapshot.len() as u64);
    for &value in alert.snapshot.iter() {
        put_f64(out, value);
    }
}

fn put_derived(out: &mut Vec<u8>, derived: &DerivedUpdate) {
    put_varint(out, u64::from(derived.var.index()));
    put_varint(out, derived.seqno.get());
    out.push(DERIVED_VERDICT);
    put_alert(out, &derived.verdict);
}

/// Forward-only reader over a binary payload. Every accessor reports
/// truncation instead of panicking — the decoder's promise on garbage.
/// A copy reads ahead without moving the original.
#[derive(Clone, Copy)]
struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes }
    }

    fn remaining(&self) -> usize {
        self.bytes.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.bytes.len() < n {
            return Err(WireError::Malformed { context: "payload ended early" });
        }
        let (head, rest) = self.bytes.split_at(n);
        self.bytes = rest;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn varint(&mut self) -> Result<u64, WireError> {
        // Variables, counts and small ids take one byte: read it
        // without the loop.
        if let Some((&byte, rest)) = self.bytes.split_first() {
            if byte < 0x80 {
                self.bytes = rest;
                return Ok(u64::from(byte));
            }
        }
        let mut value: u64 = 0;
        let mut shift: u32 = 0;
        loop {
            let byte = self.u8()?;
            let bits = u64::from(byte & 0x7f);
            if shift > 63 || (shift == 63 && bits > 1) {
                return Err(WireError::Malformed { context: "varint overflows 64 bits" });
            }
            value |= bits << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    fn varint_u32(&mut self) -> Result<u32, WireError> {
        u32::try_from(self.varint()?)
            .map_err(|_| WireError::Malformed { context: "id overflows 32 bits" })
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        let raw = self.take(F64_LEN)?;
        let mut bits = [0u8; F64_LEN];
        bits.copy_from_slice(raw);
        Ok(f64::from_bits(u64::from_le_bytes(bits)))
    }

    fn update(&mut self) -> Result<Update, WireError> {
        let var = VarId::new(self.varint_u32()?);
        let seqno = self.varint()?;
        let value = self.f64()?;
        Ok(Update::new(var, seqno, value))
    }

    /// The declared length of an update run, refused if the payload
    /// left could not hold it.
    fn batch_count(&mut self) -> Result<usize, WireError> {
        let count = self.varint()? as usize;
        if count > self.remaining() / UPDATE_WIRE_MIN + 1 {
            return Err(WireError::Malformed { context: "batch count exceeds payload" });
        }
        Ok(count)
    }

    fn updates(&mut self, count: usize) -> Result<Vec<Update>, WireError> {
        let mut updates = Vec::with_capacity(count);
        for _ in 0..count {
            updates.push(self.update()?);
        }
        Ok(updates)
    }

    /// The words — variables plus seqnos — of the `nvars` histories
    /// ahead, skimmed off a copy of the reader: what sizes a spilled
    /// fingerprint exactly. No count sizes anything here, and the
    /// payload runs out before a lying one does.
    fn history_words(mut self, nvars: u64) -> Result<usize, WireError> {
        let mut words = 0;
        for _ in 0..nvars {
            self.skip_varint()?;
            let nseq = self.varint()?;
            for _ in 0..nseq {
                self.skip_varint()?;
            }
            words += 1 + nseq as usize;
        }
        Ok(words)
    }

    /// Steps over one varint without reading its value: the bytes up to
    /// and including the first without the continuation bit.
    fn skip_varint(&mut self) -> Result<(), WireError> {
        let end = self.bytes.iter().position(|&byte| byte < 0x80).map(|last| last + 1);
        match end.and_then(|end| self.bytes.get(end..)) {
            Some(rest) => {
                self.bytes = rest;
                Ok(())
            }
            None => Err(WireError::Malformed { context: "payload ended early" }),
        }
    }

    fn alert(&mut self) -> Result<Alert, WireError> {
        let cond = CondId::new(self.varint_u32()?);
        let ce = CeId::new(self.varint_u32()?);
        let index = self.varint()?;
        let nvars = self.varint()?;
        // The builder checks each history as it is read: none empty,
        // seqnos strictly decreasing. Variables must ascend, as the
        // encoder writes them, so none repeats and none needs sorting.
        let mut fingerprint = FingerprintBuilder::with_words(self.history_words(nvars)?);
        let mut last = None;
        for _ in 0..nvars {
            let var = VarId::new(self.varint_u32()?);
            if last.is_some_and(|last| var <= last) {
                return Err(WireError::Malformed { context: "fingerprint variables out of order" });
            }
            last = Some(var);
            fingerprint.start(var).map_err(bad_fingerprint)?;
            for _ in 0..self.varint()? {
                fingerprint.push(SeqNo::new(self.varint()?)).map_err(bad_fingerprint)?;
            }
        }
        let fingerprint = fingerprint.finish().map_err(bad_fingerprint)?;
        // None, or one value per seqno of the fingerprint in its order,
        // kept in the body itself up to four, as many as every alert
        // the benchmark workloads raise but a 2 × 16 holds: then the
        // body is the decode's one allocation.
        let count = self.varint()?;
        if count > (self.remaining() / F64_LEN) as u64 {
            return Err(WireError::Malformed { context: "snapshot count exceeds payload" });
        }
        let values = (0..count as usize).map(|_| self.f64());
        let snapshot = Snapshot::read_values(&fingerprint, values)?;
        Ok(Alert::new(cond, fingerprint, snapshot, AlertId { ce, index }))
    }

    fn derived(&mut self) -> Result<DerivedUpdate, WireError> {
        let var = VarId::new(self.varint_u32()?);
        let seqno = SeqNo::new(self.varint()?);
        if self.u8()? != DERIVED_VERDICT {
            return Err(WireError::Malformed { context: "unknown derived payload kind" });
        }
        Ok(DerivedUpdate { var, seqno, verdict: self.alert()? })
    }
}

fn bad_fingerprint(_: FingerprintError) -> WireError {
    WireError::Malformed { context: "invalid history fingerprint" }
}

impl From<SnapshotError> for WireError {
    fn from(_: SnapshotError) -> Self {
        WireError::Malformed { context: "snapshot differs from its fingerprint" }
    }
}

fn encode_payload(msg: &Message, out: &mut Vec<u8>) {
    match msg {
        Message::Update(u) => {
            out.push(tag::UPDATE);
            put_update(out, u);
        }
        Message::Alert(a) => encode_alert(a, out),
        Message::Hello { node } => {
            out.push(tag::HELLO);
            put_varint(out, u64::from(*node));
        }
        Message::Fin { node } => {
            out.push(tag::FIN);
            put_varint(out, u64::from(*node));
        }
        Message::Derived(derived) => {
            out.push(tag::DERIVED);
            put_derived(out, derived);
        }
        Message::UpdateBatch(updates) => encode_update_slice(updates, out),
    }
}

/// A borrowed alert as an `Alert` payload: what a back link sends,
/// identical bytes to the owned variant.
fn encode_alert(alert: &Alert, out: &mut Vec<u8>) {
    out.push(tag::ALERT);
    put_alert(out, alert);
}

/// A borrowed update run as an `UpdateBatch` payload — what a front
/// link sends, identical bytes to the owned variant.
fn encode_update_slice(updates: &[Update], out: &mut Vec<u8>) {
    out.push(tag::UPDATE_BATCH);
    put_varint(out, updates.len() as u64);
    for u in updates {
        put_update(out, u);
    }
}

/// Decodes one complete payload; never panics, whatever the bytes.
fn decode_payload(payload: &[u8]) -> Result<Message, WireError> {
    let mut r = Reader::new(payload);
    let msg = match r.u8()? {
        tag::UPDATE => Message::Update(r.update()?),
        tag::ALERT => Message::Alert(r.alert()?),
        tag::HELLO => Message::Hello { node: r.varint_u32()? },
        tag::FIN => Message::Fin { node: r.varint_u32()? },
        tag::UPDATE_BATCH => {
            let count = r.batch_count()?;
            Message::UpdateBatch(r.updates(count)?)
        }
        tag::DERIVED => Message::Derived(r.derived()?),
        _ => return Err(WireError::Malformed { context: "unknown message tag" }),
    };
    if r.remaining() != 0 {
        return Err(WireError::Malformed { context: "trailing payload bytes" });
    }
    Ok(msg)
}

/// FNV-1a over the payload: cheap, dependency-free, and plenty to
/// catch the bit flips and desynchronized-stream garbage this header
/// field exists for (it is an integrity check, not an authenticator).
fn fnv1a(bytes: &[u8]) -> u32 {
    let mut hash: u32 = 0x811c_9dc5;
    for &b in bytes {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

/// A frame around any payload bytes, with a correct length and
/// checksum: how a test hands the decoder a payload the encoder would
/// never write.
#[cfg(test)]
pub(crate) fn raw_frame(version: u8, payload: &[u8]) -> Vec<u8> {
    let mut raw = vec![version];
    raw.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    raw.extend_from_slice(&fnv1a(payload).to_be_bytes());
    raw.extend_from_slice(payload);
    raw
}

/// Appends one complete frame to `out`: writes the version byte,
/// leaves room for the length/checksum, runs `encode`, then patches
/// the header over what it produced. On error `out` is truncated back
/// to its original length.
fn frame_with(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) -> Result<(), WireError> {
    let start = out.len();
    out.push(BINARY_WIRE_VERSION);
    out.extend_from_slice(&[0u8; 8]);
    encode(out);
    let payload_start = start + HEADER_LEN;
    let payload_len = out.len() - payload_start;
    if payload_len > MAX_FRAME {
        out.truncate(start);
        return Err(WireError::FrameTooLarge { declared: payload_len });
    }
    // analyze: allow(hot-path): this function appended the HEADER_LEN placeholder
    // analyze: allow(hot-path): bytes at `start` itself, so the payload slice and
    let checksum = fnv1a(&out[payload_start..]);
    // analyze: allow(hot-path): both four-byte header windows stay in bounds
    out[start + 1..start + 5].copy_from_slice(&(payload_len as u32).to_be_bytes());
    // analyze: allow(hot-path): second half of the header backpatched above
    out[start + 5..start + 9].copy_from_slice(&checksum.to_be_bytes());
    Ok(())
}

/// Encodes a message as one framed byte vector; steady-state links use
/// [`encode_into`] with a reused buffer instead.
///
/// # Errors
///
/// [`WireError::FrameTooLarge`] for a payload over [`MAX_FRAME`].
pub fn encode(msg: &Message) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::new();
    encode_into(Codec::Binary, msg, &mut out)?;
    Ok(out)
}

/// Appends one complete frame for `msg` to `out` — the zero-allocation
/// encode path: a link clears and reuses one buffer across sends.
///
/// # Errors
///
/// [`WireError::FrameTooLarge`] for a payload over [`MAX_FRAME`]; `out`
/// is left unchanged on error.
pub fn encode_into(_codec: Codec, msg: &Message, out: &mut Vec<u8>) -> Result<(), WireError> {
    frame_with(out, |out| encode_payload(msg, out))
}

/// Appends one `UpdateBatch` frame for a borrowed update run —
/// byte-identical to `encode_into` of [`Message::UpdateBatch`] without
/// taking ownership of the batch.
///
/// # Errors
///
/// As [`encode_into`].
pub fn encode_updates_into(
    _codec: Codec,
    updates: &[Update],
    out: &mut Vec<u8>,
) -> Result<(), WireError> {
    frame_with(out, |out| encode_update_slice(updates, out))
}

/// Appends one `Alert` frame for a borrowed alert — byte-identical to
/// `encode_into` of [`Message::Alert`] without a handle to move in.
///
/// # Errors
///
/// As [`encode_into`].
pub fn encode_alert_into(alert: &Alert, out: &mut Vec<u8>) -> Result<(), WireError> {
    frame_with(out, |out| encode_alert(alert, out))
}

/// How many of `updates`, from the front, one front-link datagram
/// carries: the longest run whose `UpdateBatch` frame fits
/// [`DATAGRAM_BUDGET`], and never fewer than one. Taking runs from the
/// front this way sends an in-order stream in the fewest datagrams. A
/// run of one goes out as a plain `Update` frame, which is smaller
/// still.
pub fn datagram_run(updates: &[Update]) -> usize {
    let mut len = HEADER_LEN + 1; // header + batch tag
    for (i, update) in updates.iter().enumerate() {
        len += update_wire_len(update);
        if len + varint_len(i as u64 + 1) > DATAGRAM_BUDGET {
            return i.max(1);
        }
    }
    updates.len()
}

/// An incremental decode buffer for framed byte streams (the TCP
/// side): push received bytes in, pull whole frames out with
/// [`decode`]. Consumed bytes are reclaimed lazily so a long-lived
/// connection does not creep.
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    head: usize,
}

impl FrameBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        FrameBuf::default()
    }

    /// Appends received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        // Reclaim consumed space before growing, once it dominates.
        if self.head > 4096 && self.head * 2 > self.buf.len() {
            self.buf.drain(..self.head);
            self.head = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Unconsumed byte count.
    pub fn len(&self) -> usize {
        self.buf.len() - self.head
    }

    /// Whether every pushed byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The unconsumed bytes.
    fn pending(&self) -> &[u8] {
        // analyze: allow(hot-path): head <= buf.len() is this type's invariant
        &self.buf[self.head..]
    }

    fn consume(&mut self, n: usize) {
        self.head += n;
        if self.head == self.buf.len() {
            self.buf.clear();
            self.head = 0;
        }
    }
}

impl From<&[u8]> for FrameBuf {
    fn from(bytes: &[u8]) -> Self {
        FrameBuf { buf: bytes.to_vec(), head: 0 }
    }
}

/// Parses one frame header from `bytes`; `Ok(None)` means incomplete.
/// On success returns the payload length (the payload begins at
/// [`HEADER_LEN`]). A version byte other than [`BINARY_WIRE_VERSION`]
/// is rejected before any length is read.
fn parse_header(bytes: &[u8]) -> Result<Option<usize>, WireError> {
    let Some(&version) = bytes.first() else { return Ok(None) };
    if version != BINARY_WIRE_VERSION {
        return Err(WireError::BadVersion { found: version });
    }
    if bytes.len() < HEADER_LEN {
        return Ok(None);
    }
    let declared = u32::from_be_bytes([bytes[1], bytes[2], bytes[3], bytes[4]]) as usize;
    if declared > MAX_FRAME {
        return Err(WireError::FrameTooLarge { declared });
    }
    Ok(Some(declared))
}

/// Verifies and deserializes a complete frame's payload.
fn parse_payload(header: &[u8], payload: &[u8]) -> Result<Message, WireError> {
    let declared = u32::from_be_bytes([header[5], header[6], header[7], header[8]]);
    let computed = fnv1a(payload);
    if computed != declared {
        return Err(WireError::BadChecksum { declared, computed });
    }
    decode_payload(payload)
}

/// Attempts to decode one frame from the front of `buf`.
///
/// Returns `Ok(None)` when the buffer does not yet hold a complete
/// frame (read more bytes and retry); on success the frame's bytes are
/// consumed from `buf`.
///
/// A decode error is fatal for the stream: the buffer's read position
/// is left at the bad frame, and a desynchronized or corrupted peer
/// should be disconnected, not resynchronized.
///
/// # Errors
///
/// [`WireError::BadVersion`] for protocol skew,
/// [`WireError::FrameTooLarge`] for implausible length prefixes,
/// [`WireError::BadChecksum`] for corrupted payloads and
/// [`WireError::Malformed`] for undecodable ones.
pub fn decode(buf: &mut FrameBuf) -> Result<Option<Message>, WireError> {
    let Some(declared) = parse_header(buf.pending())? else { return Ok(None) };
    if buf.len() < HEADER_LEN + declared {
        return Ok(None);
    }
    let (header, rest) = buf.pending().split_at(HEADER_LEN);
    // analyze: allow(hot-path): the guard above returns unless len >= HEADER_LEN + declared
    let msg = parse_payload(header, &rest[..declared])?;
    buf.consume(HEADER_LEN + declared);
    Ok(Some(msg))
}

/// Decodes a datagram that must contain exactly one whole frame — the
/// UDP side, where the kernel already delimits messages and a partial
/// or over-full datagram is corruption, not back-pressure.
///
/// # Errors
///
/// Everything [`decode`] can return, plus [`WireError::Truncated`] and
/// [`WireError::TrailingBytes`] for mis-sized datagrams.
pub fn decode_datagram(bytes: &[u8]) -> Result<Message, WireError> {
    let Some(declared) = parse_header(bytes)? else {
        return Err(WireError::Truncated { declared: HEADER_LEN, got: bytes.len() });
    };
    let got = bytes.len() - HEADER_LEN;
    if got < declared {
        return Err(WireError::Truncated { declared, got });
    }
    if got > declared {
        return Err(WireError::TrailingBytes { extra: got - declared });
    }
    let (header, payload) = bytes.split_at(HEADER_LEN);
    parse_payload(header, payload)
}

/// One in-process hop across the codec — cross, check, forward: encodes
/// `msg` into `frame`, decodes the frame, and checks the copy against
/// `msg` field for field. It returns nothing, so the caller forwards
/// the message it already holds and an in-process run keeps one copy
/// of what it carries, while every message still pays a full encode
/// and decode. `frame` is cleared, never freed: a link that owns one
/// allocates for none of the frames it sends.
///
/// # Panics
///
/// Panics if `msg` does not encode, its frame does not decode, or the
/// copy differs from `msg` in any field — floats compared by bit
/// pattern, an alert's `id` and `snapshot` included. The message names
/// the first differing field: a codec asymmetry is a bug worth
/// crashing on, at the link that saw it.
pub fn cross_in(frame: &mut Vec<u8>, msg: &Message) {
    frame.clear();
    if let Err(e) = encode_into(Codec::Binary, msg, frame) {
        panic!("encoding well-formed message: {e}");
    }
    let back = match decode_datagram(frame) {
        Ok(back) => back,
        Err(e) => panic!("decoding own frame: {e}"),
    };
    if let Some(field) = first_difference(msg, &back) {
        panic!("the codec changed {field}: sent {msg:?}, decoded {back:?}");
    }
}

/// The first field in which `back` differs from `sent`, or `None` when
/// they are equal field for field. Stricter than `Message`'s derived
/// `PartialEq`, which compares an alert by identity (condition and
/// fingerprint) and floats by value: a codec that lost an alert's `id`
/// or `snapshot`, or a NaN payload bit, would pass that.
fn first_difference(sent: &Message, back: &Message) -> Option<&'static str> {
    match (sent, back) {
        (Message::Update(a), Message::Update(b)) => update_difference(a, b),
        (Message::Alert(a), Message::Alert(b)) => alert_difference(a, b),
        (Message::Hello { node: a }, Message::Hello { node: b })
        | (Message::Fin { node: a }, Message::Fin { node: b }) => (a != b).then_some("node"),
        (Message::UpdateBatch(a), Message::UpdateBatch(b)) => {
            runs_difference(a, b, update_difference)
        }
        (Message::Derived(a), Message::Derived(b)) => derived_difference(a, b),
        _ => Some("message kind"),
    }
}

fn runs_difference<T>(
    a: &[T],
    b: &[T],
    item: fn(&T, &T) -> Option<&'static str>,
) -> Option<&'static str> {
    if a.len() != b.len() {
        return Some("batch length");
    }
    a.iter().zip(b).find_map(|(a, b)| item(a, b))
}

fn update_difference(a: &Update, b: &Update) -> Option<&'static str> {
    if a.var != b.var {
        Some("update.var")
    } else if a.seqno != b.seqno {
        Some("update.seqno")
    } else if a.value.to_bits() != b.value.to_bits() {
        Some("update.value")
    } else {
        None
    }
}

fn alert_difference(a: &Alert, b: &Alert) -> Option<&'static str> {
    if a.cond != b.cond {
        Some("alert.cond")
    } else if a.fingerprint != b.fingerprint {
        Some("alert.fingerprint")
    } else if a.id.ce != b.id.ce {
        Some("alert.id.ce")
    } else if a.id.index != b.id.index {
        Some("alert.id.index")
    } else if a.snapshot.len() != b.snapshot.len() {
        Some("alert.snapshot length")
    } else if a.snapshot.iter().zip(b.snapshot.iter()).any(|(a, b)| a.to_bits() != b.to_bits()) {
        Some("alert.snapshot")
    } else {
        None
    }
}

fn derived_difference(a: &DerivedUpdate, b: &DerivedUpdate) -> Option<&'static str> {
    if a.var != b.var {
        return Some("derived.var");
    }
    if a.seqno != b.seqno {
        return Some("derived.seqno");
    }
    alert_difference(&a.verdict, &b.verdict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcm_core::{AlertId, CeId, CondId, HistoryFingerprint, SeqNo, Update, VarId};

    fn update() -> Update {
        Update::new(VarId::new(3), 17, 3000.5)
    }

    fn alert() -> Alert {
        Alert::new(
            CondId::new(2),
            HistoryFingerprint::single(VarId::new(3), vec![SeqNo::new(17), SeqNo::new(15)]),
            vec![update(), Update::new(VarId::new(3), 15, 2999.5)],
            AlertId { ce: CeId::new(1), index: 9 },
        )
    }

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::Update(update()),
            Message::Alert(alert()),
            // Two variables, a deeper history, multi-byte varints.
            Message::Alert(Alert::new(
                CondId::new(70_000),
                HistoryFingerprint::new(vec![
                    (VarId::new(3), vec![SeqNo::new(300), SeqNo::new(299), SeqNo::new(200)]),
                    (VarId::new(900), vec![SeqNo::new(1 << 40)]),
                ]),
                vec![
                    Update::new(VarId::new(3), 300, 3000.5),
                    Update::new(VarId::new(3), 299, f64::NAN),
                    Update::new(VarId::new(3), 200, 1e300),
                    Update::new(VarId::new(900), 1 << 40, -0.0),
                ],
                AlertId { ce: CeId::new(300), index: u64::MAX },
            )),
            Message::Hello { node: 7 },
            Message::Fin { node: 0 },
            Message::UpdateBatch(vec![]),
            Message::UpdateBatch(
                (0..5).map(|i| Update::new(VarId::new(1), i + 1, i as f64)).collect(),
            ),
            Message::Derived(DerivedUpdate {
                var: rcm_core::derived_var(1, 0),
                seqno: SeqNo::new(1),
                verdict: alert(),
            }),
        ]
    }

    /// Encoded and decoded: the copy [`cross_in`] checks and drops.
    fn decoded(msg: &Message) -> Message {
        decode_datagram(&encode(msg).expect("encodes")).expect("own frame decodes")
    }

    #[test]
    fn update_roundtrip() {
        let m = Message::Update(update());
        assert_eq!(decoded(&m), m);
    }

    #[test]
    fn control_messages_roundtrip() {
        for m in [Message::Hello { node: 7 }, Message::Fin { node: 0 }] {
            assert_eq!(decoded(&m), m);
        }
    }

    #[test]
    fn every_message_roundtrips() {
        let mut frame = Vec::new();
        for m in sample_messages() {
            assert_eq!(first_difference(&m, &decoded(&m)), None, "{m:?}");
            cross_in(&mut frame, &m);
            assert_eq!(frame, encode(&m).expect("encodes"), "the frame left behind, {m:?}");
        }
    }

    /// `sent` with one field changed, and the field [`first_difference`]
    /// must name for it.
    fn alert_mutations(sent: &Alert) -> Vec<(&'static str, Alert)> {
        let x = VarId::new(3);
        let with = |cond, fingerprint, id| Alert::new(cond, fingerprint, sent.snapshot.clone(), id);
        let (fp, id) = (sent.fingerprint.clone(), sent.id);
        let with_snapshot = |snapshot: Vec<Update>| Alert::new(sent.cond, fp.clone(), snapshot, id);
        let mut nan: Vec<Update> = sent.updates().collect();
        nan[1].value = f64::from_bits(nan[1].value.to_bits() ^ 1);
        let mut signed: Vec<Update> = sent.updates().collect();
        signed[0].value = -0.0;
        let changed = HistoryFingerprint::single(x, vec![SeqNo::new(17), SeqNo::new(14)]);
        vec![
            ("alert.cond", sent.clone().with_cond(CondId::new(3))),
            ("alert.fingerprint", with(sent.cond, changed, id)),
            ("alert.id.ce", with(sent.cond, fp.clone(), AlertId { ce: CeId::new(2), ..id })),
            ("alert.id.index", with(sent.cond, fp.clone(), AlertId { index: 10, ..id })),
            ("alert.snapshot length", with_snapshot(vec![])),
            ("alert.snapshot", with_snapshot(signed)),
            ("alert.snapshot", with_snapshot(nan)),
        ]
    }

    /// An alert whose snapshot holds `0.0` and a NaN, the values a
    /// comparison by value gets wrong.
    fn awkward_alert() -> Alert {
        let x = VarId::new(3);
        Alert::new(
            CondId::new(2),
            HistoryFingerprint::single(x, vec![SeqNo::new(17), SeqNo::new(15)]),
            vec![Update::new(x, 17, 0.0), Update::new(x, 15, f64::NAN)],
            AlertId { ce: CeId::new(1), index: 9 },
        )
    }

    #[test]
    fn the_check_rejects_every_single_field_change_to_an_alert() {
        let sent = awkward_alert();
        for (field, back) in alert_mutations(&sent) {
            let (sent, back) = (Message::Alert(sent.clone()), Message::Alert(back));
            assert_eq!(first_difference(&sent, &back), Some(field), "{back:?}");
        }
    }

    #[test]
    fn the_check_rejects_a_changed_update_value_and_derived_field() {
        let u = Update::new(VarId::new(1), 5, 2.5);
        let flipped = Update::new(u.var, 5, f64::from_bits(u.value.to_bits() ^ 1));
        let zero = Update::new(u.var, 5, 0.0);
        let negative_zero = Update::new(u.var, 5, -0.0);
        for (sent, back) in [(u, flipped), (zero, negative_zero)] {
            let (sent, back) = (Message::Update(sent), Message::Update(back));
            assert_eq!(first_difference(&sent, &back), Some("update.value"), "{back:?}");
        }

        let sent = DerivedUpdate {
            var: rcm_core::derived_var(0, 3),
            seqno: SeqNo::new(4),
            verdict: alert(),
        };
        let verdict = |verdict| DerivedUpdate { verdict, ..sent.clone() };
        let a = awkward_alert();
        let changed_id = Alert::new(
            a.cond,
            a.fingerprint.clone(),
            a.snapshot.clone(),
            AlertId { index: a.id.index + 1, ..a.id },
        );
        let mutations = [
            ("derived.var", DerivedUpdate { var: rcm_core::derived_var(0, 4), ..sent.clone() }),
            ("derived.seqno", DerivedUpdate { seqno: SeqNo::new(5), ..sent.clone() }),
            ("alert.snapshot", verdict(awkward_alert())),
        ];
        for (field, back) in mutations {
            let back = Message::Derived(back);
            assert_eq!(first_difference(&Message::Derived(sent.clone()), &back), Some(field));
        }
        // A verdict is checked as the alert it carries: an `id` the
        // derived `PartialEq` does not look at still counts.
        let (sent, back) = (verdict(awkward_alert()), verdict(changed_id));
        assert_eq!(sent, back, "equal by identity");
        assert_eq!(
            first_difference(&Message::Derived(sent), &Message::Derived(back)),
            Some("alert.id.index")
        );
    }

    #[test]
    fn the_check_accepts_identical_non_finite_and_signed_zero_values() {
        let x = VarId::new(0);
        let values = [f64::NAN, -f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY];
        let snapshot: Vec<Update> =
            values.iter().enumerate().map(|(i, &v)| Update::new(x, 9 - i as u64, v)).collect();
        let alert = Alert::new(
            CondId::new(0),
            HistoryFingerprint::single(x, (4..=9).rev().map(SeqNo::new).collect()),
            snapshot.clone(),
            AlertId { ce: CeId::new(0), index: 0 },
        );
        let mut frame = Vec::new();
        let mut messages = vec![Message::UpdateBatch(snapshot), Message::Alert(alert.clone())];
        messages.extend(values.iter().map(|&v| Message::Update(Update::new(x, 1, v))));
        messages.push(Message::Derived(DerivedUpdate {
            var: rcm_core::derived_var(0, 0),
            seqno: SeqNo::new(1),
            verdict: alert,
        }));
        for m in messages {
            assert_eq!(first_difference(&m, &m.clone()), None, "{m:?}");
            cross_in(&mut frame, &m);
        }
    }

    #[test]
    fn alert_roundtrip_preserves_fingerprint_and_provenance() {
        let m = Message::Alert(alert());
        let back = decoded(&m);
        match (m, back) {
            (Message::Alert(a), Message::Alert(b)) => {
                assert_eq!(a, b); // identity (cond + fingerprint)
                assert_eq!(a.id, b.id); // provenance survives too
                assert_eq!(a.snapshot[..], b.snapshot[..]); // values exact
            }
            _ => panic!("variant changed in flight"),
        }
    }

    /// Version 4, byte for byte: each frame spelled out in hex
    /// (header: version, big-endian length, big-endian FNV-1a).
    #[test]
    fn golden_frames_pin_the_version_4_layout() {
        let (x, y) = (VarId::new(0), VarId::new(1));
        let fingerprint = HistoryFingerprint::new(vec![
            (x, vec![SeqNo::new(9), SeqNo::new(8)]),
            (y, vec![SeqNo::new(300), SeqNo::new(299)]),
        ]);
        let held = [
            Update::new(x, 9, 1.5),
            Update::new(x, 8, -0.0),
            Update::new(y, 300, f64::INFINITY),
            Update::new(y, 299, 2.0),
        ];
        let id = AlertId { ce: CeId::new(1), index: 200 };
        let alert = Alert::new(CondId::new(2), fingerprint.clone(), &held[..], id);
        let bare = Alert::new(CondId::new(2), fingerprint, Vec::<Update>::new(), id);
        // The 2 x 2 alert's payload: tag 01, cond 02, ce 01, index
        // c801, 2 variables (00: 2 seqnos 09 08; 01: 2 seqnos ac02
        // ab02), then 4 values, 8 little-endian bytes each.
        let alert_payload = "010201c80102000209080102ac02ab0204\
             000000000000f83f0000000000000080000000000000f07f0000000000000040";
        let golden = [
            (
                Message::Update(Update::new(VarId::new(3), 17, 3000.5)),
                "040000000bf62035db000311000000000071a740".to_string(),
            ),
            (
                Message::UpdateBatch(vec![Update::new(x, 1, 0.5), Update::new(y, 130, -2.0)]),
                "04000000175fbf8d9104020001000000000000e03f01820100000000000000c0".to_string(),
            ),
            (Message::Alert(alert.clone()), format!("0400000031f2a19f69{alert_payload}")),
            (
                Message::Alert(bare),
                "04000000116e323b5d010201c80102000209080102ac02ab0200".to_string(),
            ),
            (
                Message::Derived(DerivedUpdate {
                    var: rcm_core::derived_var(1, 0),
                    seqno: SeqNo::new(1),
                    verdict: alert,
                }),
                // tag 06, var 80808408, seqno 01, kind 01 (verdict), then
                // the alert's payload without its tag.
                format!("0400000037bd15a89e06808084080101{}", &alert_payload[2..]),
            ),
        ];
        let mut frame = Vec::new();
        for (m, hex) in golden {
            let bytes: Vec<u8> = (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex"))
                .collect();
            assert_eq!(encode(&m).expect("encodes"), bytes, "{m:?}");
            cross_in(&mut frame, &m);
            assert_eq!(frame, bytes, "{m:?}");
        }
    }

    #[test]
    fn encode_into_appends_reusing_the_buffer() {
        let mut buf = Vec::new();
        let m1 = Message::Update(update());
        let m2 = Message::Fin { node: 1 };
        encode_into(Codec::Binary, &m1, &mut buf).expect("encodes");
        let first = buf.len();
        encode_into(Codec::Binary, &m2, &mut buf).expect("encodes");
        assert_eq!(&buf[..first], &encode(&m1).expect("encodes")[..]);
        assert_eq!(&buf[first..], &encode(&m2).expect("encodes")[..]);
        // The streaming decoder consumes both appended frames.
        let mut frames = FrameBuf::from(&buf[..]);
        assert_eq!(decode(&mut frames).expect("decodes"), Some(m1));
        assert_eq!(decode(&mut frames).expect("decodes"), Some(m2));
        assert!(frames.is_empty());
    }

    #[test]
    fn slice_encoders_match_the_owned_batch_variants() {
        let updates: Vec<Update> = (0..4).map(|i| Update::new(VarId::new(0), i + 1, 0.5)).collect();
        let mut from_slice = Vec::new();
        encode_updates_into(Codec::Binary, &updates, &mut from_slice).expect("encodes");
        let owned = encode(&Message::UpdateBatch(updates.clone())).expect("encodes");
        assert_eq!(from_slice, owned, "update batch");
    }

    #[test]
    fn unknown_version_rejected_on_the_first_byte() {
        // The checksum covers only the payload, so a well-formed frame
        // relabelled to any other version — the retired JSON version 2
        // and version 3, whose alerts spelled out every snapshot
        // update, included — reaches the version check intact and must
        // stop there: one byte suffices, no length is read.
        for m in sample_messages() {
            let frame = encode(&m).expect("encodes");
            for version in [0u8, 1, 2, 3, 9, 255] {
                let mut relabelled = frame.clone();
                relabelled[0] = version;
                let rejected = |r: Result<Option<Message>, WireError>| matches!(r, Err(WireError::BadVersion { found }) if found == version);
                assert!(rejected(decode_datagram(&relabelled).map(Some)), "v{version} {m:?}");
                assert!(rejected(decode(&mut FrameBuf::from(&relabelled[..]))), "v{version} {m:?}");
                assert!(rejected(decode(&mut FrameBuf::from(&relabelled[..1]))), "one byte");
            }
        }
    }

    #[test]
    fn streamed_frames_decode_incrementally() {
        let m1 = Message::Update(update());
        let m2 = Message::Alert(alert());
        let f1 = encode(&m1).expect("update frame encodes");
        let f2 = encode(&m2).expect("alert frame encodes");
        let mut buf = FrameBuf::new();
        // Feed byte by byte; decoder must wait for full frames.
        let all: Vec<u8> = f1.iter().chain(f2.iter()).copied().collect();
        let mut decoded = Vec::new();
        for b in all {
            buf.push(&[b]);
            while let Some(m) = decode(&mut buf).expect("well-formed frame decodes") {
                decoded.push(m);
            }
        }
        assert_eq!(decoded, vec![m1, m2]);
        assert!(buf.is_empty());
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut raw = vec![BINARY_WIRE_VERSION];
        raw.extend_from_slice(&(MAX_FRAME as u32 + 1).to_be_bytes());
        raw.extend_from_slice(&[0; 12]);
        let mut buf = FrameBuf::from(&raw[..]);
        assert!(matches!(decode(&mut buf), Err(WireError::FrameTooLarge { .. })));
    }

    #[test]
    fn flipped_payload_byte_fails_the_checksum() {
        let mut frame = encode(&Message::Alert(alert())).expect("encodes");
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        let mut buf = FrameBuf::from(&frame[..]);
        assert!(matches!(decode(&mut buf), Err(WireError::BadChecksum { .. })));
        assert!(matches!(decode_datagram(&frame), Err(WireError::BadChecksum { .. })));
    }

    #[test]
    fn alerts_of_every_shape_roundtrip() {
        // 0–5 variables × 1–20 seqnos each: fingerprints held in place
        // (up to 4 variables, 4 seqnos between them), boxed ones, and
        // the shapes on either side of both limits. The frame is
        // spelled out from the lists the fingerprint was built from,
        // so how a fingerprint stores them cannot move a byte of it.
        for nvars in 0..=5u32 {
            for degree in [1u64, 2, 3, 4, 5, 6, 7, 16, 20] {
                let entries: Vec<(VarId, Vec<SeqNo>)> = (0..nvars)
                    .map(|v| {
                        let newest = 300 * u64::from(v) + 100;
                        (VarId::new(v * 70), (0..degree).map(|i| SeqNo::new(newest - i)).collect())
                    })
                    .collect();
                let snapshot: Vec<Update> = entries
                    .iter()
                    .flat_map(|(v, s)| s.iter().map(|s| Update::new(*v, s.get(), 0.5)))
                    .collect();
                let id = AlertId { ce: CeId::new(2), index: degree };
                let mut reversed = entries.clone();
                reversed.reverse();
                let sent = Alert::new(
                    CondId::new(nvars),
                    HistoryFingerprint::new(reversed),
                    snapshot.clone(),
                    id,
                );

                let mut payload = vec![tag::ALERT];
                for field in [u64::from(nvars), 2, degree, u64::from(nvars)] {
                    put_varint(&mut payload, field);
                }
                for (var, seqnos) in &entries {
                    put_varint(&mut payload, u64::from(var.index()));
                    put_varint(&mut payload, degree);
                    seqnos.iter().for_each(|s| put_varint(&mut payload, s.get()));
                }
                put_varint(&mut payload, snapshot.len() as u64);
                snapshot.iter().for_each(|u| put_f64(&mut payload, u.value));
                let frame = encode(&Message::Alert(sent.clone())).expect("encodes");
                assert_eq!(frame, raw_frame(BINARY_WIRE_VERSION, &payload), "{nvars} x {degree}");

                let Ok(Message::Alert(got)) = decode_datagram(&frame) else {
                    panic!("{nvars} x {degree} did not come back as an alert")
                };
                assert_eq!((&got, got.id), (&sent, id));
                assert_eq!(got.updates().collect::<Vec<_>>(), snapshot);
                let read: Vec<_> = got.fingerprint.iter().map(|(v, s)| (v, s.to_vec())).collect();
                assert_eq!(read, entries);
            }
        }
    }

    #[test]
    fn a_lying_history_count_runs_out_of_payload() {
        // cond 0, ce 0, index 0, then 2^63 variables (or one variable
        // of 2^63 seqnos) in a ten-byte payload: refused when the bytes
        // end, having sized no allocation by the count.
        let huge = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f];
        let vars = raw_frame(BINARY_WIRE_VERSION, &[&[tag::ALERT, 0, 0, 0][..], &huge].concat());
        let seqnos =
            raw_frame(BINARY_WIRE_VERSION, &[&[tag::ALERT, 0, 0, 0, 1, 7][..], &huge].concat());
        for raw in [vars, seqnos] {
            assert!(matches!(decode_datagram(&raw), Err(WireError::Malformed { .. })), "{raw:?}");
        }
    }

    #[test]
    fn a_snapshot_that_contradicts_its_fingerprint_is_malformed() {
        // cond 0, ce 0, index 0, one variable 0 with seqnos 2 then 1,
        // then the snapshot: its count and the bytes of its values.
        let frame = |nsnap: u64, values: &[u8]| {
            let mut payload = vec![tag::ALERT, 0, 0, 0, 1, 0, 2, 2, 1];
            put_varint(&mut payload, nsnap);
            payload.extend_from_slice(values);
            raw_frame(BINARY_WIRE_VERSION, &payload)
        };
        let bytes = |values: &[f64]| -> Vec<u8> {
            values.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect()
        };
        let Ok(Message::Alert(a)) = decode_datagram(&frame(2, &bytes(&[20.0, 10.0]))) else {
            panic!("full")
        };
        let (x, seqnos) = (VarId::new(0), [2, 1]);
        let full: Vec<Update> =
            seqnos.iter().zip([20.0, 10.0]).map(|(&s, v)| Update::new(x, s, v)).collect();
        assert_eq!(a.updates().collect::<Vec<_>>(), full);
        let Ok(Message::Alert(a)) = decode_datagram(&frame(0, &[])) else { panic!("empty") };
        assert!(a.snapshot.is_empty());
        // A count that is neither none nor one per seqno: the AD would
        // display values beside histories they do not belong to.
        for (nsnap, values) in [(1, vec![20.0]), (3, vec![20.0, 10.0, 5.0])] {
            assert!(
                matches!(
                    decode_datagram(&frame(nsnap, &bytes(&values))),
                    Err(WireError::Malformed { context: "snapshot differs from its fingerprint" })
                ),
                "{nsnap} values {values:?}"
            );
        }
        // A count the payload could never hold is refused before it
        // sizes anything; so are values cut short.
        let mut short = bytes(&[20.0, 10.0]);
        short.truncate(13);
        for raw in [frame(1 << 60, &bytes(&[20.0, 10.0])), frame(2, &short)] {
            assert!(matches!(decode_datagram(&raw), Err(WireError::Malformed { .. })), "{raw:?}");
        }
    }

    #[test]
    fn fingerprint_variables_that_repeat_or_descend_are_malformed() {
        // cond 0, ce 0, index 0, two variables of one seqno each, and
        // an empty snapshot. The encoder writes variables ascending;
        // the decoder refuses any other order rather than sorting it.
        let frame = |first: u8, second: u8| {
            raw_frame(BINARY_WIRE_VERSION, &[tag::ALERT, 0, 0, 0, 2, first, 1, 5, second, 1, 5, 0])
        };
        let Ok(Message::Alert(a)) = decode_datagram(&frame(0, 1)) else { panic!("ascending") };
        assert_eq!(a.fingerprint.variables().collect::<Vec<_>>(), [VarId::new(0), VarId::new(1)]);
        for (first, second) in [(1, 0), (1, 1)] {
            assert!(
                matches!(
                    decode_datagram(&frame(first, second)),
                    Err(WireError::Malformed { context: "fingerprint variables out of order" })
                ),
                "v{first} then v{second}"
            );
        }
    }

    #[test]
    fn malformed_binary_payloads_error_without_panicking() {
        // tag 9 does not exist
        let bad_tag = raw_frame(BINARY_WIRE_VERSION, &[9]);
        // update truncated after the var id
        let truncated = raw_frame(BINARY_WIRE_VERSION, &[tag::UPDATE, 3]);
        // alert with an increasing (invalid) seqno history: cond 0,
        // ce 0, index 0, 1 var, var 0, 2 seqnos: 2 then 3
        let bad_fp = raw_frame(BINARY_WIRE_VERSION, &[tag::ALERT, 0, 0, 0, 1, 0, 2, 2, 3, 0]);
        // batch declaring far more updates than the payload could hold
        let bad_count = raw_frame(BINARY_WIRE_VERSION, &[tag::UPDATE_BATCH, 0xff, 0xff, 0x03]);
        // valid fin with a trailing byte inside the payload
        let trailing = raw_frame(BINARY_WIRE_VERSION, &[tag::FIN, 1, 0]);
        // a varint that never terminates within 64 bits
        let overflow = raw_frame(
            BINARY_WIRE_VERSION,
            &[tag::FIN, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f],
        );
        // derived update with an unknown payload kind (var 1, seqno 1, kind 7)
        let bad_kind = raw_frame(BINARY_WIRE_VERSION, &[tag::DERIVED, 1, 1, 7]);
        // derived aggregate truncated mid-f64 (var 1, seqno 1, kind 0, 3 of 8 bytes)
        let short_agg = raw_frame(BINARY_WIRE_VERSION, &[tag::DERIVED, 1, 1, 0, 9, 9, 9]);
        // a well-formed aggregate of the retired kind 0 (var 1, seqno 1,
        // kind 0, the 8 bytes of 12.75)
        let retired_agg = raw_frame(
            BINARY_WIRE_VERSION,
            &[&[tag::DERIVED, 1, 1, 0][..], &12.75f64.to_bits().to_le_bytes()].concat(),
        );
        // derived verdict whose inner alert carries a bad fingerprint
        let bad_verdict =
            raw_frame(BINARY_WIRE_VERSION, &[tag::DERIVED, 1, 1, 1, 0, 0, 0, 1, 0, 2, 2, 3, 0]);
        for raw in [
            &bad_tag,
            &truncated,
            &bad_fp,
            &bad_count,
            &trailing,
            &overflow,
            &bad_kind,
            &short_agg,
            &retired_agg,
            &bad_verdict,
        ] {
            assert!(
                matches!(decode_datagram(raw), Err(WireError::Malformed { .. })),
                "{raw:?} should be Malformed, got {:?}",
                decode_datagram(raw)
            );
        }
    }

    #[test]
    fn binary_values_survive_exactly_including_nonfinite() {
        // The codec ships raw bits, so roundtripping is total over f64.
        for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, f64::MIN_POSITIVE] {
            let m = Message::Update(Update::new(VarId::new(0), 1, value));
            match decoded(&m) {
                Message::Update(u) => assert_eq!(u.value.to_bits(), value.to_bits()),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn datagram_must_hold_exactly_one_frame() {
        let frame = encode(&Message::Update(update())).expect("encodes");
        assert!(matches!(
            decode_datagram(&frame[..frame.len() - 1]),
            Err(WireError::Truncated { .. })
        ));
        let mut padded = frame.clone();
        padded.push(0);
        assert!(matches!(decode_datagram(&padded), Err(WireError::TrailingBytes { extra: 1 })));
        assert!(matches!(decode_datagram(&[]), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn short_buffer_returns_none() {
        let mut buf = FrameBuf::new();
        assert!(decode(&mut buf).expect("empty buffer is not an error").is_none());
        buf.push(&[BINARY_WIRE_VERSION]);
        assert!(decode(&mut buf).expect("partial header is not an error").is_none());
    }

    #[test]
    fn framebuf_reclaims_consumed_space() {
        let frame = encode(&Message::Update(update())).expect("encodes");
        let mut buf = FrameBuf::new();
        for _ in 0..200 {
            buf.push(&frame);
            while decode(&mut buf).expect("own frames decode").is_some() {}
        }
        assert!(buf.is_empty());
        assert!(buf.buf.len() < 8192, "consumed bytes were reclaimed");
    }
}
