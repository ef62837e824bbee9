//! Alerts: `a(condname, histories)` tuples sent by Condition Evaluators
//! to the Alert Displayer.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use rcm_json::{obj, Json};

use crate::update::{SeqNo, Update};
use crate::var::VarId;

/// Identifier of a monitored condition (the paper's `condname`).
///
/// Single-condition systems use [`CondId::SINGLE`]; multi-condition
/// systems (paper Appendix D) assign one id per condition so the AD can
/// demultiplex alert streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CondId(u32);

impl CondId {
    /// The id conventionally used when only one condition is monitored.
    pub const SINGLE: CondId = CondId(0);

    /// Creates a condition id from a raw index.
    pub const fn new(index: u32) -> Self {
        CondId(index)
    }

    /// Returns the raw index backing this id.
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for CondId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Identifier of a Condition Evaluator replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CeId(u32);

impl CeId {
    /// Creates a CE id from a raw index.
    pub const fn new(index: u32) -> Self {
        CeId(index)
    }

    /// Returns the raw index backing this id.
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for CeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CE{}", self.0)
    }
}

/// Provenance of an alert: which CE replica emitted it and at which
/// position in that replica's output stream.
///
/// Provenance is *not* part of alert identity — the paper considers two
/// alerts identical when their history sets `H` are equal, regardless of
/// which replica produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AlertId {
    /// Emitting replica.
    pub ce: CeId,
    /// Zero-based position in the replica's output stream.
    pub index: u64,
}

impl fmt::Display for AlertId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.ce, self.index)
    }
}

/// Why a `(variable, seqnos)` set is not a well-formed history set.
///
/// Returned by [`HistoryFingerprint::try_new`], the validating
/// constructor used when fingerprints are built from untrusted input
/// (e.g. the binary wire decoder) where the panicking constructors
/// would turn hostile bytes into a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FingerprintError {
    /// The same variable appeared in two entries.
    DuplicateVariable(VarId),
    /// A variable carried no seqnos at all.
    EmptyHistory(VarId),
    /// A seqno list was not strictly decreasing (newest first).
    UnorderedHistory(VarId),
}

impl fmt::Display for FingerprintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FingerprintError::DuplicateVariable(v) => {
                write!(f, "duplicate variable {v} in fingerprint")
            }
            FingerprintError::EmptyHistory(v) => write!(f, "empty history for variable {v}"),
            FingerprintError::UnorderedHistory(v) => {
                write!(f, "history seqnos for {v} must be strictly decreasing (newest first)")
            }
        }
    }
}

impl std::error::Error for FingerprintError {}

/// Variables a fingerprint holds in place.
const INLINE_VARS: usize = 4;

/// Seqnos, over all its variables, a fingerprint holds in place.
const INLINE_SEQNOS: usize = 4;

/// Where a fingerprint's entries live; only [`Entries`] reads it.
#[derive(Clone)]
enum Repr {
    /// In place, for up to [`INLINE_VARS`] variables holding up to
    /// [`INLINE_SEQNOS`] seqnos between them: every shape the benchmark
    /// workloads raise but `eval_fanout`'s 2 × 16 (1 × 1, 2 × 2), the
    /// paper's one- and two-variable cells and TRIVAR's 3 × 1; a
    /// longer history (TRIVAR's aggressive 3 × 2) spills. Entry `i` is
    /// `vars[i]` with `seqnos[ends[i - 1]..ends[i]]` (from 0 for the
    /// first). Plain `Copy` arrays, zero past `len` entries, and no
    /// pointer: the one-byte fields share a word with the enum's tag,
    /// which keeps a fingerprint at 56 bytes of an [`AlertBody`]'s 120.
    Flat {
        len: u8,
        ends: [u8; INLINE_VARS],
        vars: [VarId; INLINE_VARS],
        seqnos: [SeqNo; INLINE_SEQNOS],
    },
    /// Anything larger, in one allocation: `[head, seqno × count]` per
    /// entry, a head packing the entry's variable and count (see
    /// [`pack`]) — the words a [`FingerprintBuilder`] gathers, boxed
    /// as they are.
    Spilled(Box<[SeqNo]>),
}

/// A variable and a count below 2^32 in one word, the variable in the
/// high half, so a `[SeqNo]` can carry its own layout.
fn pack(var: VarId, n: usize) -> SeqNo {
    let n = u32::try_from(n).expect("a fingerprint holds fewer than 2^32 seqnos");
    SeqNo::new(u64::from(var.index()) << 32 | u64::from(n))
}

/// Inverse of [`pack`].
#[inline]
fn unpack(word: SeqNo) -> (VarId, usize) {
    (VarId::new((word.get() >> 32) as u32), (word.get() & 0xffff_ffff) as usize)
}

/// The update histories an alert triggered on, reduced to sequence
/// numbers: one newest-first seqno list per variable, sorted by variable.
///
/// This is the paper's `a.H` as far as identity is concerned: AD-1
/// considers two alerts identical iff their history sets are the same,
/// and the consistency algorithms (AD-3/AD-6) work entirely on the
/// seqnos. Values are excluded because an update is a full snapshot —
/// two CEs receiving update `i_x` necessarily saw the same value, so the
/// seqnos determine the values.
///
/// Up to 4 variables holding up to 4 seqnos between them are stored in
/// the fingerprint itself; a larger history set is one boxed slice.
/// Equality, ordering, hashing and both text forms are functions of the
/// entries alone, whichever way they are stored. Checkpointed as
/// `{"entries":[[var,[seqno,…]],…]}`; loading one runs the checks of
/// [`HistoryFingerprint::try_new`].
#[derive(Clone)]
pub struct HistoryFingerprint {
    repr: Repr,
}

impl HistoryFingerprint {
    /// Builds a fingerprint from `(variable, newest-first seqnos)` pairs.
    ///
    /// Entries are sorted by variable so equal history sets compare equal
    /// regardless of insertion order.
    ///
    /// # Panics
    ///
    /// Panics if a variable appears twice or a seqno list is empty or not
    /// strictly decreasing (newest first).
    pub fn new(entries: Vec<(VarId, Vec<SeqNo>)>) -> Self {
        Self::from_histories(words(&entries), entries)
    }

    /// [`HistoryFingerprint::new`] over anything that yields
    /// `(variable, newest-first seqnos)`: how the evaluators fingerprint
    /// the histories they hold, with no list in between. `words` is the
    /// number of variables plus seqnos, so that a fingerprint too large
    /// to store in place is gathered in one block of exactly its size;
    /// 0 if unknown.
    ///
    /// # Panics
    ///
    /// As [`HistoryFingerprint::new`].
    pub(crate) fn from_histories<S: IntoIterator<Item = SeqNo>>(
        words: usize,
        entries: impl IntoIterator<Item = (VarId, S)>,
    ) -> Self {
        match Self::try_from_histories(words, entries) {
            Ok(fp) => fp,
            Err(e) => panic!("{e}"),
        }
    }

    /// The non-panicking twin of [`HistoryFingerprint::new`]: validates
    /// `(variable, newest-first seqnos)` pairs and reports malformed
    /// input instead of crashing.
    ///
    /// # Errors
    ///
    /// [`FingerprintError`] when a variable appears twice, a history is
    /// empty, or a seqno list is not strictly decreasing.
    pub fn try_new(entries: Vec<(VarId, Vec<SeqNo>)>) -> Result<Self, FingerprintError> {
        Self::try_from_histories(words(&entries), entries)
    }

    /// `{"entries":[[var,[seqno,…]],…]}`, newest seqno first.
    pub(crate) fn to_json(&self) -> Json {
        let entries = self
            .iter()
            .map(|(v, s)| Json::Arr(vec![v.index().into(), s.iter().map(|s| s.get()).collect()]));
        obj([("entries", entries.collect())])
    }

    /// Inverse of [`HistoryFingerprint::to_json`], through
    /// [`HistoryFingerprint::try_new`]: a checkpoint cannot smuggle in
    /// a history set no constructor would build.
    pub(crate) fn from_json(j: &Json) -> rcm_json::Result<Self> {
        let entries = j.field("entries")?.arr()?.iter().map(|entry| match entry.arr()? {
            [var, seqnos] => {
                let seqnos = seqnos.arr()?.iter().map(|s| s.u64().map(SeqNo::new));
                Ok((VarId::new(var.u32()?), seqnos.collect::<rcm_json::Result<_>>()?))
            }
            _ => Err(rcm_json::Error::new("a fingerprint entry is a [var, seqnos] pair")),
        });
        let entries = entries.collect::<rcm_json::Result<_>>()?;
        Self::try_new(entries).map_err(|e| rcm_json::Error::new(e.to_string()))
    }

    fn try_from_histories<S: IntoIterator<Item = SeqNo>>(
        words: usize,
        entries: impl IntoIterator<Item = (VarId, S)>,
    ) -> Result<Self, FingerprintError> {
        let mut builder = FingerprintBuilder::with_words(words);
        for (var, seqnos) in entries {
            builder.start(var)?;
            for seqno in seqnos {
                builder.push(seqno)?;
            }
        }
        builder.finish()
    }

    /// Fingerprint over a single variable; `seqnos` newest-first.
    pub fn single(var: VarId, seqnos: Vec<SeqNo>) -> Self {
        Self::from_histories(1 + seqnos.len(), [(var, seqnos)])
    }

    /// The paper's `a.seqno.x`: the newest seqno for `var`, i.e. the
    /// seqno of the last `var`-update received when the alert triggered.
    #[inline]
    pub fn seqno(&self, var: VarId) -> Option<SeqNo> {
        self.seqnos(var).and_then(|s| s.first().copied())
    }

    /// Newest-first seqnos recorded for `var`.
    #[inline]
    pub fn seqnos(&self, var: VarId) -> Option<&[SeqNo]> {
        self.iter().find(|(v, _)| *v == var).map(|(_, s)| s)
    }

    /// Variables covered by this fingerprint, in ascending order.
    pub fn variables(&self) -> impl Iterator<Item = VarId> + '_ {
        self.iter().map(|(v, _)| v)
    }

    /// Iterates over `(variable, newest-first seqnos)` entries.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (VarId, &[SeqNo])> {
        match &self.repr {
            Repr::Flat { len, ends, vars, seqnos } => {
                let len = usize::from(*len);
                Entries::Flat { heads: vars[..len].iter().zip(&ends[..len]), seqnos, start: 0 }
            }
            Repr::Spilled(words) => Entries::Spilled(Runs(words)),
        }
    }

    /// Every `(variable, seqno)` pair in the order an alert's
    /// [`Snapshot`] keeps their values: variables ascending, newest
    /// first.
    pub(crate) fn pairs(&self) -> impl Iterator<Item = (VarId, SeqNo)> + '_ {
        self.iter().flat_map(|(var, seqnos)| seqnos.iter().map(move |&seqno| (var, seqno)))
    }

    /// The seqnos over all variables: the length of a full snapshot.
    pub(crate) fn seqno_count(&self) -> usize {
        match &self.repr {
            Repr::Flat { len, ends, .. } => match usize::from(*len) {
                0 => 0,
                len => usize::from(ends[len - 1]),
            },
            Repr::Spilled(words) => words.len() - Runs(words).count(),
        }
    }

    /// Whether the seqnos for every variable are consecutive (no gaps),
    /// i.e. whether a conservative condition could have triggered on
    /// these histories.
    pub fn is_consecutive(&self) -> bool {
        self.iter().all(|(_, seqnos)| seqnos.windows(2).all(|w| w[1].precedes(w[0])))
    }
}

/// A fingerprint's entries in ascending variable order.
enum Entries<'a> {
    /// The variables and end offsets left, and where in `seqnos` the
    /// next entry's begin.
    Flat {
        heads: std::iter::Zip<std::slice::Iter<'a, VarId>, std::slice::Iter<'a, u8>>,
        seqnos: &'a [SeqNo; INLINE_SEQNOS],
        start: usize,
    },
    Spilled(Runs<'a>),
}

impl<'a> Iterator for Entries<'a> {
    type Item = (VarId, &'a [SeqNo]);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        match self {
            Entries::Flat { heads, seqnos, start } => {
                let (&var, &end) = heads.next()?;
                let held = &seqnos[*start..usize::from(end)];
                *start = usize::from(end);
                Some((var, held))
            }
            Entries::Spilled(runs) => runs.next(),
        }
    }
}

/// The entries of `[head, seqno × count]` words.
struct Runs<'a>(&'a [SeqNo]);

impl<'a> Iterator for Runs<'a> {
    type Item = (VarId, &'a [SeqNo]);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let (head, rest) = self.0.split_first()?;
        let (var, count) = unpack(*head);
        let (held, rest) = rest.split_at(count);
        self.0 = rest;
        Some((var, held))
    }
}

impl Default for HistoryFingerprint {
    fn default() -> Self {
        HistoryFingerprint { repr: flat(std::iter::empty()) }
    }
}

impl PartialEq for HistoryFingerprint {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for HistoryFingerprint {}

impl PartialOrd for HistoryFingerprint {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HistoryFingerprint {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.iter().cmp(other.iter())
    }
}

impl Hash for HistoryFingerprint {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for entry in self.iter() {
            entry.hash(state);
        }
    }
}

impl fmt::Debug for HistoryFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let entries: Vec<_> = self.iter().collect();
        f.debug_struct("HistoryFingerprint").field("entries", &entries).finish()
    }
}

impl fmt::Display for HistoryFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (v, seqnos)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}:[")?;
            for (j, s) in seqnos.iter().enumerate() {
                if j > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{s}")?;
            }
            write!(f, "]")?;
        }
        write!(f, "}}")
    }
}

/// Words a [`FingerprintBuilder`] keeps on the stack: every history
/// set that is stored in place fits, heads included.
const SCRATCH: usize = INLINE_VARS + INLINE_SEQNOS;

/// The words of `entries` gathered as a spilled fingerprint holds them:
/// a head per variable and its seqnos.
fn words(entries: &[(VarId, Vec<SeqNo>)]) -> usize {
    entries.iter().map(|(_, seqnos)| 1 + seqnos.len()).sum()
}

/// Assembles a [`HistoryFingerprint`] one seqno at a time:
/// [`start`](Self::start) a variable, [`push`](Self::push) its seqnos
/// newest first, repeat, [`finish`](Self::finish). It accepts exactly
/// the history sets [`HistoryFingerprint::try_new`] accepts (variables
/// in any order, sorted on `finish`) and allocates nothing for one that
/// is stored in place — the construction path for an evaluator reading
/// its rings and for a decoder reading untrusted bytes, neither of
/// which has the lists `try_new` takes.
///
/// ```rust
/// use rcm_core::{FingerprintBuilder, FingerprintError, HistoryFingerprint, SeqNo, VarId};
/// let (x, y) = (VarId::new(0), VarId::new(1));
/// let mut b = FingerprintBuilder::new();
/// b.start(y)?;
/// b.push(SeqNo::new(4))?;
/// b.start(x)?;
/// b.push(SeqNo::new(7))?;
/// b.push(SeqNo::new(5))?;
/// let fp = b.finish()?;
/// let same = vec![(x, vec![SeqNo::new(7), SeqNo::new(5)]), (y, vec![SeqNo::new(4)])];
/// assert_eq!(fp, HistoryFingerprint::new(same));
///
/// let mut b = FingerprintBuilder::new();
/// b.start(x)?;
/// b.push(SeqNo::new(5))?;
/// assert_eq!(b.push(SeqNo::new(7)), Err(FingerprintError::UnorderedHistory(x)));
/// # Ok::<(), FingerprintError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct FingerprintBuilder {
    /// `[head, seqno × count]` per entry in arrival order, a head
    /// packing the entry's variable and count: in `scratch[..len]`
    /// until that is full, then all of it in `spill`.
    scratch: [SeqNo; SCRATCH],
    len: usize,
    spill: Vec<SeqNo>,
    /// The entry being pushed to; its head is written when it closes.
    open: Option<Open>,
    vars: usize,
    /// The words the finished set will hold, if known (else 0): the
    /// spill is then sized once, exactly.
    words: usize,
    /// Whether some variable did not exceed the one before it.
    unsorted: bool,
}

/// A [`FingerprintBuilder`]'s open entry.
#[derive(Debug, Clone, Copy)]
struct Open {
    /// Where its head is.
    head: usize,
    var: VarId,
    /// Its seqnos so far.
    count: usize,
    /// The last seqno pushed, if `count` is not 0.
    last: SeqNo,
}

impl FingerprintBuilder {
    /// A builder holding nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// A builder for a history set of `words` variables and seqnos in
    /// all, known ahead: one too large to store in place is gathered
    /// in one block of exactly that size, with no growth on the way.
    /// A wrong count costs allocations, never correctness.
    pub fn with_words(words: usize) -> Self {
        FingerprintBuilder { words, ..Self::default() }
    }

    #[inline]
    fn words(&self) -> &[SeqNo] {
        if self.spill.is_empty() {
            &self.scratch[..self.len]
        } else {
            &self.spill
        }
    }

    #[inline]
    fn append(&mut self, word: SeqNo) {
        if self.spill.is_empty() {
            if let Some(slot) = self.scratch.get_mut(self.len) {
                *slot = word;
                self.len += 1;
                return;
            }
            if self.words > SCRATCH {
                self.spill.reserve_exact(self.words);
            } else {
                self.spill.reserve(4 * SCRATCH);
            }
            self.spill.extend_from_slice(&self.scratch);
        }
        self.spill.push(word);
    }

    /// Closes the open entry, if any, writing its head, and returns
    /// its variable.
    #[inline]
    fn close(&mut self) -> Result<Option<VarId>, FingerprintError> {
        let Some(Open { head, var, count, .. }) = self.open.take() else { return Ok(None) };
        if count == 0 {
            return Err(FingerprintError::EmptyHistory(var));
        }
        let word = pack(var, count);
        if self.spill.is_empty() {
            self.scratch[head] = word;
        } else {
            self.spill[head] = word;
        }
        Ok(Some(var))
    }

    /// Begins the history of `var`; the seqnos pushed next are its.
    ///
    /// # Errors
    ///
    /// [`FingerprintError::EmptyHistory`] if the variable before it
    /// was given no seqno.
    #[inline]
    pub fn start(&mut self, var: VarId) -> Result<(), FingerprintError> {
        if let Some(prev) = self.close()? {
            self.unsorted |= var <= prev;
        }
        let head = self.words().len();
        self.open = Some(Open { head, var, count: 0, last: SeqNo::new(0) });
        self.vars += 1;
        self.append(pack(var, 0));
        Ok(())
    }

    /// Adds the next-older seqno of the variable last started.
    ///
    /// # Errors
    ///
    /// [`FingerprintError::UnorderedHistory`] if `seqno` is not below
    /// the one pushed before it.
    ///
    /// # Panics
    ///
    /// Panics if no variable was started.
    #[inline]
    pub fn push(&mut self, seqno: SeqNo) -> Result<(), FingerprintError> {
        let open = self.open.as_mut().expect("`start` names the variable a seqno belongs to");
        if open.count > 0 && open.last <= seqno {
            return Err(FingerprintError::UnorderedHistory(open.var));
        }
        open.count += 1;
        open.last = seqno;
        self.append(seqno);
        Ok(())
    }

    /// The fingerprint of everything started, sorted by variable.
    ///
    /// # Errors
    ///
    /// [`FingerprintError::EmptyHistory`] if the last variable was
    /// given no seqno, [`FingerprintError::DuplicateVariable`] if one
    /// was started twice.
    pub fn finish(mut self) -> Result<HistoryFingerprint, FingerprintError> {
        self.close()?;
        if self.unsorted {
            // Sorted and free of duplicates, the entries go through a
            // builder once more, and this time straight through.
            let mut sorted: Vec<_> = Runs(self.words()).collect();
            sorted.sort_by_key(|&(var, _)| var);
            if let Some(w) = sorted.windows(2).find(|w| w[0].0 == w[1].0) {
                return Err(FingerprintError::DuplicateVariable(w[0].0));
            }
            let words = self.words().len();
            let sorted = sorted.into_iter().map(|(var, held)| (var, held.iter().copied()));
            return HistoryFingerprint::try_from_histories(words, sorted);
        }
        let seqnos = self.words().len() - self.vars;
        let repr = if self.vars <= INLINE_VARS && seqnos <= INLINE_SEQNOS {
            flat(Runs(self.words()))
        } else if self.spill.is_empty() {
            Repr::Spilled(self.words().into())
        } else {
            Repr::Spilled(self.spill.into_boxed_slice())
        };
        Ok(HistoryFingerprint { repr })
    }
}

/// Stores in place entries that ascend by variable and fit.
fn flat<'a>(entries: impl Iterator<Item = (VarId, &'a [SeqNo])>) -> Repr {
    let mut ends = [0; INLINE_VARS];
    let mut vars = [VarId::new(0); INLINE_VARS];
    let mut seqnos = [SeqNo::new(0); INLINE_SEQNOS];
    let (mut len, mut end) = (0, 0);
    for (var, held) in entries {
        seqnos[end..end + held.len()].copy_from_slice(held);
        end += held.len();
        vars[len] = var;
        ends[len] = end as u8;
        len += 1;
    }
    Repr::Flat { len: len as u8, ends, vars, seqnos }
}

/// Values a [`Snapshot`] holds in place: one per seqno of a fingerprint
/// stored in place.
const INLINE_VALUES: usize = INLINE_SEQNOS;

/// Where a snapshot's values live; only [`Snapshot`]'s `Deref` reads it.
#[derive(Clone)]
enum Values {
    /// In place, for up to [`INLINE_VALUES`] values: every history set
    /// whose fingerprint holds its seqnos in place, `alert_storm`'s
    /// 2 × 2 among them. `values[..len]` is the snapshot and the rest
    /// is zero, so raising such an alert allocates its body alone.
    Flat { len: u8, values: [f64; INLINE_VALUES] },
    /// Anything longer, in one allocation of exactly its length.
    Spilled(Box<[f64]>),
}

/// Why a list of updates is not the snapshot of a fingerprint.
///
/// Returned by [`Snapshot::read`] and [`IntoSnapshot::into_snapshot`];
/// [`Alert::new`] panics with it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SnapshotError {
    /// Neither no update nor one per seqno of the fingerprint.
    Length {
        /// The fingerprint's seqnos, over all its variables.
        expected: usize,
        /// The updates given.
        found: usize,
    },
    /// An update in the place of another of the fingerprint's.
    Update {
        /// The variable and seqno the fingerprint has at that place.
        expected: (VarId, SeqNo),
        /// The variable and seqno given there.
        found: (VarId, SeqNo),
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Length { expected, found } => {
                write!(f, "a snapshot of {found} updates for a fingerprint of {expected}")
            }
            SnapshotError::Update { expected: (var, seqno), found: (v, s) } => {
                write!(f, "snapshot update {s}{v} where the fingerprint has {seqno}{var}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<SnapshotError> for rcm_json::Error {
    fn from(e: SnapshotError) -> Self {
        rcm_json::Error::new(e.to_string())
    }
}

/// The values of the updates an [`Alert`] triggered on, for display:
/// none, or one per seqno of its fingerprint in the fingerprint's
/// order — variables ascending, newest first.
///
/// An update is a full snapshot of its variable, so its variable and
/// seqno, which the fingerprint already holds, fix its value: the
/// snapshot keeps the values alone and [`AlertBody::updates`] puts
/// each back beside its seqno. Up to 4 values are stored in the
/// snapshot itself, a longer run in one boxed slice. It reads as a
/// `[f64]` (through `Deref`) and compares value by value, whichever way
/// it is stored.
///
/// ```rust
/// use rcm_core::{HistoryFingerprint, IntoSnapshot, SeqNo, Snapshot, SnapshotError, Update, VarId};
/// let x = VarId::new(0);
/// let fp = HistoryFingerprint::single(x, vec![SeqNo::new(6), SeqNo::new(5)]);
/// let held = [Update::new(x, 6, 0.5), Update::new(x, 5, 1.5)];
/// assert_eq!(held[..].into_snapshot(&fp)?[..], [0.5, 1.5]);
/// assert!(held[..1].into_snapshot(&fp).is_err());
/// assert!(Snapshot::default().is_empty());
/// # Ok::<(), SnapshotError>(())
/// ```
#[derive(Clone)]
pub struct Snapshot {
    values: Values,
}

impl Snapshot {
    /// The snapshot of `fingerprint` that `updates` spell out: none, or
    /// exactly the fingerprint's updates in its order. The form for a
    /// reader of untrusted input, which yields its updates (or its own
    /// error) one at a time, with no list in between.
    ///
    /// # Errors
    ///
    /// The first error `updates` yields, or a [`SnapshotError`] when
    /// they are neither none nor the fingerprint's.
    pub fn read<E: From<SnapshotError>>(
        fingerprint: &HistoryFingerprint,
        updates: impl ExactSizeIterator<Item = Result<Update, E>>,
    ) -> Result<Self, E> {
        let (expected, found) = (fingerprint.seqno_count(), updates.len());
        if found == 0 {
            return Ok(Snapshot::default());
        }
        if found != expected {
            return Err(SnapshotError::Length { expected, found }.into());
        }
        let mut pairs = fingerprint.pairs().zip(updates);
        Snapshot::fill(expected, || {
            let Some(((var, seqno), update)) = pairs.next() else {
                return Err(SnapshotError::Length { expected, found }.into());
            };
            let update = update?;
            if (update.var, update.seqno) != (var, seqno) {
                let found = (update.var, update.seqno);
                return Err(SnapshotError::Update { expected: (var, seqno), found }.into());
            }
            Ok(update.value)
        })
    }

    /// The snapshot of `fingerprint` whose values `values` yields, in
    /// the fingerprint's order: none, or one per seqno. The form for a
    /// reader of untrusted input that carries the values alone, as the
    /// wire does; each is taken as it is, bit for bit.
    ///
    /// ```rust
    /// use rcm_core::{HistoryFingerprint, SeqNo, Snapshot, SnapshotError, VarId};
    /// let fp = HistoryFingerprint::single(VarId::new(0), vec![SeqNo::new(6), SeqNo::new(5)]);
    /// let read = |values: &[f64]| Snapshot::read_values(&fp, values.iter().map(|&v| Ok(v)));
    /// assert_eq!(read(&[0.5, -0.0])?[..], [0.5, -0.0]);
    /// assert!(read(&[])?.is_empty());
    /// assert_eq!(read(&[0.5]), Err(SnapshotError::Length { expected: 2, found: 1 }));
    /// # Ok::<(), SnapshotError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Length`] when `values` holds neither none nor
    /// one per seqno of the fingerprint, before any is read; else the
    /// first error `values` yields.
    pub fn read_values<E: From<SnapshotError>>(
        fingerprint: &HistoryFingerprint,
        mut values: impl ExactSizeIterator<Item = Result<f64, E>>,
    ) -> Result<Self, E> {
        let (expected, found) = (fingerprint.seqno_count(), values.len());
        if found == 0 {
            return Ok(Snapshot::default());
        }
        if found != expected {
            return Err(SnapshotError::Length { expected, found }.into());
        }
        Snapshot::fill(expected, || match values.next() {
            Some(value) => value,
            None => Err(SnapshotError::Length { expected, found }.into()),
        })
    }

    /// The first `len` of `values`, which must yield at least that
    /// many: how an evaluator copies the histories it holds, with no
    /// list in between.
    pub(crate) fn gather(len: usize, mut values: impl Iterator<Item = f64>) -> Self {
        let next = || match values.next() {
            Some(value) => Ok::<_, std::convert::Infallible>(value),
            None => unreachable!("a history yielded fewer updates than it holds"),
        };
        match Snapshot::fill(len, next) {
            Ok(snapshot) => snapshot,
            Err(never) => match never {},
        }
    }

    /// `len` values from `next`, in place when they fit, else in one
    /// allocation of exactly `len`.
    fn fill<E>(len: usize, mut next: impl FnMut() -> Result<f64, E>) -> Result<Self, E> {
        let values = if len <= INLINE_VALUES {
            let mut flat = [0.0; INLINE_VALUES];
            for slot in &mut flat[..len] {
                *slot = next()?;
            }
            Values::Flat { len: len as u8, values: flat }
        } else {
            let mut boxed = vec![0.0; len].into_boxed_slice();
            for slot in boxed.iter_mut() {
                *slot = next()?;
            }
            Values::Spilled(boxed)
        };
        Ok(Snapshot { values })
    }
}

impl Default for Snapshot {
    /// The snapshot of no update, which every fingerprint accepts.
    fn default() -> Self {
        Snapshot { values: Values::Flat { len: 0, values: [0.0; INLINE_VALUES] } }
    }
}

impl std::ops::Deref for Snapshot {
    type Target = [f64];

    #[inline]
    fn deref(&self) -> &[f64] {
        match &self.values {
            Values::Flat { len, values } => &values[..usize::from(*len)],
            Values::Spilled(values) => values,
        }
    }
}

impl PartialEq for Snapshot {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The triggering updates as [`Alert::new`] takes them: a list of
/// [`Update`]s, each checked against the fingerprint, or a [`Snapshot`]
/// already in the fingerprint's order, checked for its length.
pub trait IntoSnapshot {
    /// The snapshot these updates make beside `fingerprint`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] unless they are none or exactly the
    /// fingerprint's updates.
    fn into_snapshot(self, fingerprint: &HistoryFingerprint) -> Result<Snapshot, SnapshotError>;
}

impl IntoSnapshot for &[Update] {
    fn into_snapshot(self, fingerprint: &HistoryFingerprint) -> Result<Snapshot, SnapshotError> {
        Snapshot::read(fingerprint, self.iter().map(|&u| Ok(u)))
    }
}

impl IntoSnapshot for Vec<Update> {
    fn into_snapshot(self, fingerprint: &HistoryFingerprint) -> Result<Snapshot, SnapshotError> {
        self[..].into_snapshot(fingerprint)
    }
}

impl IntoSnapshot for Snapshot {
    fn into_snapshot(self, fingerprint: &HistoryFingerprint) -> Result<Snapshot, SnapshotError> {
        let (expected, found) = (fingerprint.seqno_count(), self.len());
        if found == 0 || found == expected {
            Ok(self)
        } else {
            Err(SnapshotError::Length { expected, found })
        }
    }
}

/// An alert `a(condname, histories)` emitted by a Condition Evaluator.
///
/// Identity follows the paper: two alerts are equal iff they are for the
/// same condition and triggered on the same update histories
/// ([`HistoryFingerprint`]). Provenance ([`AlertId`]) and the value
/// snapshot are carried for display and tracing but excluded from
/// `Eq`/`Hash`, so AD-1's "identical alerts" test is plain `==`.
///
/// An alert never changes once raised, so it is a handle on one shared
/// [`AlertBody`]: the CE's record, the back link, the AD's arrivals and
/// its display all hold the same block, and a clone is a refcount bump.
/// Fields read through `Deref`; [`Alert::with_cond`] is the one edit.
///
/// ```rust
/// use rcm_core::{Alert, AlertId, CeId, CondId, HistoryFingerprint, SeqNo, Update, VarId};
/// let x = VarId::new(0);
/// let fp = HistoryFingerprint::single(x, vec![SeqNo::new(3), SeqNo::new(2)]);
/// let held = vec![Update::new(x, 3, 52.0), Update::new(x, 2, 51.5)];
/// let a = Alert::new(CondId::SINGLE, fp.clone(), held.clone(),
///                    AlertId { ce: CeId::new(0), index: 0 });
/// let b = Alert::new(CondId::SINGLE, fp, vec![], AlertId { ce: CeId::new(1), index: 5 });
/// assert_eq!(a, b); // same condition + histories => identical
/// assert_eq!(a.seqno(x), Some(SeqNo::new(3)));
/// assert!(Alert::ptr_eq(&a, &a.clone()) && !Alert::ptr_eq(&a, &b));
/// assert_eq!((a.updates().collect::<Vec<_>>(), b.updates().count()), (held, 0));
/// ```
#[derive(Clone)]
pub struct Alert(Arc<AlertBody>);

/// What an [`Alert`] holds, in the one block its holders share.
#[derive(Debug, Clone)]
pub struct AlertBody {
    /// Which condition triggered.
    pub cond: CondId,
    /// The update histories the CE used in evaluating the condition.
    pub fingerprint: HistoryFingerprint,
    /// The values of the triggering updates, in the fingerprint's order,
    /// or none (for display; not part of identity).
    pub snapshot: Snapshot,
    /// Provenance (not part of identity).
    pub id: AlertId,
}

impl AlertBody {
    /// The triggering updates, per variable in ascending order, newest
    /// first: the fingerprint's seqnos beside the snapshot's values.
    /// Nothing when the snapshot is empty.
    pub fn updates(&self) -> impl Iterator<Item = Update> + '_ {
        let pairs = self.fingerprint.pairs().zip(self.snapshot.iter());
        pairs.map(|((var, seqno), &value)| Update::new(var, seqno, value))
    }
}

impl Alert {
    /// Creates an alert; `snapshot` accepts a `Vec<Update>`, a slice or
    /// a [`Snapshot`] (see [`IntoSnapshot`]).
    ///
    /// # Panics
    ///
    /// Panics unless `snapshot` is empty or exactly the fingerprint's
    /// updates, in its order.
    pub fn new(
        cond: CondId,
        fingerprint: HistoryFingerprint,
        snapshot: impl IntoSnapshot,
        id: AlertId,
    ) -> Self {
        let snapshot = match snapshot.into_snapshot(&fingerprint) {
            Ok(snapshot) => snapshot,
            Err(e) => panic!("{e}"),
        };
        Alert(Arc::new(AlertBody { cond, fingerprint, snapshot, id }))
    }

    /// This alert under condition `cond`, everything else kept: in
    /// place if no other handle shares the body, else in a copy.
    pub fn with_cond(mut self, cond: CondId) -> Self {
        Arc::make_mut(&mut self.0).cond = cond;
        self
    }

    /// Whether `a` and `b` are handles on the same body.
    pub fn ptr_eq(a: &Alert, b: &Alert) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// The paper's `a.seqno.x` for `var`.
    pub fn seqno(&self, var: VarId) -> Option<SeqNo> {
        self.fingerprint.seqno(var)
    }

    /// The alert as a checkpoint carries it:
    /// `{"cond":…,"fingerprint":…,"snapshot":[…],"id":{"ce":…,"index":…}}`.
    pub fn to_json(&self) -> Json {
        obj([
            ("cond", self.cond.index().into()),
            ("fingerprint", self.fingerprint.to_json()),
            ("snapshot", self.updates().map(Update::to_json).collect()),
            ("id", obj([("ce", self.id.ce.index().into()), ("index", self.id.index.into())])),
        ])
    }

    /// Inverse of [`Alert::to_json`].
    ///
    /// # Errors
    ///
    /// A missing or mistyped field, a fingerprint
    /// [`HistoryFingerprint::try_new`] refuses, or a snapshot that is
    /// neither empty nor the fingerprint's updates.
    pub fn from_json(j: &Json) -> rcm_json::Result<Self> {
        let fingerprint = HistoryFingerprint::from_json(j.field("fingerprint")?)?;
        let updates = j.field("snapshot")?.arr()?.iter().map(Update::from_json);
        let snapshot = Snapshot::read(&fingerprint, updates)?;
        let id = j.field("id")?;
        Ok(Alert::new(
            CondId::new(j.field("cond")?.u32()?),
            fingerprint,
            snapshot,
            AlertId { ce: CeId::new(id.field("ce")?.u32()?), index: id.field("index")?.u64()? },
        ))
    }
}

impl std::ops::Deref for Alert {
    type Target = AlertBody;

    #[inline]
    fn deref(&self) -> &AlertBody {
        &self.0
    }
}

impl PartialEq for Alert {
    fn eq(&self, other: &Self) -> bool {
        Alert::ptr_eq(self, other)
            || (self.cond == other.cond && self.fingerprint == other.fingerprint)
    }
}

impl Eq for Alert {}

impl Hash for Alert {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.cond.hash(state);
        self.fingerprint.hash(state);
    }
}

impl fmt::Debug for Alert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Alert")
            .field("cond", &self.cond)
            .field("fingerprint", &self.fingerprint)
            .field("snapshot", &self.snapshot)
            .field("id", &self.id)
            .finish()
    }
}

impl fmt::Display for Alert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a({}, {})", self.cond, self.fingerprint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(seqnos: &[u64]) -> HistoryFingerprint {
        HistoryFingerprint::single(VarId::new(0), seqnos.iter().map(|&s| SeqNo::new(s)).collect())
    }

    fn alert(fpr: HistoryFingerprint, ce: u32) -> Alert {
        Alert::new(CondId::SINGLE, fpr, vec![], AlertId { ce: CeId::new(ce), index: 0 })
    }

    #[test]
    fn identity_ignores_provenance_and_snapshot() {
        let a = alert(fp(&[3, 2]), 0);
        let snapshot = vec![Update::new(VarId::new(0), 3, 1.0), Update::new(VarId::new(0), 2, 0.5)];
        let b = Alert::new(
            CondId::SINGLE,
            fp(&[3, 2]),
            snapshot,
            AlertId { ce: CeId::new(1), index: 4 },
        );
        assert_eq!(a, b);
        use std::collections::HashSet;
        let set: HashSet<Alert> = [a, b].into_iter().collect();
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn different_histories_are_not_identical() {
        // Paper §3: a1 triggered on {2x,3x}, a2 on {1x,3x}; AD-1 must not
        // treat them as duplicates.
        let a1 = alert(fp(&[3, 2]), 0);
        let a2 = alert(fp(&[3, 1]), 1);
        assert_ne!(a1, a2);
    }

    #[test]
    fn seqno_is_newest_entry() {
        let a = alert(fp(&[7, 5]), 0);
        assert_eq!(a.seqno(VarId::new(0)), Some(SeqNo::new(7)));
        assert_eq!(a.seqno(VarId::new(1)), None);
    }

    #[test]
    fn fingerprint_sorts_variables() {
        let x = VarId::new(0);
        let y = VarId::new(1);
        let f1 = HistoryFingerprint::new(vec![(y, vec![SeqNo::new(2)]), (x, vec![SeqNo::new(8)])]);
        let f2 = HistoryFingerprint::new(vec![(x, vec![SeqNo::new(8)]), (y, vec![SeqNo::new(2)])]);
        assert_eq!(f1, f2);
        let vars: Vec<_> = f1.variables().collect();
        assert_eq!(vars, vec![x, y]);
    }

    #[test]
    fn consecutive_detection() {
        assert!(fp(&[3, 2]).is_consecutive());
        assert!(!fp(&[3, 1]).is_consecutive());
        assert!(fp(&[3]).is_consecutive());
    }

    #[test]
    #[should_panic(expected = "strictly decreasing")]
    fn fingerprint_rejects_unordered_history() {
        fp(&[2, 3]);
    }

    #[test]
    #[should_panic(expected = "duplicate variable")]
    fn fingerprint_rejects_duplicate_vars() {
        HistoryFingerprint::new(vec![
            (VarId::new(0), vec![SeqNo::new(1)]),
            (VarId::new(0), vec![SeqNo::new(2)]),
        ]);
    }

    #[test]
    fn try_new_reports_instead_of_panicking() {
        let v = VarId::new(0);
        assert_eq!(
            HistoryFingerprint::try_new(vec![(v, vec![SeqNo::new(2), SeqNo::new(3)])]),
            Err(FingerprintError::UnorderedHistory(v))
        );
        assert_eq!(
            HistoryFingerprint::try_new(vec![(v, vec![])]),
            Err(FingerprintError::EmptyHistory(v))
        );
        assert_eq!(
            HistoryFingerprint::try_new(vec![(v, vec![SeqNo::new(1)]), (v, vec![SeqNo::new(2)]),]),
            Err(FingerprintError::DuplicateVariable(v))
        );
        let ok = HistoryFingerprint::try_new(vec![(v, vec![SeqNo::new(3), SeqNo::new(2)])])
            .expect("well-formed history set");
        assert_eq!(ok, fp(&[3, 2]));
    }

    #[test]
    fn display_formats() {
        let a = alert(fp(&[3, 1]), 0);
        assert_eq!(a.to_string(), "a(c0, {v0:[3,1]})");
        assert_eq!(AlertId { ce: CeId::new(2), index: 9 }.to_string(), "CE2#9");
    }

    #[test]
    fn cloned_alerts_share_one_body() {
        let a = Alert::new(
            CondId::SINGLE,
            fp(&[3, 2]),
            vec![Update::new(VarId::new(0), 3, 52.0), Update::new(VarId::new(0), 2, 51.0)],
            AlertId { ce: CeId::new(0), index: 0 },
        );
        let b = a.clone();
        assert!(Alert::ptr_eq(&a, &b));
        assert!(std::ptr::eq(&a.snapshot[0], &b.snapshot[0]));
        // Relabelling a shared alert copies the body; the original and
        // every other handle on it keep their condition.
        let c = b.with_cond(CondId::new(3));
        assert!(!Alert::ptr_eq(&a, &c));
        assert_eq!((a.cond, c.cond), (CondId::SINGLE, CondId::new(3)));
        assert_eq!((c.id, &c.fingerprint, &c.snapshot), (a.id, &a.fingerprint, &a.snapshot));
        // A sole handle is relabelled in place.
        let at = Arc::as_ptr(&c.0);
        assert_eq!(Arc::as_ptr(&c.with_cond(CondId::new(4)).0), at);
    }

    #[test]
    fn a_snapshot_is_none_or_the_fingerprints_updates_in_its_order() {
        let (x, y) = (VarId::new(0), VarId::new(4));
        let fingerprint = HistoryFingerprint::new(vec![
            (y, vec![SeqNo::new(9)]),
            (x, vec![SeqNo::new(7), SeqNo::new(5)]),
        ]);
        let held = [Update::new(x, 7, 1.0), Update::new(x, 5, 2.0), Update::new(y, 9, 3.0)];
        let a = Alert::new(
            CondId::SINGLE,
            fingerprint.clone(),
            &held[..],
            AlertId { ce: CeId::new(0), index: 0 },
        );
        assert_eq!(a.snapshot[..], [1.0, 2.0, 3.0]);
        assert_eq!(a.updates().collect::<Vec<_>>(), held);
        let check = |updates: &[Update]| updates.into_snapshot(&fingerprint);
        assert_eq!(check(&[]).map(|s| s.len()), Ok(0));
        assert_eq!(check(&held[..2]), Err(SnapshotError::Length { expected: 3, found: 2 }));
        let swapped = [held[1], held[0], held[2]];
        let expected = (x, SeqNo::new(7));
        assert_eq!(
            check(&swapped),
            Err(SnapshotError::Update { expected, found: (x, SeqNo::new(5)) })
        );
        // A snapshot moves between alerts on its length alone.
        assert!(a.snapshot.clone().into_snapshot(&fingerprint).is_ok());
        assert!(a.snapshot.clone().into_snapshot(&fp(&[3, 2])).is_err());
        // Past four values the snapshot is one exact allocation; the
        // updates read back the same.
        let deep = fp(&[9, 8, 7, 6, 5, 4, 3]);
        let run: Vec<Update> = (3..=9).rev().map(|s| Update::new(x, s, s as f64)).collect();
        let b =
            Alert::new(CondId::SINGLE, deep, run.clone(), AlertId { ce: CeId::new(0), index: 1 });
        assert_eq!(b.updates().collect::<Vec<_>>(), run);
    }

    #[test]
    #[should_panic(expected = "a snapshot of 1 updates for a fingerprint of 2")]
    fn a_partial_snapshot_is_refused() {
        let x = VarId::new(0);
        Alert::new(
            CondId::SINGLE,
            fp(&[3, 2]),
            vec![Update::new(x, 3, 1.0)],
            AlertId { ce: CeId::new(0), index: 0 },
        );
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn an_alert_is_one_pointer() {
        // A run retains every alert it raised, `alert_storm` 1.7 million
        // handles on 0.7 million bodies: each handle is a word, and a
        // body with the 2 × 2 snapshot in place is one 144-byte malloc
        // chunk (120 bytes plus the two refcounts). The snapshot holds
        // values alone: four in place, as many as the fingerprint's seqnos.
        assert_eq!(std::mem::size_of::<HistoryFingerprint>(), 56);
        assert_eq!(std::mem::size_of::<Snapshot>(), 40);
        assert_eq!(std::mem::size_of::<AlertBody>(), 120);
        assert_eq!(std::mem::size_of::<Alert>(), 8);
    }

    #[test]
    fn checkpoint_form_is_independent_of_inline_storage() {
        // The flat fingerprint and the in-place snapshot are written as
        // plain lists, whichever way they are stored.
        let a = Alert::new(
            CondId::SINGLE,
            fp(&[3, 2]),
            vec![Update::new(VarId::new(0), 3, 52.0), Update::new(VarId::new(0), 2, 51.0)],
            AlertId { ce: CeId::new(0), index: 7 },
        );
        let json = rcm_json::parse(&a.to_json().to_string()).unwrap();
        assert_eq!(
            json.to_string(),
            r#"{"cond":0,"fingerprint":{"entries":[[0,[3,2]]]},"snapshot":[{"var":0,"seqno":3,"value":52.0},{"var":0,"seqno":2,"value":51.0}],"id":{"ce":0,"index":7}}"#
        );
        let back = Alert::from_json(&json).unwrap();
        assert_eq!(back, a);
        assert_eq!(back.snapshot[..], a.snapshot[..]);
        assert_eq!(back.id, a.id);
        // A snapshot that is neither empty nor the fingerprint's updates
        // is refused, not loaded beside histories it contradicts.
        let with_snapshot = |snapshot: &str| {
            let text = format!(
                r#"{{"cond":0,"fingerprint":{{"entries":[[0,[3,2]]]}},"snapshot":[{snapshot}],"id":{{"ce":0,"index":7}}}}"#
            );
            Alert::from_json(&rcm_json::parse(&text).unwrap())
        };
        assert!(with_snapshot("").unwrap().snapshot.is_empty());
        for bad in [
            r#"{"var":0,"seqno":3,"value":52.0},{"var":0,"seqno":1,"value":51.0}"#,
            r#"{"var":0,"seqno":3,"value":52.0}"#,
            r#"{"var":0,"seqno":3,"value":52.0},{"var":1,"seqno":2,"value":51.0}"#,
        ] {
            assert!(with_snapshot(bad).is_err(), "{bad}");
        }
        // A spilled fingerprint (five variables) reads back too.
        let wide = HistoryFingerprint::new(
            (0..5).map(|v| (VarId::new(v), vec![SeqNo::new(9), SeqNo::new(4)])).collect(),
        );
        assert_eq!(HistoryFingerprint::from_json(&wide.to_json()).unwrap(), wide);
        // Loading goes through `try_new`: a checkpoint cannot smuggle
        // in a history set no constructor would build.
        for bad in [
            r#"{"entries": [[0, [1]], [0, [2]]]}"#,
            r#"{"entries": [[0, [2, 3]]]}"#,
            r#"{"entries": [[0, []]]}"#,
            r#"{"entries": [[0]]}"#,
            r#"{"entries": [[0, [-1]]]}"#,
        ] {
            assert!(
                HistoryFingerprint::from_json(&rcm_json::parse(bad).unwrap()).is_err(),
                "{bad}"
            );
        }
    }
}
