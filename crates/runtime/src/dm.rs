//! The Data Monitors of one system, on one thread.
//!
//! In the paper a DM numbers the readings of one variable and
//! multicasts each to the R CE replicas. [`dm_loop`] runs every DM of a
//! [`MonitorSystem`](crate::MonitorSystem) at once: it owns every feed
//! and every front link, waits on all streaming feeds through one
//! [`wait_any`] (recorded feeds are paced by their own deadlines), and
//! after each wake drains a bounded round: one reading per feed per
//! pass, round-robin, at most [`ROUND`] in all. Where the round goes is
//! the [`Fanout`]'s business: in-process the loop owns the replicas
//! too, and offers each the round's surviving updates with a call, on
//! this thread; over sockets the loop is one DM node with one link per
//! replica, and the whole round, every feed's readings in round order,
//! reaches each replica as one datagram while it fits the datagram
//! budget.
//!
//! LOCK ORDER: the loop takes only leaf mutexes owned elsewhere (a
//! retained window and, in-process, its replicas' records and fault
//! report), each alone and released before any send or other lock. The
//! links count into atomics.

use rcm_sync::chan::{wait_any, Receiver, TryRecvError};
use rcm_sync::time::{Duration, Instant};

use rcm_core::{Update, VarId};

use crate::actors::Replica;
use crate::faults::RetainedWindow;
use crate::link::FrontHop;

/// Most readings one round takes before it is handed off. It bounds how
/// long a feed with a backlog can hold back another feed's reading: one
/// round. In-process a replica evaluates each DM round as one round;
/// a socket-mode CE takes at most this many received updates into one,
/// and `rcm-dm` sends at most this many readings as one round.
pub const ROUND: usize = 64;

/// Where a Data Monitor's readings come from.
pub(crate) enum FeedSource {
    /// A pre-recorded list of readings.
    Values(std::vec::IntoIter<f64>),
    /// A live channel: the DM emits each pushed reading until the
    /// sender side hangs up.
    Channel(Receiver<f64>),
}

impl std::fmt::Debug for FeedSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FeedSource::Values(v) => f.debug_tuple("Values").field(&v.len()).finish(),
            FeedSource::Channel(_) => f.debug_tuple("Channel").finish(),
        }
    }
}

/// Where the loop's updates go: the paper's front link per `(feed,
/// replica)`, however the fanout carries them.
pub(crate) trait Fanout: Send {
    /// Multicasts feed `feed`'s `update` over that feed's links.
    fn multicast(&mut self, feed: usize, update: Update);

    /// Ends a round: whatever the links hold back goes out now.
    fn end_round(&mut self);

    /// Ends the stream on every link.
    fn finish(&mut self);
}

/// One variable's Data Monitor as the loop runs it.
pub(crate) struct Dm {
    /// Index of this feed, in builder order: the fanout's link row.
    feed: usize,
    var: VarId,
    source: FeedSource,
    /// Pause between emissions of a recorded feed.
    period: Duration,
    /// When a recorded feed may emit next.
    due: Instant,
    /// Seqno of the last update emitted.
    seqno: u64,
    /// The recovery window, when fault injection is on.
    window: Option<RetainedWindow>,
    ended: bool,
}

impl Dm {
    /// Feed number `feed` of its system.
    pub(crate) fn new(
        feed: usize,
        var: VarId,
        source: FeedSource,
        period: Duration,
        window: Option<RetainedWindow>,
    ) -> Self {
        Dm { feed, var, source, period, due: Instant::now(), seqno: 0, window, ended: false }
    }

    /// The next reading if one is ready at `now`. A source that is done
    /// marks the feed ended.
    fn poll(&mut self, now: Instant) -> Option<f64> {
        let value = match &mut self.source {
            FeedSource::Values(values) => {
                if now < self.due {
                    return None;
                }
                self.due = now + self.period;
                values.next()
            }
            FeedSource::Channel(rx) => match rx.try_recv() {
                Ok(value) => Some(value),
                Err(TryRecvError::Empty) => return None,
                Err(TryRecvError::Disconnected) => None,
            },
        };
        self.ended = value.is_none();
        value
    }

    /// Numbers `value` with the next seqno and retains it. Retention
    /// comes BEFORE any hand-off: an update a CE could have received is
    /// then always in the window when that CE recovers, so a crash can
    /// never lose an update that lossless links delivered. (The
    /// converse — replaying an update whose live copy arrives later —
    /// is harmless: the ingest gate discards the second copy.)
    fn emit(&mut self, value: f64) -> Update {
        self.seqno += 1;
        let update = Update::new(self.var, self.seqno, value);
        if let Some(window) = &self.window {
            window.push(update);
        }
        update
    }
}

/// Runs every Data Monitor of a system until each feed has ended, then
/// ends the stream on every link.
pub(crate) fn dm_loop(mut dms: Vec<Dm>, mut out: impl Fanout) {
    loop {
        let taken = round(&mut dms, &mut out);
        if taken > 0 {
            out.end_round();
        }
        dms.retain(|dm| !dm.ended);
        if dms.is_empty() {
            break;
        }
        if taken < ROUND {
            wait(&dms);
        }
    }
    out.finish();
}

/// Drains one round: passes over the feeds, one reading from each that
/// has one, until a pass finds none or [`ROUND`] readings are taken.
/// Returns how many were.
fn round(dms: &mut [Dm], out: &mut impl Fanout) -> usize {
    let now = Instant::now();
    let mut taken = 0;
    loop {
        let before = taken;
        for dm in dms.iter_mut().filter(|dm| !dm.ended) {
            if let Some(value) = dm.poll(now) {
                out.multicast(dm.feed, dm.emit(value));
                taken += 1;
                if taken == ROUND {
                    return taken;
                }
            }
        }
        if taken == before {
            return taken;
        }
    }
}

/// Blocks until a streaming feed has a reading or has hung up, or the
/// next recorded feed is due.
fn wait(dms: &[Dm]) {
    let mut channels = Vec::with_capacity(dms.len());
    let mut deadline: Option<Instant> = None;
    for dm in dms {
        match &dm.source {
            FeedSource::Channel(rx) => channels.push(rx),
            FeedSource::Values(_) => deadline = Some(deadline.map_or(dm.due, |d| d.min(dm.due))),
        }
    }
    wait_any(&channels, deadline);
}

/// The in-process fanout: a [`FrontHop`] per `(feed, replica)` draws
/// each update's loss and crosses the codec with it, and what survives
/// a round is offered to each replica, which evaluates it before the
/// call returns.
pub(crate) struct Rounds {
    /// `hops[feed][replica]`.
    hops: Vec<Vec<FrontHop>>,
    /// Per replica: the replica and the round being collected for it.
    replicas: Vec<(Replica, Vec<Update>)>,
}

impl Rounds {
    /// A fanout over `hops[feed][replica]` to `replicas`.
    pub(crate) fn new(hops: Vec<Vec<FrontHop>>, replicas: Vec<Replica>) -> Self {
        let replicas = replicas.into_iter().map(|r| (r, Vec::with_capacity(ROUND))).collect();
        Rounds { hops, replicas }
    }
}

impl Fanout for Rounds {
    fn multicast(&mut self, feed: usize, update: Update) {
        for (hop, (_, round)) in self.hops[feed].iter_mut().zip(&mut self.replicas) {
            if hop.pass(&update) {
                round.push(update);
            }
        }
    }

    fn end_round(&mut self) {
        for (replica, round) in &mut self.replicas {
            if !round.is_empty() {
                replica.offer(round);
            }
        }
    }

    // Each replica flushes its back link and drops it; the AD ends
    // after the last.
    fn finish(&mut self) {
        for (replica, _) in self.replicas.drain(..) {
            replica.finish();
        }
    }
}
