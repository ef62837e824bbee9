//! Socket-mode adapters: the transport crate's real UDP/TCP links
//! dressed up as the [`Fanout`] / [`AlertDrain`] traits, so `dm_loop`
//! and a replica drive loopback sockets exactly as they drive
//! in-process hops and channels.
//!
//! LOCK ORDER: no locks here — the adapters delegate straight into the
//! transport links, which count into atomics.

use rcm_core::{Alert, Update};
use rcm_transport::{EventedBackLink, RoundSender};

use crate::dm::Fanout;
use crate::link::FrontHop;
use crate::pipeline::AlertDrain;

/// The DM loop's socket fanout: the system's DMs as one node, with one
/// UDP link per replica. Each update is drawn against its feed's
/// [`FrontHop`]s in replica order, as in-process, and joins the rounds
/// of the replicas whose draw kept it; each round, every feed's
/// surviving readings of it, goes to each replica as one datagram while
/// it fits the datagram budget. The sender keeps the `(feed, replica)`
/// ledger, a drawn loss included.
pub(crate) struct SocketRounds {
    /// `hops[feed][replica]`.
    hops: Vec<Vec<FrontHop>>,
    sender: RoundSender,
}

impl SocketRounds {
    /// A fanout drawing on `hops[feed][replica]` and sending through
    /// `sender`, which has one link per replica.
    pub(crate) fn new(hops: Vec<Vec<FrontHop>>, sender: RoundSender) -> Self {
        SocketRounds { hops, sender }
    }
}

impl Fanout for SocketRounds {
    fn multicast(&mut self, feed: usize, update: Update) {
        let hops = self.hops[feed].iter_mut().map(FrontHop::pass);
        self.sender.push_with(feed, update, hops);
    }

    fn end_round(&mut self) {
        self.sender.send_round();
    }

    // UDP has no hangup, so end-of-stream is an explicit marker on every
    // link, a round at a time until each is echoed, because the front
    // link is allowed to drop a Fin (or its echo) like any datagram.
    fn finish(&mut self) {
        self.sender.finish();
    }
}

/// A replica's socket back link: each alert is queued to the event
/// loop as it is merged; end-of-stream hands the loop the lossless
/// drain and the Fin, which the loop finishes before it returns, and an
/// abandoned replica's link still owes its listener the Fin.
impl AlertDrain for EventedBackLink {
    fn round(&mut self, alerts: &mut Vec<Alert>) {
        for alert in alerts.drain(..) {
            self.send_alert(alert);
        }
    }

    fn end_of_stream(&mut self) {
        self.finish();
    }

    fn abandoned(&mut self) {
        self.abandon();
    }
}
