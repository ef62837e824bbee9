//! Socket-mode adapters: the transport crate's real UDP/TCP links
//! dressed up as the [`Fanout`] / [`AlertSink`] traits, so `dm_loop`
//! and a replica drive loopback sockets exactly as they drive
//! in-process hops and channels.
//!
//! LOCK ORDER: no locks here — the adapters delegate straight into the
//! transport links, which count into atomics.

use rcm_core::{Alert, Update};
use rcm_transport::{EventedBackLink, RoundSender};

use crate::actors::AlertSink;
use crate::dm::Fanout;

/// The DM loop's socket fanout: the system's DMs as one node, with one
/// UDP link per replica. Each round, every feed's readings of it, goes
/// to each replica as one datagram while it fits the datagram budget;
/// the sender keeps the `(feed, replica)` ledger.
impl Fanout for RoundSender {
    fn multicast(&mut self, feed: usize, update: Update) {
        self.push(feed, update);
    }

    fn end_round(&mut self) {
        self.send_round();
    }

    // UDP has no hangup, so end-of-stream is an explicit marker on every
    // link, a round at a time until each is echoed, because the front
    // link is allowed to drop a Fin (or its echo) like any datagram.
    fn finish(&mut self) {
        RoundSender::finish(self);
    }
}

impl AlertSink for EventedBackLink {
    fn send_alert(&mut self, alert: Alert) {
        EventedBackLink::send_alert(self, alert);
    }

    fn flush(&mut self) {
        self.finish();
    }

    fn abandon(&mut self) {
        EventedBackLink::abandon(self);
    }
}
