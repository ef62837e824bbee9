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
use crate::pipeline::AlertDrain;

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
