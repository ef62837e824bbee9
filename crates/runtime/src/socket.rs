//! Socket-mode adapters: the transport crate's real UDP/TCP links
//! dressed up as the [`Fanout`] / [`AlertSink`] traits, so `dm_loop`
//! and a replica drive loopback sockets exactly as they drive
//! in-process hops and channels.
//!
//! LOCK ORDER: no locks here — the adapters delegate straight into the
//! transport links, which count into atomics.

use rcm_core::{Alert, Update};
use rcm_transport::{fin_rounds, EventedBackLink, UdpFrontLink};

use crate::actors::AlertSink;
use crate::dm::Fanout;

/// The DM loop's socket fanout: a UDP link per `(feed, replica)`. A
/// feed's readings are collected over a round and sent at its end, as
/// one datagram per replica while they fit the datagram budget.
pub(crate) struct UdpFanout {
    /// `links[feed][replica]`.
    links: Vec<Vec<UdpFrontLink>>,
    /// `round[feed]`: the feed's readings this round.
    round: Vec<Vec<Update>>,
    /// Most Fins a silent link is sent.
    fin_repeats: usize,
}

impl UdpFanout {
    /// A fanout over `links[feed][replica]`.
    pub(crate) fn new(links: Vec<Vec<UdpFrontLink>>, fin_repeats: usize) -> Self {
        let round = links.iter().map(|_| Vec::new()).collect();
        UdpFanout { links, round, fin_repeats }
    }
}

impl Fanout for UdpFanout {
    fn multicast(&mut self, feed: usize, update: Update) {
        self.round[feed].push(update);
    }

    fn end_round(&mut self) {
        for (links, round) in self.links.iter_mut().zip(&mut self.round) {
            for link in links.iter_mut() {
                link.send_updates(round);
            }
            round.clear();
        }
    }

    // UDP has no hangup, so end-of-stream is an explicit marker on every
    // link, a round at a time until each is echoed, because the front
    // link is allowed to drop a Fin (or its echo) like any datagram.
    // `&`, not `&&`: every link's echo is read, not only those up to the
    // first silent link.
    fn finish(&mut self) {
        let links = &mut self.links;
        fin_rounds(self.fin_repeats, |until| {
            links.iter_mut().flatten().for_each(UdpFrontLink::send_fin);
            links.iter_mut().flatten().fold(true, |all, l| l.fin_echoed(until) & all)
        });
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
