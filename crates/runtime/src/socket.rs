//! Socket-mode adapters: the transport crate's real UDP/TCP links
//! dressed up as the actor bodies' [`Fanout`] / [`AlertSink`] traits,
//! so `dm_loop` and `ce_body` drive loopback sockets exactly as they
//! drive in-process channels.
//!
//! LOCK ORDER: no locks here — the adapters delegate straight into the
//! transport links, whose counter mutexes are leaves.

use rcm_core::{Alert, Update};
use rcm_transport::{fin_rounds, EventedBackLink, UdpFrontLink};

use crate::actors::AlertSink;
use crate::dm::Fanout;

/// The DM loop's socket fanout: a UDP link per `(feed, replica)`, each
/// update sent as it is numbered.
pub(crate) struct UdpFanout {
    /// `links[feed][replica]`.
    pub links: Vec<Vec<UdpFrontLink>>,
    /// Most Fins a silent link is sent.
    pub fin_repeats: usize,
}

impl Fanout for UdpFanout {
    fn multicast(&mut self, feed: usize, update: Update) {
        for link in &mut self.links[feed] {
            link.send_update(update);
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
