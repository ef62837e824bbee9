//! Socket-mode adapters: the transport crate's real UDP/TCP links
//! dressed up as the actor bodies' [`UpdateSender`] / [`AlertSink`]
//! traits, so `dm_body` and `ce_body` drive loopback sockets exactly
//! as they drive in-process channels.
//!
//! LOCK ORDER: no locks here — the adapters delegate straight into the
//! transport links, whose counter mutexes are leaves.

use rcm_core::{Alert, Update};
use rcm_transport::{EventedBackLink, UdpFrontLink};

use crate::actors::{AlertSink, UpdateSender};

/// A DM's UDP front link plus the Fin repeat count it signs off with.
/// UDP has no hangup, so end-of-stream is an explicit marker — repeated
/// because the front link is allowed to drop it like any datagram.
pub(crate) struct UdpSender {
    pub link: UdpFrontLink,
    pub fin_repeats: usize,
}

impl UpdateSender for UdpSender {
    fn send_update(&mut self, update: Update) -> bool {
        self.link.send_update(update)
    }

    fn finish(&mut self) {
        self.link.finish(self.fin_repeats);
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
