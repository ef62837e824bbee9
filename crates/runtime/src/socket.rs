//! Socket-mode adapters: the transport crate's real UDP/TCP links
//! dressed up as the actor bodies' [`UpdateSender`] / [`AlertSink`]
//! traits, so `dm_body` and `ce_body` drive loopback sockets exactly
//! as they drive in-process channels.
//!
//! LOCK ORDER: no locks here — the adapters delegate straight into the
//! transport links, whose counter mutexes are leaves.

use rcm_core::{Alert, Update};
use rcm_sync::time::Instant;
use rcm_transport::{EventedBackLink, UdpFrontLink};

use crate::actors::{AlertSink, UpdateSender};

impl UpdateSender for UdpFrontLink {
    fn send_update(&mut self, update: Update) -> bool {
        UdpFrontLink::send_update(self, update)
    }

    // UDP has no hangup, so end-of-stream is an explicit marker —
    // repeated by `dm_body` until the CE echoes it, because the front
    // link is allowed to drop it (or its echo) like any datagram.
    fn send_fin(&mut self) {
        UdpFrontLink::send_fin(self);
    }

    fn fin_echoed(&mut self, until: Instant) -> bool {
        UdpFrontLink::fin_echoed(self, until)
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
