//! The UDP front link: DM → CE updates over a real datagram socket.
//!
//! The paper picks "a UDP-like datagram protocol" for front links
//! because a DM is a simple device multicasting numerous updates, the
//! stream is loss-tolerant, and in-order delivery can be recovered
//! cheaply by "tagging all messages with a sequence number and letting
//! the receiver discard messages that arrive out of order". That is
//! literally what the front link does: this module's sender puts one
//! frame per datagram on the wire, and the CE's ingress
//! ([`EventLoop::add_front_ingress`](crate::EventLoop::add_front_ingress))
//! discards anything whose seqno does not advance its variable's
//! high-water mark ([`SeqGate`](crate::SeqGate)) — reordering and
//! duplication become loss, which the CE already tolerates.
//!
//! A DM node sends through a [`RoundSender`]: one link per CE, and each
//! round — every feed's readings of it, in round order — goes to each CE
//! in as few `UpdateBatch` datagrams as fit it under
//! [`wire::DATAGRAM_BUDGET`], sharing the header and the syscall. The
//! receiver runs a batch's updates through the gate in batch order (one
//! high-water mark per variable), so delivery is exactly what
//! individual datagrams arriving in that order would produce. A lone
//! update is a plain `Update` frame.
//!
//! The one datagram that travels back is the end of stream. A DM ends
//! its stream with a `Fin`, and the receiver echoes every `Fin` it
//! reads, byte for byte, to its sender. The DM repeats its `Fin` (at
//! most `repeats` times, 500 µs apart: [`fin_rounds`]) only until that
//! echo comes back, so on a healthy link teardown is one round trip.
//! A peer that never echoes — an older CE, a loss proxy, total loss —
//! gets every repeat, and the receiver's idle backstop still covers a
//! stream whose every `Fin` was lost.
//!
//! LOCK ORDER: no locks — the links count into atomics.

use std::io;
use std::net::{SocketAddr, UdpSocket};

use rcm_core::Update;
use rcm_sync::atomic::{AtomicU64, Ordering};
use rcm_sync::time::{Duration, Instant};
use rcm_sync::Arc;

use crate::report::FrontLinkStats;
use crate::wire::{self, Codec, Message};

/// Binds an ephemeral socket suitable for talking to `peer`: loopback
/// peers get a loopback bind so the traffic never leaves the host.
fn bind_for(peer: SocketAddr) -> io::Result<UdpSocket> {
    let local: SocketAddr = match peer {
        SocketAddr::V4(p) if p.ip().is_loopback() => "127.0.0.1:0".parse().expect("literal addr"),
        SocketAddr::V4(_) => "0.0.0.0:0".parse().expect("literal addr"),
        SocketAddr::V6(_) => "[::]:0".parse().expect("literal addr"),
    };
    UdpSocket::bind(local)
}

/// Where a front link is in ending its stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ending {
    /// No Fin out yet: the socket is never read.
    Streaming,
    /// A Fin is out and the socket is nonblocking: it is read for the
    /// peer's echo of that Fin.
    AwaitingEcho,
    /// The peer echoed the Fin: nothing more is sent.
    Echoed,
}

/// The sending half of a front link: one CE target, one frame per
/// datagram. A node with several CEs sends rounds through a
/// [`RoundSender`].
pub struct UdpFrontLink {
    sock: UdpSocket,
    node: u32,
    frame: Vec<u8>,
    ending: Ending,
    counters: Arc<FrontLinkStats<AtomicU64>>,
}

impl std::fmt::Debug for UdpFrontLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UdpFrontLink")
            .field("peer", &self.sock.peer_addr().ok())
            .field("node", &self.node)
            .field("ending", &self.ending)
            .field("stats", &self.counters.snapshot())
            .finish()
    }
}

impl UdpFrontLink {
    /// Opens a link to the CE at `peer`; `node` is the sending DM's
    /// index, carried in the end-of-stream marker.
    ///
    /// # Errors
    ///
    /// Propagates socket bind/connect failures.
    pub fn connect(peer: SocketAddr, node: u32) -> io::Result<Self> {
        let sock = bind_for(peer)?;
        sock.connect(peer)?;
        Ok(UdpFrontLink {
            sock,
            node,
            frame: Vec::new(),
            ending: Ending::Streaming,
            counters: Arc::default(),
        })
    }

    /// A handle for reading the link's counters after a DM thread has
    /// taken ownership of the link.
    pub fn counters(&self) -> Arc<FrontLinkStats<AtomicU64>> {
        Arc::clone(&self.counters)
    }

    /// The local socket address.
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.sock.local_addr()
    }

    /// Sends one update as its own datagram and counts it into the
    /// link's [`counters`](Self::counters); returns whether the socket
    /// took it. UDP gives no delivery guarantee — a `true` here can
    /// still be lost in flight, which is the point.
    pub fn send_update(&mut self, update: Update) -> bool {
        let sent = self.send_datagram(&[update]);
        let counters = &self.counters;
        counters.frames_sent.fetch_add(1, Ordering::SeqCst);
        counters.updates_sent.fetch_add(1, Ordering::SeqCst);
        counters.bytes_sent.fetch_add(sent.bytes, Ordering::SeqCst);
        if !sent.taken {
            counters.frames_dropped.fetch_add(1, Ordering::SeqCst);
            counters.updates_dropped.fetch_add(1, Ordering::SeqCst);
        }
        sent.taken
    }

    /// Encodes `updates` as one frame (a plain `Update` frame for a
    /// lone update) and puts it on the socket. Counts nothing: the
    /// caller counts where its ledger is.
    fn send_datagram(&mut self, updates: &[Update]) -> Datagram {
        self.frame.clear();
        let result = match updates {
            [single] => {
                wire::encode_into(Codec::Binary, &Message::Update(*single), &mut self.frame)
            }
            many => wire::encode_updates_into(Codec::Binary, many, &mut self.frame),
        };
        // An encode error is unreachable for well-formed updates;
        // counted, not panicked, because this is the hot path.
        Datagram {
            bytes: if result.is_ok() { self.frame.len() as u64 } else { 0 },
            taken: result.is_ok() && self.sock.send(&self.frame).is_ok(),
        }
    }

    /// Sends one Fin marker, unless the peer has already echoed this
    /// link's Fin. One marker may be lost like any datagram:
    /// [`fin_rounds`] repeats it until it comes back. Fin datagrams are
    /// not counted as frames.
    pub fn send_fin(&mut self) {
        match self.ending {
            Ending::Echoed => return,
            // From the first Fin on the socket is read for the echo, so
            // it must not block; a Fin the kernel cannot queue at once
            // is lost like any datagram. A socket that stays blocking is
            // never read, and its link gets every repeat.
            Ending::Streaming if self.sock.set_nonblocking(true).is_ok() => {
                self.ending = Ending::AwaitingEcho;
            }
            Ending::Streaming | Ending::AwaitingEcho => {}
        }
        self.frame.clear();
        if wire::encode_into(Codec::Binary, &Message::Fin { node: self.node }, &mut self.frame)
            .is_ok()
        {
            let _ = self.sock.send(&self.frame);
        }
    }

    /// Whether the peer has echoed this link's Fin. Reads what the peer
    /// sent until `until`, or only what is already queued once `until`
    /// has passed, and returns as soon as the echo is read. An echo is
    /// a datagram that decodes as this link's own `Fin`; anything else
    /// is read and ignored. Always `false` before the first
    /// [`send_fin`](Self::send_fin).
    pub fn fin_echoed(&mut self, until: Instant) -> bool {
        // A Fin frame is a few bytes; a longer datagram is truncated
        // here and fails to decode, which is what it should do.
        let mut buf = [0u8; 64];
        while self.ending == Ending::AwaitingEcho {
            match self.sock.recv(&mut buf) {
                Ok(len) => {
                    let heard = wire::decode_datagram(&buf[..len]);
                    if matches!(heard, Ok(Message::Fin { node }) if node == self.node) {
                        self.ending = Ending::Echoed;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    let now = Instant::now();
                    if now >= until {
                        break;
                    }
                    rcm_sync::thread::sleep((until - now).min(ECHO_POLL));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // A refused or failed read hears no echo: the link keeps
                // its timed repeats.
                Err(_) => break,
            }
        }
        self.ending == Ending::Echoed
    }

    /// Signals end-of-stream on this link alone: [`send_fin`] until the
    /// peer echoes it, at most `repeats` times, 500 µs apart. A node
    /// with several links ends them together, with [`fin_rounds`].
    ///
    /// [`send_fin`]: Self::send_fin
    pub fn finish(&mut self, repeats: usize) {
        fin_rounds(repeats, |until| {
            self.send_fin();
            self.fin_echoed(until)
        });
    }
}

/// One datagram a front link sent: its wire bytes (0 when it failed to
/// encode) and whether the socket took it.
#[derive(Debug, Clone, Copy)]
struct Datagram {
    bytes: u64,
    taken: bool,
}

/// A DM node's sending side: one [`UdpFrontLink`] per CE replica and the
/// round it is collecting. [`push`](Self::push) adds a feed's update to
/// the round; [`send_round`](Self::send_round) multicasts the whole
/// round, every feed's updates in the order pushed, to every CE, in as
/// few `UpdateBatch` datagrams as fit [`wire::DATAGRAM_BUDGET`]
/// ([`wire::datagram_run`]): one per CE while the round fits.
/// [`finish`](Self::finish) ends every link together ([`fin_rounds`]).
/// `rcm-dm` (one feed) and a socket-mode system's DM loop (every feed
/// of the system) both send this way.
///
/// The sender keeps a ledger per `(feed, ce)`, the paper's front link:
/// [`counters`](Self::counters) counts the feed's updates handed to that
/// CE's link and those lost in datagrams the socket refused. A datagram
/// may carry several feeds' updates; its frame and bytes count on the
/// row of the feed whose update opens it, so one CE's rows sum to the
/// datagrams and bytes its link really sent. Each count is stored once:
/// the links' own [`UdpFrontLink::counters`] stay zero.
#[derive(Debug)]
pub struct RoundSender {
    links: Vec<UdpFrontLink>,
    round: Vec<Update>,
    /// `feeds[i]`: the feed `round[i]` is charged to.
    feeds: Vec<usize>,
    /// `pushed[feed]`: the feed's updates in this round, added to its
    /// rows once a round rather than once an update.
    pushed: Vec<u64>,
    /// `ledger[feed][ce]`.
    ledger: Vec<Vec<Arc<FrontLinkStats<AtomicU64>>>>,
    /// Most Fins a silent link is sent.
    fin_repeats: usize,
}

impl RoundSender {
    /// A sender over `links`, one per CE, for feeds `0..feeds`; each
    /// link gets at most `fin_repeats` Fins.
    pub fn new(links: Vec<UdpFrontLink>, feeds: usize, fin_repeats: usize) -> Self {
        let row = || links.iter().map(|_| Arc::default()).collect();
        RoundSender {
            ledger: (0..feeds).map(|_| row()).collect(),
            links,
            round: Vec::new(),
            feeds: Vec::new(),
            pushed: vec![0; feeds],
            fin_repeats,
        }
    }

    /// The ledger of front link `(feed, ce)`, readable while the sender
    /// runs.
    ///
    /// # Panics
    ///
    /// Panics unless `feed` and `ce` are in range.
    pub fn counters(&self, feed: usize, ce: usize) -> Arc<FrontLinkStats<AtomicU64>> {
        Arc::clone(&self.ledger[feed][ce])
    }

    /// Updates in the round so far.
    pub fn pending(&self) -> usize {
        self.round.len()
    }

    /// Adds `update` to the round, charged to `feed`.
    ///
    /// # Panics
    ///
    /// Panics unless `feed` is one of the sender's feeds.
    pub fn push(&mut self, feed: usize, update: Update) {
        self.pushed[feed] += 1;
        self.round.push(update);
        self.feeds.push(feed);
    }

    /// Sends the round to every CE and starts the next one.
    pub fn send_round(&mut self) {
        let RoundSender { links, round, feeds, pushed, ledger, .. } = self;
        for (ce, link) in links.iter_mut().enumerate() {
            for (row, &n) in ledger.iter().zip(pushed.iter()) {
                if n > 0 {
                    row[ce].updates_sent.fetch_add(n, Ordering::SeqCst);
                }
            }
            let mut start = 0;
            while start < round.len() {
                let end = start + wire::datagram_run(&round[start..]);
                let sent = link.send_datagram(&round[start..end]);
                charge(ledger, ce, &feeds[start..end], sent);
                start = end;
            }
        }
        round.clear();
        feeds.clear();
        pushed.fill(0);
    }

    /// Ends the stream on every link: one Fin per round on each link
    /// whose Fin is not yet echoed, until every link's is.
    // `&`, not `&&`: every link's echo is read, not only those up to the
    // first silent link.
    pub fn finish(&mut self) {
        let links = &mut self.links;
        fin_rounds(self.fin_repeats, |until| {
            links.iter_mut().for_each(UdpFrontLink::send_fin);
            links.iter_mut().fold(true, |all, l| l.fin_echoed(until) & all)
        });
    }
}

/// Counts one datagram CE `ce`'s link sent into the ledger; `feeds`
/// names the feed of each update it carried. The frame and its bytes
/// count once, on the row of the feed whose update opens it; a refused
/// datagram costs each feed its own updates.
fn charge(
    ledger: &[Vec<Arc<FrontLinkStats<AtomicU64>>>],
    ce: usize,
    feeds: &[usize],
    sent: Datagram,
) {
    let Some(&opener) = feeds.first() else { return };
    let row = &ledger[opener][ce];
    row.frames_sent.fetch_add(1, Ordering::SeqCst);
    row.bytes_sent.fetch_add(sent.bytes, Ordering::SeqCst);
    if !sent.taken {
        row.frames_dropped.fetch_add(1, Ordering::SeqCst);
        for &feed in feeds {
            ledger[feed][ce].updates_dropped.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// The pause between two Fins on one link: far enough apart that a
/// bursty loss episode cannot eat them all.
const FIN_SPACING: Duration = Duration::from_micros(500);

/// How often a link waiting for its echo looks at its socket again. On
/// loopback the echo is back within about 100 µs of its Fin.
const ECHO_POLL: Duration = Duration::from_micros(50);

/// Signals end-of-stream on all of a node's front links at once, a
/// round at a time, at most `repeats` rounds (at least one), each
/// starting 500 µs after the one before. `round(until)` sends one Fin
/// on every link whose Fin has not been echoed
/// ([`UdpFrontLink::send_fin`]), waits for echoes until `until`
/// ([`UdpFrontLink::fin_echoed`], called on every such link, not only
/// up to the first silent one) and returns whether every link's Fin
/// has now been echoed; that ends the rounds. A link whose peer never
/// echoes gets `repeats` Fins 500 µs apart, as if it had finished
/// alone, and the node waits once per round, not once per link per
/// round. The last round waits for nothing: no Fin follows it.
pub fn fin_rounds(repeats: usize, mut round: impl FnMut(Instant) -> bool) {
    let repeats = repeats.max(1);
    for i in 1..=repeats {
        let start = Instant::now();
        let until = if i < repeats { start + FIN_SPACING } else { start };
        if round(until) {
            return;
        }
        let now = Instant::now();
        if now < until {
            rcm_sync::thread::sleep(until - now);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::engine::EventLoop;
    use crate::report::IngressStats;
    use rcm_core::VarId;
    use rcm_sync::thread::JoinHandle;

    fn u(seqno: u64, value: f64) -> Update {
        Update::new(VarId::new(0), seqno, value)
    }

    /// Plays two DMs at `ingress`, which must expect two Fins: DM 0
    /// sends an update, a batch and its Fin twice; DM 1 an update and
    /// the Fin that retires the ingress. Once `retired` has waited for
    /// the ingress to end, each DM must hold one echo per Fin it sent,
    /// equal to that Fin byte for byte, and nothing else.
    pub(crate) fn assert_every_fin_echoed(ingress: SocketAddr, retired: impl FnOnce()) {
        let dms = [0, 1].map(|_| UdpSocket::bind("127.0.0.1:0").expect("bind DM"));
        let script = [
            (0, Message::Update(u(1, 1.0))),
            (0, Message::UpdateBatch(vec![u(2, 2.0), u(3, 3.0)])),
            (0, Message::Fin { node: 0 }),
            (0, Message::Fin { node: 0 }), // a repeat from a node already seen
            (1, Message::Update(Update::new(VarId::new(1), 1, 1.0))),
            (1, Message::Fin { node: 1 }), // retires the ingress
        ];
        for (dm, msg) in &script {
            dms[*dm].send_to(&wire::encode(msg).expect("encodes"), ingress).expect("send_to");
        }
        retired();
        let fin = |node| wire::encode(&Message::Fin { node }).expect("encodes");
        assert_eq!(dms.map(|dm| queued(&dm)), [vec![fin(0), fin(0)], vec![fin(1)]]);
    }

    /// Every datagram already queued on `sock`, in arrival order.
    fn queued(sock: &UdpSocket) -> Vec<Vec<u8>> {
        sock.set_nonblocking(true).expect("nonblocking");
        let mut buf = [0u8; 64];
        std::iter::from_fn(|| sock.recv(&mut buf).ok().map(|n| buf[..n].to_vec())).collect()
    }

    /// Runs `fin_rounds(16, ..)` over one link per entry of `echo`,
    /// playing the receivers in line: once a round's Fins are out,
    /// receiver `i` reads its link's Fin and echoes its `n`th when
    /// `echo[i](n)`. Returns the Fins each receiver read, after checking
    /// that none came after its echo, and the number of rounds run.
    fn fin_rounds_against(echo: &[fn(usize) -> bool]) -> (Vec<usize>, usize) {
        let receivers: Vec<UdpSocket> = echo
            .iter()
            .map(|_| {
                let rx = UdpSocket::bind("127.0.0.1:0").expect("bind");
                rx.set_read_timeout(Some(Duration::from_secs(1))).expect("read timeout");
                rx
            })
            .collect();
        let mut links: Vec<UdpFrontLink> = receivers
            .iter()
            .enumerate()
            .map(|(i, rx)| {
                UdpFrontLink::connect(rx.local_addr().expect("bound addr"), i as u32)
                    .expect("connect sender")
            })
            .collect();
        let (mut fins, mut echoed, mut rounds) = (vec![0; echo.len()], vec![false; echo.len()], 0);
        let mut buf = [0u8; 64];
        fin_rounds(16, |until| {
            rounds += 1;
            links.iter_mut().for_each(UdpFrontLink::send_fin);
            for (i, rx) in receivers.iter().enumerate() {
                if echoed[i] {
                    continue;
                }
                let (n, from) = rx.recv_from(&mut buf).expect("this round's Fin");
                let fin = wire::decode_datagram(&buf[..n]).expect("own frame");
                assert_eq!(fin, Message::Fin { node: i as u32 }, "link {i}");
                fins[i] += 1;
                if echo[i](fins[i]) {
                    rx.send_to(&buf[..n], from).expect("echo");
                    echoed[i] = true;
                }
            }
            links.iter_mut().fold(true, |all, l| l.fin_echoed(until) & all)
        });
        for (i, rx) in receivers.iter().enumerate() {
            assert_eq!(queued(rx), Vec::<Vec<u8>>::new(), "link {i}: a Fin after its echo");
        }
        (fins, rounds)
    }

    #[test]
    fn an_echoed_fin_is_sent_once_per_link() {
        let always: fn(usize) -> bool = |_| true;
        assert_eq!(fin_rounds_against(&[always; 8]), (vec![1; 8], 1));
    }

    #[test]
    fn a_fin_is_repeated_until_it_is_echoed() {
        assert_eq!(fin_rounds_against(&[|n| n == 3]), (vec![3], 3));
    }

    /// Link 0 never echoes, so every round waits out its 500 µs; link
    /// 1's echo is read all the same, and it gets no second Fin.
    #[test]
    fn a_silent_link_does_not_hide_an_echo_on_another() {
        assert_eq!(fin_rounds_against(&[|_| false, |_| true]), (vec![16, 1], 16));
    }

    /// An echo that comes back after the link began to wait: the link
    /// waits for it, then returns without waiting out the deadline.
    #[test]
    fn fin_echoed_waits_for_a_late_echo() {
        let rx = UdpSocket::bind("127.0.0.1:0").expect("bind");
        rx.set_read_timeout(Some(Duration::from_secs(5))).expect("read timeout");
        let mut link =
            UdpFrontLink::connect(rx.local_addr().expect("bound addr"), 3).expect("connect sender");
        let echoer = rcm_sync::thread::spawn(move || {
            let mut buf = [0u8; 64];
            let (n, from) = rx.recv_from(&mut buf).expect("the Fin");
            rcm_sync::thread::sleep(Duration::from_millis(20));
            rx.send_to(&buf[..n], from).expect("echo");
        });
        let start = Instant::now();
        link.send_fin();
        assert!(link.fin_echoed(start + Duration::from_secs(5)), "the echo was waited for");
        assert!(start.elapsed() < Duration::from_secs(4), "{:?}", start.elapsed());
        echoer.join().expect("echoing receiver");
    }

    #[test]
    fn finish_stops_at_the_first_echo_and_nothing_else() {
        let fin = |node| wire::encode(&Message::Fin { node }).expect("encodes");
        let update = wire::encode(&Message::Update(u(1, 1.0))).expect("encodes");
        let cases = [
            (vec![fin(7)], 1),
            // Not an echo: an update, another node's Fin, garbage.
            (vec![update, fin(8), b"\x00garbage".to_vec()], 16),
        ];
        for (sent, fins) in cases {
            let rx = UdpSocket::bind("127.0.0.1:0").expect("bind");
            let mut link = UdpFrontLink::connect(rx.local_addr().expect("bound addr"), 7)
                .expect("connect sender");
            // The peer's datagrams are queued before the first Fin goes
            // out, so the count does not hang on how fast a receiver
            // thread wakes: the link reads them right after that Fin.
            for datagram in &sent {
                rx.send_to(datagram, link.local_addr().expect("link addr")).expect("send_to");
            }
            link.finish(16);
            assert_eq!(queued(&rx), vec![fin(7); fins], "after {sent:?}");
        }
    }

    /// Runs an evented CE ingress on `sock` on a thread of its own;
    /// joining it gives the updates it delivered, in order, and its final
    /// counters.
    fn ingress(
        sock: UdpSocket,
        expected_fins: usize,
        idle: Duration,
    ) -> JoinHandle<(Vec<Update>, IngressStats)> {
        rcm_sync::thread::spawn(move || {
            let mut got = Vec::new();
            let mut el = EventLoop::new().expect("event loop");
            let counters = el
                .add_front_ingress(sock, expected_fins, idle, |u| got.push(u))
                .expect("register ingress");
            el.run();
            (got, counters.snapshot())
        })
    }

    fn bind() -> (UdpSocket, SocketAddr) {
        let sock = UdpSocket::bind("127.0.0.1:0").expect("bind");
        let addr = sock.local_addr().expect("bound addr");
        (sock, addr)
    }

    #[test]
    fn fin_rounds_end_many_links_in_the_time_of_one() {
        // 8 silent links x 16 Fins: 15 pauses in rounds, 120 one link
        // after another (60 ms of sleeping alone).
        let receivers: Vec<UdpSocket> =
            (0..8).map(|_| UdpSocket::bind("127.0.0.1:0").expect("bind")).collect();
        let mut links: Vec<UdpFrontLink> = receivers
            .iter()
            .enumerate()
            .map(|(i, rx)| {
                let link = UdpFrontLink::connect(rx.local_addr().expect("bound addr"), i as u32)
                    .expect("connect sender");
                rx.set_nonblocking(true).expect("nonblocking");
                link
            })
            .collect();
        for link in &mut links {
            assert!(link.send_update(u(1, 0.5)), "loopback takes the update");
        }
        let start = Instant::now();
        fin_rounds(16, |until| {
            links.iter_mut().for_each(UdpFrontLink::send_fin);
            links.iter_mut().fold(true, |all, l| l.fin_echoed(until) & all)
        });
        let took = start.elapsed();
        assert!(took >= 15 * FIN_SPACING, "{took:?}: a link's Fins are 500 us apart");
        assert!(took < Duration::from_millis(30), "{took:?}: one pause per round");
        let mut buf = [0u8; 64];
        for (i, rx) in receivers.iter().enumerate() {
            let (mut updates, mut fins) = (0, 0);
            while let Ok(n) = rx.recv(&mut buf) {
                match wire::decode_datagram(&buf[..n]).expect("own frame") {
                    Message::Update(_) if fins == 0 => updates += 1,
                    Message::Fin { node } if node == i as u32 => fins += 1,
                    other => panic!("link {i}: unexpected {other:?}"),
                }
            }
            assert_eq!((updates, fins), (1, 16), "link {i}");
        }
    }

    #[test]
    fn updates_flow_end_to_end_in_order() {
        let (sock, addr) = bind();
        let handle = ingress(sock, 1, Duration::from_secs(2));
        let mut tx = UdpFrontLink::connect(addr, 0).expect("connect sender");
        for s in 1..=5 {
            assert!(tx.send_update(u(s, s as f64)));
        }
        tx.finish(4);
        let (got, stats) = handle.join().expect("ingress thread");
        assert_eq!(got.iter().map(|u| u.seqno.get()).collect::<Vec<_>>(), vec![1, 2, 3, 4, 5]);
        assert_eq!(stats.delivered, 5);
        assert_eq!(stats.fins, 1);
        assert_eq!(stats.decode_errors, 0);
        assert_eq!(tx.counters().snapshot().frames_sent, 5);
    }

    /// Craft raw datagrams out of order on a bare socket: the gate
    /// must turn the reorder and the duplicate into drops.
    #[test]
    fn receiver_discards_reordered_and_duplicated_datagrams() {
        let (sock, target) = bind();
        let handle = ingress(sock, 1, Duration::from_secs(2));
        let raw = UdpSocket::bind("127.0.0.1:0").expect("bind raw");
        let send = |msg: &Message| {
            let frame = wire::encode(msg).expect("encodes");
            raw.send_to(&frame, target).expect("send_to");
            // Space the datagrams so the kernel cannot reorder them
            // on us — the reorder under test is the crafted one.
            rcm_sync::thread::sleep(Duration::from_millis(2));
        };
        send(&Message::Update(u(1, 1.0)));
        send(&Message::Update(u(3, 3.0)));
        send(&Message::Update(u(2, 2.0))); // overtaken → discarded
        send(&Message::Update(u(3, 3.0))); // duplicate → discarded
        send(&Message::Update(u(4, 4.0)));
        send(&Message::Fin { node: 0 });
        let (got, stats) = handle.join().expect("ingress thread");
        let got: Vec<u64> = got.iter().map(|u| u.seqno.get()).collect();
        assert_eq!(got, vec![1, 3, 4], "stream stayed in order; reorder became loss");
        assert_eq!(stats.dropped_stale, 2);
        assert_eq!(stats.frames_received, 6);
    }

    #[test]
    fn corrupt_datagrams_count_as_decode_errors_and_never_panic() {
        let (sock, target) = bind();
        let handle = ingress(sock, 1, Duration::from_secs(2));
        let raw = UdpSocket::bind("127.0.0.1:0").expect("bind raw");
        let mut corrupted = wire::encode(&Message::Update(u(1, 1.0))).expect("encodes");
        let last = corrupted.len() - 1;
        corrupted[last] ^= 0xff;
        for payload in [&b"\x00garbage"[..], &corrupted[..]] {
            raw.send_to(payload, target).expect("send_to");
            rcm_sync::thread::sleep(Duration::from_millis(2));
        }
        // An alert does not belong on a front link either.
        let misdirected = wire::encode(&Message::Hello { node: 9 }).expect("encodes");
        raw.send_to(&misdirected, target).expect("send_to");
        rcm_sync::thread::sleep(Duration::from_millis(2));
        raw.send_to(&wire::encode(&Message::Fin { node: 0 }).expect("encodes"), target)
            .expect("send_to");
        let (_, stats) = handle.join().expect("ingress thread");
        assert_eq!(stats.decode_errors, 3);
        assert_eq!(stats.delivered, 0);
    }

    #[test]
    fn idle_timeout_is_a_backstop_when_every_fin_is_lost() {
        let (sock, _) = bind();
        let start = Instant::now();
        let (_, stats) = ingress(sock, 1, Duration::from_millis(150)).join().expect("ingress");
        assert!(start.elapsed() >= Duration::from_millis(150));
        assert_eq!(stats.fins, 0);
    }

    /// A 200-update round: every datagram fits the budget, no fewer
    /// datagrams could carry the round in order, and a receiver fed
    /// those datagrams admits all 200 in order.
    #[test]
    fn a_round_goes_out_in_the_fewest_datagrams_that_fit() {
        let wire_side = UdpSocket::bind("127.0.0.1:0").expect("bind");
        let link = UdpFrontLink::connect(wire_side.local_addr().expect("bound addr"), 0)
            .expect("connect sender");
        let mut tx = RoundSender::new(vec![link], 1, 1);
        // Seqnos cross 2^14, where a varint grows a byte, so the updates
        // are not all one size.
        let round: Vec<Update> = (0..200).map(|i| u(16_300 + i, f64::from(i as u32))).collect();
        round.iter().for_each(|&update| tx.push(0, update));
        tx.send_round();
        assert_eq!(tx.pending(), 0);
        wire_side.set_nonblocking(true).expect("nonblocking");
        let mut buf = [0u8; 65_535];
        let datagrams: Vec<Vec<u8>> =
            std::iter::from_fn(|| wire_side.recv(&mut buf).ok().map(|n| buf[..n].to_vec()))
                .collect();
        for d in &datagrams {
            assert!(d.len() <= wire::DATAGRAM_BUDGET, "{} bytes", d.len());
        }
        // The fewest: cut the round by hand, each run the longest whose
        // frame fits. Fewer datagrams cannot carry the round in order,
        // so the link must send exactly these runs.
        let fits = |run: &[Update]| {
            wire::frame_len(&Message::UpdateBatch(run.to_vec())) <= wire::DATAGRAM_BUDGET
        };
        let (mut fewest, mut rest) = (Vec::new(), &round[..]);
        while !rest.is_empty() {
            let n = (1..=rest.len()).take_while(|&n| fits(&rest[..n])).last().expect("one fits");
            rest = &rest[n..];
            fewest.push(n);
        }
        assert!(fewest.len() > 1, "200 updates outgrow one datagram");
        let runs: Vec<usize> = datagrams
            .iter()
            .map(|d| match wire::decode_datagram(d).expect("own frame") {
                Message::UpdateBatch(run) => run.len(),
                other => panic!("not a batch: {other:?}"),
            })
            .collect();
        assert_eq!(runs, fewest);
        let stats = tx.counters(0, 0).snapshot();
        assert_eq!((stats.frames_sent, stats.updates_sent), (fewest.len() as u64, 200));
        assert_eq!((stats.frames_dropped, stats.updates_dropped), (0, 0));
        assert_eq!(stats.bytes_sent, datagrams.iter().map(|d| d.len() as u64).sum::<u64>());

        let (sock, target) = bind();
        let handle = ingress(sock, 1, Duration::from_secs(2));
        let raw = UdpSocket::bind("127.0.0.1:0").expect("bind raw");
        for d in &datagrams {
            raw.send_to(d, target).expect("send_to");
        }
        raw.send_to(&wire::encode(&Message::Fin { node: 0 }).expect("encodes"), target)
            .expect("send_to");
        let (got, stats) = handle.join().expect("ingress thread");
        assert_eq!(got, round, "all 200 admitted, in order");
        assert_eq!(stats.dropped_stale, 0);
    }

    /// Two feeds' round to two CEs: each CE gets the whole round, in
    /// push order, as one datagram. Each `(feed, ce)` row counts its own
    /// feed's updates; the datagram and its bytes count once, on the row
    /// of the feed that opens it.
    #[test]
    fn a_round_of_two_feeds_is_one_datagram_per_ce() {
        let ces = [0, 1].map(|_| UdpSocket::bind("127.0.0.1:0").expect("bind CE"));
        let links = ces
            .iter()
            .map(|ce| UdpFrontLink::connect(ce.local_addr().expect("addr"), 0).expect("connect"))
            .collect();
        let mut tx = RoundSender::new(links, 2, 1);
        let y = |seqno| Update::new(VarId::new(1), seqno, 0.5);
        let round = [(1, y(1)), (0, u(1, 1.0)), (1, y(2)), (0, u(2, 2.0)), (1, y(3))];
        round.iter().for_each(|&(feed, update)| tx.push(feed, update));
        tx.send_round();
        let updates: Vec<Update> = round.iter().map(|&(_, update)| update).collect();
        for (ce, sock) in ces.iter().enumerate() {
            sock.set_nonblocking(true).expect("nonblocking");
            let mut buf = [0u8; 2048];
            let n = sock.recv(&mut buf).expect("one datagram");
            let got = wire::decode_datagram(&buf[..n]).expect("own frame");
            assert_eq!(got, Message::UpdateBatch(updates.clone()), "CE {ce}");
            assert!(sock.recv(&mut buf).is_err(), "CE {ce}: a second datagram");
            let (x_row, y_row) = (tx.counters(0, ce).snapshot(), tx.counters(1, ce).snapshot());
            let opener = FrontLinkStats { updates_sent: 3, ..Default::default() };
            assert_eq!(y_row, FrontLinkStats { frames_sent: 1, bytes_sent: n as u64, ..opener });
            assert_eq!(x_row, FrontLinkStats { updates_sent: 2, ..Default::default() });
        }
    }

    #[test]
    fn two_feeds_terminate_on_two_distinct_fins() {
        let (sock, target) = bind();
        let handle = ingress(sock, 2, Duration::from_secs(2));
        let mut a = UdpFrontLink::connect(target, 0).expect("connect a");
        let mut b = UdpFrontLink::connect(target, 1).expect("connect b");
        a.finish(3); // repeated Fins from one node count once
        rcm_sync::thread::sleep(Duration::from_millis(10));
        b.finish(3);
        let (_, stats) = handle.join().expect("ingress thread");
        assert_eq!(stats.fins, 2);
    }
}
