//! What a steady-state [`Poller::wait`] costs the allocator: nothing.
//! The `pollfd` array lives in the poller and changes only on
//! register, reregister and deregister, and the caller's event buffer
//! keeps its capacity from one wait to the next. A binary of its own
//! because the counter is the process's `#[global_allocator]`; counts
//! are per thread, so the harness's own threads cannot disturb them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::UdpSocket;
use std::os::fd::AsRawFd;
use std::time::Duration;

use rcm_poll::{Interest, Poller, Token, Wake, WAKE_TOKEN};

thread_local! {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc` on this thread.
    static ASKED: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting the calls that ask it for memory.
struct Counting;

fn count() {
    // A thread that is tearing its locals down is not one under test.
    let _ = ASKED.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller upholds; the counter is a
// const-initialised thread-local `Cell`, which neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller's contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// How many allocations `work` asked for.
fn allocations(work: impl FnOnce()) -> u64 {
    let before = ASKED.get();
    work();
    ASKED.get() - before
}

/// The benchmark's socket workload registers 8 fds: 7 sockets and the
/// waker. One of them is readable, and a wake is pending before every
/// other wait; neither a ready wait, a woken one nor a timed-out one
/// allocates.
#[test]
fn a_steady_state_wait_allocates_nothing() {
    let mut poller = Poller::new().expect("poller");
    let waker = poller.waker();
    let sockets: Vec<UdpSocket> =
        (0..7).map(|_| UdpSocket::bind("127.0.0.1:0").expect("bind")).collect();
    for (i, sock) in sockets.iter().enumerate() {
        poller.register(sock.as_raw_fd(), Token(i), Interest::READ).expect("register");
    }
    let tx = UdpSocket::bind("127.0.0.1:0").expect("bind tx");
    tx.send_to(b"x", sockets[3].local_addr().expect("addr")).expect("send");

    let mut events = Vec::new();
    waker.wake();
    let n = poller.wait(&mut events, Some(Duration::from_secs(2))).expect("wait");
    assert_eq!(n, 2, "the wake and the readable socket: {events:?}");

    let asked = allocations(|| {
        for round in 0..1_000 {
            if round % 2 == 0 {
                waker.wake();
            }
            let n = poller.wait(&mut events, Some(Duration::ZERO)).expect("wait");
            assert_eq!(n, 1 + usize::from(round % 2 == 0));
            assert_eq!(events[n - 1].token, Token(3));
            assert!(n == 1 || events[0].token == WAKE_TOKEN);
        }
    });
    assert_eq!(asked, 0, "1 000 ready or woken waits");

    let mut quiet = [0u8; 1];
    sockets[3].recv_from(&mut quiet).expect("drain the datagram");
    let asked = allocations(|| {
        for _ in 0..100 {
            assert_eq!(poller.wait(&mut events, Some(Duration::ZERO)).expect("wait"), 0);
        }
    });
    assert_eq!(asked, 0, "100 waits that time out");
}
