//! `poll(2)`, the one foreign call the daemon makes: it waits on the
//! listener and every connection at once from a single thread.
//!
//! This is the one module in the crate that is allowed `unsafe`: a
//! `struct pollfd` array handed to the C library. Everything it needs the
//! standard library lacks is the call itself; the descriptors come from
//! `std`'s sockets and stay theirs.

use std::io;
use std::os::raw::{c_int, c_short};
use std::os::unix::io::AsRawFd;
use std::time::Duration;

/// Data can be read (or a connection is waiting to be accepted).
pub(crate) const POLLIN: c_short = 0x1;
/// Data can be written without blocking.
pub(crate) const POLLOUT: c_short = 0x4;

/// The C library's `struct pollfd`: a descriptor, the events to wait for and
/// the events `poll` reports. Errors and hang-ups are reported whether or not
/// they were asked for.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Waits for `events` on `socket`.
    pub(crate) fn new(socket: &impl AsRawFd, events: c_short) -> Self {
        PollFd { fd: socket.as_raw_fd(), events, revents: 0 }
    }

    /// Whether the last [`wait`] reported something a read would return at
    /// once: data, a connection to accept, an error or a hang-up.
    pub(crate) fn readable(&self) -> bool {
        self.revents & !POLLOUT != 0
    }
}

#[cfg(any(target_os = "linux", target_os = "android"))]
type Nfds = std::os::raw::c_ulong;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
type Nfds = std::os::raw::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
}

/// Blocks until a descriptor of `fds` is ready or `timeout` has passed
/// (`None` waits for ever), and records what each reported. The timeout is
/// rounded up to whole milliseconds, so the wait never ends early; a wait
/// cut short by a signal returns as a timeout would.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<()> {
    let timeout_ms = match timeout {
        None => -1,
        Some(t) => c_int::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX),
    };
    let nfds = Nfds::try_from(fds.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "too many descriptors"))?;
    // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]` structs
    // laid out as `struct pollfd`, and `nfds` is its length, so `poll` reads
    // and writes only inside it; it keeps no pointer after returning.
    let ready = unsafe { poll(fds.as_mut_ptr(), nfds, timeout_ms) };
    if ready < 0 {
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
        fds.iter_mut().for_each(|fd| fd.revents = 0);
    }
    Ok(())
}
