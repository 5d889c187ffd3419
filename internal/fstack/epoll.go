package fstack

import (
	"cmp"
	"slices"

	"repro/internal/hostos"
)

// Epoll event bits (Linux values; musl callers expect them).
const (
	EPOLLIN  uint32 = 0x001
	EPOLLOUT uint32 = 0x004
	EPOLLERR uint32 = 0x008
	EPOLLHUP uint32 = 0x010
)

// Epoll ctl operations.
const (
	EpollCtlAdd = 1
	EpollCtlDel = 2
	EpollCtlMod = 3
)

// Event is one readiness report.
type Event struct {
	FD     int
	Events uint32
}

// epollInstance is a level-triggered readiness poller over the stack's
// sockets. The paper's iperf3 port replaced select with this mechanism
// (§III-B); in a poll-mode stack Wait never blocks — the main loop is
// the thing that makes progress.
//
// Registrations are kept sorted by fd, as Linux eventpoll keeps its
// interest tree ordered: a wait reports ready fds in ascending order and
// a truncated wait keeps the lowest, so results are deterministic by
// construction. Descriptor numbers only grow, so registering a new fd
// is an append.
type epollInstance struct {
	items []epollItem
}

// epollItem is one registration. The socket is stored so a wait need
// not look the fd up; closeLocked and Crash drop the registration
// before the socket can be recycled.
type epollItem struct {
	fd     int
	events uint32
	sk     *socket
}

// find binary-searches the registrations for fd, returning its index
// or the index it would be inserted at.
func (ep *epollInstance) find(fd int) (int, bool) {
	return slices.BinarySearchFunc(ep.items, fd, func(it epollItem, fd int) int {
		return cmp.Compare(it.fd, fd)
	})
}

// remove drops fd's registration, if any.
func (ep *epollInstance) remove(fd int) {
	if i, ok := ep.find(fd); ok {
		ep.items = slices.Delete(ep.items, i, i+1)
	}
}

// EpollCreate makes an epoll descriptor.
func (s *Stack) EpollCreate() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epollCreateLocked()
}

func (s *Stack) epollCreateLocked() int {
	fd := s.nextFD
	s.nextFD++
	s.epolls[fd] = &epollInstance{}
	return fd
}

// EpollCtl manipulates the interest set.
func (s *Stack) EpollCtl(epfd, op, fd int, events uint32) hostos.Errno {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epollCtlLocked(epfd, op, fd, events)
}

func (s *Stack) epollCtlLocked(epfd, op, fd int, events uint32) hostos.Errno {
	ep, ok := s.epolls[epfd]
	if !ok {
		return hostos.EBADF
	}
	sk, ok := s.socks[fd]
	if !ok {
		return hostos.EBADF
	}
	switch op {
	case EpollCtlAdd:
		i, dup := ep.find(fd)
		if dup {
			return hostos.EINVAL
		}
		ep.items = slices.Insert(ep.items, i, epollItem{fd: fd, events: events, sk: sk})
	case EpollCtlMod:
		i, ok := ep.find(fd)
		if !ok {
			return hostos.ENOENT
		}
		ep.items[i].events = events
	case EpollCtlDel:
		ep.remove(fd)
	default:
		return hostos.EINVAL
	}
	return hostos.OK
}

// EpollWait collects ready events (non-blocking) in ascending fd
// order; when evs is shorter than the ready set, the lowest ready fds
// are the ones reported.
func (s *Stack) EpollWait(epfd int, evs []Event) (int, hostos.Errno) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epollWaitLocked(epfd, evs)
}

func (s *Stack) epollWaitLocked(epfd int, evs []Event) (int, hostos.Errno) {
	ep, ok := s.epolls[epfd]
	if !ok {
		return -1, hostos.EBADF
	}
	n := 0
	for i := range ep.items {
		if n >= len(evs) {
			break
		}
		it := &ep.items[i]
		if got := readiness(it.sk) & (it.events | EPOLLERR | EPOLLHUP); got != 0 {
			evs[n] = Event{FD: it.fd, Events: got}
			n++
		}
	}
	return n, hostos.OK
}

// readiness computes the level-triggered event set of a socket.
func readiness(sk *socket) uint32 {
	var r uint32
	switch {
	case sk.lst != nil:
		if sk.lst.err != hostos.OK {
			r |= EPOLLERR
		}
		if sk.lst.pendingCount() > 0 {
			r |= EPOLLIN
		}
	case sk.conn != nil:
		c := sk.conn
		if c.rcvBuf.Len() > 0 || c.finRcvd {
			r |= EPOLLIN
		}
		switch c.state {
		case tcpEstablished, tcpCloseWait:
			if c.sndBuf.Free() > 0 {
				r |= EPOLLOUT
			}
		case tcpClosed:
			r |= EPOLLHUP
		}
		if c.sockErr != hostos.OK {
			r |= EPOLLERR
		}
	case sk.udp != nil:
		if sk.udp.err != hostos.OK {
			r |= EPOLLERR
		}
		if sk.udp.queued() > 0 {
			r |= EPOLLIN
		}
		r |= EPOLLOUT // UDP is always writable (best effort)
	}
	return r
}
