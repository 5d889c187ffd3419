package fstack

import (
	"slices"
	"testing"

	"repro/internal/hostos"
	"repro/internal/obs"
)

// TestUDPQueueOverflowDrops pins the bounded-queue accounting: past
// udpQueueMax undrained datagrams, the socket sheds load into the
// dedicated UdpQueueDrops counter (not the datapath's RxDropped) and
// emits one EvUDPDrop trace event per shed datagram, while the queue
// itself never exceeds its bound.
func TestUDPQueueOverflowDrops(t *testing.T) {
	e := newEnv(t, false)
	tr := obs.NewTrace(4096)
	e.stkB.SetObs(tr, nil, 7)

	sfd, _ := e.stkB.Socket(SockDgram)
	if errno := e.stkB.Bind(sfd, IPv4Addr{}, 14550); errno != hostos.OK {
		t.Fatal(errno)
	}
	cfd, _ := e.stkA.Socket(SockDgram)

	// Warm the ARP cache so the flood is not shed on the sender while
	// resolution is pending.
	if _, errno := e.stkA.SendTo(cfd, []byte("warmup"), IP4(10, 0, 0, 2), 14550); errno != hostos.OK {
		t.Fatal(errno)
	}
	warm := make([]byte, 64)
	e.pumpUntil(4000, "warmup datagram", func() bool {
		_, _, _, errno := e.stkB.RecvFrom(sfd, warm)
		return errno == hostos.OK
	})

	// Offer well past the bound; nobody reads. A few datagrams per
	// tick stays inside the client's TX ring.
	const offered = udpQueueMax + 64
	msg := []byte("flood")
	for i := 0; i < offered; i += 4 {
		for j := 0; j < 4 && i+j < offered; j++ {
			if _, errno := e.stkA.SendTo(cfd, msg, IP4(10, 0, 0, 2), 14550); errno != hostos.OK {
				t.Fatal(errno)
			}
		}
		e.tick()
	}
	// Everything offered either sits in the (full) queue or was shed.
	e.pumpUntil(4000, "all in-flight datagrams resolved", func() bool {
		return e.stkB.Stats().UdpQueueDrops == offered-udpQueueMax
	})

	st := e.stkB.Stats()
	if st.RxDropped != 0 {
		t.Fatalf("queue overflow leaked into RxDropped (%d); want the dedicated counter", st.RxDropped)
	}
	// Drain: exactly the bound survived, everything else was counted.
	buf := make([]byte, 2048)
	drained := 0
	for {
		if _, _, _, errno := e.stkB.RecvFrom(sfd, buf); errno != hostos.OK {
			break
		}
		drained++
	}
	if drained != udpQueueMax {
		t.Fatalf("drained %d datagrams; the queue bound is %d", drained, udpQueueMax)
	}
	if got := st.UdpQueueDrops + uint64(drained); got != offered {
		t.Fatalf("drops %d + drained %d != offered %d", st.UdpQueueDrops, drained, offered)
	}

	var traced uint64
	for _, ev := range tr.Snapshot() {
		if ev.Type == obs.EvUDPDrop {
			traced++
			if ev.Src != 7 || ev.A != int64(len(msg)) || ev.C != 14550 {
				t.Fatalf("drop event fields: %+v", ev)
			}
		}
	}
	if traced != st.UdpQueueDrops {
		t.Fatalf("traced %d drop events, counter says %d", traced, st.UdpQueueDrops)
	}
}

// TestEpollListenerAcceptReadiness pins the accept edge: a listener is
// not readable until a completed connection waits in its accept queue,
// and goes quiet again once accepted.
func TestEpollListenerAcceptReadiness(t *testing.T) {
	e := newEnv(t, false)
	lfd, _ := e.stkB.Socket(SockStream)
	if errno := e.stkB.Bind(lfd, IPv4Addr{}, 5001); errno != hostos.OK {
		t.Fatal(errno)
	}
	if errno := e.stkB.Listen(lfd, 8); errno != hostos.OK {
		t.Fatal(errno)
	}
	ep := e.stkB.EpollCreate()
	if errno := e.stkB.EpollCtl(ep, EpollCtlAdd, lfd, EPOLLIN); errno != hostos.OK {
		t.Fatal(errno)
	}
	evs := make([]Event, 8)
	if n, _ := e.stkB.EpollWait(ep, evs); n != 0 {
		t.Fatalf("idle listener reported ready: %+v", evs[:n])
	}

	cfd, _ := e.stkA.Socket(SockStream)
	if errno := e.stkA.Connect(cfd, IP4(10, 0, 0, 2), 5001); errno != hostos.EINPROGRESS {
		t.Fatalf("connect: %v", errno)
	}
	e.pumpUntil(4000, "listener readable", func() bool {
		n, _ := e.stkB.EpollWait(ep, evs)
		return n == 1 && evs[0].FD == lfd && evs[0].Events == EPOLLIN
	})
	if fd, _, _, errno := e.stkB.Accept(lfd); errno != hostos.OK {
		t.Fatal(errno)
	} else if errno := e.stkB.EpollCtl(ep, EpollCtlAdd, fd, 0); errno != hostos.OK {
		t.Fatal(errno)
	}
	if n, _ := e.stkB.EpollWait(ep, evs); n != 0 {
		t.Fatalf("drained listener still ready: %+v", evs[:n])
	}
}

// TestEpollUDPReadiness pins the datagram edge: a bound socket
// registered for EPOLLIN only reports nothing while the queue is empty
// (its permanent writability must not leak through the mask), becomes
// readable when a datagram lands, and goes quiet once drained.
func TestEpollUDPReadiness(t *testing.T) {
	e := newEnv(t, false)
	sfd, _ := e.stkB.Socket(SockDgram)
	if errno := e.stkB.Bind(sfd, IPv4Addr{}, 14550); errno != hostos.OK {
		t.Fatal(errno)
	}
	ep := e.stkB.EpollCreate()
	if errno := e.stkB.EpollCtl(ep, EpollCtlAdd, sfd, EPOLLIN); errno != hostos.OK {
		t.Fatal(errno)
	}
	evs := make([]Event, 8)
	if n, _ := e.stkB.EpollWait(ep, evs); n != 0 {
		t.Fatalf("empty dgram socket reported ready: %+v", evs[:n])
	}

	cfd, _ := e.stkA.Socket(SockDgram)
	if _, errno := e.stkA.SendTo(cfd, []byte("ping"), IP4(10, 0, 0, 2), 14550); errno != hostos.OK {
		t.Fatal(errno)
	}
	e.pumpUntil(4000, "datagram readable", func() bool {
		n, _ := e.stkB.EpollWait(ep, evs)
		return n == 1 && evs[0].FD == sfd && evs[0].Events == EPOLLIN
	})
	buf := make([]byte, 256)
	if _, _, _, errno := e.stkB.RecvFrom(sfd, buf); errno != hostos.OK {
		t.Fatal(errno)
	}
	if n, _ := e.stkB.EpollWait(ep, evs); n != 0 {
		t.Fatalf("drained dgram socket still ready: %+v", evs[:n])
	}
	// Registered for EPOLLOUT too, the socket is always writable.
	if errno := e.stkB.EpollCtl(ep, EpollCtlMod, sfd, EPOLLIN|EPOLLOUT); errno != hostos.OK {
		t.Fatal(errno)
	}
	if n, _ := e.stkB.EpollWait(ep, evs); n != 1 || evs[0].Events != EPOLLOUT {
		t.Fatalf("dgram EPOLLOUT registration: %+v (n=%d)", evs[0], n)
	}
}

// TestEpollOutRearmAfterZeroWindowReopen pins the flow-control edge
// the HTTP client leans on: when the peer's window slams shut and the
// send buffer fills, EPOLLOUT must disappear; when the reader drains
// and the window update arrives, the same level-triggered wait must
// report EPOLLOUT again without any re-registration.
func TestEpollOutRearmAfterZeroWindowReopen(t *testing.T) {
	e := newEnv(t, false)
	// A small receive buffer makes the window trivial to slam shut.
	e.stkB.SetTCPTuning(TCPTuning{RcvBufBytes: 8192})
	cfd, afd := e.connectPair(5001)
	ep := e.stkA.EpollCreate()
	if errno := e.stkA.EpollCtl(ep, EpollCtlAdd, cfd, EPOLLOUT); errno != hostos.OK {
		t.Fatal(errno)
	}
	evs := make([]Event, 8)

	// Fill until nothing moves: write to EAGAIN, give the stacks time
	// to drain in-flight data into B's (unread) receive buffer, and
	// stop once a full round of ticks unblocked nothing.
	chunk := make([]byte, 1024)
	for {
		wrote := 0
		for {
			n, errno := e.stkA.Write(cfd, chunk)
			if errno == hostos.EAGAIN {
				break
			}
			if errno != hostos.OK {
				t.Fatal(errno)
			}
			wrote += n
		}
		for i := 0; i < 200; i++ {
			e.tick()
		}
		if wrote == 0 {
			break
		}
	}
	if n, _ := e.stkA.EpollWait(ep, evs); n != 0 {
		t.Fatalf("full send buffer over a closed window still reports: %+v", evs[:n])
	}

	// Reader drains; the window reopens; the sender flushes.
	buf := make([]byte, 65536)
	e.pumpUntil(40000, "EPOLLOUT re-armed", func() bool {
		for {
			if _, errno := e.stkB.Read(afd, buf); errno != hostos.OK {
				break
			}
		}
		n, _ := e.stkA.EpollWait(ep, evs)
		return n == 1 && evs[0].FD == cfd && evs[0].Events&EPOLLOUT != 0
	})
}

// TestEpollReadinessAfterClose pins the teardown edge: Close removes
// the descriptor from every interest set, so a later wait reports
// nothing for it (no phantom readiness) and re-registering the dead fd
// fails with EBADF.
func TestEpollReadinessAfterClose(t *testing.T) {
	e := newEnv(t, false)
	cfd, afd := e.connectPair(5001)
	ep := e.stkB.EpollCreate()
	if errno := e.stkB.EpollCtl(ep, EpollCtlAdd, afd, EPOLLIN); errno != hostos.OK {
		t.Fatal(errno)
	}
	// Make the fd ready before closing: readiness must die with it.
	if _, errno := e.stkA.Write(cfd, []byte("last words")); errno != hostos.OK {
		t.Fatal(errno)
	}
	e.pumpUntil(4000, "payload queued at the receiver", func() bool {
		evs := make([]Event, 8)
		n, _ := e.stkB.EpollWait(ep, evs)
		return n == 1 && evs[0].Events&EPOLLIN != 0
	})
	if errno := e.stkB.Close(afd); errno != hostos.OK {
		t.Fatal(errno)
	}
	evs := make([]Event, 8)
	if n, _ := e.stkB.EpollWait(ep, evs); n != 0 {
		t.Fatalf("closed fd still reported: %+v", evs[:n])
	}
	if errno := e.stkB.EpollCtl(ep, EpollCtlMod, afd, EPOLLIN); errno != hostos.EBADF {
		t.Fatalf("re-arming a closed fd: %v, want EBADF", errno)
	}
}

// TestEpollCloseAndCrashDropRegistrations: Close removes a descriptor
// from every epoll instance without disturbing its neighbours' order,
// the recycled socket struct behind a new fd is not reported through
// the dead registration, and Crash empties every instance.
func TestEpollCloseAndCrashDropRegistrations(t *testing.T) {
	e := newEnv(t, false)
	var fds []int
	for i := 0; i < 5; i++ {
		fd, _ := e.stkB.Socket(SockDgram)
		if errno := e.stkB.Bind(fd, IPv4Addr{}, uint16(9500+i)); errno != hostos.OK {
			t.Fatal(errno)
		}
		fds = append(fds, fd)
	}
	eps := []int{e.stkB.EpollCreate(), e.stkB.EpollCreate()}
	for _, ep := range eps {
		for _, fd := range fds {
			if errno := e.stkB.EpollCtl(ep, EpollCtlAdd, fd, EPOLLOUT); errno != hostos.OK {
				t.Fatal(errno)
			}
		}
	}
	reported := func(ep int) []int {
		evs := make([]Event, 16)
		n, _ := e.stkB.EpollWait(ep, evs)
		var got []int
		for _, ev := range evs[:n] {
			got = append(got, ev.FD)
		}
		return got
	}

	if errno := e.stkB.Close(fds[2]); errno != hostos.OK {
		t.Fatal(errno)
	}
	fresh, _ := e.stkB.Socket(SockDgram) // reuses the closed socket struct
	if errno := e.stkB.Bind(fresh, IPv4Addr{}, 9600); errno != hostos.OK {
		t.Fatal(errno)
	}
	want := []int{fds[0], fds[1], fds[3], fds[4]}
	for _, ep := range eps {
		if got := reported(ep); !slices.Equal(got, want) {
			t.Fatalf("epoll %d after close reported %v, want %v", ep, got, want)
		}
	}

	e.stkB.Crash()
	for _, ep := range eps {
		if got := reported(ep); len(got) != 0 {
			t.Fatalf("epoll %d after crash reported %v", ep, got)
		}
		if errno := e.stkB.EpollCtl(ep, EpollCtlMod, fds[0], EPOLLIN); errno != hostos.ENOENT {
			t.Fatalf("Mod of a crash-dropped registration: %v, want ENOENT", errno)
		}
	}
}
