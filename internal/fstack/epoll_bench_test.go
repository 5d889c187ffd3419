package fstack

import (
	"testing"

	"repro/internal/hostos"
)

// BenchmarkEpollWait measures one wait over the registration shape
// measured on Scenario 8's churn point: 256 registered descriptors of
// which 4 are ready. The ready ones are bound UDP sockets armed for
// EPOLLOUT (always writable); the rest wait on EPOLLIN with nothing
// queued. The wait must stay at 0 allocs/op.
func BenchmarkEpollWait(b *testing.B) {
	e := newEnv(b, false)
	ep := e.stkB.EpollCreate()
	const registered, ready = 256, 4
	for i := 0; i < registered; i++ {
		fd, _ := e.stkB.Socket(SockDgram)
		if errno := e.stkB.Bind(fd, IPv4Addr{}, uint16(20000+i)); errno != hostos.OK {
			b.Fatal(errno)
		}
		events := EPOLLIN
		if i%(registered/ready) == registered/ready-1 {
			events = EPOLLOUT
		}
		if errno := e.stkB.EpollCtl(ep, EpollCtlAdd, fd, events); errno != hostos.OK {
			b.Fatal(errno)
		}
	}
	evs := make([]Event, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, _ := e.stkB.EpollWait(ep, evs); n != ready {
			b.Fatalf("wait reported %d ready, want %d", n, ready)
		}
	}
}
