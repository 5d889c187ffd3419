package app

import (
	"repro/internal/fstack"
	"repro/internal/hostos"
	"repro/internal/iperf"
)

// API is the slice of the ff_* surface the application plane needs:
// the iperf.API socket and epoll calls plus the datagram calls.
// Stack.*, Loop.Locked() and ShardedStack.API() all satisfy it, so the
// same workload runs on every compartment layout.
type API interface {
	iperf.API
	SendTo(fd int, data []byte, ip fstack.IPv4Addr, port uint16) (int, hostos.Errno)
	RecvFrom(fd int, dst []byte) (int, fstack.IPv4Addr, uint16, hostos.Errno)
}

const (
	// evBuf is sized past any reachable ready-set so one step handles
	// every ready descriptor. EpollWait would report a deterministic
	// lowest-fd subset if it truncated, but a smaller buffer would split
	// the ready set across steps and change the simulated batching.
	evBuf = 4096
	// maxOutstanding bounds an open-loop client's in-flight requests.
	// Past it, pace slots are counted as deferred instead of issued, so
	// an overloaded point reports honest backpressure instead of
	// growing queues without bound.
	maxOutstanding = 4096
)
