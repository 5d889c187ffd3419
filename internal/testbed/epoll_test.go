package testbed

import (
	"slices"
	"testing"

	"repro/internal/fstack"
	"repro/internal/hostos"
	"repro/internal/sim"
)

// epollAPI is the descriptor surface the ordering checks drive; every
// application view of the stack satisfies it.
type epollAPI interface {
	Socket(typ int) (int, hostos.Errno)
	Bind(fd int, ip fstack.IPv4Addr, port uint16) hostos.Errno
	Close(fd int) hostos.Errno
	EpollCreate() int
	EpollCtl(epfd, op, fd int, events uint32) hostos.Errno
	EpollWait(epfd int, evs []fstack.Event) (int, hostos.Errno)
}

// waitFDs runs one wait with a size-slot buffer and returns the fds.
func waitFDs(t *testing.T, api epollAPI, ep, size int) []int {
	t.Helper()
	evs := make([]fstack.Event, size)
	n, errno := api.EpollWait(ep, evs)
	if errno != hostos.OK {
		t.Fatalf("EpollWait: %v", errno)
	}
	fds := make([]int, n)
	for i, ev := range evs[:n] {
		fds[i] = ev.FD
	}
	return fds
}

// checkEpollOrder registers ready fds in scrambled order and checks
// that waits report them in ascending fd order, that a truncated wait
// keeps the lowest, and that Close drops the registration.
func checkEpollOrder(t *testing.T, api epollAPI, ready []int) {
	t.Helper()
	ep := api.EpollCreate()
	want := slices.Sorted(slices.Values(ready))
	// Descending with the first and middle swapped, so registrations
	// land both before and after existing entries.
	order := slices.Clone(want)
	slices.Reverse(order)
	order[0], order[len(order)/2] = order[len(order)/2], order[0]
	for _, fd := range order {
		if errno := api.EpollCtl(ep, fstack.EpollCtlAdd, fd, fstack.EPOLLOUT); errno != hostos.OK {
			t.Fatalf("EpollCtl add %d: %v", fd, errno)
		}
	}
	if got := waitFDs(t, api, ep, 64); !slices.Equal(got, want) {
		t.Fatalf("wait reported %v, want ascending %v", got, want)
	}
	if got := waitFDs(t, api, ep, 2); !slices.Equal(got, want[:2]) {
		t.Fatalf("truncated wait reported %v, want the lowest %v", got, want[:2])
	}
	if errno := api.Close(want[0]); errno != hostos.OK {
		t.Fatal(errno)
	}
	if got := waitFDs(t, api, ep, 64); !slices.Equal(got, want[1:]) {
		t.Fatalf("after closing %d, wait reported %v, want %v", want[0], got, want[1:])
	}
}

// boundUDP makes n datagram sockets bound from port up: always
// writable, so each is EPOLLOUT-ready without any traffic.
func boundUDP(t *testing.T, api epollAPI, n int, port uint16) []int {
	t.Helper()
	fds := make([]int, n)
	for i := range fds {
		fd, errno := api.Socket(fstack.SockDgram)
		if errno != hostos.OK {
			t.Fatal(errno)
		}
		if errno := api.Bind(fd, fstack.IPv4Addr{}, port+uint16(i)); errno != hostos.OK {
			t.Fatal(errno)
		}
		fds[i] = fd
	}
	return fds
}

func TestEpollOrderStackAndLockedAPI(t *testing.T) {
	bed, err := Build(minimalSpec())
	if err != nil {
		t.Fatal(err)
	}
	stk := bed.Envs[0].Stk
	checkEpollOrder(t, stk, boundUDP(t, stk, 7, 7000))
	locked := fstack.LockedAPI{S: stk}
	checkEpollOrder(t, locked, boundUDP(t, locked, 7, 7100))
}

func TestEpollOrderGatedAPI(t *testing.T) {
	bed, err := Build(Spec{
		Clk:     sim.NewVClock(),
		Machine: MachineSpec{Name: "morello", Ports: 1, CapDMA: true},
		Compartments: []CompartmentSpec{
			{Name: "stack", CVM: true, Ifs: []IfSpec{{Port: 0}}, APIGate: true, AppCVMs: []string{"app"}},
		},
		Peers: []PeerSpec{{Port: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	api := bed.Apps[0]
	checkEpollOrder(t, api, boundUDP(t, api, 7, 7000))
}

// TestEpollOrderShardedAPI: outbound connections round-robin the two
// shards, so consecutive logical fds live on alternating shards and
// the wait must merge the shards' reports into logical-fd order.
func TestEpollOrderShardedAPI(t *testing.T) {
	clk := sim.NewVClock()
	bed, err := Build(Spec{
		Clk:     clk,
		Machine: MachineSpec{Name: "morello", Ports: 1, LineRateBps: 4e9},
		Compartments: []CompartmentSpec{
			{
				Name: "mq", SegBytes: 16 << 20, PoolBufs: 3072,
				Ifs:   []IfSpec{{Port: 0}},
				Stack: StackSpec{Shards: 2, RingSize: 256},
			},
		},
		Peers: []PeerSpec{{Port: 0, LineRateBps: 4e9}},
	})
	if err != nil {
		t.Fatal(err)
	}
	peer := bed.Peers[0].Env.Stk
	lfd, _ := peer.Socket(fstack.SockStream)
	if errno := peer.Bind(lfd, fstack.IPv4Addr{}, 8000); errno != hostos.OK {
		t.Fatal(errno)
	}
	if errno := peer.Listen(lfd, 64); errno != hostos.OK {
		t.Fatal(errno)
	}

	api := bed.Sharded.API()
	conns := make([]int, 8)
	for i := range conns {
		fd, errno := api.Socket(fstack.SockStream)
		if errno != hostos.OK {
			t.Fatal(errno)
		}
		if errno := api.Connect(fd, PeerIP(0), 8000); errno != hostos.EINPROGRESS {
			t.Fatalf("connect: %v", errno)
		}
		conns[i] = fd
	}
	for i := 1; i < len(conns); i++ {
		if api.ShardOf(conns[i]) == api.ShardOf(conns[i-1]) {
			t.Fatalf("fds %d and %d share shard %d; the test needs them interleaved",
				conns[i-1], conns[i], api.ShardOf(conns[i]))
		}
	}
	// Pump until every connection is established (writable).
	probe := api.EpollCreate()
	for _, fd := range conns {
		if errno := api.EpollCtl(probe, fstack.EpollCtlAdd, fd, fstack.EPOLLOUT); errno != hostos.OK {
			t.Fatal(errno)
		}
	}
	for tick := 0; len(waitFDs(t, api, probe, 64)) < len(conns); tick++ {
		if tick >= 4000 {
			t.Fatal("connections never established")
		}
		for _, l := range bed.Loops() {
			l.RunOnce()
		}
		clk.Advance(5000)
	}
	checkEpollOrder(t, api, conns)
}
