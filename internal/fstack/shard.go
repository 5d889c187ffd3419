package fstack

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/dpdk"
	"repro/internal/hostos"
)

// This file is the multi-core answer to the single stack mutex the
// paper inherits from F-Stack (§III-A, Scenario 2): instead of one
// Stack serializing every compartment, a ShardedStack owns N Stack
// instances, each bound to one NIC RX/TX queue pair. The device's RSS
// classifier uses a symmetric flow hash, so both directions of a TCP
// connection arrive on the same queue and a connection's entire
// lifecycle — SYN, data, timers, FIN — runs on exactly one shard. The
// connection table, socket table, listeners and timers are all
// shard-local; only ARP/neighbor state is shared (read-mostly, and ARP
// traffic always lands on queue 0). Shards therefore never take each
// other's mutex on the datapath, which is what real F-Stack achieves by
// pinning one stack process per core.

// MultiQueueDevice is the N-queue packet I/O surface a ShardedStack
// drives. *dpdk.EthDev implements it directly.
type MultiQueueDevice interface {
	RxBurstQ(q int, out []*dpdk.Mbuf) int
	TxBurstQ(q int, bufs []*dpdk.Mbuf) int
	PollQ(q int)
	NumRxQueues() int
	MAC() [6]byte
	QueueStats(q int) dpdk.Stats
	// RxQueueOf is the steering oracle: which RX queue the device's RSS
	// hash sends an inbound packet with this flow tuple to.
	RxQueueOf(src, dst [4]byte, proto byte, sport, dport uint16) int
	// NextDeadline mirrors EthDevice's hook (compile-enforced for the
	// same reason: a forgetful wrapper must not silently read as
	// quiescent to the event-driven clock).
	NextDeadline(now int64) int64
}

// DeferredStepDevice is the optional no-step surface of a
// MultiQueueDevice: burst variants that move descriptors without
// advancing the simulated hardware, plus the explicit device step. A
// parallel shard runner needs it to run shards concurrently — stepping
// the device touches port state every queue shares, so the runner does
// it alone at the sequential phase boundaries while the concurrent
// bursts stay within their shard's own ring. *dpdk.EthDev implements
// it.
type DeferredStepDevice interface {
	RxBurstQNoStep(q int, out []*dpdk.Mbuf) int
	TxBurstQNoStep(q int, bufs []*dpdk.Mbuf) int
	PollQNoStep(q int)
	StepDevice()
}

// queueDev is one shard's single-queue view of a multi-queue device; it
// satisfies EthDevice so a Stack drives its queue pair unchanged. While
// the owning ShardedStack has deferred stepping on, every burst routes
// to the device's no-step variant.
type queueDev struct {
	ss  *ShardedStack
	dev MultiQueueDevice
	ns  DeferredStepDevice // non-nil iff dev supports deferred stepping
	q   int
}

func (d queueDev) RxBurst(out []*dpdk.Mbuf) int {
	if d.ns != nil && d.ss.deferSteps {
		return d.ns.RxBurstQNoStep(d.q, out)
	}
	return d.dev.RxBurstQ(d.q, out)
}

func (d queueDev) TxBurst(bufs []*dpdk.Mbuf) int {
	if d.ns != nil && d.ss.deferSteps {
		// The no-step burst can only reclaim descriptors the device has
		// already completed; without the inline device steps the
		// sequential path gets, a -parallel shard saturating its TX ring
		// would hit ring-full backpressure earlier than the sequential
		// run and the reports would diverge. On a short write, ask the
		// runner's stall handler to drain the wire for us (it does so
		// only once every lower-numbered shard has finished the instant,
		// preserving the sequential line-booking order) and retry until
		// the handler reports the line refused too — which is exactly
		// when the sequential stack would have seen the shortfall.
		n := d.ns.TxBurstQNoStep(d.q, bufs)
		for n < len(bufs) {
			h := d.ss.onTxStall
			if h == nil || !h(d.q) {
				break
			}
			m := d.ns.TxBurstQNoStep(d.q, bufs[n:])
			if m == 0 {
				break
			}
			n += m
		}
		return n
	}
	return d.dev.TxBurstQ(d.q, bufs)
}

func (d queueDev) Poll() {
	if d.ns != nil && d.ss.deferSteps {
		d.ns.PollQNoStep(d.q)
		return
	}
	d.dev.PollQ(d.q)
}

func (d queueDev) MAC() [6]byte      { return d.dev.MAC() }
func (d queueDev) Stats() dpdk.Stats { return d.dev.QueueStats(d.q) }

// NextDeadline delegates to the whole device. The port-wide answer is
// conservative — another queue's frame may wake this shard for a
// no-op iteration — which costs a visit, never a missed event.
func (d queueDev) NextDeadline(now int64) int64 { return d.dev.NextDeadline(now) }

// ShardedStack is N independent Stacks over one multi-queue device.
type ShardedStack struct {
	shards []*Stack
	loops  []*Loop
	devs   []MultiQueueDevice

	// deferSteps routes every shard's bursts to the device's no-step
	// variants (DeferredStepDevice); the parallel shard runner owns the
	// device steps then. Toggled only while no shard loop is running —
	// the runner's fork/join provides the ordering.
	deferSteps bool

	// onTxStall, when set, is consulted by a shard whose TX ring fills
	// while deferred stepping is on. It must drain completed frames onto
	// the wire (in a way that preserves the sequential booking order) and
	// report whether the stalled queue made progress; false means the
	// shard should surface the shortfall to its stack, exactly as the
	// sequential path would. Called from shard worker goroutines — the
	// handler owns its own synchronization.
	onTxStall func(q int) bool
}

// NewShardedStack builds n shards over the given segment, buffer pool
// and clock. Each shard gets a disjoint ephemeral-port range so two
// shards can never mint the same four-tuple.
func NewShardedStack(n int, seg *dpdk.MemSeg, pool *dpdk.Mempool, clk hostos.Clock) (*ShardedStack, error) {
	if n < 1 {
		return nil, fmt.Errorf("fstack: sharded stack needs at least one shard")
	}
	ss := &ShardedStack{}
	for i := 0; i < n; i++ {
		s := NewStack(seg, pool, clk)
		s.ephemeral = uint16(32768 + i*2048)
		ss.shards = append(ss.shards, s)
		ss.loops = append(ss.loops, &Loop{Stk: s})
	}
	return ss, nil
}

// AddNetIF binds a started multi-queue device: shard i drives queue
// pair i, and every shard shares one ARP cache for the interface. wrap,
// when non-nil, decorates each shard's queue view (a CPU model, a
// gated proxy, ...).
func (ss *ShardedStack) AddNetIF(name string, dev MultiQueueDevice, ip, mask IPv4Addr, wrap func(shard int, dev EthDevice) EthDevice) error {
	if dev.NumRxQueues() < len(ss.shards) {
		return fmt.Errorf("fstack: device has %d RX queues for %d shards", dev.NumRxQueues(), len(ss.shards))
	}
	arp := newARPCache()
	ns, _ := dev.(DeferredStepDevice)
	for i, s := range ss.shards {
		var ed EthDevice = queueDev{ss: ss, dev: dev, ns: ns, q: i}
		if wrap != nil {
			ed = wrap(i, ed)
		}
		nif := s.AddNetIF(name, ed, ip, mask)
		nif.arp = arp
	}
	ss.devs = append(ss.devs, dev)
	return nil
}

// SupportsDeferredSteps reports whether every bound device offers the
// no-step burst surface (DeferredStepDevice) a parallel shard runner
// needs. False with no device bound.
func (ss *ShardedStack) SupportsDeferredSteps() bool {
	if len(ss.devs) == 0 {
		return false
	}
	for _, d := range ss.devs {
		if _, ok := d.(DeferredStepDevice); !ok {
			return false
		}
	}
	return true
}

// SetDeferDeviceSteps switches every shard's bursts between the normal
// (self-stepping) and no-step device variants. Callers toggle it only
// from the sequential phases of a fork/join schedule, never while a
// shard loop runs.
func (ss *ShardedStack) SetDeferDeviceSteps(on bool) { ss.deferSteps = on }

// SetTxStallHandler installs (or clears, with nil) the deferred-mode
// TX ring-full handler. Set it before any deferred-stepping run and
// clear it when the runner shuts down; it is never consulted while
// deferred stepping is off.
func (ss *ShardedStack) SetTxStallHandler(h func(q int) bool) { ss.onTxStall = h }

// StepDevices advances every bound device once — the sequential phase
// boundary of the parallel shard runner's schedule.
func (ss *ShardedStack) StepDevices() {
	for _, d := range ss.devs {
		if ns, ok := d.(DeferredStepDevice); ok {
			ns.StepDevice()
		}
	}
}

// NumShards reports the shard count.
func (ss *ShardedStack) NumShards() int { return len(ss.shards) }

// Shard returns shard i's Stack.
func (ss *ShardedStack) Shard(i int) *Stack { return ss.shards[i] }

// Loops returns one main loop per shard (each would be pinned to its
// own core on real hardware).
func (ss *ShardedStack) Loops() []*Loop { return ss.loops }

// ShardStats returns shard i's counters.
func (ss *ShardedStack) ShardStats(i int) StackStats {
	s := ss.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Stats()
}

// Stats aggregates the counters over every shard.
func (ss *ShardedStack) Stats() StackStats {
	var total StackStats
	for i := range ss.shards {
		total.Add(ss.ShardStats(i))
	}
	return total
}

// ConnCount sums established-or-later connections over every shard.
func (ss *ShardedStack) ConnCount() int {
	n := 0
	for _, s := range ss.shards {
		n += s.ConnCount()
	}
	return n
}

// RetainedBytes sums the shards' deterministic connection-plane heap
// accounting (see Stack.RetainedBytes).
func (ss *ShardedStack) RetainedBytes() uint64 {
	var b uint64
	for _, s := range ss.shards {
		b += s.RetainedBytes()
	}
	return b
}

// AcceptQueueDepth sums not-yet-accepted connections over every shard.
func (ss *ShardedStack) AcceptQueueDepth() int {
	n := 0
	for _, s := range ss.shards {
		n += s.AcceptQueueDepth()
	}
	return n
}

// SetTCPTuning applies the TCP feature configuration to every shard
// (connections are shard-local, so the knob simply fans out).
func (ss *ShardedStack) SetTCPTuning(t TCPTuning) {
	for _, s := range ss.shards {
		s.SetTCPTuning(t)
	}
}

// localIPFor reports the interface address the stack would source
// packets to dst from.
func (s *Stack) localIPFor(dst IPv4Addr) IPv4Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	nif := s.nifForDst(dst)
	if nif == nil {
		return IPv4Addr{}
	}
	return nif.IP
}

// --- sharded application API ---

// sfKind distinguishes the logical descriptor flavors.
type sfKind int

const (
	sfSocket   sfKind = iota // created, not yet placed on a shard
	sfListener               // cloned across every shard
	sfConn                   // pinned to one shard
	sfEpoll                  // cloned across every shard
)

// shardedFD is one logical descriptor of the ShardedAPI.
type shardedFD struct {
	kind  sfKind
	typ   int
	shard int   // sfConn: owning shard
	fd    int   // sfConn: descriptor on that shard
	sub   []int // cloned kinds: descriptor per shard
	bound struct {
		ip   IPv4Addr
		port uint16
	}
}

// ShardedAPI is the application's view of a ShardedStack: the same ff_*
// surface as a single stack, with descriptors fanned out underneath.
// Listening sockets are cloned on every shard, so a SYN is accepted on
// whichever shard RSS steers it to; established connections are pinned
// to their shard; locally initiated connections pick their source port
// first, ask the device's steering oracle which queue the return
// traffic will hit, and are created on that shard. Calls lock only the
// shard(s) they touch.
type ShardedAPI struct {
	ss     *ShardedStack
	nextFD int
	fds    map[int]*shardedFD
	rev    []map[int]int // per shard: shard fd -> logical fd
	eph    uint16
	rr     int     // round-robin shard target for outbound connections
	tmp    []Event // EpollWait scratch: one caller-sized run per shard
}

// API returns a sharded application view. Like a single Stack's
// descriptor table it is not itself thread-safe: one application
// driver uses one ShardedAPI.
func (ss *ShardedStack) API() *ShardedAPI {
	rev := make([]map[int]int, len(ss.shards))
	for i := range rev {
		rev[i] = make(map[int]int)
	}
	return &ShardedAPI{ss: ss, nextFD: 3, fds: make(map[int]*shardedFD), rev: rev, eph: 40000}
}

// alloc registers a logical descriptor.
func (a *ShardedAPI) alloc(f *shardedFD) int {
	fd := a.nextFD
	a.nextFD++
	a.fds[fd] = f
	return fd
}

// Socket creates a descriptor. It exists on every shard until Listen or
// Connect decides whether it is cloned or pinned.
func (a *ShardedAPI) Socket(typ int) (int, hostos.Errno) {
	f := &shardedFD{kind: sfSocket, typ: typ, shard: -1, sub: make([]int, len(a.ss.shards))}
	for i, s := range a.ss.shards {
		fd, errno := s.Socket(typ)
		if errno != hostos.OK {
			for j := 0; j < i; j++ {
				a.ss.shards[j].Close(f.sub[j])
			}
			return -1, errno
		}
		f.sub[i] = fd
	}
	lfd := a.alloc(f)
	for i := range a.ss.shards {
		a.rev[i][f.sub[i]] = lfd
	}
	return lfd, hostos.OK
}

// Bind attaches a local address on every shard.
func (a *ShardedAPI) Bind(fd int, ip IPv4Addr, port uint16) hostos.Errno {
	f, ok := a.fds[fd]
	if !ok {
		return hostos.EBADF
	}
	if f.kind != sfSocket {
		return hostos.EINVAL
	}
	for i, s := range a.ss.shards {
		if errno := s.Bind(f.sub[i], ip, port); errno != hostos.OK {
			return errno
		}
	}
	f.bound.ip, f.bound.port = ip, port
	return hostos.OK
}

// Listen clones the listener across every shard.
func (a *ShardedAPI) Listen(fd, backlog int) hostos.Errno {
	f, ok := a.fds[fd]
	if !ok {
		return hostos.EBADF
	}
	if f.kind != sfSocket || f.typ != SockStream {
		return hostos.EINVAL
	}
	for i, s := range a.ss.shards {
		if errno := s.Listen(f.sub[i], backlog); errno != hostos.OK {
			return errno
		}
	}
	f.kind = sfListener
	return hostos.OK
}

// Accept dequeues an established connection from whichever shard has
// one; the returned descriptor is pinned to that shard.
func (a *ShardedAPI) Accept(fd int) (int, IPv4Addr, uint16, hostos.Errno) {
	f, ok := a.fds[fd]
	if !ok {
		return -1, IPv4Addr{}, 0, hostos.EBADF
	}
	if f.kind != sfListener {
		return -1, IPv4Addr{}, 0, hostos.EINVAL
	}
	for i, s := range a.ss.shards {
		nfd, ip, port, errno := s.Accept(f.sub[i])
		if errno == hostos.EAGAIN {
			continue
		}
		if errno != hostos.OK {
			return -1, IPv4Addr{}, 0, errno
		}
		lfd := a.alloc(&shardedFD{kind: sfConn, typ: SockStream, shard: i, fd: nfd})
		a.rev[i][nfd] = lfd
		return lfd, ip, port, hostos.OK
	}
	return -1, IPv4Addr{}, 0, hostos.EAGAIN
}

// Connect starts an active open on the shard the flow's return traffic
// will reach. An unbound socket gets its source port picked by the
// steering oracle so consecutive connections round-robin the shards
// (the ephemeral-port engineering sharded clients do in practice); an
// explicitly bound port pins the connection to wherever that tuple
// actually hashes. Either way the clones on the other shards are
// discarded and inbound segments need no cross-shard hand-off.
func (a *ShardedAPI) Connect(fd int, ip IPv4Addr, port uint16) hostos.Errno {
	f, ok := a.fds[fd]
	if !ok {
		return hostos.EBADF
	}
	if f.kind != sfSocket || f.typ != SockStream {
		return hostos.EINVAL
	}
	if len(a.ss.devs) == 0 {
		return hostos.EINVAL
	}
	localIP := f.bound.ip
	if localIP == (IPv4Addr{}) {
		localIP = a.ss.shards[0].localIPFor(ip)
	}
	dev := a.ss.devs[0]
	sport := f.bound.port
	if sport == 0 {
		// Inbound segments of this flow will carry src=(ip,port),
		// dst=(local,sport): walk the ephemeral range until the tuple
		// hashes to the round-robin target shard.
		want := a.rr % len(a.ss.shards)
		a.rr++
		for try := 0; try < 512; try++ {
			p := a.eph
			a.eph++
			if a.eph < 40000 {
				a.eph = 40000
			}
			if dev.RxQueueOf(ip, localIP, ProtoTCP, port, p) == want {
				sport = p
				break
			}
		}
		if sport == 0 { // no hit in the window: take the next port as-is
			sport = a.eph
			a.eph++
		}
	}
	shard := dev.RxQueueOf(ip, localIP, ProtoTCP, port, sport)
	s := a.ss.shards[shard]
	sfd := f.sub[shard]
	// Bind and connect on the target shard BEFORE discarding the other
	// shards' clones: on failure the logical descriptor stays a plain
	// socket with every clone intact, so the caller can retry or close
	// it normally.
	if f.bound.port == 0 {
		if errno := s.Bind(sfd, f.bound.ip, sport); errno != hostos.OK {
			return errno
		}
	}
	errno := s.Connect(sfd, ip, port)
	if errno != hostos.OK && errno != hostos.EINPROGRESS {
		return errno
	}
	for i, other := range a.ss.shards {
		if i == shard {
			continue
		}
		other.Close(f.sub[i])
		delete(a.rev[i], f.sub[i])
	}
	f.kind, f.shard, f.fd, f.sub = sfConn, shard, sfd, nil
	return errno
}

// conn resolves a pinned descriptor.
func (a *ShardedAPI) conn(fd int) (*Stack, *shardedFD, hostos.Errno) {
	f, ok := a.fds[fd]
	if !ok {
		return nil, nil, hostos.EBADF
	}
	if f.kind != sfConn {
		return nil, nil, hostos.ENOTCONN
	}
	return a.ss.shards[f.shard], f, hostos.OK
}

// Read consumes received bytes from the connection's shard.
func (a *ShardedAPI) Read(fd int, dst []byte) (int, hostos.Errno) {
	s, f, errno := a.conn(fd)
	if errno != hostos.OK {
		return -1, errno
	}
	return s.Read(f.fd, dst)
}

// Write stores bytes for transmission on the connection's shard.
func (a *ShardedAPI) Write(fd int, src []byte) (int, hostos.Errno) {
	s, f, errno := a.conn(fd)
	if errno != hostos.OK {
		return -1, errno
	}
	return s.Write(f.fd, src)
}

// SendTo transmits one datagram. A bound UDP socket stays cloned across
// every shard (Bind fans out), so datagrams are received wherever RSS
// steers them; transmission goes through the shard whose RX queue the
// flow's return traffic will hit, keeping both directions of a
// query/answer exchange on one shard the way pinned TCP connections are.
func (a *ShardedAPI) SendTo(fd int, data []byte, ip IPv4Addr, port uint16) (int, hostos.Errno) {
	f, ok := a.fds[fd]
	if !ok {
		return -1, hostos.EBADF
	}
	if f.kind != sfSocket || f.typ != SockDgram {
		return -1, hostos.EINVAL
	}
	if f.bound.port == 0 {
		// Auto-bind one ephemeral port on every shard, like a single
		// stack's SendTo: answers are then queued on whichever shard RSS
		// picks and RecvFrom scans them all.
		p := a.eph
		a.eph++
		if a.eph < 40000 {
			a.eph = 40000
		}
		if errno := a.Bind(fd, IPv4Addr{}, p); errno != hostos.OK {
			return -1, errno
		}
	}
	shard := 0
	if len(a.ss.devs) > 0 {
		localIP := f.bound.ip
		if localIP == (IPv4Addr{}) {
			localIP = a.ss.shards[0].localIPFor(ip)
		}
		shard = a.ss.devs[0].RxQueueOf(ip, localIP, ProtoUDP, port, f.bound.port)
	}
	return a.ss.shards[shard].SendTo(f.sub[shard], data, ip, port)
}

// RecvFrom pops the oldest queued datagram, scanning shards in shard
// order (deterministic under the fixed RSS steering).
func (a *ShardedAPI) RecvFrom(fd int, dst []byte) (int, IPv4Addr, uint16, hostos.Errno) {
	f, ok := a.fds[fd]
	if !ok {
		return -1, IPv4Addr{}, 0, hostos.EBADF
	}
	if f.kind != sfSocket || f.typ != SockDgram || f.bound.port == 0 {
		return -1, IPv4Addr{}, 0, hostos.EINVAL
	}
	for i, s := range a.ss.shards {
		n, ip, port, errno := s.RecvFrom(f.sub[i], dst)
		if errno == hostos.OK {
			return n, ip, port, hostos.OK
		}
		if errno != hostos.EAGAIN {
			return -1, IPv4Addr{}, 0, errno
		}
	}
	return -1, IPv4Addr{}, 0, hostos.EAGAIN
}

// Close shuts the logical descriptor down on every shard that holds a
// piece of it.
func (a *ShardedAPI) Close(fd int) hostos.Errno {
	f, ok := a.fds[fd]
	if !ok {
		return hostos.EBADF
	}
	delete(a.fds, fd)
	switch f.kind {
	case sfConn:
		delete(a.rev[f.shard], f.fd)
		return a.ss.shards[f.shard].Close(f.fd)
	default:
		var first hostos.Errno = hostos.OK
		for i, s := range a.ss.shards {
			delete(a.rev[i], f.sub[i])
			if errno := s.Close(f.sub[i]); errno != hostos.OK && first == hostos.OK {
				first = errno
			}
		}
		return first
	}
}

// EpollCreate makes a logical epoll descriptor cloned on every shard.
func (a *ShardedAPI) EpollCreate() int {
	f := &shardedFD{kind: sfEpoll, shard: -1, sub: make([]int, len(a.ss.shards))}
	for i, s := range a.ss.shards {
		f.sub[i] = s.EpollCreate()
	}
	return a.alloc(f)
}

// EpollCtl manipulates the interest set: pinned targets on their shard,
// cloned targets on every shard.
func (a *ShardedAPI) EpollCtl(epfd, op, fd int, events uint32) hostos.Errno {
	ep, ok := a.fds[epfd]
	if !ok || ep.kind != sfEpoll {
		return hostos.EBADF
	}
	f, ok := a.fds[fd]
	if !ok {
		return hostos.EBADF
	}
	if f.kind == sfConn {
		return a.ss.shards[f.shard].EpollCtl(ep.sub[f.shard], op, f.fd, events)
	}
	for i, s := range a.ss.shards {
		if errno := s.EpollCtl(ep.sub[i], op, f.sub[i], events); errno != hostos.OK {
			return errno
		}
	}
	return hostos.OK
}

// EpollWait collects ready events across every shard, translated back
// to logical descriptors and merged into ascending logical-fd order.
// A shard hands out its fds in the same calls, and so in the same order,
// as the logical ones (Socket, Accept, EpollCreate), so each shard's
// lowest ready fds are its lowest ready logical fds: a truncated wait
// keeps the lowest logical fds overall, as a single Stack's does.
func (a *ShardedAPI) EpollWait(epfd int, evs []Event) (int, hostos.Errno) {
	ep, ok := a.fds[epfd]
	if !ok || ep.kind != sfEpoll {
		return -1, hostos.EBADF
	}
	// Every shard may fill the caller's whole buffer, and the merge needs
	// all of them to pick the lowest len(evs) logical fds.
	if want := len(a.ss.shards) * len(evs); len(a.tmp) < want {
		a.tmp = make([]Event, want)
	}
	m := 0
	for i, s := range a.ss.shards {
		base := m
		k, errno := s.EpollWait(ep.sub[i], a.tmp[base:base+len(evs)])
		if errno != hostos.OK {
			return -1, errno
		}
		for j := base; j < base+k; j++ {
			lfd, ok := a.rev[i][a.tmp[j].FD]
			if !ok {
				continue // descriptor raced with Close
			}
			a.tmp[m] = Event{FD: lfd, Events: a.tmp[j].Events}
			m++
		}
	}
	// Stable, so a cloned descriptor ready on several shards is reported
	// once per shard in shard order.
	slices.SortStableFunc(a.tmp[:m], func(x, y Event) int { return cmp.Compare(x.FD, y.FD) })
	return copy(evs, a.tmp[:m]), hostos.OK
}

// ShardOf reports which shard a pinned descriptor lives on (-1 for
// cloned or unplaced descriptors) — a diagnostics and testing hook.
func (a *ShardedAPI) ShardOf(fd int) int {
	if f, ok := a.fds[fd]; ok {
		return f.shard
	}
	return -1
}
