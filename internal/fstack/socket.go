package fstack

import (
	"repro/internal/cheri"
	"repro/internal/hostos"
	"repro/internal/obs"
)

// Socket types (ff_socket's type argument).
const (
	SockStream = 1
	SockDgram  = 2
)

// listener is a passive TCP socket's accept machinery. halfOpen counts
// this listener's SYN-cache entries; pending is the accept queue, run
// as a head-indexed ring over one slice so steady-state churn neither
// allocates nor shifts elements.
type listener struct {
	ep       tcpEndpoint
	backlog  int
	halfOpen int
	pending  []*tcpConn // established, awaiting Accept
	head     int        // index of the oldest pending conn

	// err is latched when the stack crashes under the listener
	// (ENETDOWN): Accept returns it instead of EAGAIN, telling a
	// supervised server to rebuild its socket from scratch.
	err hostos.Errno
}

// pendingCount is the accept-queue depth.
func (l *listener) pendingCount() int { return len(l.pending) - l.head }

// pushPending enqueues an established connection for Accept.
func (l *listener) pushPending(c *tcpConn) {
	c.inPending = true
	l.pending = append(l.pending, c)
}

// popPending dequeues the oldest pending connection, recycling the
// slice's capacity whenever the queue drains.
func (l *listener) popPending() *tcpConn {
	c := l.pending[l.head]
	l.pending[l.head] = nil
	l.head++
	if l.head == len(l.pending) {
		l.pending = l.pending[:0]
		l.head = 0
	}
	c.inPending = false
	return c
}

// dgram is one queued UDP datagram.
type dgram struct {
	src  tcpEndpoint
	data []byte // pooled buffer (udpPayloadMax cap), returned on pop
}

// udpQueueMax bounds the per-socket datagram queue.
const udpQueueMax = 256

// udpPayloadMax is the largest UDP payload the stack accepts or sends
// (no IP fragmentation), and the capacity of every pooled dgram buffer.
const udpPayloadMax = MTU - IPv4HeaderLen - UDPHeaderLen

// udpSock is a bound UDP endpoint. The datagram queue is a head-indexed
// ring like listener.pending: popped slots are cleared and the backing
// array is reused once drained, so a steady query/answer exchange never
// regrows it.
type udpSock struct {
	ep   tcpEndpoint
	q    []dgram
	head int

	// err is latched when the stack crashes under the binding
	// (ENETDOWN); SendTo/RecvFrom return it until the fd is closed.
	err hostos.Errno
}

func (u *udpSock) queued() int { return len(u.q) - u.head }

func (u *udpSock) pushDgram(d dgram) { u.q = append(u.q, d) }

// popDgram removes the oldest datagram. Caller must check queued() > 0
// and recycle d.data via freeDgramBuf when done with it.
func (u *udpSock) popDgram() dgram {
	d := u.q[u.head]
	u.q[u.head] = dgram{}
	u.head++
	if u.head == len(u.q) {
		u.q = u.q[:0]
		u.head = 0
	}
	return d
}

// allocDgramBuf takes a payload buffer off the arena (or allocates one
// at full capacity, so it is reusable for any datagram size).
func (s *Stack) allocDgramBuf() []byte {
	if n := len(s.dgramFree); n > 0 {
		b := s.dgramFree[n-1]
		s.dgramFree[n-1] = nil
		s.dgramFree = s.dgramFree[:n-1]
		return b
	}
	return make([]byte, 0, udpPayloadMax)
}

func (s *Stack) freeDgramBuf(b []byte) {
	s.dgramFree = append(s.dgramFree, b[:0])
}

// socket is one file descriptor.
type socket struct {
	fd  int
	typ int
	stk *Stack

	bound tcpEndpoint
	conn  *tcpConn  // stream, after connect/accept
	lst   *listener // stream, after listen
	udp   *udpSock  // dgram, after bind
}

// The ff_* API. All calls are non-blocking and must run under the stack
// mutex; the exported wrappers lock it (per-call), mirroring F-Stack's
// serialization against the main loop.

// Socket creates a descriptor of the given type.
func (s *Stack) Socket(typ int) (int, hostos.Errno) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.socketLocked(typ)
}

func (s *Stack) socketLocked(typ int) (int, hostos.Errno) {
	if typ != SockStream && typ != SockDgram {
		return -1, hostos.EINVAL
	}
	fd := s.nextFD
	s.nextFD++
	sk := s.allocSocket()
	sk.fd, sk.typ = fd, typ
	s.socks[fd] = sk
	return fd, hostos.OK
}

// allocSocket takes a socket struct off the arena (or allocates one),
// reset to the zero state with stk set.
func (s *Stack) allocSocket() *socket {
	if n := len(s.sockFree); n > 0 {
		sk := s.sockFree[n-1]
		s.sockFree[n-1] = nil
		s.sockFree = s.sockFree[:n-1]
		*sk = socket{stk: s}
		return sk
	}
	return &socket{stk: s}
}

// Bind attaches a local address. A zero IP binds all interfaces.
func (s *Stack) Bind(fd int, ip IPv4Addr, port uint16) hostos.Errno {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bindLocked(fd, ip, port)
}

func (s *Stack) bindLocked(fd int, ip IPv4Addr, port uint16) hostos.Errno {
	sk, ok := s.socks[fd]
	if !ok {
		return hostos.EBADF
	}
	if sk.bound.Port != 0 {
		return hostos.EINVAL
	}
	if ip != (IPv4Addr{}) && s.nifByIP(ip) == nil {
		return hostos.EINVAL
	}
	ep := tcpEndpoint{IP: ip, Port: port}
	switch sk.typ {
	case SockStream:
		if _, dup := s.listeners[ep]; dup {
			return hostos.EADDRINUSE
		}
	case SockDgram:
		if _, dup := s.udps[ep]; dup {
			return hostos.EADDRINUSE
		}
		sk.udp = &udpSock{ep: ep}
		s.udps[ep] = sk.udp
	}
	sk.bound = ep
	return hostos.OK
}

// Listen makes a bound stream socket passive.
func (s *Stack) Listen(fd, backlog int) hostos.Errno {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.listenLocked(fd, backlog)
}

func (s *Stack) listenLocked(fd, backlog int) hostos.Errno {
	sk, ok := s.socks[fd]
	if !ok {
		return hostos.EBADF
	}
	if sk.typ != SockStream || sk.bound.Port == 0 || sk.lst != nil || sk.conn != nil {
		return hostos.EINVAL
	}
	if backlog < 1 {
		backlog = 1
	}
	sk.lst = &listener{ep: sk.bound, backlog: backlog}
	s.listeners[sk.bound] = sk.lst
	return hostos.OK
}

// Accept takes one established connection off the listen queue,
// returning its new descriptor and the peer address. EAGAIN when none
// is ready.
func (s *Stack) Accept(fd int) (int, IPv4Addr, uint16, hostos.Errno) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.acceptLocked(fd)
}

func (s *Stack) acceptLocked(fd int) (int, IPv4Addr, uint16, hostos.Errno) {
	sk, ok := s.socks[fd]
	if !ok {
		return -1, IPv4Addr{}, 0, hostos.EBADF
	}
	if sk.lst == nil {
		return -1, IPv4Addr{}, 0, hostos.EINVAL
	}
	if sk.lst.err != hostos.OK {
		return -1, IPv4Addr{}, 0, sk.lst.err
	}
	if sk.lst.pendingCount() == 0 {
		return -1, IPv4Addr{}, 0, hostos.EAGAIN
	}
	c := sk.lst.popPending()
	nfd := s.nextFD
	s.nextFD++
	nsk := s.allocSocket()
	nsk.fd, nsk.typ, nsk.conn, nsk.bound = nfd, SockStream, c, c.tuple.local
	c.sk = nsk
	s.socks[nfd] = nsk
	return nfd, c.tuple.remote.IP, c.tuple.remote.Port, hostos.OK
}

// Connect starts an active open. It returns EINPROGRESS; completion is
// reported by epoll writability, as with a non-blocking BSD socket.
func (s *Stack) Connect(fd int, ip IPv4Addr, port uint16) hostos.Errno {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.connectLocked(fd, ip, port)
}

func (s *Stack) connectLocked(fd int, ip IPv4Addr, port uint16) hostos.Errno {
	sk, ok := s.socks[fd]
	if !ok {
		return hostos.EBADF
	}
	if sk.typ != SockStream || sk.conn != nil || sk.lst != nil {
		return hostos.EISCONN
	}
	nif := s.nifForDst(ip)
	if nif == nil {
		return hostos.EINVAL
	}
	local := sk.bound
	if local.IP == (IPv4Addr{}) {
		local.IP = nif.IP
	}
	if local.Port == 0 {
		local.Port = s.allocEphemeral()
		if local.Port == 0 {
			return hostos.EADDRNOTAVAIL
		}
	}
	tuple := fourTuple{local: local, remote: tcpEndpoint{IP: ip, Port: port}}
	if old, dup := s.conns[tuple]; dup {
		if old.state != tcpTimeWait {
			return hostos.EADDRINUSE
		}
		// TIME_WAIT reuse on active open: the old incarnation only
		// waits out 2MSL to absorb stray segments; a fresh outgoing
		// connection may take the tuple over immediately (the new ISS
		// is far from the old sequence space).
		s.stats.TimeWaitReuses++
		old.setState(tcpClosed)
		s.removeConn(old)
	}
	c, err := s.newTCPConn(nif, tuple)
	if err != nil {
		return hostos.ENOMEM
	}
	iss := s.iss()
	c.sndUna, c.sndNxt, c.sndMax = iss, iss+1, iss+1
	c.setState(tcpSynSent)
	s.addConn(tuple, c)
	sk.conn = c
	sk.bound = local
	c.sk = sk
	c.sendSegment(TCPSyn, iss, 0, true)
	c.armRTO()
	return hostos.EINPROGRESS
}

// allocEphemeral hands out local ports, walking from the last hand-out
// with the per-port refcounts deciding availability — O(1) against the
// connection count. 0 means the whole range is in use
// (EADDRNOTAVAIL).
func (s *Stack) allocEphemeral() uint16 {
	for tries := 0; tries < 65536-ephemeralBase; tries++ {
		s.ephemeral++
		if s.ephemeral < ephemeralBase {
			s.ephemeral = ephemeralBase
		}
		if s.portRefs == nil || s.portRefs[s.ephemeral-ephemeralBase] == 0 {
			return s.ephemeral
		}
	}
	return 0
}

// connFor returns the stream connection behind fd.
func (s *Stack) connFor(fd int) (*socket, *tcpConn, hostos.Errno) {
	sk, ok := s.socks[fd]
	if !ok {
		return nil, nil, hostos.EBADF
	}
	if sk.typ != SockStream || sk.conn == nil {
		return sk, nil, hostos.ENOTCONN
	}
	return sk, sk.conn, hostos.OK
}

// Write copies from a plain byte slice into the socket send buffer
// (the Baseline's ff_write). Partial writes return the stored count;
// a full buffer returns EAGAIN.
func (s *Stack) Write(fd int, src []byte) (int, hostos.Errno) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writeLocked(fd, src)
}

func (s *Stack) writeLocked(fd int, src []byte) (int, hostos.Errno) {
	_, c, errno := s.connFor(fd)
	if errno != hostos.OK {
		return -1, errno
	}
	if errno := writableState(c); errno != hostos.OK {
		return -1, errno
	}
	n, err := c.sndBuf.writeFrom(src)
	if err != nil {
		return -1, hostos.EFAULT
	}
	if n == 0 {
		return -1, hostos.EAGAIN
	}
	c.output()
	return n, hostos.OK
}

// WriteCap is the CHERI ff_write: the source buffer arrives as a
// capability (`const void * __capability buf`, §III-B) and every load
// from it is checked.
func (s *Stack) WriteCap(fd int, mem *cheri.TMem, buf cheri.Cap, n int) (int, hostos.Errno) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writeCapLocked(fd, mem, buf, n)
}

func (s *Stack) writeCapLocked(fd int, mem *cheri.TMem, buf cheri.Cap, n int) (int, hostos.Errno) {
	_, c, errno := s.connFor(fd)
	if errno != hostos.OK {
		return -1, errno
	}
	if errno := writableState(c); errno != hostos.OK {
		return -1, errno
	}
	written, err := c.sndBuf.writeFromCap(mem, buf, n)
	if err != nil {
		return -1, hostos.EFAULT
	}
	if written == 0 {
		return -1, hostos.EAGAIN
	}
	c.output()
	return written, hostos.OK
}

// writableState maps connection state to a write errno.
func writableState(c *tcpConn) hostos.Errno {
	if c.sockErr != hostos.OK {
		return c.sockErr
	}
	switch c.state {
	case tcpEstablished, tcpCloseWait:
		return hostos.OK
	case tcpSynSent, tcpSynReceived:
		return hostos.EAGAIN
	default:
		return hostos.EPIPE
	}
}

// Read consumes received bytes into a plain slice. Returns 0 at EOF
// (peer FIN drained), EAGAIN when no data is buffered.
func (s *Stack) Read(fd int, dst []byte) (int, hostos.Errno) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.readLocked(fd, dst)
}

func (s *Stack) readLocked(fd int, dst []byte) (int, hostos.Errno) {
	_, c, errno := s.connFor(fd)
	if errno != hostos.OK {
		return -1, errno
	}
	if c.rcvBuf.Len() == 0 {
		switch {
		case c.sockErr != hostos.OK:
			return -1, c.sockErr
		case c.finRcvd:
			return 0, hostos.OK // EOF
		case c.state == tcpSynSent || c.state == tcpSynReceived:
			return -1, hostos.EAGAIN
		case c.state == tcpClosed:
			return -1, hostos.ENOTCONN
		default:
			return -1, hostos.EAGAIN
		}
	}
	n, err := c.rcvBuf.readInto(dst)
	if err != nil {
		return -1, hostos.EFAULT
	}
	s.noteReadDrain(c)
	return n, hostos.OK
}

// noteReadDrain runs after an application read freed receive-buffer
// space: if the drain re-opens a window we advertised as (near) zero,
// the next poll's visit pass will send the window update — flag that
// pending work so the event-driven driver visits that iteration
// instead of leaping over it to the peer's (much later) persist probe,
// and put the connection in that poll's visit set.
func (s *Stack) noteReadDrain(c *tcpConn) {
	if c.needsWindowUpdate() {
		s.wantPoll = true
		s.markReady(c)
	}
}

// ReadCap is the CHERI ff_read: stores into the caller's capability
// buffer are checked.
func (s *Stack) ReadCap(fd int, mem *cheri.TMem, buf cheri.Cap, n int) (int, hostos.Errno) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.readCapLocked(fd, mem, buf, n)
}

func (s *Stack) readCapLocked(fd int, mem *cheri.TMem, buf cheri.Cap, n int) (int, hostos.Errno) {
	_, c, errno := s.connFor(fd)
	if errno != hostos.OK {
		return -1, errno
	}
	if c.rcvBuf.Len() == 0 {
		switch {
		case c.sockErr != hostos.OK:
			return -1, c.sockErr
		case c.finRcvd:
			return 0, hostos.OK
		default:
			return -1, hostos.EAGAIN
		}
	}
	read, err := c.rcvBuf.readIntoCap(mem, buf, n)
	if err != nil {
		return -1, hostos.EFAULT
	}
	s.noteReadDrain(c)
	return read, hostos.OK
}

// Close shuts a descriptor down: streams FIN, listeners stop, datagram
// sockets unbind.
func (s *Stack) Close(fd int) hostos.Errno {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeLocked(fd)
}

func (s *Stack) closeLocked(fd int) hostos.Errno {
	sk, ok := s.socks[fd]
	if !ok {
		return hostos.EBADF
	}
	delete(s.socks, fd)
	for _, ep := range s.epolls {
		ep.remove(fd)
	}
	switch {
	case sk.lst != nil:
		delete(s.listeners, sk.bound)
		for _, c := range sk.lst.pending[sk.lst.head:] {
			c.sendRST()
			c.abort(hostos.ECONNRESET)
			c.inPending = false
			s.maybeRecycleConn(c)
		}
	case sk.conn != nil:
		c := sk.conn
		if c.state == tcpEstablished || c.state == tcpCloseWait || c.state == tcpSynReceived {
			c.finQueued = true
			c.output()
		} else if c.state == tcpSynSent {
			c.abort(hostos.ECONNRESET)
		}
		// The application can no longer reach the connection: drop the
		// back-reference so the conn struct is recyclable once the
		// protocol is done with it (it may already be).
		c.sk = nil
		s.maybeRecycleConn(c)
	case sk.udp != nil:
		for sk.udp.queued() > 0 {
			s.freeDgramBuf(sk.udp.popDgram().data)
		}
		delete(s.udps, sk.udp.ep)
	}
	s.sockFree = append(s.sockFree, sk)
	return hostos.OK
}

// SendTo transmits one UDP datagram.
func (s *Stack) SendTo(fd int, data []byte, ip IPv4Addr, port uint16) (int, hostos.Errno) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sendToLocked(fd, data, ip, port)
}

func (s *Stack) sendToLocked(fd int, data []byte, ip IPv4Addr, port uint16) (int, hostos.Errno) {
	sk, ok := s.socks[fd]
	if !ok {
		return -1, hostos.EBADF
	}
	if sk.typ != SockDgram {
		return -1, hostos.EINVAL
	}
	if len(data) > udpPayloadMax {
		return -1, hostos.EMSGSIZE
	}
	if sk.udp != nil && sk.udp.err != hostos.OK {
		return -1, sk.udp.err
	}
	if sk.udp == nil {
		// Auto-bind an ephemeral port.
		if errno := s.bindLocked(fd, IPv4Addr{}, s.allocEphemeral()); errno != hostos.OK {
			return -1, errno
		}
	}
	nif := s.nifForDst(ip)
	if nif == nil {
		return -1, hostos.EINVAL
	}
	segLen := UDPHeaderLen + len(data)
	m, frame := s.txAlloc(nif, IPv4HeaderLen+segLen)
	if m == nil {
		return -1, hostos.EAGAIN
	}
	seg := frame[EthHeaderLen+IPv4HeaderLen:]
	copy(seg[UDPHeaderLen:], data)
	PutUDPHeader(seg, UDPHeader{
		SrcPort: sk.bound.Port,
		DstPort: port,
		Length:  uint16(segLen),
	}, nif.IP, ip)
	if !s.sendIPv4(nif, m, frame, ip, ProtoUDP, segLen) {
		return -1, hostos.EAGAIN
	}
	return len(data), hostos.OK
}

// RecvFrom pops one queued datagram.
func (s *Stack) RecvFrom(fd int, dst []byte) (int, IPv4Addr, uint16, hostos.Errno) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recvFromLocked(fd, dst)
}

func (s *Stack) recvFromLocked(fd int, dst []byte) (int, IPv4Addr, uint16, hostos.Errno) {
	sk, ok := s.socks[fd]
	if !ok {
		return -1, IPv4Addr{}, 0, hostos.EBADF
	}
	if sk.typ != SockDgram || sk.udp == nil {
		return -1, IPv4Addr{}, 0, hostos.EINVAL
	}
	if sk.udp.err != hostos.OK {
		return -1, IPv4Addr{}, 0, sk.udp.err
	}
	if sk.udp.queued() == 0 {
		return -1, IPv4Addr{}, 0, hostos.EAGAIN
	}
	d := sk.udp.popDgram()
	n := copy(dst, d.data)
	s.freeDgramBuf(d.data)
	return n, d.src.IP, d.src.Port, hostos.OK
}

// inputUDP queues a datagram on its bound socket.
func (s *Stack) inputUDP(nif *NetIF, ip IPv4Header, seg []byte) {
	h, err := ParseUDPHeader(seg, ip.Src, ip.Dst)
	if err != nil {
		s.stats.RxDropped++
		return
	}
	u, ok := s.udps[tcpEndpoint{IP: ip.Dst, Port: h.DstPort}]
	if !ok {
		u, ok = s.udps[tcpEndpoint{Port: h.DstPort}]
	}
	if !ok {
		s.stats.RxDropped++
		return
	}
	if u.queued() >= udpQueueMax {
		s.stats.UdpQueueDrops++
		if s.obsTr != nil {
			s.obsTr.Record(s.now(), obs.EvUDPDrop, s.obsSrc,
				int64(h.Length)-UDPHeaderLen, int64(u.queued()), int64(h.DstPort))
		}
		return
	}
	data := s.allocDgramBuf()[:int(h.Length)-UDPHeaderLen]
	copy(data, seg[UDPHeaderLen:h.Length])
	u.pushDgram(dgram{
		src:  tcpEndpoint{IP: ip.Src, Port: h.SrcPort},
		data: data,
	})
}

// ConnState reports the TCP state name of fd's connection (diagnostics).
func (s *Stack) ConnState(fd int) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	sk, ok := s.socks[fd]
	if !ok || sk.conn == nil {
		return "NONE"
	}
	return sk.conn.state.String()
}
