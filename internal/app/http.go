package app

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/fstack"
	"repro/internal/hostos"
	"repro/internal/obs"
	"repro/internal/stats"
)

// The exchange on the wire. The request is a fixed pipelineable GET;
// the response is a minimal 200 with an exact Content-Length, which is
// all the client's incremental parser keys on.
var (
	httpRequest = []byte("GET / HTTP/1.1\r\nHost: cherinet\r\n\r\n")
	crlfcrlf    = []byte("\r\n\r\n")
	clPrefix    = []byte("Content-Length: ")
)

// --- server ---

// httpSrvConn is one accepted keep-alive connection's parse/flush
// state. rx holds a partial request head; tx is the head-indexed queue
// of response bytes Write has not yet accepted.
type httpSrvConn struct {
	rx      []byte
	tx      []byte
	txHead  int
	wantOut bool
}

// HTTPServer accepts keep-alive connections and answers every GET with
// a fixed-size response. Requests are parsed incrementally — a head
// split across segments is buffered, and several pipelined heads in
// one segment are each answered, in order.
type HTTPServer struct {
	ListenIP  fstack.IPv4Addr
	Port      uint16
	Backlog   int
	RespBytes int // response body size

	started  bool
	epfd     int
	lfd      int
	conns    map[int]*httpSrvConn
	resp     []byte // precomputed header + body
	buf      []byte
	evs      []fstack.Event
	served   uint64
	bad      uint64
	failure  hostos.Errno
	wantStep bool
}

// NewHTTPServer prepares the accept side.
func NewHTTPServer(ip fstack.IPv4Addr, port uint16, backlog, respBytes int) *HTTPServer {
	head := fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", respBytes)
	resp := make([]byte, 0, len(head)+respBytes)
	resp = append(resp, head...)
	for i := 0; i < respBytes; i++ {
		resp = append(resp, byte('a'+i%26))
	}
	return &HTTPServer{
		ListenIP: ip, Port: port, Backlog: backlog, RespBytes: respBytes,
		conns: make(map[int]*httpSrvConn),
		resp:  resp,
		buf:   make([]byte, 16<<10),
		evs:   make([]fstack.Event, evBuf),
	}
}

// Restart resets the server after its stack crashed: close the stale
// descriptors (which is what hands the crashed connections' memory back
// to the arena) and re-run the listen/bind setup on the next Step. The
// supervisor's restart hook calls this — it is the compartment's main()
// starting over.
func (s *HTTPServer) Restart(api API) {
	fds := make([]int, 0, len(s.conns))
	for fd := range s.conns {
		fds = append(fds, fd)
	}
	slices.Sort(fds)
	for _, fd := range fds {
		api.Close(fd)
		delete(s.conns, fd)
	}
	if s.started {
		api.Close(s.lfd)
	}
	s.started = false
	s.failure = hostos.OK
	s.wantStep = true
}

// Served reports completed request/response exchanges (response fully
// handed to the stack).
func (s *HTTPServer) Served() uint64 { return s.served }

// Bad reports malformed request heads (the connection is closed).
func (s *HTTPServer) Bad() uint64 { return s.bad }

// Err returns the sticky failure, if any.
func (s *HTTPServer) Err() hostos.Errno { return s.failure }

// NextDeadline: the server is purely event-driven past its setup step.
func (s *HTTPServer) NextDeadline(now int64) int64 {
	if s.wantStep {
		return now
	}
	return math.MaxInt64
}

func (s *HTTPServer) fail(errno hostos.Errno) { s.failure = errno }

// Step advances the server; call once per loop iteration.
func (s *HTTPServer) Step(api API, now int64) {
	if s.failure != hostos.OK {
		return
	}
	if !s.started {
		s.started = true
		s.wantStep = false
		if s.epfd == 0 {
			// The epoll descriptor survives a stack crash (only its
			// interest set is dropped), so a restarted server reuses it.
			s.epfd = api.EpollCreate()
		}
		fd, errno := api.Socket(fstack.SockStream)
		if errno != hostos.OK {
			s.fail(errno)
			return
		}
		s.lfd = fd
		if errno := api.Bind(fd, s.ListenIP, s.Port); errno != hostos.OK {
			s.fail(errno)
			return
		}
		if errno := api.Listen(fd, s.Backlog); errno != hostos.OK {
			s.fail(errno)
			return
		}
		if errno := api.EpollCtl(s.epfd, fstack.EpollCtlAdd, fd, fstack.EPOLLIN); errno != hostos.OK {
			s.fail(errno)
		}
		return
	}
	n, errno := api.EpollWait(s.epfd, s.evs)
	if errno != hostos.OK {
		s.fail(errno)
		return
	}
	for _, ev := range s.evs[:n] {
		if ev.FD == s.lfd {
			s.acceptAll(api)
			continue
		}
		c, ok := s.conns[ev.FD]
		if !ok {
			continue
		}
		if ev.Events&(fstack.EPOLLERR|fstack.EPOLLHUP) != 0 {
			s.drop(api, ev.FD)
			continue
		}
		if ev.Events&fstack.EPOLLOUT != 0 && c.wantOut {
			if !s.flush(api, ev.FD, c) {
				continue
			}
		}
		if ev.Events&fstack.EPOLLIN != 0 {
			s.read(api, ev.FD, c)
		}
	}
}

func (s *HTTPServer) acceptAll(api API) {
	for {
		cfd, _, _, errno := api.Accept(s.lfd)
		if errno == hostos.EAGAIN {
			return
		}
		if errno != hostos.OK {
			s.fail(errno)
			return
		}
		if errno := api.EpollCtl(s.epfd, fstack.EpollCtlAdd, cfd, fstack.EPOLLIN); errno != hostos.OK {
			s.fail(errno)
			return
		}
		s.conns[cfd] = &httpSrvConn{}
	}
}

// drop closes a connection and forgets its state.
func (s *HTTPServer) drop(api API, fd int) {
	api.Close(fd)
	delete(s.conns, fd)
}

// read consumes arrived bytes, answering every complete request head.
func (s *HTTPServer) read(api API, fd int, c *httpSrvConn) {
	for {
		n, errno := api.Read(fd, s.buf)
		if errno == hostos.EAGAIN {
			return
		}
		if errno != hostos.OK {
			s.drop(api, fd)
			return
		}
		if n == 0 { // EOF: client is done with this connection
			s.drop(api, fd)
			return
		}
		c.rx = append(c.rx, s.buf[:n]...)
		for {
			i := bytes.Index(c.rx, crlfcrlf)
			if i < 0 {
				break
			}
			head := c.rx[:i+len(crlfcrlf)]
			if !bytes.HasPrefix(head, []byte("GET ")) {
				s.bad++
				s.drop(api, fd)
				return
			}
			c.rx = c.rx[:copy(c.rx, c.rx[i+len(crlfcrlf):])]
			c.tx = append(c.tx, s.resp...)
			s.served++
		}
		if len(c.tx) > c.txHead {
			if !s.flush(api, fd, c) {
				return
			}
		}
	}
}

// flush pushes pending response bytes; on EAGAIN it arms EPOLLOUT and
// resumes from the writability event. Returns false if the connection
// was dropped.
func (s *HTTPServer) flush(api API, fd int, c *httpSrvConn) bool {
	for c.txHead < len(c.tx) {
		n, errno := api.Write(fd, c.tx[c.txHead:])
		if errno == hostos.EAGAIN {
			break
		}
		if errno != hostos.OK {
			s.drop(api, fd)
			return false
		}
		c.txHead += n
	}
	if c.txHead == len(c.tx) {
		c.tx, c.txHead = c.tx[:0], 0
		if c.wantOut {
			c.wantOut = false
			if errno := api.EpollCtl(s.epfd, fstack.EpollCtlMod, fd, fstack.EPOLLIN); errno != hostos.OK {
				s.fail(errno)
				return false
			}
		}
		return true
	}
	if !c.wantOut {
		c.wantOut = true
		if errno := api.EpollCtl(s.epfd, fstack.EpollCtlMod, fd, fstack.EPOLLIN|fstack.EPOLLOUT); errno != hostos.OK {
			s.fail(errno)
			return false
		}
	}
	return true
}

// --- client ---

// httpCliConn is one persistent connection's request pipeline: t0 is
// the head-indexed FIFO of outstanding requests' issue instants, hdr
// accumulates a partial response head, need counts the body bytes
// still expected (-1 while parsing the head), tx buffers request bytes
// the stack has not accepted.
type httpCliConn struct {
	fd      int
	up      bool
	t0      []int64
	t0Head  int
	hdr     []byte
	need    int
	bodyLen int // current response's Content-Length (trace argument)
	tx      []byte
	txHead  int
	wantOut bool
}

func (c *httpCliConn) outstanding() int { return len(c.t0) - c.t0Head }

type httpCliState int

const (
	httpCliInit httpCliState = iota
	httpCliConnecting
	httpCliRunning
	httpCliDone
)

// HTTPClient drives Conns keep-alive connections at the server. With
// Rate > 0 it is open-loop: requests are paced at Rate per second for
// DurationNS and assigned round-robin, pipelining onto connections
// that are still waiting. With Rate == 0 it is closed-loop: every
// connection issues back-to-back with one request outstanding, so
// Conns is the concurrency. Per-request latency (issue to last
// response byte) is recorded into Hist.
type HTTPClient struct {
	ServerIP   fstack.IPv4Addr
	Port       uint16
	Conns      int
	Sports     []uint16 // optional managed source ports, len == Conns
	Rate       float64  // requests/s; 0 = closed-loop
	DurationNS int64
	Hist       stats.Histogram
	Trace      *obs.Trace // optional per-request trace events
	Src        uint16     // trace source id (worker index)
	// Resilient survives server death: a reset connection counts its
	// outstanding requests as lost and reconnects instead of failing
	// the run. The reconnect needs no backoff — the reset itself only
	// arrives once the restarted stack answers a retransmit, so the
	// server is already back up when the client learns of the crash.
	Resilient bool
	// OnComplete, when set, observes every completed request: when it
	// finished and when it was issued (the time-to-recovery probe: the
	// first completion of a request issued after a fault bounds the
	// outage — completions alone do not, since responses already in
	// flight at the crash still land moments later).
	OnComplete func(now, issued int64)
	// TimeoutNS, with Resilient, bounds how long a request may stay
	// outstanding before the connection is presumed dead and replaced.
	// A crashed stack is silent — if the request was fully ACKed before
	// the crash, nothing is in flight to retransmit and no reset ever
	// arrives, so liveness needs an application clock. 0 disables it.
	TimeoutNS int64

	state     httpCliState
	epfd      int
	conns     []*httpCliConn
	byFD      map[int]int
	evs       []fstack.Event
	buf       []byte
	startNS   int64
	endNS     int64
	issued    uint64
	completed uint64
	deferred  uint64
	lost      uint64
	resets    uint64
	inflight  int
	rr        int
	failure   hostos.Errno
	wantStep  bool
}

// NewHTTPClient prepares the request driver.
func NewHTTPClient(ip fstack.IPv4Addr, port uint16, conns int, sports []uint16, rate float64, durationNS int64) (*HTTPClient, error) {
	if conns < 1 {
		return nil, fmt.Errorf("app: http client needs at least one connection")
	}
	if sports != nil && len(sports) != conns {
		return nil, fmt.Errorf("app: %d source ports for %d connections", len(sports), conns)
	}
	return &HTTPClient{
		ServerIP: ip, Port: port, Conns: conns, Sports: sports,
		Rate: rate, DurationNS: durationNS,
		byFD: make(map[int]int),
		evs:  make([]fstack.Event, evBuf),
		buf:  make([]byte, 16<<10),
	}, nil
}

// Done reports that the run is complete: duration elapsed and every
// outstanding response drained.
func (c *HTTPClient) Done() bool { return c.state == httpCliDone }

// Issued / Completed / Deferred report requests sent, responses fully
// received, and pace slots skipped because maxOutstanding was reached.
func (c *HTTPClient) Issued() uint64    { return c.issued }
func (c *HTTPClient) Completed() uint64 { return c.completed }
func (c *HTTPClient) Deferred() uint64  { return c.deferred }

// Lost / Resets report requests abandoned on reset connections and
// connection re-establishments (Resilient mode).
func (c *HTTPClient) Lost() uint64   { return c.lost }
func (c *HTTPClient) Resets() uint64 { return c.resets }

// RunNS returns the measured phase's virtual length (valid once Done).
func (c *HTTPClient) RunNS() int64 { return c.endNS - c.startNS }

// Err returns the sticky failure, if any.
func (c *HTTPClient) Err() hostos.Errno { return c.failure }

// NextDeadline: open-loop pacing self-clocks; the duration edge gets
// its own instant so closed-loop runs end crisply; drains are
// event-driven.
func (c *HTTPClient) NextDeadline(now int64) int64 {
	if c.wantStep {
		return now
	}
	if c.state != httpCliRunning {
		return math.MaxInt64
	}
	d := c.expiry()
	end := c.startNS + c.DurationNS
	if now >= end {
		return d // draining: completions are event-driven, timeouts are not
	}
	if c.Rate <= 0 || c.inflight >= maxOutstanding {
		return min(d, end)
	}
	at := c.startNS + int64(float64(c.issued+1)/c.Rate*1e9)
	if at > end {
		at = end
	}
	return min(d, at)
}

// expiry is the earliest instant an outstanding request times out
// (MaxInt64 with no request timeout configured or nothing outstanding).
func (c *HTTPClient) expiry() int64 {
	if !c.Resilient || c.TimeoutNS <= 0 {
		return math.MaxInt64
	}
	d := int64(math.MaxInt64)
	for _, cc := range c.conns {
		if cc.up && cc.outstanding() > 0 {
			if at := cc.t0[cc.t0Head] + c.TimeoutNS; at < d {
				d = at
			}
		}
	}
	return d
}

func (c *HTTPClient) fail(errno hostos.Errno) {
	c.failure = errno
	c.state = httpCliDone
}

// Step advances the client; call once per loop iteration.
func (c *HTTPClient) Step(api API, now int64) {
	switch c.state {
	case httpCliInit:
		c.epfd = api.EpollCreate()
		for i := 0; i < c.Conns; i++ {
			fd, errno := api.Socket(fstack.SockStream)
			if errno != hostos.OK {
				c.fail(errno)
				return
			}
			if c.Sports != nil && c.Sports[i] != 0 {
				if errno := api.Bind(fd, fstack.IPv4Addr{}, c.Sports[i]); errno != hostos.OK {
					c.fail(errno)
					return
				}
			}
			if errno := api.EpollCtl(c.epfd, fstack.EpollCtlAdd, fd, fstack.EPOLLOUT); errno != hostos.OK {
				c.fail(errno)
				return
			}
			if errno := api.Connect(fd, c.ServerIP, c.Port); errno != hostos.EINPROGRESS && errno != hostos.OK {
				c.fail(errno)
				return
			}
			cc := &httpCliConn{fd: fd, need: -1}
			c.conns = append(c.conns, cc)
			c.byFD[fd] = i
		}
		c.state = httpCliConnecting

	case httpCliConnecting:
		if !c.drain(api, now) {
			return
		}
		for _, cc := range c.conns {
			if !cc.up {
				return
			}
		}
		c.startNS = now
		c.state = httpCliRunning
		c.wantStep = true

	case httpCliRunning:
		c.wantStep = false
		if !c.drain(api, now) {
			return
		}
		if c.Resilient && c.TimeoutNS > 0 {
			// Replace connections whose oldest request has sat
			// unanswered past the timeout (a silently dead server).
			for i, cc := range c.conns {
				if cc.up && cc.outstanding() > 0 && now-cc.t0[cc.t0Head] >= c.TimeoutNS {
					if !c.reconnect(api, i) {
						return
					}
				}
			}
		}
		elapsed := now - c.startNS
		if elapsed < c.DurationNS {
			if c.Rate > 0 {
				// Open-loop: issue every due pace slot round-robin.
				target := uint64(float64(elapsed) * c.Rate / 1e9)
				for c.issued < target {
					if c.inflight >= maxOutstanding {
						c.deferred += target - c.issued
						break
					}
					cc := c.pickUp()
					if cc == nil {
						// Every connection is re-establishing; the due
						// slots are honest backpressure.
						c.deferred += target - c.issued
						break
					}
					if !c.issue(api, cc, now) {
						return
					}
				}
			} else {
				// Closed-loop: every idle connection issues immediately.
				for _, cc := range c.conns {
					if cc.up && cc.outstanding() == 0 {
						if !c.issue(api, cc, now) {
							return
						}
					}
				}
			}
		} else if c.inflight == 0 {
			c.endNS = now
			for _, cc := range c.conns {
				api.Close(cc.fd)
			}
			c.state = httpCliDone
		}
	}
}

// reconnect replaces connection i after its server reset it: the
// outstanding requests are counted lost, the stale fd is closed, and a
// fresh connect starts through the same epoll. Any managed source port
// is reused — safe, because the reset already aborted the old
// connection and released its binding.
func (c *HTTPClient) reconnect(api API, i int) bool {
	cc := c.conns[i]
	n := cc.outstanding()
	c.lost += uint64(n)
	c.inflight -= n
	c.resets++
	api.Close(cc.fd)
	delete(c.byFD, cc.fd)
	fd, errno := api.Socket(fstack.SockStream)
	if errno != hostos.OK {
		c.fail(errno)
		return false
	}
	if c.Sports != nil && c.Sports[i] != 0 {
		if errno := api.Bind(fd, fstack.IPv4Addr{}, c.Sports[i]); errno != hostos.OK {
			c.fail(errno)
			return false
		}
	}
	if errno := api.EpollCtl(c.epfd, fstack.EpollCtlAdd, fd, fstack.EPOLLOUT); errno != hostos.OK {
		c.fail(errno)
		return false
	}
	if errno := api.Connect(fd, c.ServerIP, c.Port); errno != hostos.EINPROGRESS && errno != hostos.OK {
		c.fail(errno)
		return false
	}
	*cc = httpCliConn{fd: fd, need: -1, t0: cc.t0[:0], hdr: cc.hdr[:0], tx: cc.tx[:0]}
	c.byFD[fd] = i
	return true
}

// issue starts one request on a connection: the latency clock starts
// here, before any Write, so send-side queueing is measured.
func (c *HTTPClient) issue(api API, cc *httpCliConn, now int64) bool {
	cc.t0 = append(cc.t0, now)
	c.issued++
	c.inflight++
	cc.tx = append(cc.tx, httpRequest...)
	return c.flush(api, cc)
}

// pickUp returns the next round-robin connection that is established,
// or nil when every connection is down (mid-reconnect). With all
// connections up it degenerates to the plain round-robin.
func (c *HTTPClient) pickUp() *httpCliConn {
	for range c.conns {
		cc := c.conns[c.rr%len(c.conns)]
		c.rr++
		if cc.up {
			return cc
		}
	}
	return nil
}

// flush pushes buffered request bytes, arming EPOLLOUT on EAGAIN.
func (c *HTTPClient) flush(api API, cc *httpCliConn) bool {
	for cc.txHead < len(cc.tx) {
		n, errno := api.Write(cc.fd, cc.tx[cc.txHead:])
		if errno == hostos.EAGAIN {
			break
		}
		if errno != hostos.OK {
			if c.Resilient {
				return c.reconnect(api, c.byFD[cc.fd])
			}
			c.fail(errno)
			return false
		}
		cc.txHead += n
	}
	want := fstack.EPOLLIN
	if cc.txHead == len(cc.tx) {
		cc.tx, cc.txHead = cc.tx[:0], 0
	} else {
		want |= fstack.EPOLLOUT
	}
	if (want&fstack.EPOLLOUT != 0) != cc.wantOut {
		cc.wantOut = want&fstack.EPOLLOUT != 0
		if errno := api.EpollCtl(c.epfd, fstack.EpollCtlMod, cc.fd, want); errno != hostos.OK {
			c.fail(errno)
			return false
		}
	}
	return true
}

// drain processes stack events; false means the run failed.
func (c *HTTPClient) drain(api API, now int64) bool {
	n, errno := api.EpollWait(c.epfd, c.evs)
	if errno != hostos.OK {
		c.fail(errno)
		return false
	}
	for _, ev := range c.evs[:n] {
		i, ok := c.byFD[ev.FD]
		if !ok {
			continue
		}
		cc := c.conns[i]
		if ev.Events&(fstack.EPOLLERR|fstack.EPOLLHUP) != 0 {
			if c.Resilient {
				if !c.reconnect(api, i) {
					return false
				}
				continue
			}
			c.fail(hostos.ECONNRESET)
			return false
		}
		if !cc.up {
			if ev.Events&fstack.EPOLLOUT != 0 {
				cc.up = true
				if errno := api.EpollCtl(c.epfd, fstack.EpollCtlMod, cc.fd, fstack.EPOLLIN); errno != hostos.OK {
					c.fail(errno)
					return false
				}
			}
			continue
		}
		if ev.Events&fstack.EPOLLOUT != 0 && cc.wantOut {
			if !c.flush(api, cc) {
				return false
			}
		}
		if ev.Events&fstack.EPOLLIN != 0 {
			if !c.read(api, cc, now) {
				return false
			}
		}
	}
	return true
}

// read consumes response bytes, completing requests in FIFO order.
func (c *HTTPClient) read(api API, cc *httpCliConn, now int64) bool {
	for {
		n, errno := api.Read(cc.fd, c.buf)
		if errno == hostos.EAGAIN {
			return true
		}
		if errno != hostos.OK || n == 0 {
			if c.Resilient {
				return c.reconnect(api, c.byFD[cc.fd])
			}
			c.fail(hostos.ECONNRESET)
			return false
		}
		if !c.feed(cc, c.buf[:n], now) {
			return false
		}
	}
}

// feed advances the incremental response parser over arrived bytes.
func (c *HTTPClient) feed(cc *httpCliConn, b []byte, now int64) bool {
	for len(b) > 0 {
		if cc.need < 0 {
			cc.hdr = append(cc.hdr, b...)
			b = b[:0]
			i := bytes.Index(cc.hdr, crlfcrlf)
			if i < 0 {
				continue
			}
			cl := bytes.Index(cc.hdr[:i], clPrefix)
			if cl < 0 {
				c.fail(hostos.EINVAL)
				return false
			}
			rest := cc.hdr[cl+len(clPrefix):]
			e := bytes.IndexByte(rest, '\r')
			if e < 0 {
				c.fail(hostos.EINVAL)
				return false
			}
			v, err := strconv.Atoi(string(rest[:e]))
			if err != nil {
				c.fail(hostos.EINVAL)
				return false
			}
			cc.need, cc.bodyLen = v, v
			// Bytes past the head are body bytes: re-feed them.
			b = append(b[:0], cc.hdr[i+len(crlfcrlf):]...)
			cc.hdr = cc.hdr[:0]
			if cc.need == 0 {
				c.complete(cc, now)
			}
			continue
		}
		take := len(b)
		if take > cc.need {
			take = cc.need
		}
		cc.need -= take
		b = b[take:]
		if cc.need == 0 {
			c.complete(cc, now)
		}
	}
	return true
}

// complete closes out the oldest outstanding request on the
// connection: the latency clock stops at the last response byte.
func (c *HTTPClient) complete(cc *httpCliConn, now int64) {
	t0 := cc.t0[cc.t0Head]
	cc.t0Head++
	if cc.t0Head == len(cc.t0) {
		cc.t0, cc.t0Head = cc.t0[:0], 0
	}
	cc.need = -1
	c.inflight--
	c.completed++
	c.Hist.Record(now - t0)
	if c.Trace != nil {
		c.Trace.Record(now, obs.EvAppRequest, c.Src, now-t0, int64(cc.bodyLen), obs.ReqHTTP)
	}
	if c.OnComplete != nil {
		c.OnComplete(now, t0)
	}
}
