package iperf

import (
	"fmt"
	"math"

	"repro/internal/fstack"
	"repro/internal/hostos"
)

// API is the slice of the ff_* surface iperf needs: the TCP socket and
// epoll calls. Both fstack.LockedAPI (application inside the loop
// callback — Baseline and Scenario 1) and the Scenario 2 gate wrappers
// satisfy it, so the same benchmark binary runs in every
// compartmentalization layout, exactly like the paper's single iperf3
// port. It is the one declaration of that surface: the churn workload
// takes it as is, and app.API embeds it.
type API interface {
	Socket(typ int) (int, hostos.Errno)
	Bind(fd int, ip fstack.IPv4Addr, port uint16) hostos.Errno
	Listen(fd, backlog int) hostos.Errno
	Accept(fd int) (int, fstack.IPv4Addr, uint16, hostos.Errno)
	Connect(fd int, ip fstack.IPv4Addr, port uint16) hostos.Errno
	Read(fd int, dst []byte) (int, hostos.Errno)
	Write(fd int, src []byte) (int, hostos.Errno)
	Close(fd int) hostos.Errno
	EpollCreate() int
	EpollCtl(epfd, op, fd int, events uint32) hostos.Errno
	EpollWait(epfd int, evs []fstack.Event) (int, hostos.Errno)
}

// Interval is one reporting window.
type Interval struct {
	StartNS int64
	EndNS   int64
	Bytes   uint64
}

// Mbps returns the interval's goodput in Mbit/s.
func (iv Interval) Mbps() float64 {
	d := iv.EndNS - iv.StartNS
	if d <= 0 {
		return 0
	}
	return float64(iv.Bytes) * 8 / float64(d) * 1e3
}

// Report is the final result of a client or server run.
type Report struct {
	Bytes     uint64
	StartNS   int64
	EndNS     int64
	Intervals []Interval
}

// Mbps returns the whole-run goodput in Mbit/s.
func (r Report) Mbps() float64 {
	return Interval{StartNS: r.StartNS, EndNS: r.EndNS, Bytes: r.Bytes}.Mbps()
}

// Efficiency returns goodput over the theoretical line maximum, as
// Table II's "Efficiency" column (1 Gbit/s per port).
func (r Report) Efficiency(lineMbps float64) float64 {
	return r.Mbps() / lineMbps
}

// String formats the report iperf3-style.
func (r Report) String() string {
	return fmt.Sprintf("%d bytes in %.3f s = %.0f Mbit/s",
		r.Bytes, float64(r.EndNS-r.StartNS)/1e9, r.Mbps())
}

// writeChunk is the application write size (iperf3's default 128 KiB).
const writeChunk = 128 * 1024

// readChunk is the server's read size.
const readChunk = 64 * 1024

// state machines

type clientState int

const (
	clientInit clientState = iota
	clientConnecting
	clientRunning
	clientDone
)

// Client is the sender ("client (sender) mode" of Table II).
type Client struct {
	ServerIP   fstack.IPv4Addr
	ServerPort uint16
	DurationNS int64
	IntervalNS int64 // 0 = no interval reports
	// LocalPort, when nonzero, binds the connection's source port
	// (iperf3's --cport). Load generators against RSS-sharded receivers
	// engineer source ports to cover every queue.
	LocalPort uint16

	state     clientState
	fd, epfd  int
	buf       []byte
	report    Report
	ivStartNS int64
	ivBytes   uint64
	failure   hostos.Errno
	// wantStep marks a state transition whose follow-up work happens
	// on the NEXT Step call (the first write after connecting): the
	// event-driven driver must visit that iteration rather than wait
	// for a network event. Cleared by the next running Step, after
	// which the client is provably blocked on stack events (its write
	// loop always runs the socket buffer to EAGAIN or a short write).
	wantStep bool
}

// NewClient prepares a sender toward ip:port running for duration ns.
func NewClient(ip fstack.IPv4Addr, port uint16, durationNS int64) *Client {
	buf := make([]byte, writeChunk)
	for i := range buf {
		buf[i] = byte(i) // incompressible-ish pattern; content is irrelevant
	}
	return &Client{ServerIP: ip, ServerPort: port, DurationNS: durationNS, buf: buf}
}

// Done reports completion.
func (c *Client) Done() bool { return c.state == clientDone }

// NextDeadline reports the next virtual instant at which Step would do
// something on its own clock rather than in reaction to stack events:
// the transfer-duration end and the next interval-report boundary. All
// other client activity (connecting, refilling the socket buffer) is
// unblocked by stack events, which the testbed's own deadlines cover.
// math.MaxInt64 = no timed work pending.
func (c *Client) NextDeadline(now int64) int64 {
	if c.wantStep {
		return now
	}
	if c.state != clientRunning {
		return math.MaxInt64
	}
	d := c.report.StartNS + c.DurationNS
	if c.IntervalNS > 0 {
		if iv := c.ivStartNS + c.IntervalNS; iv < d {
			d = iv
		}
	}
	return d
}

// Err returns the sticky failure, if any.
func (c *Client) Err() hostos.Errno { return c.failure }

// Report returns the result (valid once Done).
func (c *Client) Report() Report { return c.report }

// fail terminates the run.
func (c *Client) fail(errno hostos.Errno) {
	c.failure = errno
	c.state = clientDone
}

// Step advances the client; call it once per loop iteration (or gate
// slot) with the current time. It never blocks.
func (c *Client) Step(api API, now int64) {
	switch c.state {
	case clientInit:
		fd, errno := api.Socket(fstack.SockStream)
		if errno != hostos.OK {
			c.fail(errno)
			return
		}
		c.fd = fd
		c.epfd = api.EpollCreate()
		if errno := api.EpollCtl(c.epfd, fstack.EpollCtlAdd, c.fd, fstack.EPOLLOUT); errno != hostos.OK {
			c.fail(errno)
			return
		}
		if c.LocalPort != 0 {
			if errno := api.Bind(c.fd, fstack.IPv4Addr{}, c.LocalPort); errno != hostos.OK {
				c.fail(errno)
				return
			}
		}
		if errno := api.Connect(c.fd, c.ServerIP, c.ServerPort); errno != hostos.EINPROGRESS && errno != hostos.OK {
			c.fail(errno)
			return
		}
		c.state = clientConnecting

	case clientConnecting:
		var evs [4]fstack.Event
		n, errno := api.EpollWait(c.epfd, evs[:])
		if errno != hostos.OK {
			c.fail(errno)
			return
		}
		for i := 0; i < n; i++ {
			if evs[i].FD != c.fd {
				continue
			}
			if evs[i].Events&(fstack.EPOLLERR|fstack.EPOLLHUP) != 0 {
				c.fail(hostos.ECONNREFUSED)
				return
			}
			if evs[i].Events&fstack.EPOLLOUT != 0 {
				c.state = clientRunning
				c.report.StartNS = now
				c.ivStartNS = now
				c.wantStep = true // first write happens next Step
			}
		}

	case clientRunning:
		c.wantStep = false
		if now-c.report.StartNS >= c.DurationNS {
			c.finish(api, now)
			return
		}
		for {
			n, errno := api.Write(c.fd, c.buf)
			if errno == hostos.EAGAIN {
				break
			}
			if errno != hostos.OK {
				c.fail(errno)
				return
			}
			c.report.Bytes += uint64(n)
			c.ivBytes += uint64(n)
			if n < len(c.buf) {
				break
			}
		}
		if c.IntervalNS > 0 && now-c.ivStartNS >= c.IntervalNS {
			c.report.Intervals = append(c.report.Intervals, Interval{
				StartNS: c.ivStartNS, EndNS: now, Bytes: c.ivBytes,
			})
			c.ivStartNS = now
			c.ivBytes = 0
		}
	}
}

// finish closes the connection and seals the report.
func (c *Client) finish(api API, now int64) {
	if c.IntervalNS > 0 && c.ivBytes > 0 {
		c.report.Intervals = append(c.report.Intervals, Interval{
			StartNS: c.ivStartNS, EndNS: now, Bytes: c.ivBytes,
		})
	}
	c.report.EndNS = now
	api.Close(c.fd)
	c.state = clientDone
}

type serverState int

const (
	serverInit serverState = iota
	serverAccepting
	serverRunning
	serverDone
)

// Server is the receiver ("server (receiver) mode" of Table II). It
// serves exactly one connection and finishes at EOF.
type Server struct {
	ListenIP   fstack.IPv4Addr
	ListenPort uint16

	state    serverState
	lfd      int
	cfd      int
	epfd     int
	buf      []byte
	report   Report
	failure  hostos.Errno
	haveData bool
	// wantStep mirrors Client.wantStep: the first read after accepting
	// happens on the next Step call and must not be leapt over.
	wantStep bool
}

// NewServer prepares a receiver on ip:port (zero IP = all interfaces).
func NewServer(ip fstack.IPv4Addr, port uint16) *Server {
	return &Server{ListenIP: ip, ListenPort: port, buf: make([]byte, readChunk)}
}

// Done reports completion.
func (s *Server) Done() bool { return s.state == serverDone }

// NextDeadline implements the same hook as Client's: a server is
// event-driven (it reacts to accepted connections and received data),
// so apart from the post-accept catch-up step it never holds timed
// work.
func (s *Server) NextDeadline(now int64) int64 {
	if s.wantStep {
		return now
	}
	return math.MaxInt64
}

// Err returns the sticky failure, if any.
func (s *Server) Err() hostos.Errno { return s.failure }

// Report returns the result (valid once Done).
func (s *Server) Report() Report { return s.report }

func (s *Server) fail(errno hostos.Errno) {
	s.failure = errno
	s.state = serverDone
}

// Step advances the server; call once per loop iteration.
func (s *Server) Step(api API, now int64) {
	switch s.state {
	case serverInit:
		fd, errno := api.Socket(fstack.SockStream)
		if errno != hostos.OK {
			s.fail(errno)
			return
		}
		s.lfd = fd
		if errno := api.Bind(s.lfd, s.ListenIP, s.ListenPort); errno != hostos.OK {
			s.fail(errno)
			return
		}
		if errno := api.Listen(s.lfd, 8); errno != hostos.OK {
			s.fail(errno)
			return
		}
		s.epfd = api.EpollCreate()
		if errno := api.EpollCtl(s.epfd, fstack.EpollCtlAdd, s.lfd, fstack.EPOLLIN); errno != hostos.OK {
			s.fail(errno)
			return
		}
		s.state = serverAccepting

	case serverAccepting:
		var evs [4]fstack.Event
		n, errno := api.EpollWait(s.epfd, evs[:])
		if errno != hostos.OK {
			s.fail(errno)
			return
		}
		for i := 0; i < n; i++ {
			if evs[i].FD != s.lfd || evs[i].Events&fstack.EPOLLIN == 0 {
				continue
			}
			cfd, _, _, errno := api.Accept(s.lfd)
			if errno == hostos.EAGAIN {
				continue
			}
			if errno != hostos.OK {
				s.fail(errno)
				return
			}
			s.cfd = cfd
			if errno := api.EpollCtl(s.epfd, fstack.EpollCtlAdd, s.cfd, fstack.EPOLLIN); errno != hostos.OK {
				s.fail(errno)
				return
			}
			s.state = serverRunning
			s.wantStep = true // first read happens next Step
		}

	case serverRunning:
		s.wantStep = false
		for {
			n, errno := api.Read(s.cfd, s.buf)
			if errno == hostos.EAGAIN {
				break
			}
			if errno != hostos.OK {
				s.fail(errno)
				return
			}
			if n == 0 { // EOF: sender is done
				s.report.EndNS = now
				api.Close(s.cfd)
				api.Close(s.lfd)
				s.state = serverDone
				return
			}
			if !s.haveData {
				s.haveData = true
				s.report.StartNS = now
			}
			s.report.Bytes += uint64(n)
			s.report.EndNS = now
		}
	}
}
