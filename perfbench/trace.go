package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/fstack"
	"repro/internal/hostos"
	"repro/internal/iperf"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// spanKind names a layer boundary the traced loop records. The names
// are the modules' own.
type spanKind uint8

const (
	spanLoopLocal    spanKind = iota // Loop.RunOnce of a local compartment
	spanLoopPeer                     // Loop.RunOnce of the link partner (the load generator)
	spanShardStep                    // ShardStepper.RunOnce
	spanNextDeadline                 // Bed.NextDeadline
	spanAppStep                      // an iperf or churn Step
	spanAPI                          // a socket call straight into F-Stack
	spanGatedAPI                     // a socket call through an intravisor gate
	spanEpollWait                    // an epoll wait, gated or not
	nSpans
)

var spanNames = [nSpans]string{
	"fstack.loop.local", "fstack.loop.peer", "testbed.shard_step", "testbed.next_deadline",
	"app.step", "fstack.api", "intravisor.gated_api", "fstack.epoll_wait",
}

// Phases tag spans on conn-churn.
const (
	phaseRun uint8 = iota
	phasePreload
	phaseStorm
)

var phaseNames = []string{"run", "preload", "storm"}

// maxSpans bounds the spans kept for the written trace (32 B each).
// Self times, call counts and ratios are accumulated over every span,
// kept or not.
const maxSpans = 1 << 18

// span is one recorded call into a layer. Times are host ns since the
// tracer's epoch.
type span struct {
	start, end int64
	iter       uint32 // loop iteration; spans of one iteration share it
	parent     int32  // index of the enclosing kept span, -1 at the top
	kind       spanKind
	phase      uint8
}

type openSpan struct {
	idx   int32 // index in spans, -1 when not kept
	kind  spanKind
	start int64
	child int64 // host ns covered by direct children
}

// tracer records spans around the calls the traced loop makes into
// each layer. It is used from the calling goroutine only: the shard
// stepper's workers run shard loops, which carry no callbacks.
type tracer struct {
	epoch time.Time
	iter  uint32
	phase uint8
	open  []openSpan
	spans []span
	// Per-kind totals over every span.
	selfNS [nSpans]int64
	calls  [nSpans]uint64
	eagain [nSpans]uint64
	// Loop iterations, and those in which the bed reported due work.
	iters, active uint64
	// Epoll waits and those that returned at least one event.
	waits, waitHits uint64
	dropped         uint64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1024)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) begin(k spanKind) {
	now := t.now()
	idx := int32(-1)
	if len(t.spans) < maxSpans {
		parent := int32(-1)
		if n := len(t.open); n > 0 {
			parent = t.open[n-1].idx
		}
		idx = int32(len(t.spans))
		t.spans = append(t.spans, span{start: now, iter: t.iter, parent: parent, kind: k, phase: t.phase})
	} else {
		t.dropped++
	}
	t.open = append(t.open, openSpan{idx: idx, kind: k, start: now})
}

// end closes the innermost open span, charging its duration less its
// children's to its kind's self time.
func (t *tracer) end() {
	now := t.now()
	n := len(t.open) - 1
	o := t.open[n]
	t.open = t.open[:n]
	d := now - o.start
	t.selfNS[o.kind] += d - o.child
	t.calls[o.kind]++
	if n > 0 {
		t.open[n-1].child += d
	}
	if o.idx >= 0 {
		t.spans[o.idx].end = now
	}
}

// endCall closes a socket-call span, counting an EAGAIN answer.
func (t *tracer) endCall(k spanKind, e hostos.Errno) {
	if e == hostos.EAGAIN {
		t.eagain[k]++
	}
	t.end()
}

// writeSpans writes the kept spans as CSV.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "index,iter,phase,span,parent,start_ns,end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%s,%s,%d,%d,%d\n", i, s.iter, phaseNames[s.phase], spanNames[s.kind], s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// deadliner is the hook iperf and churn endpoints expose to the
// event-driven loop.
type deadliner interface{ NextDeadline(now int64) int64 }

// tickNS is core's 5 µs iteration grid.
const tickNS = 5_000

// drive is the benchmark's copy of core's event-driven loop
// (runVirtualUntil), built on public calls only, with a span around
// each call into a layer. Every iteration steps every loop and app
// stepper at the current instant, then leaps the clock to the grid
// point containing the bed's next deadline.
func (t *tracer) drive(clk *sim.VClock, bed *testbed.Bed, apps []func(now int64), timed []deadliner, done func() bool, deadlineNS int64) error {
	start := clk.Now()
	loops := bed.Loops()
	nLocal := len(loops) - len(bed.Peers)
	stepLoops := func() {
		for i, l := range loops {
			k := spanLoopLocal
			if i >= nLocal {
				k = spanLoopPeer
			}
			t.begin(k)
			l.RunOnce()
			t.end()
		}
	}
	if p := core.Parallelism(); p > 1 {
		if ps := testbed.NewShardStepper(bed, p); ps != nil {
			defer ps.Close()
			stepLoops = func() {
				t.begin(spanShardStep)
				ps.RunOnce()
				t.end()
			}
		}
	}
	for clk.Now()-start < deadlineNS {
		if done() {
			return nil
		}
		t.iter++
		t.iters++
		stepLoops()
		now := clk.Now()
		for _, f := range apps {
			t.begin(spanAppStep)
			f(now)
			t.end()
		}
		bed.ObsTick(now)
		step := int64(tickNS)
		t.begin(spanNextDeadline)
		next := bed.NextDeadline(now)
		t.end()
		for _, d := range timed {
			if next <= now {
				break
			}
			if at := d.NextDeadline(now); at < next {
				next = at
			}
		}
		if next <= now {
			t.active++
		}
		if next > now+tickNS {
			if end := start + deadlineNS; next > end {
				next = end
			}
			if k := (next - now + tickNS - 1) / tickNS; k > 1 {
				step = k * tickNS
			}
		}
		clk.Advance(step)
	}
	if done() {
		return nil
	}
	return fmt.Errorf("traced run did not finish within %.0f ms virtual", float64(deadlineNS)/1e6)
}

// attach runs an app in a loop's user callback, the layout where the
// application shares the stack's compartment.
func (t *tracer) attach(l *fstack.Loop, step func(api iperf.API, now int64)) {
	api := t.wrap(l.Locked(), spanAPI)
	l.OnLoop = func(now int64) bool {
		t.begin(spanAppStep)
		step(api, now)
		t.end()
		return true
	}
}

// wrap returns the API with every socket call timed as a span of kind
// k, and every epoll wait as an epoll-wait span.
func (t *tracer) wrap(api iperf.API, k spanKind) *tracedAPI {
	return &tracedAPI{api: api, t: t, kind: k}
}

// tracedAPI is the socket API surface iperf and churn use, timed.
type tracedAPI struct {
	api  iperf.API
	t    *tracer
	kind spanKind
}

func (a *tracedAPI) Socket(typ int) (int, hostos.Errno) {
	a.t.begin(a.kind)
	fd, e := a.api.Socket(typ)
	a.t.endCall(a.kind, e)
	return fd, e
}

func (a *tracedAPI) Bind(fd int, ip fstack.IPv4Addr, port uint16) hostos.Errno {
	a.t.begin(a.kind)
	e := a.api.Bind(fd, ip, port)
	a.t.endCall(a.kind, e)
	return e
}

func (a *tracedAPI) Listen(fd, backlog int) hostos.Errno {
	a.t.begin(a.kind)
	e := a.api.Listen(fd, backlog)
	a.t.endCall(a.kind, e)
	return e
}

func (a *tracedAPI) Accept(fd int) (int, fstack.IPv4Addr, uint16, hostos.Errno) {
	a.t.begin(a.kind)
	nfd, ip, port, e := a.api.Accept(fd)
	a.t.endCall(a.kind, e)
	return nfd, ip, port, e
}

func (a *tracedAPI) Connect(fd int, ip fstack.IPv4Addr, port uint16) hostos.Errno {
	a.t.begin(a.kind)
	e := a.api.Connect(fd, ip, port)
	a.t.endCall(a.kind, e)
	return e
}

func (a *tracedAPI) Read(fd int, dst []byte) (int, hostos.Errno) {
	a.t.begin(a.kind)
	n, e := a.api.Read(fd, dst)
	a.t.endCall(a.kind, e)
	return n, e
}

func (a *tracedAPI) Write(fd int, src []byte) (int, hostos.Errno) {
	a.t.begin(a.kind)
	n, e := a.api.Write(fd, src)
	a.t.endCall(a.kind, e)
	return n, e
}

func (a *tracedAPI) Close(fd int) hostos.Errno {
	a.t.begin(a.kind)
	e := a.api.Close(fd)
	a.t.endCall(a.kind, e)
	return e
}

func (a *tracedAPI) EpollCreate() int {
	a.t.begin(a.kind)
	fd := a.api.EpollCreate()
	a.t.end()
	return fd
}

func (a *tracedAPI) EpollCtl(epfd, op, fd int, events uint32) hostos.Errno {
	a.t.begin(a.kind)
	e := a.api.EpollCtl(epfd, op, fd, events)
	a.t.endCall(a.kind, e)
	return e
}

func (a *tracedAPI) EpollWait(epfd int, evs []fstack.Event) (int, hostos.Errno) {
	a.t.begin(spanEpollWait)
	n, e := a.api.EpollWait(epfd, evs)
	a.t.waits++
	if n > 0 {
		a.t.waitHits++
	}
	a.t.end()
	return n, e
}
