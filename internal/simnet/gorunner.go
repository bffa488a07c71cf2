package simnet

import (
	"fmt"
	"sync"
	"time"

	"overlaymatch/internal/metrics"
	"overlaymatch/internal/obs"
)

// GoRunner executes a protocol with one goroutine per node and
// unbounded mailboxes between them: n Drivers joined by an in-memory
// egress. Unlike Runner it is actually concurrent: interleavings come
// from the Go scheduler, so running under -race exercises the
// protocol's per-node isolation. Global termination is detected
// exactly: the run ends when every node has halted, every mailbox is
// empty, no timer is pending and no handler is mid-flight.
type GoRunner struct {
	n       int
	timeout time.Duration

	mu          sync.Mutex
	cond        *sync.Cond
	outstanding int // sent or armed but not yet fully processed messages and timers
	initPending int // nodes that have not finished Init
	haltedCount int
	closed      bool

	drivers []*Driver
	ins     *instruments
	sink    *metrics.Registry
	rec     *obs.Recorder

	polMu  sync.Mutex // serializes policy verdicts (policies are single-threaded)
	policy LinkPolicy
}

// goTimeUnit is the real duration of one virtual time unit for the
// GoRunner's timers and delayed copies.
const goTimeUnit = time.Millisecond

// NewGoRunner returns a GoRunner for n nodes. timeout bounds Run's
// wall-clock duration (a protocol that never terminates globally would
// otherwise hang); 0 means a 30s default.
func NewGoRunner(n int, timeout time.Duration) *GoRunner {
	if n < 0 {
		panic("simnet: negative node count")
	}
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	r := &GoRunner{
		n:           n,
		timeout:     timeout,
		initPending: n,
		ins:         newInstruments(n),
	}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// SetMetricsSink sets a shared registry that receives a Merge of the
// run's private instrument registry when Run finishes. Call before
// Run.
func (r *GoRunner) SetMetricsSink(sink *metrics.Registry) { r.sink = sink }

// SetObserver installs a telemetry recorder (package obs). The
// recorder is mutex-guarded, so the per-node goroutines record
// concurrently in scheduler order: Lamport stamps stay causally
// consistent (a delivery always merges its send's stamp), but unlike
// the event runtime the record ORDER is not reproducible across runs.
// Times are recorded as 0 — the GoRunner has no global clock. Call
// before Run.
func (r *GoRunner) SetObserver(rec *obs.Recorder) { r.rec = rec }

// SetPolicy installs a fault-injection link policy (see LinkPolicy).
// The runner serializes Verdict calls under an internal mutex, so the
// same deterministic policy implementations work on both runtimes —
// but the GoRunner has no global clock, so verdicts see now == 0 and
// the ORDER of verdicts follows the Go scheduler: probabilistic faults
// apply, time-windowed ones do not, and exact replay is only defined
// on the event runtime. Call before Run.
func (r *GoRunner) SetPolicy(p LinkPolicy) { r.policy = p }

// Metrics returns the run's private instrument registry.
func (r *GoRunner) Metrics() *metrics.Registry { return r.ins.reg }

// SentTotals returns the cumulative (messages, bytes) send counters.
func (r *GoRunner) SentTotals() (msgs, bytes int64) { return r.ins.sentTotals() }

// send is the drivers' egress: policy verdict, accounting, and a push
// into the destination's inbox (or onto a wall-clock timer for a
// delayed copy).
func (r *GoRunner) send(from, to int, msg Message) {
	if to < 0 || to >= r.n {
		panic(fmt.Sprintf("simnet: send to %d outside [0,%d)", to, r.n))
	}
	kind := KindOf(msg)
	r.ins.countSend(from, kind, SizeOf(msg))
	lam := r.rec.Send(from, to, kind, 0)
	var v LinkVerdict
	if r.policy != nil {
		r.polMu.Lock()
		v = r.policy.Verdict(0, from, to, msg)
		r.polMu.Unlock()
		r.ins.countVerdict(v)
		if v.Drop {
			r.ins.dropped.Inc()
			return
		}
		if v.Corrupt {
			msg = Corrupted{Original: msg}
		}
	}
	for i := 0; i < 1+v.Copies; i++ {
		r.mu.Lock()
		r.outstanding++
		r.mu.Unlock()
		if v.ExtraDelay > 0 {
			// The outstanding count above keeps the run alive while the
			// delayed copy is in flight.
			time.AfterFunc(time.Duration(v.ExtraDelay*float64(goTimeUnit)), func() {
				r.push(from, to, msg, lam)
			})
			continue
		}
		r.push(from, to, msg, lam)
	}
}

func (r *GoRunner) push(from, to int, msg Message, lam uint64) {
	depth := r.drivers[to].Push(from, msg, lam)
	r.ins.queueDepthMax.SetMax(float64(depth))
}

// observe is the drivers' hook: it keeps the instruments and the
// global termination counts.
func (r *GoRunner) observe(id int, ev DriverEvent) {
	switch ev {
	case EventDelivery:
		r.ins.deliveries.Inc()
		r.ins.receivedByNode.Inc(id)
	case EventTimer:
		r.ins.timersFired.Inc()
	}
	r.mu.Lock()
	switch ev {
	case EventInit:
		r.initPending--
	case EventTimerSet:
		r.outstanding++
	case EventDelivery, EventTimer:
		r.outstanding--
	case EventHalt:
		r.haltedCount++
	}
	r.cond.Broadcast()
	r.mu.Unlock()
}

// doneLocked reports (under r.mu) whether the run has globally terminated.
func (r *GoRunner) doneLocked() bool {
	return r.initPending == 0 && r.outstanding == 0 && r.haltedCount == r.n
}

// Run executes the protocol and blocks until global termination or
// timeout. On timeout it returns an error describing the stuck nodes.
func (r *GoRunner) Run(handlers []Handler) (Stats, error) {
	defer func() { r.ins.mergeInto(r.sink) }()
	if len(handlers) != r.n {
		return r.ins.stats(), fmt.Errorf("simnet: %d handlers for %d nodes", len(handlers), r.n)
	}
	r.drivers = make([]*Driver, r.n)
	for id := range r.drivers {
		r.drivers[id] = NewDriver(id, goTimeUnit, r.rec, r.send, r.observe)
	}
	for id, d := range r.drivers {
		d.Start(handlers[id])
	}

	// Watcher: wake on every state change until done or shut down.
	finished := make(chan struct{})
	go func() {
		r.mu.Lock()
		for !r.doneLocked() && !r.closed {
			r.cond.Wait()
		}
		r.closed = true
		r.mu.Unlock()
		close(finished)
	}()

	var err error
	timer := time.NewTimer(r.timeout)
	defer timer.Stop()
	select {
	case <-finished:
	case <-timer.C:
		// Force shutdown and report which nodes were stuck.
		r.mu.Lock()
		r.closed = true
		r.cond.Broadcast()
		r.mu.Unlock()
		<-finished
		var stuck []int
		for id, d := range r.drivers {
			if !d.Halted() {
				stuck = append(stuck, id)
			}
		}
		err = fmt.Errorf("simnet: timeout after %v; non-halted nodes: %v", r.timeout, stuck)
	}
	for _, d := range r.drivers {
		d.Stop()
	}
	return r.ins.stats(), err
}
