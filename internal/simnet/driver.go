package simnet

import (
	"sync"
	"sync/atomic"
	"time"

	"overlaymatch/internal/obs"
)

// DriverEvent is what a Driver reports to its owner's hook.
type DriverEvent int

const (
	// EventInit: the handler's Init returned.
	EventInit DriverEvent = iota
	// EventDelivery: a HandleMessage call for a pushed message returned.
	EventDelivery
	// EventTimerSet: the handler armed a timer.
	EventTimerSet
	// EventTimer: a HandleMessage call for a fired timer returned.
	EventTimer
	// EventHalt: the handler called Halt for the first time.
	EventHalt
)

// Driver hosts one node's Handler on a concurrent runtime: an unbounded
// FIFO inbox, one delivery goroutine (Init, then one HandleMessage at a
// time), wall-clock timers, and the node's halted and pending-work
// state. The Driver itself is the Endpoint its handler sees. What it
// does not know is the network: sends leave through the owner's egress
// function, and arrivals come back through Push. Both the GoRunner and
// the UDP transport host their nodes on it.
type Driver struct {
	id     int
	unit   time.Duration // real duration of one virtual timer unit
	rec    *obs.Recorder
	egress func(from, to int, msg Message)
	hook   func(id int, ev DriverEvent)

	box    *mailbox
	halted atomic.Bool
	// pending counts the work not yet finished: Init until it returns,
	// every pushed message until its HandleMessage returns, and every
	// armed timer until its own HandleMessage returns. A call's count is
	// released only after the hook runs, and any work the call creates
	// is counted before that, so pending == 0 is never seen while work
	// remains on this node.
	pending atomic.Int64
	wg      sync.WaitGroup
}

// NewDriver returns the driver for node id, not yet started. Sends go
// to egress (on the delivery goroutine, inside the handler call); every
// finished Init, delivery and timer, every armed timer and the first
// Halt are reported to hook on the goroutine that caused them. unit is
// the real duration of one virtual time unit for SetTimer. rec may be
// nil (telemetry off).
func NewDriver(id int, unit time.Duration, rec *obs.Recorder,
	egress func(from, to int, msg Message), hook func(id int, ev DriverEvent)) *Driver {
	d := &Driver{id: id, unit: unit, rec: rec, egress: egress, hook: hook, box: newMailbox()}
	d.pending.Store(1) // Init
	return d
}

// Start runs h on the delivery goroutine: Init first, then every pushed
// message and fired timer in arrival order, until Stop.
func (d *Driver) Start(h Handler) {
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		h.Init(d)
		d.finish(EventInit)
		for {
			m, ok := d.box.pop()
			if !ok {
				return
			}
			if m.timer {
				h.HandleMessage(d, d.id, m.msg)
				d.finish(EventTimer)
				continue
			}
			if d.rec != nil {
				d.rec.Deliver(d.id, m.from, KindOf(m.msg), 0, m.lam)
			}
			h.HandleMessage(d, m.from, m.msg)
			d.finish(EventDelivery)
		}
	}()
}

func (d *Driver) finish(ev DriverEvent) {
	d.hook(d.id, ev)
	d.pending.Add(-1)
}

// Push queues a message from a peer; lam is the sender's Lamport stamp
// (0 with telemetry off). It never blocks and returns the inbox depth.
// After Stop the message is dropped.
func (d *Driver) Push(from int, msg Message, lam uint64) int {
	d.pending.Add(1)
	return d.box.push(delivery{from: from, msg: msg, lam: lam})
}

// Stop ends delivery once the call in progress returns, and waits for
// the delivery goroutine to exit. Pushes and timers arriving later are
// dropped.
func (d *Driver) Stop() {
	d.box.close()
	d.wg.Wait()
}

// Halted reports whether the handler has called Halt.
func (d *Driver) Halted() bool { return d.halted.Load() }

// Pending reports the node's unfinished work: queued messages, armed
// timers, and Init or a HandleMessage call in progress.
func (d *Driver) Pending() int64 { return d.pending.Load() }

// ID implements Context.
func (d *Driver) ID() int { return d.id }

// Time implements Context: a concurrent runtime has no global virtual
// clock.
func (d *Driver) Time() float64 { return 0 }

// Observer implements Observable (nil when telemetry is off).
func (d *Driver) Observer() *obs.Recorder { return d.rec }

// Send implements Context through the owner's egress.
func (d *Driver) Send(to int, msg Message) { d.egress(d.id, to, msg) }

// Halt implements Context.
func (d *Driver) Halt() {
	if d.halted.CompareAndSwap(false, true) {
		d.hook(d.id, EventHalt)
	}
}

// SetTimer implements TimerSetter: msg is pushed back to this node's
// own inbox after delay virtual time units of wall-clock time. A
// pending timer counts as pending work.
func (d *Driver) SetTimer(delay float64, msg Message) {
	if delay <= 0 {
		panic("simnet: SetTimer needs a positive delay")
	}
	d.pending.Add(1)
	d.hook(d.id, EventTimerSet)
	time.AfterFunc(time.Duration(delay*float64(d.unit)), func() {
		d.box.push(delivery{from: d.id, msg: msg, timer: true})
	})
}
