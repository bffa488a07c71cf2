package simnet

import "sync"

// LinkVerdict is a LinkPolicy's decision for one message in transit.
// The zero value means "deliver normally, exactly once, undamaged".
type LinkVerdict struct {
	// Drop loses the message entirely. The paper's model assumes
	// reliable links; package reliable restores delivery on top of a
	// dropping policy, exactly as it does for Options.Drop.
	Drop bool
	// Copies is the number of EXTRA deliveries beyond the first
	// (duplication). Each copy draws its own link latency, so copies
	// also reorder against each other.
	Copies int
	// ExtraDelay is added to every copy's drawn latency — the hook for
	// heavy-tailed delay distributions and targeted reordering. Must be
	// >= 0.
	ExtraDelay float64
	// Corrupt replaces the payload with Corrupted{original} before
	// delivery. A transport that checksums frames (package reliable)
	// discards corrupted frames and recovers by retransmission; a bare
	// protocol handler treats one as a protocol violation.
	Corrupt bool
}

// LinkPolicy is the fault-injection hook shared by both runtimes: every
// network send (never timers) is submitted to the policy, and the
// returned verdict is applied by the mailbox/event machinery. now is
// the sender's virtual time on the event Runner and 0 on the GoRunner,
// which has no global clock — time-windowed faults are therefore only
// meaningful on the event runtime.
//
// Implementations must be deterministic functions of their own seeded
// state: they must NOT draw from the runner's latency source, so that a
// zero policy leaves a run bit-identical to no policy at all
// (TestTablesUnchangedByFaultsOff). The event Runner calls the policy
// from its single scheduler thread; the GoRunner serializes calls under
// an internal mutex, so implementations need no locking of their own.
type LinkPolicy interface {
	Verdict(now float64, from, to int, msg Message) LinkVerdict
}

// Corrupted marks a payload mangled in transit by a LinkPolicy. The
// original message is kept for debugging; transports must
// treat the whole frame as garbage (a failed checksum), not look
// inside.
type Corrupted struct {
	Original Message
}

// Kind implements Kinder.
func (Corrupted) Kind() string { return "CORRUPT" }

// delivery is one queued message inside a mailbox.
type delivery struct {
	from  int
	msg   Message
	lam   uint64 // sender's Lamport stamp (telemetry only; 0 when off)
	timer bool   // local timer, not a network message
}

// mailbox is an unbounded MPSC queue: any number of senders Push
// without ever blocking, one owner Pops. Unboundedness matters: the
// paper's model assumes reliable asynchronous links, so the transport
// must never apply backpressure that could entangle protocol waits
// into artificial deadlocks.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []delivery
	closed bool
}

func newMailbox() *mailbox {
	mb := &mailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

// push enqueues d and returns the resulting queue depth (for the
// high-water-mark gauge); it never blocks. Pushing to a closed mailbox
// drops the message (the owner has stopped reading for good).
func (mb *mailbox) push(d delivery) int {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.closed {
		return len(mb.items)
	}
	mb.items = append(mb.items, d)
	mb.cond.Signal()
	return len(mb.items)
}

// pop dequeues the oldest message, blocking until one arrives or the
// mailbox is closed. The second result is false once the mailbox is
// closed and drained.
func (mb *mailbox) pop() (delivery, bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for len(mb.items) == 0 && !mb.closed {
		mb.cond.Wait()
	}
	if len(mb.items) == 0 {
		return delivery{}, false
	}
	d := mb.items[0]
	mb.items = mb.items[1:]
	return d, true
}

// close wakes any blocked pop and makes future pushes no-ops.
func (mb *mailbox) close() {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	mb.closed = true
	mb.cond.Broadcast()
}

// len reports the number of queued messages.
func (mb *mailbox) len() int {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return len(mb.items)
}
