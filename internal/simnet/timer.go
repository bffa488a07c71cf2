package simnet

// Timer support. Protocol hardening (proposal timeouts in package
// robust) and transport reliability (retransmission in package
// reliable) both need local timers. A timer is delivered back to the
// node that set it as a HandleMessage call with from == the node's own
// ID and the token as the message; timers are local events and are
// never dropped by the loss model.
//
// The event Runner implements timers exactly on its virtual clock. The
// concurrent runtimes' Driver maps one virtual time unit to real time
// (fixed at 1ms on the GoRunner; UDPConfig.TimeUnit on a UDP node);
// their timers are wall-clock approximations, which is fine because the
// protocols only use timers for conservative timeouts.

// TimerSetter is implemented by Contexts that support timers. Both
// runtimes do; the interface is separate so simple protocols don't
// need to care.
type TimerSetter interface {
	// SetTimer schedules msg to be delivered to this node itself
	// (from == own ID) after delay virtual time units. delay must be
	// positive.
	SetTimer(delay float64, msg Message)
}

// SetTimerOn sets a timer via ctx, panicking if the runtime does not
// support timers (both built-in runtimes do).
func SetTimerOn(ctx Context, delay float64, msg Message) {
	ts, ok := ctx.(TimerSetter)
	if !ok {
		panic("simnet: context does not support timers")
	}
	ts.SetTimer(delay, msg)
}
