package simnet

// Transport is the runtime-agnostic execution substrate the protocol
// stack runs on: something that takes one Handler per node, drives
// Init and HandleMessage (sequentially per node, possibly concurrently
// across nodes), delivers timers, and reports the run's statistics.
//
// Three implementations exist:
//
//   - Runner — the deterministic discrete-event simulator. The
//     conformance harness: every protocol result is defined by what
//     the Runner computes, and the experiment registry (E1–E19) gates
//     against it bit-for-bit.
//   - GoRunner — one Driver per node joined by in-memory mailboxes;
//     exercises real concurrency and the race detector.
//   - transport.Cluster — real UDP sockets (package
//     internal/transport): one Driver per node whose sends become
//     length-prefixed binary frames, coalesced by per-peer send loops.
//     The deployable backend; its runs must produce the same matchings
//     the Runner certifies.
//
// The two concurrent backends share the Driver (driver.go): the inbox,
// the delivery goroutine, wall-clock timers and the halted and
// pending-work state are written once, and only the egress and the
// termination rule differ.
//
// The interface is deliberately minimal: protocols never see it (they
// are written against Handler/Context), but harnesses, experiments and
// CLIs can hold any backend behind one variable. Both simnet runtimes
// implement it unchanged — the compile-time assertions below are the
// whole "refactor" on their side.
type Transport interface {
	// Run executes the protocol to termination: Init on every node,
	// then message deliveries until the backend's termination condition
	// holds (global halt for Runner/GoRunner, quiescence for the
	// socket backend). One Transport value runs once.
	Run(handlers []Handler) (Stats, error)
}

// Endpoint is the per-node attachment surface a Transport hands its
// handlers on every call: the Context (identity, send, halt, clock)
// plus local timers. Every built-in runtime context provides it; layer
// wrappers (reliable.Endpoint's relCtx, package robust's adaptive
// timers) rely on exactly this surface and nothing more, which is what
// lets the whole stack move between backends without edits.
type Endpoint interface {
	Context
	TimerSetter
}

// Compile-time conformance: both simulator runtimes are Transports and
// both their contexts are Endpoints. The real-socket backend asserts
// the same in package internal/transport (it cannot be asserted here
// without an import cycle).
var (
	_ Transport = (*Runner)(nil)
	_ Transport = (*GoRunner)(nil)
	_ Endpoint  = (*runnerCtx)(nil)
	_ Endpoint  = (*Driver)(nil)
)
