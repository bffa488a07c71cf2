package transport_test

import (
	"testing"
	"time"

	"overlaymatch/internal/simnet"
	"overlaymatch/internal/transport"
)

// The concurrent runtimes — the in-memory GoRunner and the loopback UDP
// cluster — host every node on the same simnet driver, so they owe a
// Handler the same contract. Each case below runs on both.

func newGoRunner(t *testing.T, n int) simnet.Transport {
	return simnet.NewGoRunner(n, 20*time.Second)
}

func newLoopback(t *testing.T, n int) simnet.Transport {
	c, err := transport.NewLoopbackCluster(n, transport.ClusterConfig{Timeout: 20 * time.Second})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestConcurrentRuntimeContract(t *testing.T) {
	runtimes := []struct {
		name string
		new  func(*testing.T, int) simnet.Transport
	}{
		{"goroutine", newGoRunner},
		{"udp", newLoopback},
	}
	cases := []struct {
		name  string
		check func(*testing.T, func(*testing.T, int) simnet.Transport)
	}{
		{"sequential", checkSequentialDelivery},
		{"timers", checkTimerSelfDelivery},
		{"halt-terminates", checkHaltTerminates},
		{"handler-in-flight", checkHandlerInFlight},
	}
	for _, tc := range cases {
		for _, rt := range runtimes {
			t.Run(tc.name+"/"+rt.name, func(t *testing.T) { tc.check(t, rt.new) })
		}
	}
}

// TestClusterWaitsForHandlerInFlight: a handler in the middle of a call
// is activity, so the cluster must not declare quiescence while a
// halted node is still computing a reply. Before the runtimes shared
// one driver, the loopback cluster returned with the reply lost.
func TestClusterWaitsForHandlerInFlight(t *testing.T) {
	checkHandlerInFlight(t, newLoopback)
}

// checkSequentialDelivery: three nodes flood a fourth at once, and the
// sink's calls never overlap.
func checkSequentialDelivery(t *testing.T, newRT func(*testing.T, int) simnet.Transport) {
	const senders, each = 3, 50
	sink := &burstSink{want: senders * each}
	hs := []simnet.Handler{sink}
	for i := 0; i < senders; i++ {
		hs = append(hs, &burstSender{to: 0, count: each})
	}
	st, err := newRT(t, len(hs)).Run(hs)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if sink.got != senders*each || st.Deliveries != senders*each {
		t.Fatalf("sink got %d, stats delivered %d, want %d", sink.got, st.Deliveries, senders*each)
	}
	if n := sink.overlapping.Load(); n != 0 {
		t.Fatalf("%d HandleMessage calls overlapped another on the same node", n)
	}
}

// timerToken marks timer deliveries.
type timerToken int

// timedNode arms three timers at Init and halts once all have fired.
type timedNode struct {
	fired   []timerToken
	foreign int
}

func (h *timedNode) Init(ctx simnet.Context) {
	simnet.SetTimerOn(ctx, 5, timerToken(0))
	simnet.SetTimerOn(ctx, 2, timerToken(1))
	simnet.SetTimerOn(ctx, 9, timerToken(2))
}

func (h *timedNode) HandleMessage(ctx simnet.Context, from int, msg simnet.Message) {
	if from != ctx.ID() {
		h.foreign++
	}
	h.fired = append(h.fired, msg.(timerToken))
	if len(h.fired) == 3 {
		ctx.Halt()
	}
}

// checkTimerSelfDelivery: timers come back to the node that armed them
// with from == its own ID, keep the run alive until they fire, and
// count as timers, not deliveries.
func checkTimerSelfDelivery(t *testing.T, newRT func(*testing.T, int) simnet.Transport) {
	h := &timedNode{}
	st, err := newRT(t, 1).Run([]simnet.Handler{h})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(h.fired) != 3 || h.foreign != 0 {
		t.Fatalf("fired %v, %d with a foreign sender", h.fired, h.foreign)
	}
	if st.TimersFired != 3 || st.Deliveries != 0 {
		t.Fatalf("stats: timers %d deliveries %d", st.TimersFired, st.Deliveries)
	}
	// Wall-clock order follows the delays with these gaps.
	if h.fired[0] != 1 {
		t.Fatalf("first timer = %d, want 1", h.fired[0])
	}
}

// relay forwards one frame down a line of nodes; node 0 starts it and
// every node halts after its part.
type relay struct{ n int }

func (r relay) Init(ctx simnet.Context) {
	if ctx.ID() == 0 {
		ctx.Send(1, transport.Raw("hop"))
		ctx.Halt()
	}
}

func (r relay) HandleMessage(ctx simnet.Context, _ int, msg simnet.Message) {
	if next := ctx.ID() + 1; next < r.n {
		ctx.Send(next, msg)
	}
	ctx.Halt()
}

// checkHaltTerminates: once every node has halted and the last frame is
// handled, Run returns without error and nothing is lost on the way.
func checkHaltTerminates(t *testing.T, newRT func(*testing.T, int) simnet.Transport) {
	const n = 8
	hs := make([]simnet.Handler, n)
	for i := range hs {
		hs[i] = relay{n: n}
	}
	st, err := newRT(t, n).Run(hs)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if st.Deliveries != n-1 {
		t.Fatalf("delivered %d, want %d", st.Deliveries, n-1)
	}
}

// pinger sends one ping from Init and halts at once; it records the
// reply that arrives afterwards.
type pinger struct{ replies int }

func (p *pinger) Init(ctx simnet.Context) {
	ctx.Send(1, transport.Raw("ping"))
	ctx.Halt()
}
func (p *pinger) HandleMessage(simnet.Context, int, simnet.Message) { p.replies++ }

// slowPonger halts in Init, then answers a ping from a handler that
// runs longer than the loopback cluster's idle window.
type slowPonger struct{}

func (slowPonger) Init(ctx simnet.Context) { ctx.Halt() }
func (slowPonger) HandleMessage(ctx simnet.Context, from int, _ simnet.Message) {
	time.Sleep(400 * time.Millisecond)
	ctx.Send(from, transport.Raw("pong"))
}

// checkHandlerInFlight: both nodes are halted while node 1 is still
// inside HandleMessage; the run must wait for that call and deliver
// the reply it sends.
func checkHandlerInFlight(t *testing.T, newRT func(*testing.T, int) simnet.Transport) {
	p := &pinger{}
	st, err := newRT(t, 2).Run([]simnet.Handler{p, slowPonger{}})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if p.replies != 1 || st.Deliveries != 2 {
		t.Fatalf("reply lost: pinger got %d replies, stats %v", p.replies, st)
	}
}
