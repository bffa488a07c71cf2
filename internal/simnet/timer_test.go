package simnet

import (
	"strings"
	"testing"
)

// timerToken marks timer deliveries in the tests.
type timerToken struct{ n int }

// timedHandler sets a chain of timers at Init and records fire order.
type timedHandler struct {
	fired []int
}

func (h *timedHandler) Init(ctx Context) {
	SetTimerOn(ctx, 5, timerToken{0})
	SetTimerOn(ctx, 2, timerToken{1})
	SetTimerOn(ctx, 9, timerToken{2})
}

func (h *timedHandler) HandleMessage(ctx Context, from int, msg Message) {
	tok, ok := msg.(timerToken)
	if !ok {
		return
	}
	if from != ctx.ID() {
		panic("timer delivered with foreign from")
	}
	h.fired = append(h.fired, tok.n)
	if len(h.fired) == 3 {
		ctx.Halt()
	}
}

func TestRunnerTimersFireInVirtualOrder(t *testing.T) {
	h := &timedHandler{}
	r := NewRunner(1, Options{Seed: 1})
	stats, err := r.Run([]Handler{h})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.fired) != 3 || h.fired[0] != 1 || h.fired[1] != 0 || h.fired[2] != 2 {
		t.Fatalf("fire order = %v, want [1 0 2]", h.fired)
	}
	if stats.TimersFired != 3 || stats.Deliveries != 0 {
		t.Fatalf("stats: timers %d deliveries %d", stats.TimersFired, stats.Deliveries)
	}
	if stats.FinalTime != 9 {
		t.Fatalf("final time %v, want 9", stats.FinalTime)
	}
}

func TestSetTimerPanicsOnBadDelay(t *testing.T) {
	r := NewRunner(1, Options{})
	bad := handlerFunc{init: func(ctx Context) { SetTimerOn(ctx, 0, "x") }}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_, _ = r.Run([]Handler{bad})
}

func TestUniformDropLosesMessages(t *testing.T) {
	// Node 0 sends 200 messages to node 1; with p=0.5 roughly half are
	// dropped. Node 1 halts at Init (it may receive afterwards).
	sender := handlerFunc{
		init: func(ctx Context) {
			for i := 0; i < 200; i++ {
				ctx.Send(1, i)
			}
			ctx.Halt()
		},
	}
	receiver := handlerFunc{init: func(ctx Context) { ctx.Halt() }}
	r := NewRunner(2, Options{Seed: 3, Drop: UniformDrop(0.5)})
	stats, err := r.Run([]Handler{sender, receiver})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalSent() != 200 {
		t.Fatalf("sent = %d", stats.TotalSent())
	}
	if stats.Dropped == 0 || stats.Dropped == 200 {
		t.Fatalf("dropped = %d, expected strictly between 0 and 200", stats.Dropped)
	}
	if stats.Deliveries+stats.Dropped != 200 {
		t.Fatalf("deliveries %d + dropped %d != 200", stats.Deliveries, stats.Dropped)
	}
	if stats.Dropped < 60 || stats.Dropped > 140 {
		t.Fatalf("dropped = %d, implausible for p=0.5", stats.Dropped)
	}
}

func TestUniformDropValidation(t *testing.T) {
	for _, p := range []float64{-0.1, 1.0, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("UniformDrop(%v) should panic", p)
				}
			}()
			UniformDrop(p)
		}()
	}
}

func TestTimersNotDropped(t *testing.T) {
	// Even with 90% loss, timers always fire.
	h := &timedHandler{}
	r := NewRunner(1, Options{Seed: 1, Drop: UniformDrop(0.9)})
	stats, err := r.Run([]Handler{h})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TimersFired != 3 {
		t.Fatalf("timers fired = %d", stats.TimersFired)
	}
}

func TestSetTimerOnUnsupportedContextPanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "timers") {
			t.Fatalf("expected timer-support panic, got %v", r)
		}
	}()
	SetTimerOn(bareCtx{}, 1, "x")
}

// bareCtx implements only the base Context interface.
type bareCtx struct{}

func (bareCtx) ID() int           { return 0 }
func (bareCtx) Send(int, Message) {}
func (bareCtx) Halt()             {}
func (bareCtx) Time() float64     { return 0 }
