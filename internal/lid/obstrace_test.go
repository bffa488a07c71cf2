package lid

import (
	"testing"
	"time"

	"overlaymatch/internal/gen"
	"overlaymatch/internal/obs"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/reliable"
	"overlaymatch/internal/rng"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
)

// checkObsTrace asserts that rec holds a complete, causally closed
// message trace of a run that made st.Deliveries network deliveries:
// one EvDeliver per delivery (timers are not network deliveries), and
// every EvDeliver names exactly one EvSend — recorded at its Peer with
// its SendLam, addressed to the delivering node, of the same kind.
func checkObsTrace(t *testing.T, rec *obs.Recorder, st simnet.Stats) {
	t.Helper()
	type stamp struct {
		node int
		lam  uint64
	}
	sends := map[stamp][]obs.Event{}
	var delivers []obs.Event
	for _, e := range rec.Events() {
		switch e.Type {
		case obs.EvSend:
			k := stamp{e.Node, e.Lam}
			sends[k] = append(sends[k], e)
		case obs.EvDeliver:
			delivers = append(delivers, e)
		}
	}
	if len(delivers) != st.Deliveries {
		t.Fatalf("%d deliver events, stats count %d deliveries", len(delivers), st.Deliveries)
	}
	for _, d := range delivers {
		match := sends[stamp{d.Peer, d.SendLam}]
		if len(match) != 1 {
			t.Fatalf("deliver %+v matches %d sends, want exactly 1", d, len(match))
		}
		if s := match[0]; s.Peer != d.Node || s.Kind != d.Kind {
			t.Fatalf("deliver %+v pairs with send %+v of another link or kind", d, s)
		}
		if d.Lam <= d.SendLam {
			t.Fatalf("deliver lam=%d not causally after send lam=%d", d.Lam, d.SendLam)
		}
	}
}

// TestObsTraceCompleteAndCausal: the obs recorder is the only
// per-delivery observer, so its log must be the whole PROP/REJ
// exchange on both runtimes — including a lossy run under the
// reliable layer, whose retransmit timers must not count as
// deliveries.
func TestObsTraceCompleteAndCausal(t *testing.T) {
	src := rng.New(3)
	g := gen.GNP(src, 30, 0.25)
	s, err := pref.Build(g, pref.NewRandomMetric(src.Split()), pref.UniformQuota(2))
	if err != nil {
		t.Fatal(err)
	}
	tbl := satisfaction.NewTable(s)
	n := g.NumNodes()

	t.Run("event", func(t *testing.T) {
		rec := obs.NewRecorder(n)
		res, err := RunEvent(s, tbl, simnet.Options{
			Seed: 1, Latency: simnet.ExponentialLatency(2), Obs: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkObsTrace(t, rec, res.Stats)
	})
	t.Run("event-reliable-lossy", func(t *testing.T) {
		rec := obs.NewRecorder(n)
		eps := reliable.Wrap(Handlers(NewNodes(s, tbl)), 10, 0)
		st, err := simnet.NewRunner(n, simnet.Options{
			Seed: 2, Latency: simnet.ExponentialLatency(2),
			Drop: simnet.UniformDrop(0.2), Obs: rec,
		}).Run(reliable.Handlers(eps))
		if err != nil {
			t.Fatal(err)
		}
		if st.TimersFired == 0 || st.Dropped == 0 {
			t.Fatalf("lossy run fired %d timers, dropped %d: no timer/loss coverage", st.TimersFired, st.Dropped)
		}
		checkObsTrace(t, rec, st)
	})
	t.Run("goroutine", func(t *testing.T) {
		rec := obs.NewRecorder(n)
		res, err := RunGoroutinesOpts(s, tbl, GoOptions{Timeout: 30 * time.Second, Obs: rec})
		if err != nil {
			t.Fatal(err)
		}
		checkObsTrace(t, rec, res.Stats)
	})
}
