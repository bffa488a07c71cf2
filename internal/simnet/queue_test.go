package simnet

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"overlaymatch/internal/rng"
)

// refQueue is the order the two-lane queue must reproduce: the pending
// events in push (= seq) order, popped by a stable sort on time.
type refQueue struct{ pending []event }

func (q *refQueue) pop() event {
	sort.SliceStable(q.pending, func(i, j int) bool { return q.pending[i].time < q.pending[j].time })
	e := q.pending[0]
	q.pending = q.pending[1:]
	return e
}

// checkQueueOps replays ops against an eventQueue and the reference:
// op&3 == 0 pops (when non-empty), anything else pushes at a time
// offset from the last popped time chosen by the op — unit steps,
// fractional jitter and, for high ops, earlier times (the non-monotone
// pushes that must go to the heap). Every pop must match; the queue
// is drained at the end.
func checkQueueOps(t *testing.T, ops []byte) {
	t.Helper()
	var q eventQueue
	var ref refQueue
	now, seq := 0.0, 0
	pop := func() {
		got, want := q.pop(), ref.pop()
		if got.time != want.time || got.seq != want.seq {
			t.Fatalf("pop %d: got (%v, %d), want (%v, %d)", seq, got.time, got.seq, want.time, want.seq)
		}
		now = got.time
	}
	for _, op := range ops {
		if op&3 == 0 {
			if q.Len() > 0 {
				pop()
			}
			continue
		}
		var at float64
		switch k := op >> 2; {
		case k < 16:
			at = now + 1
		case k < 48:
			at = now + float64(k-15)/8
		default:
			at = now - float64(k-47)/4
		}
		seq++
		e := event{time: at, seq: seq}
		q.push(e)
		ref.pending = append(ref.pending, e)
		if q.Len() != len(ref.pending) {
			t.Fatalf("Len %d, reference holds %d", q.Len(), len(ref.pending))
		}
	}
	for q.Len() > 0 {
		pop()
	}
}

// tagMsg carries the index of the Send, SetTimer or Schedule call that
// queued it, so a delivery can be matched to its push order.
type tagMsg struct{ tag, ttl int }

// runTagged runs a random gossip protocol shaped by the fuzz input and
// returns its deliveries in order as (time, tag) pairs. Tags number
// every push call in call order, which is seq order (a policy's
// duplicate copies share their call's tag and take consecutive seqs).
func runTagged(seed uint64, mode, faults byte, n, ttl int) ([][2]float64, error) {
	src := rng.New(seed)
	opts := Options{Seed: seed ^ 0x9e3779b97f4a7c15, Quiesce: true, MaxDeliveries: 20000}
	switch mode % 3 {
	case 1:
		opts.Latency = ExponentialLatency(2)
	case 2:
		opts.Latency = UniformLatency(0.5, 1.5)
	}
	if faults&1 != 0 {
		opts.Policy = policyFunc(func(now float64, from, to int, _ Message) LinkVerdict {
			var v LinkVerdict
			if src.Bool(0.3) {
				v.ExtraDelay = float64(src.Intn(4)) / 2
			}
			if faults&2 != 0 && src.Bool(0.2) {
				v.Copies = 1
			}
			return v
		})
	}
	var order [][2]float64
	tags := 0
	next := func(ttl int) tagMsg { tags++; return tagMsg{tag: tags, ttl: ttl} }
	fanout := func(ctx Context, ttl int) {
		if ttl == 0 {
			return
		}
		for k := src.Intn(3); k > 0; k-- {
			ctx.Send(src.Intn(n), next(ttl-1))
		}
		if faults&4 != 0 && src.Bool(0.3) {
			ctx.(TimerSetter).SetTimer(float64(1+src.Intn(6))/2, next(ttl-1))
		}
	}
	hs := make([]Handler, n)
	for i := range hs {
		hs[i] = handlerFunc{
			init: func(ctx Context) { fanout(ctx, ttl) },
			handle: func(ctx Context, _ int, msg Message) {
				order = append(order, [2]float64{ctx.Time(), float64(msg.(tagMsg).tag)})
				fanout(ctx, msg.(tagMsg).ttl)
			},
		}
	}
	r := NewRunner(n, opts)
	if faults&8 != 0 {
		// Commands scheduled before Run, out of time order.
		for k := 0; k < 4; k++ {
			r.Schedule(float64(src.Intn(12))/4, src.Intn(n), next(ttl))
		}
	}
	_, err := r.Run(hs)
	return order, err
}

type policyFunc func(now float64, from, to int, msg Message) LinkVerdict

func (p policyFunc) Verdict(now float64, from, to int, msg Message) LinkVerdict {
	return p(now, from, to, msg)
}

// FuzzEventQueueOrder checks the two-lane queue against a reference
// stable sort by (time, seq), twice: directly on an op stream of
// monotone and non-monotone pushes with interleaved pops, and end to
// end through a Runner whose gossip protocol mixes unit, exponential
// and uniform latencies, policy ExtraDelay, duplicate copies, SetTimer
// and Schedule before Run.
func FuzzEventQueueOrder(f *testing.F) {
	f.Add(uint64(1), byte(0), byte(0), []byte{1, 1, 1, 0, 1, 0, 0, 0})
	f.Add(uint64(2), byte(1), byte(15), []byte{5, 200, 9, 0, 250, 0, 77, 1, 0, 0})
	f.Add(uint64(3), byte(2), byte(7), []byte{255, 254, 253, 0, 1, 2, 3, 0, 0})
	f.Add(uint64(4), byte(0), byte(12), []byte{66, 70, 74, 0, 0, 190, 1, 1})
	f.Fuzz(func(t *testing.T, seed uint64, mode, faults byte, ops []byte) {
		checkQueueOps(t, ops)
		order, err := runTagged(seed, mode, faults, 2+int(seed%7), 1+len(ops)%4)
		if err != nil {
			t.Fatal(err)
		}
		want := slices.Clone(order)
		sort.SliceStable(want, func(i, j int) bool { return want[i][1] < want[j][1] })
		sort.SliceStable(want, func(i, j int) bool { return want[i][0] < want[j][0] })
		if !slices.Equal(order, want) {
			t.Fatalf("delivery order %v, want %v", order, want)
		}
	})
}

func TestEventQueueMatchesReference(t *testing.T) {
	src := rng.New(11)
	for trial := 0; trial < 200; trial++ {
		ops := make([]byte, src.Intn(300))
		for i := range ops {
			ops[i] = byte(src.Intn(256))
		}
		t.Run(fmt.Sprint(trial), func(t *testing.T) { checkQueueOps(t, ops) })
	}
}

// The ring is a power of two that doubles only when full, so its
// storage never exceeds twice the deepest it has been, through any
// number of wrap-arounds.
func TestEventQueueRingCapacity(t *testing.T) {
	var q eventQueue
	high, seq := 0, 0
	src := rng.New(5)
	for round := 0; round < 2000; round++ {
		for k := src.Intn(40); k > 0; k-- {
			seq++
			q.push(event{time: float64(seq), seq: seq})
			high = max(high, q.n)
		}
		for k := src.Intn(40); k > 0 && q.Len() > 0; k-- {
			q.pop()
		}
		if len(q.fifo) > 2*high {
			t.Fatalf("round %d: ring capacity %d, high-water depth %d", round, len(q.fifo), high)
		}
	}
	if len(q.heap) != 0 || high == 0 {
		t.Fatalf("monotone pushes used the heap (%d) or never the ring (high %d)", len(q.heap), high)
	}
}

// Under UnitLatency every push is monotone: a whole run stays in the
// ring, which never exceeds twice the run's queue high-water mark.
func TestRunnerUnitLatencyUsesRingOnly(t *testing.T) {
	const n = 64
	r := NewRunner(n, Options{Seed: 3})
	if _, err := r.Run(starHandlers(n)); err != nil {
		t.Fatal(err)
	}
	if cap(r.queue.heap) != 0 {
		t.Fatalf("unit-latency run grew the heap to %d", cap(r.queue.heap))
	}
	if len(r.queue.fifo) == 0 || len(r.queue.fifo) > 2*r.maxDepth {
		t.Fatalf("ring capacity %d for high-water depth %d", len(r.queue.fifo), r.maxDepth)
	}
}
