package simnet

type event struct {
	time     float64
	seq      int // FIFO tie-break: lower seq delivered first at equal times
	from, to int
	msg      Message
	lam      uint64 // sender's Lamport stamp (telemetry only; 0 when off)
	timer    bool   // local timer delivery, not a network message
}

// before reports whether a is delivered before b: (time, seq)
// ascending. seq is unique per run, so this is a strict total order.
func (a *event) before(b *event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// eventQueue is the Runner's priority queue over (time, seq), in two
// lanes:
//
//   - fifo, a power-of-two ring buffer, takes every push whose key is
//     not below the newest ring entry. Each push draws a larger seq, so
//     the ring is sorted by construction and its head is its minimum.
//   - heap, a hand-rolled binary min-heap, takes every other push.
//
// pop returns the smaller of the two heads. Keys are unique, so the pop
// sequence is exactly the one a single heap over all events would give;
// the lanes only change what a push and a pop cost. Under UnitLatency
// every push is monotone and lands in the ring, so both operations are
// O(1) and walk memory sequentially; jittered latencies keep the heap
// with one extra comparison per operation. (The heap is hand-rolled
// rather than container/heap because the interface{} boxing there costs
// one allocation per message.)
type eventQueue struct {
	heap []event
	fifo []event // ring storage; len is the capacity, a power of two (or 0)
	head int     // ring index of the oldest entry
	n    int     // ring entries
}

// Len returns the number of queued events.
func (q *eventQueue) Len() int { return len(q.heap) + q.n }

func (q *eventQueue) push(e event) {
	if q.n == 0 || !e.before(&q.fifo[(q.head+q.n-1)&(len(q.fifo)-1)]) {
		q.pushFIFO(e)
		return
	}
	q.heap = append(q.heap, e)
	h := q.heap
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// pushFIFO appends e to the ring, doubling the storage when it is full
// (so the capacity never exceeds twice the ring's high-water depth).
func (q *eventQueue) pushFIFO(e event) {
	if q.n == len(q.fifo) {
		grown := make([]event, max(1, 2*len(q.fifo)))
		k := copy(grown, q.fifo[q.head:])
		copy(grown[k:], q.fifo[:q.head])
		q.fifo, q.head = grown, 0
	}
	q.fifo[(q.head+q.n)&(len(q.fifo)-1)] = e
	q.n++
}

// pop removes and returns the earliest event; the queue must not be
// empty.
func (q *eventQueue) pop() event {
	if q.n > 0 && (len(q.heap) == 0 || q.fifo[q.head].before(&q.heap[0])) {
		e := q.fifo[q.head]
		q.fifo[q.head] = event{} // release references for GC
		q.head = (q.head + 1) & (len(q.fifo) - 1)
		q.n--
		return e
	}
	h := q.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{}
	h = h[:n]
	q.heap = h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h[l].before(&h[smallest]) {
			smallest = l
		}
		if r < n && h[r].before(&h[smallest]) {
			smallest = r
		}
		if smallest == i {
			return top
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}
