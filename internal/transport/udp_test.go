package transport_test

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"overlaymatch/internal/detector"
	"overlaymatch/internal/faults"
	"overlaymatch/internal/lid"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/metrics"
	"overlaymatch/internal/reliable"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
	"overlaymatch/internal/transport"
)

// TestLoopbackClusterLIC is the PR's conformance anchor: the same
// seeded workload runs once on the deterministic Runner and once on a
// real-socket loopback cluster with the full reliable/detector stack,
// and both must produce exactly the LIC matching. LID's outcome is
// determined by the preference system alone — every delivery order
// converges to the same locally-ideal configuration — which is what
// makes a byte-level nondeterministic transport verifiable against the
// simulator at all.
func TestLoopbackClusterLIC(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster run in -short mode")
	}
	spec := faults.WorkloadSpec{Topology: "gnp", N: 32, B: 3, Metric: "random", Seed: 42}
	sys, err := spec.Build()
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	tbl := satisfaction.NewTable(sys)

	ref, err := lid.RunEvent(sys, tbl, simnet.Options{Seed: 1})
	if err != nil {
		t.Fatalf("runner reference: %v", err)
	}
	if lic := matching.LIC(sys, tbl); !ref.Matching.Equal(lic) {
		t.Fatalf("runner matching differs from centralized LIC — workload unusable as reference")
	}

	g := sys.Graph()
	nodes := lid.NewNodes(sys, tbl)
	handlers := lid.Handlers(nodes)
	eps := reliable.WrapConfig(handlers, reliable.Config{RTO: 40})
	handlers = reliable.Handlers(eps)
	adj := make([][]int, g.NumNodes())
	for i := range adj {
		adj[i] = g.Neighbors(i)
	}
	det := detector.Default()
	det.Ticks = 8 // short heartbeat budget: liveness is exercised, the test stays fast
	mons := detector.Wrap(handlers, adj, det)
	handlers = detector.Handlers(mons)

	cluster, err := transport.NewLoopbackCluster(g.NumNodes(), transport.ClusterConfig{
		Timeout: 60 * time.Second,
	})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	defer cluster.Close()
	st, err := cluster.Run(handlers)
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}

	got, err := lid.BuildMatching(nodes)
	if err != nil {
		t.Fatalf("matching: %v", err)
	}
	if !got.Equal(ref.Matching) {
		t.Fatalf("cluster matching differs from runner LIC matching\ncluster: %v\n runner: %v", got, ref.Matching)
	}

	if st.Deliveries == 0 || st.TotalSent() == 0 {
		t.Fatalf("cluster stats look empty: %+v", st)
	}
	// The stack's kinds all crossed the real wire. (reliable's DATA
	// frames report their payload's kind, so PROP/REJ stand in for
	// the data path and ACK for the reverse path.)
	for _, kind := range []string{"PROP", "REJ", "ACK", "HB"} {
		if st.SentByKind[kind] == 0 {
			t.Errorf("no %s frames on the wire; SentByKind = %v", kind, st.SentByKind)
		}
	}
}

// burstSender floods one peer from Init and halts; burstSink counts
// arrivals, and the calls that overlapped another call on the same
// node, and halts at the target. Between them they exercise
// coalescing: frames queued behind an in-flight datagram share
// envelopes.
type burstSender struct {
	to    int
	count int
}

func (b *burstSender) Init(ctx simnet.Context) {
	for i := 0; i < b.count; i++ {
		ctx.Send(b.to, transport.Raw("burst"))
	}
	ctx.Halt()
}
func (b *burstSender) HandleMessage(simnet.Context, int, simnet.Message) {}

type burstSink struct {
	want        int
	got         int
	inside      atomic.Int32
	overlapping atomic.Int32
}

func (b *burstSink) Init(simnet.Context) {}
func (b *burstSink) HandleMessage(ctx simnet.Context, _ int, _ simnet.Message) {
	if b.inside.Add(1) != 1 {
		b.overlapping.Add(1)
	}
	time.Sleep(10 * time.Microsecond) // widen the window an overlap would need
	b.got++
	if b.got == b.want {
		ctx.Halt()
	}
	b.inside.Add(-1)
}

func TestClusterCoalescing(t *testing.T) {
	const frames = 200
	cluster, err := transport.NewLoopbackCluster(2, transport.ClusterConfig{
		Timeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	defer cluster.Close()
	sink := &burstSink{want: frames}
	st, err := cluster.Run([]simnet.Handler{&burstSender{to: 1, count: frames}, sink})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if sink.got != frames {
		t.Fatalf("sink received %d of %d frames", sink.got, frames)
	}
	c := cluster.Nodes()[0].Counters()
	if c.FramesSent != frames {
		t.Fatalf("sender counted %d frames sent, want %d", c.FramesSent, frames)
	}
	// A tight Init loop queues frames far faster than datagrams leave,
	// so the send loop must have packed at least one multi-frame
	// envelope.
	if c.DatagramsSent >= c.FramesSent {
		t.Errorf("no coalescing: %d datagrams for %d frames", c.DatagramsSent, c.FramesSent)
	}
	if c.BytesSent == 0 || st.SentByKind["RAW"] != frames {
		t.Errorf("counters inconsistent: %+v, kinds %v", c, st.SentByKind)
	}
}

func TestListenUDPValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  transport.UDPConfig
		want string
	}{
		{"zero nodes", transport.UDPConfig{N: 0, Listen: "127.0.0.1:0"}, "node count"},
		{"id out of range", transport.UDPConfig{NodeID: 3, N: 3, Listen: "127.0.0.1:0"}, "outside"},
		{"empty listen", transport.UDPConfig{NodeID: 0, N: 2}, "empty listen"},
		{"bad listen", transport.UDPConfig{NodeID: 0, N: 2, Listen: "not an address"}, "listen"},
		{"bad peer id", transport.UDPConfig{NodeID: 0, N: 2, Listen: "127.0.0.1:0",
			Peers: map[int]string{5: "127.0.0.1:1"}}, "peer ID"},
		{"bad peer addr", transport.UDPConfig{NodeID: 0, N: 2, Listen: "127.0.0.1:0",
			Peers: map[int]string{1: "nope"}}, "address"},
	}
	for _, tc := range cases {
		nd, err := transport.ListenUDP(tc.cfg)
		if err == nil {
			nd.Close()
			t.Errorf("%s: ListenUDP accepted %+v", tc.name, tc.cfg)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestClusterHandlerCountMismatch(t *testing.T) {
	cluster, err := transport.NewLoopbackCluster(2, transport.ClusterConfig{})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	defer cluster.Close()
	if _, err := cluster.Run([]simnet.Handler{&burstSink{}}); err == nil {
		t.Fatal("Run accepted 1 handler for 2 nodes")
	}
}

// TestUDPNodeMetrics publishes one closed node's counters into a
// registry, checking the export surface the standalone binary uses.
func TestUDPNodeMetrics(t *testing.T) {
	cluster, err := transport.NewLoopbackCluster(2, transport.ClusterConfig{Timeout: 20 * time.Second})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	defer cluster.Close()
	if _, err := cluster.Run([]simnet.Handler{&burstSender{to: 1, count: 3}, &burstSink{want: 3}}); err != nil {
		t.Fatalf("run: %v", err)
	}
	reg := metrics.New()
	cluster.Nodes()[0].PublishMetrics(reg)
	if got := reg.Counter("transport_frames_sent_total", "").Value(); got != 3 {
		t.Fatalf("published frames_sent = %d, want 3", got)
	}
	cluster.Nodes()[0].PublishMetrics(nil) // nil-safe
}
