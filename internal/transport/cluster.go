package transport

import (
	"fmt"
	"strings"
	"time"

	"overlaymatch/internal/simnet"
)

// Cluster boots n UDPNodes on loopback sockets in one process and runs
// a handler set over real datagrams. It is the third simnet.Transport
// backend — after the deterministic Runner and the in-memory GoRunner
// — and the conformance bridge between them and a deployment: a test
// seeds the same workload into a Runner and a Cluster and asserts the
// matchings agree.
//
// Every socket binds 127.0.0.1:0 first; the kernel-assigned ports are
// then exchanged as each node's peer table, so cluster tests never
// race over fixed port numbers.
type Cluster struct {
	nodes []*UDPNode
	cfg   ClusterConfig
}

// Compile-time proof that a real-socket cluster satisfies the same
// contract as the simulator runtimes. (Asserted here, not in package
// simnet, to keep simnet import-free of the wire layer.)
var _ simnet.Transport = (*Cluster)(nil)

// ClusterConfig parameterizes a loopback cluster. The zero value is
// usable.
type ClusterConfig struct {
	// Timeout bounds Run's wait for cluster quiescence (default 30s).
	Timeout time.Duration
}

func (c ClusterConfig) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return 30 * time.Second
}

// clusterIdleWindow is how long every node must be silent — halted, no
// pending work, no wire activity — before Run declares the run
// complete. With the reliable layer in the stack, Halt already
// certifies full acknowledgment, so the window only has to outlast
// residual duplicate/heartbeat traffic.
const clusterIdleWindow = 150 * time.Millisecond

// NewLoopbackCluster binds n loopback sockets and wires the full peer
// mesh. No handler runs until Run. Callers must Close (Run leaves the
// cluster closed already; Close is idempotent).
func NewLoopbackCluster(n int, cfg ClusterConfig) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("transport: cluster size %d must be positive", n)
	}
	c := &Cluster{cfg: cfg}
	for i := 0; i < n; i++ {
		nd, err := ListenUDP(UDPConfig{NodeID: i, N: n, Listen: "127.0.0.1:0"})
		if err != nil {
			c.Close()
			return nil, err
		}
		c.nodes = append(c.nodes, nd)
	}
	// Exchange the kernel-assigned ports as everyone's peer table.
	addrs := make(map[int]string, n)
	for i, nd := range c.nodes {
		addrs[i] = nd.LocalAddr().String()
	}
	for _, nd := range c.nodes {
		if err := nd.SetPeers(addrs); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// Nodes exposes the cluster's members (for counter assertions).
func (c *Cluster) Nodes() []*UDPNode { return c.nodes }

// Run implements simnet.Transport: it starts handlers[i] on node i,
// waits for cluster-wide quiescence, and returns aggregate Stats with
// the same shape the simulator runtimes produce (FinalTime is 0 — a
// socket cluster has no global virtual clock; Dropped counts ingress
// discards: CRC damage, decode failures, unknown senders).
//
// Unlike the Runner there is no omniscient "event queue empty"
// condition on a real network, so termination is the quiescence
// heuristic documented on UDPNode.Quiet. Protocol stacks that ride a
// lossy wire should include the reliable layer, whose deferred Halt
// makes "every node halted" a genuine all-frames-acknowledged
// certificate. On timeout Run returns the stats gathered so far and an
// error naming the stuck nodes, mirroring GoRunner's deadline error.
func (c *Cluster) Run(handlers []simnet.Handler) (simnet.Stats, error) {
	if len(handlers) != len(c.nodes) {
		return simnet.Stats{}, fmt.Errorf("transport: %d handlers for %d nodes", len(handlers), len(c.nodes))
	}
	for i, nd := range c.nodes {
		nd.Start(handlers[i])
	}

	deadline := time.Now().Add(c.cfg.timeout())
	var timedOut bool
	for {
		quiet := true
		for _, nd := range c.nodes {
			if !nd.Quiet(clusterIdleWindow) {
				quiet = false
				break
			}
		}
		if quiet {
			break
		}
		if time.Now().After(deadline) {
			timedOut = true
			break
		}
		time.Sleep(time.Millisecond)
	}

	// Close before reading stats: stopping every goroutine both
	// quiesces the counters and establishes the happens-before edge
	// that makes the unlocked sentByKind maps safe to read.
	var stuck []string
	if timedOut {
		for _, nd := range c.nodes {
			if !nd.Quiet(clusterIdleWindow) {
				stuck = append(stuck, nd.status())
			}
		}
	}
	c.Close()

	stats := simnet.Stats{
		SentByNode:     make([]int, len(c.nodes)),
		ReceivedByNode: make([]int, len(c.nodes)),
		SentByKind:     make(map[string]int),
	}
	for i, nd := range c.nodes {
		cnt := nd.Counters()
		stats.SentByNode[i] = int(cnt.FramesSent)
		stats.ReceivedByNode[i] = int(cnt.FramesDelivered)
		stats.Deliveries += int(cnt.FramesDelivered)
		stats.TimersFired += int(cnt.TimersFired)
		stats.Dropped += int(cnt.Dropped)
		for k, v := range nd.sentByKind {
			stats.SentByKind[k] += v
		}
	}
	if timedOut {
		return stats, fmt.Errorf("transport: cluster not quiescent after %v: %s",
			c.cfg.timeout(), strings.Join(stuck, "; "))
	}
	return stats, nil
}

// Close shuts every node down. Idempotent.
func (c *Cluster) Close() {
	for _, nd := range c.nodes {
		nd.Close()
	}
}
