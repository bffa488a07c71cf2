package transport

import (
	"fmt"
	"hash/crc32"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"overlaymatch/internal/metrics"
	"overlaymatch/internal/simnet"
)

// Datagram envelope: [magic uint32][sender uint32][crc32 uint32] then
// one or more concatenated frames. The CRC (IEEE, over the frame bytes)
// is the end-to-end integrity check the reliable layer's recovery story
// assumes: a damaged datagram is dropped whole and retransmission
// restores it, exactly like a simnet.Corrupted verdict under the
// simulator's fault policies.
const (
	datagramMagic  = 0x4F564D31 // "OVM1"
	envelopeLen    = 12
	defaultBudget  = 1200 // coalesced frame bytes per datagram (under common MTUs)
	recvBufferSize = 1 << 16
)

// UDPConfig parameterizes one socket-backed node.
type UDPConfig struct {
	// NodeID is this node's protocol identity in [0, N).
	NodeID int
	// N is the overlay size; sends outside [0, N) panic, like simnet.
	N int
	// Listen is the UDP listen address, e.g. "127.0.0.1:7000" or
	// "127.0.0.1:0" (kernel-assigned port, see LocalAddr).
	Listen string
	// Peers maps node IDs to UDP addresses. It may be set (or extended)
	// after ListenUDP via SetPeers — the loopback cluster binds every
	// socket first, then exchanges the kernel-assigned ports — but must
	// cover every destination before Start.
	Peers map[int]string
	// TimeUnit is the real duration of one virtual time unit for
	// timers (default 1ms, the GoRunner's fixed unit).
	TimeUnit time.Duration
	// CoalesceBytes is the frame-byte budget per datagram: queued
	// frames toward one peer are packed together up to this size
	// (default 1200). A single frame larger than the budget still goes
	// out, alone.
	CoalesceBytes int
}

func (c UDPConfig) timeUnit() time.Duration {
	if c.TimeUnit > 0 {
		return c.TimeUnit
	}
	return time.Millisecond
}

func (c UDPConfig) budget() int {
	if c.CoalesceBytes > 0 {
		return c.CoalesceBytes
	}
	return defaultBudget
}

// UDPCounters is a snapshot of one node's wire accounting. Frames are
// protocol messages (what simnet counts as sends/deliveries);
// datagrams are the socket-level packets they coalesce into.
type UDPCounters struct {
	FramesSent      int64
	FramesDelivered int64
	DatagramsSent   int64
	DatagramsRecv   int64
	BytesSent       int64
	BytesRecv       int64
	TimersFired     int64
	// Dropped counts ingress discards: CRC or envelope damage, decode
	// failures, and frames arriving for an unknown sender.
	Dropped int64
}

// peerLink is the per-peer egress queue its send loop drains: frames
// accumulate while a datagram is on the wire, which is where
// coalescing comes from — a burst toward one peer (a proposal wave, a
// retransmission volley) shares envelopes instead of paying one packet
// per message.
type peerLink struct {
	mu     sync.Mutex
	cond   *sync.Cond
	frames [][]byte
	closed bool
}

func newPeerLink() *peerLink {
	l := &peerLink{}
	l.cond = sync.NewCond(&l.mu)
	return l
}

func (l *peerLink) push(frame []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.frames = append(l.frames, frame)
	l.cond.Signal()
}

// take blocks until frames are queued (returning them all) or the link
// closes (returning nil).
func (l *peerLink) take() [][]byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.frames) == 0 && !l.closed {
		l.cond.Wait()
	}
	if len(l.frames) == 0 {
		return nil
	}
	frames := l.frames
	l.frames = nil
	return frames
}

func (l *peerLink) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	l.cond.Broadcast()
}

// UDPNode is one overlay node attached to a real UDP socket. It hosts
// a simnet.Handler on the same simnet.Driver the GoRunner uses — Init
// then sequential HandleMessage calls on one goroutine, timers as
// self-deliveries — but its sends are encoded frames coalesced into
// datagrams, and its deliveries come off the wire. The whole protocol
// stack (lid under reliable under detector) runs on it unchanged.
type UDPNode struct {
	cfg   UDPConfig
	conn  *net.UDPConn
	peers map[int]*net.UDPAddr

	drv *simnet.Driver

	linkMu sync.Mutex
	links  map[int]*peerLink

	wg      sync.WaitGroup
	started bool
	closed  atomic.Bool

	lastActivity atomic.Int64 // UnixNano of the most recent wire or handler event

	framesSent      atomic.Int64
	framesDelivered atomic.Int64
	datagramsSent   atomic.Int64
	datagramsRecv   atomic.Int64
	bytesSent       atomic.Int64
	bytesRecv       atomic.Int64
	timersFired     atomic.Int64
	dropped         atomic.Int64

	// sentByKind is only touched on the delivery goroutine (Send
	// happens inside handler calls), so it needs no lock; it is read
	// after the node is stopped.
	sentByKind map[string]int
}

// ListenUDP binds cfg.Listen and returns the node, not yet started.
func ListenUDP(cfg UDPConfig) (*UDPNode, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("transport: node count %d must be positive", cfg.N)
	}
	if cfg.NodeID < 0 || cfg.NodeID >= cfg.N {
		return nil, fmt.Errorf("transport: node ID %d outside [0,%d)", cfg.NodeID, cfg.N)
	}
	if cfg.Listen == "" {
		return nil, fmt.Errorf("transport: empty listen address")
	}
	laddr, err := net.ResolveUDPAddr("udp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %q: %v", cfg.Listen, err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %q: %v", cfg.Listen, err)
	}
	// A generous kernel buffer: a proposal wave at n=32+ bursts many
	// datagrams at one socket, and every loss costs a retransmission
	// round trip. Best effort — some systems clamp it.
	_ = conn.SetReadBuffer(1 << 20)
	nd := &UDPNode{
		cfg:        cfg,
		conn:       conn,
		peers:      make(map[int]*net.UDPAddr),
		links:      make(map[int]*peerLink),
		sentByKind: make(map[string]int),
	}
	nd.drv = simnet.NewDriver(cfg.NodeID, cfg.timeUnit(), nil, nd.send, nd.observe)
	nd.touch()
	if err := nd.SetPeers(cfg.Peers); err != nil {
		conn.Close()
		return nil, err
	}
	return nd, nil
}

// LocalAddr returns the bound socket address (resolving ":0" listens).
func (nd *UDPNode) LocalAddr() *net.UDPAddr { return nd.conn.LocalAddr().(*net.UDPAddr) }

// SetPeers resolves and installs id -> address routes (adding to any
// set at ListenUDP). An entry for the node itself is allowed and
// ignored. Call before Start.
func (nd *UDPNode) SetPeers(peers map[int]string) error {
	for id, addr := range peers {
		if id < 0 || id >= nd.cfg.N {
			return fmt.Errorf("transport: peer ID %d outside [0,%d)", id, nd.cfg.N)
		}
		if id == nd.cfg.NodeID {
			continue
		}
		ua, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			return fmt.Errorf("transport: peer %d address %q: %v", id, addr, err)
		}
		nd.peers[id] = ua
	}
	return nil
}

// touch records wire or handler activity for the quiescence detector.
func (nd *UDPNode) touch() { nd.lastActivity.Store(time.Now().UnixNano()) }

// send is the driver's egress: encode the frame and queue it on the
// peer's send loop.
func (nd *UDPNode) send(_, to int, msg simnet.Message) {
	if to < 0 || to >= nd.cfg.N {
		panic(fmt.Sprintf("transport: send to %d outside [0,%d)", to, nd.cfg.N))
	}
	frame, err := EncodeFrame(msg)
	if err != nil {
		// An unregistered message type is a wiring bug (the simulator
		// would have carried it silently; the wire cannot) — fail at
		// the send site where the stack trace names the protocol.
		panic(fmt.Sprintf("transport: node %d sending %T: %v", nd.cfg.NodeID, msg, err))
	}
	nd.framesSent.Add(1)
	nd.sentByKind[simnet.KindOf(msg)]++
	nd.link(to).push(frame)
}

// observe is the driver's hook: finished deliveries and timers count
// and are activity for the quiescence detector. The driver calls it
// before it releases the call's pending count, so Quiet never sees a
// finished call as idle time.
func (nd *UDPNode) observe(_ int, ev simnet.DriverEvent) {
	switch ev {
	case simnet.EventDelivery:
		nd.framesDelivered.Add(1)
	case simnet.EventTimer:
		nd.timersFired.Add(1)
	default:
		return
	}
	nd.touch()
}

// link returns (creating on first use) the egress queue toward peer
// and its send loop.
func (nd *UDPNode) link(to int) *peerLink {
	nd.linkMu.Lock()
	defer nd.linkMu.Unlock()
	l, ok := nd.links[to]
	if !ok {
		addr, known := nd.peers[to]
		if !known {
			panic(fmt.Sprintf("transport: node %d has no address for peer %d", nd.cfg.NodeID, to))
		}
		l = newPeerLink()
		nd.links[to] = l
		nd.wg.Add(1)
		go nd.sendLoop(l, addr)
	}
	return l
}

// sendLoop drains one peer's egress queue, coalescing queued frames
// into enveloped datagrams up to the byte budget.
func (nd *UDPNode) sendLoop(l *peerLink, addr *net.UDPAddr) {
	defer nd.wg.Done()
	budget := nd.cfg.budget()
	buf := make([]byte, 0, envelopeLen+budget)
	for {
		frames := l.take()
		if frames == nil {
			return
		}
		i := 0
		for i < len(frames) {
			buf = buf[:0]
			magic := uint32(datagramMagic)
			sender := uint32(nd.cfg.NodeID)
			buf = append(buf,
				byte(magic>>24), byte(magic>>16), byte(magic>>8), byte(magic),
				byte(sender>>24), byte(sender>>16), byte(sender>>8), byte(sender),
				0, 0, 0, 0) // CRC patched below
			// At least one frame per datagram; more while they fit.
			for i < len(frames) && (len(buf) == envelopeLen || len(buf)+len(frames[i]) <= envelopeLen+budget) {
				buf = append(buf, frames[i]...)
				i++
			}
			crc := crc32.ChecksumIEEE(buf[envelopeLen:])
			buf[8], buf[9], buf[10], buf[11] = byte(crc>>24), byte(crc>>16), byte(crc>>8), byte(crc)
			if _, err := nd.conn.WriteToUDP(buf, addr); err != nil {
				if nd.closed.Load() {
					return
				}
				nd.dropped.Add(1)
				continue
			}
			nd.datagramsSent.Add(1)
			nd.bytesSent.Add(int64(len(buf)))
			nd.touch()
		}
	}
}

// readLoop parses incoming datagrams into frame deliveries.
func (nd *UDPNode) readLoop() {
	defer nd.wg.Done()
	buf := make([]byte, recvBufferSize)
	for {
		n, _, err := nd.conn.ReadFromUDP(buf)
		if err != nil {
			return // socket closed
		}
		nd.touch()
		nd.datagramsRecv.Add(1)
		nd.bytesRecv.Add(int64(n))
		data := buf[:n]
		if len(data) < envelopeLen ||
			uint32(data[0])<<24|uint32(data[1])<<16|uint32(data[2])<<8|uint32(data[3]) != datagramMagic {
			nd.dropped.Add(1)
			continue
		}
		from := int(uint32(data[4])<<24 | uint32(data[5])<<16 | uint32(data[6])<<8 | uint32(data[7]))
		crc := uint32(data[8])<<24 | uint32(data[9])<<16 | uint32(data[10])<<8 | uint32(data[11])
		if from < 0 || from >= nd.cfg.N || from == nd.cfg.NodeID {
			nd.dropped.Add(1)
			continue
		}
		if crc32.ChecksumIEEE(data[envelopeLen:]) != crc {
			// Damaged in transit: drop the whole datagram. The reliable
			// layer's retransmission recovers, exactly as it does from a
			// simulated corrupt verdict.
			nd.dropped.Add(1)
			continue
		}
		rest := data[envelopeLen:]
		for len(rest) > 0 {
			msg, consumed, err := DecodeFrame(rest)
			if err != nil {
				// One bad frame poisons the remainder (lengths can no
				// longer be trusted); count and discard.
				nd.dropped.Add(1)
				break
			}
			rest = rest[consumed:]
			nd.drv.Push(from, msg, 0)
		}
	}
}

// Start attaches the handler and begins delivery: Init runs first on
// the driver's delivery goroutine, then arriving frames and timers, one
// at a time, until Close — the same per-node sequentiality contract the
// simulator runtimes guarantee.
func (nd *UDPNode) Start(h simnet.Handler) {
	if nd.started {
		panic("transport: UDPNode started twice")
	}
	nd.started = true
	nd.wg.Add(1)
	go nd.readLoop()
	nd.drv.Start(h)
}

// Quiet reports whether the node is locally quiescent: handler halted,
// no queued delivery, no pending timer, no handler call in progress,
// and no wire or handler activity for the given window. On a real
// network this is necessarily a heuristic — a datagram can always
// still be in flight — but with the reliable layer active, "halted"
// already certifies every frame this node sent was acknowledged, so
// the window only needs to cover residual peer traffic (duplicate
// acks, trailing heartbeats).
func (nd *UDPNode) Quiet(window time.Duration) bool {
	if !nd.drv.Halted() || nd.drv.Pending() > 0 {
		return false
	}
	last := time.Unix(0, nd.lastActivity.Load())
	return time.Since(last) >= window
}

// status describes the node's termination state for error messages.
func (nd *UDPNode) status() string {
	return fmt.Sprintf("node %d (halted=%v pending=%d)", nd.cfg.NodeID, nd.drv.Halted(), nd.drv.Pending())
}

// AwaitQuiescence blocks until Quiet(window) holds or the timeout
// expires (error). The standalone-binary form of Cluster.Run's
// termination wait.
func (nd *UDPNode) AwaitQuiescence(timeout, window time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if nd.Quiet(window) {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("transport: %s not quiescent after %v", nd.status(), timeout)
}

// Close stops the node: the socket closes (ending the read loop), the
// driver stops after the handler call in progress, and the send loops
// exit. Close is idempotent and safe to call after a failed Await.
func (nd *UDPNode) Close() {
	if nd.closed.Swap(true) {
		return
	}
	nd.conn.Close()
	// The handler is the only caller of link, so no send loop starts
	// once the driver has stopped.
	nd.drv.Stop()
	nd.linkMu.Lock()
	for _, l := range nd.links {
		l.close()
	}
	nd.linkMu.Unlock()
	nd.wg.Wait()
}

// Counters snapshots the node's wire accounting.
func (nd *UDPNode) Counters() UDPCounters {
	return UDPCounters{
		FramesSent:      nd.framesSent.Load(),
		FramesDelivered: nd.framesDelivered.Load(),
		DatagramsSent:   nd.datagramsSent.Load(),
		DatagramsRecv:   nd.datagramsRecv.Load(),
		BytesSent:       nd.bytesSent.Load(),
		BytesRecv:       nd.bytesRecv.Load(),
		TimersFired:     nd.timersFired.Load(),
		Dropped:         nd.dropped.Load(),
	}
}

// PublishMetrics adds the node's wire counters to reg with the node ID
// as a label value, mirroring the publish pattern of the protocol
// layers. Nil-safe. Call after the node is closed.
func (nd *UDPNode) PublishMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	c := nd.Counters()
	reg.Counter("transport_frames_sent_total", "protocol frames encoded and queued").Add(c.FramesSent)
	reg.Counter("transport_frames_delivered_total", "frames decoded and delivered").Add(c.FramesDelivered)
	reg.Counter("transport_datagrams_sent_total", "UDP datagrams written").Add(c.DatagramsSent)
	reg.Counter("transport_datagrams_recv_total", "UDP datagrams read").Add(c.DatagramsRecv)
	reg.Counter("transport_bytes_sent_total", "UDP payload bytes written, envelopes included").Add(c.BytesSent)
	reg.Counter("transport_bytes_recv_total", "UDP payload bytes read, envelopes included").Add(c.BytesRecv)
	reg.Counter("transport_dropped_total", "ingress discards (CRC, decode, unknown sender)").Add(c.Dropped)
	kinds := make([]string, 0, len(nd.sentByKind))
	for k := range nd.sentByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fam := reg.Family("transport_sent_by_kind", "frames sent by protocol kind", "kind")
	for _, k := range kinds {
		fam.With(k).Add(int64(nd.sentByKind[k]))
	}
}
