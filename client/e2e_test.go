// End-to-end tests: a real multi-process-shaped deployment — three core
// nodes exchanging replica traffic over loopback UDP, each fronted by a
// session server — driven purely through the public client API.
package client_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"kite"
	"kite/client"
	"kite/internal/proto"
	"kite/internal/testcluster"
)

// reservePorts grabs n free loopback UDP ports. The sockets are closed
// before use, so a clashing process could steal one — fine for tests.
func reservePorts(t *testing.T, n int) []int {
	t.Helper()
	ports := make([]int, n)
	conns := make([]*net.UDPConn, n)
	for i := range ports {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
		ports[i] = c.LocalAddr().(*net.UDPAddr).Port
	}
	for _, c := range conns {
		c.Close()
	}
	return ports
}

type cluster struct{ *testcluster.Cluster }

// addr returns node i's client-facing address.
func (cl *cluster) addr(i int) string { return cl.Addr(i) }

// startCluster brings up n replicas over loopback UDP, each with a session
// server on an ephemeral port (shared harness: internal/testcluster).
func startCluster(t *testing.T, n int) *cluster {
	t.Helper()
	return &cluster{testcluster.Start(t, n)}
}

func testOpts() client.Options {
	return client.Options{
		DialTimeout:   2 * time.Second,
		OpTimeout:     15 * time.Second,
		RetryInterval: 25 * time.Millisecond,
	}
}

// TestE2EProducerConsumer runs the DRF handoff pattern across processes'
// worth of machinery: producer writes on node 0, signals with a release;
// consumer acquires the flag on node 1 and must observe every prior write.
func TestE2EProducerConsumer(t *testing.T) {
	cl := startCluster(t, 3)

	prodC, err := client.Dial(cl.addr(0), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer prodC.Close()
	consC, err := client.Dial(cl.addr(1), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer consC.Close()

	prod, err := prodC.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	cons, err := consC.NewSession()
	if err != nil {
		t.Fatal(err)
	}

	const nKeys = 20
	const flagKey = 10_000
	for i := uint64(0); i < nKeys; i++ {
		if err := prod.Write(100+i, []byte(fmt.Sprintf("data-%d", i))); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if err := prod.ReleaseWrite(flagKey, []byte("ready")); err != nil {
		t.Fatalf("release: %v", err)
	}

	// The release is visible once written; the consumer spins on acquire.
	deadline := time.Now().Add(20 * time.Second)
	for {
		v, err := cons.AcquireRead(flagKey)
		if err != nil {
			t.Fatalf("acquire: %v", err)
		}
		if string(v) == "ready" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("flag never became visible (last %q)", v)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Release consistency: after the acquire reads the release, every
	// prior write of the producer must be visible to relaxed reads here.
	for i := uint64(0); i < nKeys; i++ {
		v, err := cons.Read(100 + i)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if want := fmt.Sprintf("data-%d", i); string(v) != want {
			t.Fatalf("read key %d = %q, want %q", 100+i, v, want)
		}
	}
}

// TestE2EFAA checks RMW atomicity across client sessions on different
// nodes: concurrent FAAs must return distinct old values covering exactly
// the range, and the counter must end at the sum.
func TestE2EFAA(t *testing.T) {
	cl := startCluster(t, 3)
	const perSession = 10
	const counterKey = 777

	var mu sync.Mutex
	olds := map[uint64]bool{}
	var wg sync.WaitGroup
	for n := 0; n < 2; n++ {
		c, err := client.Dial(cl.addr(n), testOpts())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		s, err := c.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(s *client.Session) {
			defer wg.Done()
			for i := 0; i < perSession; i++ {
				old, err := s.FAA(counterKey, 1)
				if err != nil {
					t.Errorf("faa: %v", err)
					return
				}
				mu.Lock()
				if olds[old] {
					t.Errorf("duplicate FAA old value %d", old)
				}
				olds[old] = true
				mu.Unlock()
			}
		}(s)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i := uint64(0); i < 2*perSession; i++ {
		if !olds[i] {
			t.Fatalf("FAA old value %d missing (got %v)", i, olds)
		}
	}
	// Verify the final count from a third node.
	c, err := client.Dial(cl.addr(2), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	old, err := s.FAA(counterKey, 0)
	if err != nil {
		t.Fatal(err)
	}
	if old != 2*perSession {
		t.Fatalf("final counter = %d, want %d", old, 2*perSession)
	}
}

// TestE2EAsyncPipeline drives the async API: a burst of pipelined writes
// then an async read-back, all completing in order.
func TestE2EAsyncPipeline(t *testing.T) {
	cl := startCluster(t, 3)
	c, err := client.Dial(cl.addr(0), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.NewSession()
	if err != nil {
		t.Fatal(err)
	}

	const n = 50
	errs := make(chan error, n+1)
	for i := uint64(0); i < n; i++ {
		s.DoAsync(kite.WriteOp(i, []byte{byte(i)}), func(r client.Result) { errs <- r.Err })
	}
	done := make(chan client.Result, 1)
	s.DoAsync(kite.FAAOp(999, 3), func(r client.Result) { done <- r })
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("async write: %v", err)
		}
	}
	r := <-done
	if r.Err != nil || client.DecodeUint64(r.Value) != 0 {
		t.Fatalf("async faa: %+v", r)
	}
	v, err := s.Read(n - 1)
	if err != nil || len(v) != 1 || v[0] != n-1 {
		t.Fatalf("read-back: %q, %v", v, err)
	}
}

// TestE2EDoBatchSingleFrame: DoBatch packs many ops into one request
// datagram (>= 2 ops per frame — the single-round-trip win), executes them
// in session order, and returns index-aligned results.
func TestE2EDoBatchSingleFrame(t *testing.T) {
	cl := startCluster(t, 3)
	c, err := client.Dial(cl.addr(0), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.NewSession()
	if err != nil {
		t.Fatal(err)
	}

	ops := []kite.Op{
		kite.WriteOp(1, []byte("a")),
		kite.WriteOp(2, []byte("b")),
		kite.FAAOp(3, 5),
		kite.ReadOp(1),
		kite.FAAOp(3, 5),
	}
	results, err := s.DoBatch(context.Background(), ops)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(results) != len(ops) {
		t.Fatalf("got %d results, want %d", len(results), len(ops))
	}
	if got := client.DecodeUint64(results[2].Value); got != 0 {
		t.Fatalf("first faa old = %d, want 0", got)
	}
	if string(results[3].Value) != "a" {
		t.Fatalf("batched read = %q, want %q", results[3].Value, "a")
	}
	if got := client.DecodeUint64(results[4].Value); got != 5 {
		t.Fatalf("second faa old = %d, want 5 (batch order violated)", got)
	}
	// The whole batch left the client as ONE datagram: the server counted
	// all 5 ops as batched arrivals. A retransmission of the frame (lost
	// reply, scheduling stall) re-counts the same 5, so assert a whole
	// multiple rather than an exact count.
	got := cl.Servers[0].Stats().BatchedOps.Load()
	if got < uint64(len(ops)) || got%uint64(len(ops)) != 0 {
		t.Fatalf("BatchedOps = %d, want a positive multiple of %d (batch split into single-op frames?)", got, len(ops))
	}
	// Exactly-once even with retransmissions possible: the counter holds.
	if old, err := s.FAA(3, 0); err != nil || old != 10 {
		t.Fatalf("counter = %d, %v; want 10", old, err)
	}
}

// TestE2EDialErrors: dialling a dead address fails fast instead of hanging.
func TestE2EDialErrors(t *testing.T) {
	port := reservePorts(t, 1)[0]
	opts := testOpts()
	opts.DialTimeout = 400 * time.Millisecond
	_, err := client.Dial(fmt.Sprintf("127.0.0.1:%d", port), opts)
	if err == nil {
		t.Fatal("dial to dead port succeeded")
	}
	if !errors.Is(err, client.ErrTimeout) {
		t.Fatalf("dial error = %v, want ErrTimeout", err)
	}
}

// lossyProxy forwards datagrams between a client and a server, simulating
// loss on the lossy link to force the client's retransmission path: it
// drops the next drops server->client datagrams that carry a data reply,
// and, when every > 0, every every-th datagram in each direction whole —
// all the frames it carries.
type lossyProxy struct {
	front *net.UDPConn // client talks to this
	back  *net.UDPConn // proxy talks to the server through this
	mu    sync.Mutex
	drops int // data-reply datagrams still to drop
	every int // drop every every-th datagram per direction (0: off)
	// Per-direction datagram counts, and the dropped datagrams that carried
	// more than one frame.
	fwd, rev, droppedTrains int
}

// dropNth decides whether the n-th datagram of a direction (1-based) falls
// to the every-th rule, counting dropped multi-frame trains. Caller holds mu.
func (p *lossyProxy) dropNth(n int, dgram []byte, frameLen func([]byte) (int, error)) bool {
	if p.every <= 0 || n%p.every != 0 {
		return false
	}
	frames := 0
	for len(dgram) > 0 {
		_, rest, err := proto.NextFrame(dgram, frameLen)
		if err != nil {
			break
		}
		dgram = rest
		frames++
	}
	if frames > 1 {
		p.droppedTrains++
	}
	return true
}

func newLossyProxy(t *testing.T, serverAddr string, drops int) *lossyProxy {
	t.Helper()
	sa, err := net.ResolveUDPAddr("udp", serverAddr)
	if err != nil {
		t.Fatal(err)
	}
	front, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	back, err := net.DialUDP("udp", nil, sa)
	if err != nil {
		t.Fatal(err)
	}
	p := &lossyProxy{front: front, back: back, drops: drops}
	t.Cleanup(func() { front.Close(); back.Close() })

	var clientAddr net.Addr
	var camu sync.Mutex
	go func() { // client -> server
		buf := make([]byte, 2048)
		for {
			n, ca, err := front.ReadFromUDP(buf)
			if err != nil {
				return
			}
			camu.Lock()
			clientAddr = ca
			camu.Unlock()
			p.mu.Lock()
			p.fwd++
			drop := p.dropNth(p.fwd, buf[:n], proto.RequestFrameLen)
			p.mu.Unlock()
			if !drop {
				back.Write(buf[:n])
			}
		}
	}()
	go func() { // server -> client
		buf := make([]byte, 2048)
		for {
			n, err := back.Read(buf)
			if err != nil {
				return
			}
			var rep proto.ClientReply
			isData := rep.Unmarshal(buf[:n]) == nil && rep.Flags&proto.ClientFlagControl == 0
			p.mu.Lock()
			p.rev++
			drop := isData && p.drops > 0
			if drop {
				p.drops--
			}
			drop = p.dropNth(p.rev, buf[:n], proto.ReplyFrameLen) || drop
			p.mu.Unlock()
			if drop {
				continue
			}
			camu.Lock()
			ca := clientAddr
			camu.Unlock()
			if ca != nil {
				front.WriteTo(buf[:n], ca)
			}
		}
	}()
	return p
}

func (p *lossyProxy) addr() string { return p.front.LocalAddr().String() }

// TestE2EDroppedRepliesRetry: the first replies to a FAA are lost in the
// network; the client's retransmissions must complete the op, and the
// server's dedup must keep it exactly-once.
func TestE2EDroppedRepliesRetry(t *testing.T) {
	cl := startCluster(t, 3)
	proxy := newLossyProxy(t, cl.addr(0), 3)

	opts := testOpts()
	opts.RetryInterval = 30 * time.Millisecond
	c, err := client.Dial(proxy.addr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.NewSession()
	if err != nil {
		t.Fatal(err)
	}

	old, err := s.FAA(42, 5)
	if err != nil {
		t.Fatalf("faa through lossy link: %v", err)
	}
	if old != 0 {
		t.Fatalf("faa old = %d, want 0", old)
	}
	// Exactly-once: despite >= 4 transmissions, the counter moved once.
	old, err = s.FAA(42, 0)
	if err != nil {
		t.Fatal(err)
	}
	if old != 5 {
		t.Fatalf("counter = %d after retried FAA, want 5", old)
	}
	if cl.Servers[0].Stats().Retransmits.Load() == 0 {
		t.Fatal("server saw no retransmits — proxy dropped nothing?")
	}
}

// TestE2ELostTrainsExactlyOnce pipelines FAAs from 8 sessions of one client
// through a link that drops every 5th datagram whole in both directions.
// The sessions share datagrams, so a drop loses several sessions' requests
// or replies at once; retransmission must recover every one of them
// without losing or double-applying any: every op completes exactly once,
// with distinct old values, and the counter ends at the sum of the deltas.
func TestE2ELostTrainsExactlyOnce(t *testing.T) {
	cl := startCluster(t, 3)
	proxy := newLossyProxy(t, cl.addr(0), 0)
	proxy.mu.Lock()
	proxy.every = 5
	proxy.mu.Unlock()

	c, err := client.Dial(proxy.addr(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const sessions, perSession, counterKey = 8, 40, 4242
	ss := make([]*client.Session, sessions)
	for i := range ss {
		if ss[i], err = c.NewSession(); err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
	}
	var (
		mu    sync.Mutex
		calls [sessions][perSession]int
		olds  = map[uint64]bool{}
		sum   uint64
		wg    sync.WaitGroup
	)
	for i := 0; i < perSession; i++ {
		for si, s := range ss {
			delta := uint64(si*perSession + i + 1)
			wg.Add(1)
			s.DoAsync(kite.FAAOp(counterKey, delta), func(r client.Result) {
				defer wg.Done()
				mu.Lock()
				defer mu.Unlock()
				calls[si][i]++
				if r.Err != nil {
					t.Errorf("faa session %d op %d: %v", si, i, r.Err)
					return
				}
				old := client.DecodeUint64(r.Value)
				if olds[old] {
					t.Errorf("FAA old value %d seen twice: a frame applied twice", old)
				}
				olds[old] = true
				sum += delta
			})
		}
	}
	wg.Wait()
	for si := range calls {
		for i, n := range calls[si] {
			if n != 1 {
				t.Fatalf("session %d op %d completed %d times, want 1", si, i, n)
			}
		}
	}
	if t.Failed() {
		return
	}
	final, err := ss[0].FAA(counterKey, 0)
	if err != nil {
		t.Fatal(err)
	}
	if final != sum {
		t.Fatalf("counter = %d, want %d (the sum of the acked deltas)", final, sum)
	}
	proxy.mu.Lock()
	trains := proxy.droppedTrains
	proxy.mu.Unlock()
	if trains == 0 {
		t.Fatal("no multi-frame datagram was dropped: the test exercised nothing")
	}
}

// TestE2ENoSpuriousRetransmits: on a loss-free link, a request is not
// resent while its reply can still be on its way — N async ops reach the
// server as exactly N request frames. The window stays full across
// several retry ticks, each of which used to resend every op in flight.
func TestE2ENoSpuriousRetransmits(t *testing.T) {
	cl := startCluster(t, 3)
	opts := testOpts()
	opts.RetryInterval = 400 * time.Millisecond
	c, err := client.Dial(cl.addr(0), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	st := cl.Servers[0].Stats()
	before := st.Requests.Load()
	var wg sync.WaitGroup
	n := 0
	for end := time.Now().Add(3 * opts.RetryInterval); time.Now().Before(end); n++ {
		wg.Add(1)
		s.DoAsync(kite.WriteOp(uint64(n%64), []byte{byte(n)}), func(r client.Result) {
			defer wg.Done()
			if r.Err != nil {
				t.Errorf("write: %v", r.Err)
			}
		})
	}
	wg.Wait()
	if got := st.Requests.Load() - before; got != uint64(n) {
		t.Fatalf("%d async ops arrived as %d request frames, want %d", n, got, n)
	}
}

// TestE2EOversizedValue: an oversized payload is rejected client-side
// without consuming a sequence number, so the session keeps working (a
// swallowed seq would wedge the server's in-order submission forever).
func TestE2EOversizedValue(t *testing.T) {
	cl := startCluster(t, 3)
	c, err := client.Dial(cl.addr(0), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(1, make([]byte, client.MaxValueLen+1)); !errors.Is(err, client.ErrValueTooLong) {
		t.Fatalf("oversized write: %v, want ErrValueTooLong", err)
	}
	if _, _, err := s.CompareAndSwap(1, make([]byte, 100), []byte("x"), false); !errors.Is(err, client.ErrValueTooLong) {
		t.Fatalf("oversized comparand: %v, want ErrValueTooLong", err)
	}
	if err := s.Write(1, []byte("fits")); err != nil {
		t.Fatalf("write after rejected op: %v", err)
	}
	if v, err := s.Read(1); err != nil || string(v) != "fits" {
		t.Fatalf("read after rejected op: %q, %v", v, err)
	}
}

// TestE2ETimeoutBreaksSession: once an op times out, its seq is lost to
// the server's in-order gate, so the session reports itself broken instead
// of letting every later op time out too.
func TestE2ETimeoutBreaksSession(t *testing.T) {
	cl := startCluster(t, 3)
	proxy := newLossyProxy(t, cl.addr(0), 1_000_000) // drop all data replies

	opts := testOpts()
	opts.OpTimeout = 400 * time.Millisecond
	opts.RetryInterval = 30 * time.Millisecond
	c, err := client.Dial(proxy.addr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.NewSession()
	if err != nil {
		t.Fatal(err)
	}

	if err := s.Write(1, []byte("x")); !errors.Is(err, client.ErrTimeout) {
		t.Fatalf("write through dead link: %v, want ErrTimeout", err)
	}
	// Link heals, but the session is gone: seq 1 will never reach the
	// server, so later ops must fail fast rather than hang.
	proxy.mu.Lock()
	proxy.drops = 0
	proxy.mu.Unlock()
	if err := s.Write(2, []byte("y")); !errors.Is(err, client.ErrSessionBroken) {
		t.Fatalf("write after timeout: %v, want ErrSessionBroken", err)
	}
	// A fresh session on the same client works again.
	s2, err := c.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Write(3, []byte("z")); err != nil {
		t.Fatalf("write on fresh session: %v", err)
	}
}

// TestE2ENodeStopSurfacesErrStopped: stopping the node fails outstanding
// and subsequent client ops with ErrStopped (same error as in-process).
func TestE2ENodeStopSurfacesErrStopped(t *testing.T) {
	cl := startCluster(t, 3)
	c, err := client.Dial(cl.addr(2), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(1, []byte("x")); err != nil {
		t.Fatal(err)
	}

	cl.Nodes[2].Stop()
	if err := s.Write(2, []byte("y")); !errors.Is(err, client.ErrStopped) {
		t.Fatalf("write on stopped node: %v, want ErrStopped", err)
	}
}

// TestE2ESessionLifecycle: leases are finite, close frees them, and an
// expired/foreign session id surfaces ErrSessionExpired.
func TestE2ESessionLifecycle(t *testing.T) {
	cl := startCluster(t, 3)
	c, err := client.Dial(cl.addr(0), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The node has 8 sessions; lease them all, the 9th open must fail.
	sessions := make([]*client.Session, 8)
	for i := range sessions {
		if sessions[i], err = c.NewSession(); err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
	}
	if _, err := c.NewSession(); !errors.Is(err, client.ErrNoCapacity) {
		t.Fatalf("9th open: %v, want ErrNoCapacity", err)
	}
	if err := sessions[0].Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	s, err := c.NewSession()
	if err != nil {
		t.Fatalf("open after close: %v", err)
	}
	if err := s.Write(1, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	// Ops on the closed session hit a dead lease.
	if err := sessions[0].Close(); err != nil {
		t.Fatalf("re-close: %v", err)
	}
	if _, err := sessions[1].Read(1); err != nil {
		t.Fatalf("read on live session: %v", err)
	}
}
