package server

import (
	"bytes"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kite/internal/core"
	"kite/internal/proto"
	"kite/internal/transport"
)

// startNode runs a single-replica deployment (quorum 1: every op completes
// against the local store) with a session server, returning both plus a
// cleanup.
func startNode(t *testing.T, cfg Config) (*core.Node, *Server) {
	t.Helper()
	tr := transport.NewInProc(1, 1, 0)
	nd, err := core.NewNode(0, core.Config{
		Nodes: 1, Workers: 1, SessionsPerWorker: 4, KVSCapacity: 1 << 10,
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	nd.Start()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	srv, err := New(nd, cfg)
	if err != nil {
		nd.Stop()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		nd.Stop()
		tr.Close()
	})
	return nd, srv
}

// rawClient is a frame-level test client: no retries, no demux — it sends
// exactly the datagrams the test specifies and reads raw replies. A reply
// datagram may carry several frames; recv splits it and queues the rest.
type rawClient struct {
	t       *testing.T
	conn    *net.UDPConn
	ctrlSeq uint64
	queued  []proto.ClientReply // frames of the last datagram not yet returned
}

func dialRaw(t *testing.T, addr string) *rawClient {
	t.Helper()
	ra, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialUDP("udp", nil, ra)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawClient{t: t, conn: conn}
}

func (rc *rawClient) send(req proto.ClientRequest) {
	rc.t.Helper()
	frame, err := req.AppendMarshal(nil)
	if err != nil {
		rc.t.Fatal(err)
	}
	if _, err := rc.conn.Write(frame); err != nil {
		rc.t.Fatal(err)
	}
}

// sendTrain sends frames (marshalled requests and batches) back to back in
// one datagram.
func (rc *rawClient) sendTrain(frames ...[]byte) {
	rc.t.Helper()
	if _, err := rc.conn.Write(bytes.Join(frames, nil)); err != nil {
		rc.t.Fatal(err)
	}
}

func (rc *rawClient) recv() proto.ClientReply {
	rc.t.Helper()
	if len(rc.queued) == 0 {
		rc.queued = rc.recvDatagram()
	}
	rep := rc.queued[0]
	rc.queued = rc.queued[1:]
	return rep
}

// recvDatagram reads one reply datagram and returns all of its frames.
func (rc *rawClient) recvDatagram() []proto.ClientReply {
	rc.t.Helper()
	buf := make([]byte, 2048)
	rc.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := rc.conn.Read(buf)
	if err != nil {
		rc.t.Fatalf("no reply: %v", err)
	}
	var reps []proto.ClientReply
	for dgram := buf[:n]; len(dgram) > 0; {
		frame, rest, err := proto.NextFrame(dgram, proto.ReplyFrameLen)
		if err != nil {
			rc.t.Fatalf("reply train: %v", err)
		}
		dgram = rest
		var rep proto.ClientReply
		if err := rep.Unmarshal(frame); err != nil {
			rc.t.Fatal(err)
		}
		rep.Value = append([]byte(nil), rep.Value...)
		reps = append(reps, rep)
	}
	return reps
}

// open leases a session. Each open uses a fresh control seq — the server
// dedupes retransmitted opens by (addr, seq).
func (rc *rawClient) open() uint32 {
	rc.t.Helper()
	rc.ctrlSeq++
	rc.send(proto.ClientRequest{Op: proto.ClientOpOpen, Seq: rc.ctrlSeq})
	rep := rc.recv()
	if rep.Status != proto.ClientOK || rep.Sess == 0 {
		rc.t.Fatalf("open: %+v", rep)
	}
	return rep.Sess
}

func TestServerPingOpenRoundTrip(t *testing.T) {
	_, srv := startNode(t, Config{})
	rc := dialRaw(t, srv.Addr())

	rc.send(proto.ClientRequest{Op: proto.ClientOpPing, Seq: 7})
	rep := rc.recv()
	if rep.Status != proto.ClientOK || rep.Seq != 7 || rep.Flags&proto.ClientFlagControl == 0 {
		t.Fatalf("ping reply: %+v", rep)
	}

	sess := rc.open()
	// Write then read back through the leased session.
	rc.send(proto.ClientRequest{Op: proto.ClientOpWrite, Sess: sess, Seq: 1, Key: 5, Value: []byte("v")})
	if rep := rc.recv(); rep.Status != proto.ClientOK || rep.Seq != 1 {
		t.Fatalf("write reply: %+v", rep)
	}
	rc.send(proto.ClientRequest{Op: proto.ClientOpRead, Sess: sess, Seq: 2, Key: 5})
	if rep := rc.recv(); rep.Status != proto.ClientOK || string(rep.Value) != "v" {
		t.Fatalf("read reply: %+v", rep)
	}
}

func TestServerDedupesRetransmits(t *testing.T) {
	_, srv := startNode(t, Config{})
	rc := dialRaw(t, srv.Addr())
	sess := rc.open()

	// The same FAA sent three times must execute once: every reply reports
	// the same old value, and the counter advances by one delta only.
	for i := 0; i < 3; i++ {
		rc.send(proto.ClientRequest{Op: proto.ClientOpFAA, Sess: sess, Seq: 1, Key: 9, Delta: 10})
		rep := rc.recv()
		if rep.Status != proto.ClientOK || core.DecodeUint64(rep.Value) != 0 {
			t.Fatalf("faa retransmit %d: %+v", i, rep)
		}
	}
	if got := srv.Stats().Retransmits.Load(); got != 2 {
		t.Fatalf("Retransmits = %d, want 2", got)
	}
	rc.send(proto.ClientRequest{Op: proto.ClientOpFAA, Sess: sess, Seq: 2, Key: 9, Delta: 0})
	if rep := rc.recv(); core.DecodeUint64(rep.Value) != 10 {
		t.Fatalf("counter advanced more than once: %d", core.DecodeUint64(rep.Value))
	}
}

func TestServerReordersToSequence(t *testing.T) {
	_, srv := startNode(t, Config{})
	rc := dialRaw(t, srv.Addr())
	sess := rc.open()

	// Seq 2 arrives before seq 1: the server must hold it and execute
	// 1 then 2 — the FAA old values prove the order.
	rc.send(proto.ClientRequest{Op: proto.ClientOpFAA, Sess: sess, Seq: 2, Key: 3, Delta: 100})
	time.Sleep(50 * time.Millisecond) // let it land (and be held)
	rc.send(proto.ClientRequest{Op: proto.ClientOpFAA, Sess: sess, Seq: 1, Key: 3, Delta: 1})

	got := map[uint64]uint64{} // seq -> old value
	for i := 0; i < 2; i++ {
		rep := rc.recv()
		if rep.Status != proto.ClientOK {
			t.Fatalf("reply: %+v", rep)
		}
		got[rep.Seq] = core.DecodeUint64(rep.Value)
	}
	if got[1] != 0 || got[2] != 1 {
		t.Fatalf("execution order wrong: olds=%v (want seq1->0, seq2->1)", got)
	}
	if srv.Stats().Held.Load() == 0 {
		t.Fatal("reordered request was not held")
	}
}

// sendBatch marshals and sends one batch frame — several data ops in a
// single datagram.
func (rc *rawClient) sendBatch(b proto.ClientBatch) {
	rc.t.Helper()
	frame, err := b.AppendMarshal(nil)
	if err != nil {
		rc.t.Fatal(err)
	}
	if _, err := rc.conn.Write(frame); err != nil {
		rc.t.Fatal(err)
	}
}

func TestServerBatchSingleDatagram(t *testing.T) {
	_, srv := startNode(t, Config{})
	rc := dialRaw(t, srv.Addr())
	sess := rc.open()

	// Three ops pipelined in ONE datagram: two writes and an FAA whose old
	// value proves it executed after them in session order.
	rc.sendBatch(proto.ClientBatch{
		Sess: sess, Seq: 1,
		Ops: []proto.BatchOp{
			{Code: proto.ClientOpFAA, Key: 7, Delta: 3},
			{Code: proto.ClientOpWrite, Key: 8, Value: []byte("v8")},
			{Code: proto.ClientOpFAA, Key: 7, Delta: 10},
		},
	})
	olds := map[uint64]uint64{}
	for i := 0; i < 3; i++ {
		rep := rc.recv()
		if rep.Status != proto.ClientOK {
			t.Fatalf("batched op reply: %+v", rep)
		}
		if rep.Seq == 1 || rep.Seq == 3 {
			olds[rep.Seq] = core.DecodeUint64(rep.Value)
		}
	}
	// In-order execution inside the batch: the first FAA saw 0, the second
	// saw the first's delta.
	if olds[1] != 0 || olds[3] != 3 {
		t.Fatalf("batch executed out of order: olds=%v", olds)
	}
	if got := srv.Stats().BatchedOps.Load(); got != 3 {
		t.Fatalf("BatchedOps = %d, want 3 (>= 2 ops in a single datagram)", got)
	}
	// The read-back proves the write landed too.
	rc.send(proto.ClientRequest{Op: proto.ClientOpRead, Sess: sess, Seq: 4, Key: 8})
	if rep := rc.recv(); string(rep.Value) != "v8" {
		t.Fatalf("batched write lost: %+v", rep)
	}
}

func TestServerBatchRetransmitDedupes(t *testing.T) {
	_, srv := startNode(t, Config{})
	rc := dialRaw(t, srv.Addr())
	sess := rc.open()

	b := proto.ClientBatch{
		Sess: sess, Seq: 1,
		Ops: []proto.BatchOp{
			{Code: proto.ClientOpFAA, Key: 5, Delta: 1},
			{Code: proto.ClientOpFAA, Key: 5, Delta: 1},
		},
	}
	// Original plus two retransmissions; each waits for its replies so the
	// retransmits hit the reply cache rather than the still-inflight
	// ignore path. Every reply must answer from the same exactly-once
	// execution: seq 1 -> old 0, seq 2 -> old 1.
	for i := 0; i < 3; i++ {
		rc.sendBatch(b)
		for j := 0; j < 2; j++ {
			rep := rc.recv()
			old := core.DecodeUint64(rep.Value)
			if (rep.Seq == 1 && old != 0) || (rep.Seq == 2 && old != 1) {
				t.Fatalf("retransmitted batch re-executed: seq %d old %d", rep.Seq, old)
			}
		}
	}
	if srv.Stats().Retransmits.Load() != 4 {
		t.Fatalf("Retransmits = %d, want 4", srv.Stats().Retransmits.Load())
	}
	rc.send(proto.ClientRequest{Op: proto.ClientOpFAA, Sess: sess, Seq: 3, Key: 5, Delta: 0})
	if rep := rc.recv(); core.DecodeUint64(rep.Value) != 2 {
		t.Fatalf("counter = %d after retransmitted batch, want 2", core.DecodeUint64(rep.Value))
	}
}

func TestServerBatchReorderedToSequence(t *testing.T) {
	_, srv := startNode(t, Config{})
	rc := dialRaw(t, srv.Addr())
	sess := rc.open()

	// The batch with seqs 2-3 arrives before seq 1: its ops must be held
	// and execute after seq 1, proven by FAA old values.
	rc.sendBatch(proto.ClientBatch{
		Sess: sess, Seq: 2,
		Ops: []proto.BatchOp{
			{Code: proto.ClientOpFAA, Key: 9, Delta: 10},
			{Code: proto.ClientOpFAA, Key: 9, Delta: 100},
		},
	})
	time.Sleep(50 * time.Millisecond)
	rc.send(proto.ClientRequest{Op: proto.ClientOpFAA, Sess: sess, Seq: 1, Key: 9, Delta: 1})

	got := map[uint64]uint64{}
	for i := 0; i < 3; i++ {
		rep := rc.recv()
		got[rep.Seq] = core.DecodeUint64(rep.Value)
	}
	if got[1] != 0 || got[2] != 1 || got[3] != 11 {
		t.Fatalf("execution order wrong: olds=%v (want 1->0, 2->1, 3->11)", got)
	}
	if srv.Stats().Held.Load() == 0 {
		t.Fatal("reordered batch ops were not held")
	}
}

func TestServerSessionErrors(t *testing.T) {
	_, srv := startNode(t, Config{MaxSessions: 2})
	rc := dialRaw(t, srv.Addr())

	// Unknown session.
	rc.send(proto.ClientRequest{Op: proto.ClientOpRead, Sess: 999, Seq: 1, Key: 1})
	if rep := rc.recv(); rep.Status != proto.ClientErrNoSession {
		t.Fatalf("unknown session: %+v", rep)
	}

	// Capacity: two leases succeed, the third is refused, close frees one.
	s1 := rc.open()
	s2 := rc.open()
	rc.send(proto.ClientRequest{Op: proto.ClientOpOpen, Seq: 100})
	if rep := rc.recv(); rep.Status != proto.ClientErrNoCapacity {
		t.Fatalf("over-capacity open: %+v", rep)
	}
	// A retransmitted open must not lease again: same (addr, seq) answers
	// from the open cache with the same id.
	rc.send(proto.ClientRequest{Op: proto.ClientOpOpen, Seq: rc.ctrlSeq})
	if rep := rc.recv(); rep.Status != proto.ClientOK || rep.Sess != s2 {
		t.Fatalf("retransmitted open: %+v, want sess %d", rep, s2)
	}
	rc.send(proto.ClientRequest{Op: proto.ClientOpClose, Sess: s1, Seq: 101})
	if rep := rc.recv(); rep.Status != proto.ClientOK {
		t.Fatalf("close: %+v", rep)
	}
	s3 := rc.open()
	if s3 == s1 {
		t.Fatal("session id reused")
	}
	// The closed lease is gone.
	rc.send(proto.ClientRequest{Op: proto.ClientOpRead, Sess: s1, Seq: 1, Key: 1})
	if rep := rc.recv(); rep.Status != proto.ClientErrNoSession {
		t.Fatalf("closed session still live: %+v", rep)
	}
}

func TestServerLeaseExpiry(t *testing.T) {
	_, srv := startNode(t, Config{LeaseTimeout: 100 * time.Millisecond})
	rc := dialRaw(t, srv.Addr())
	sess := rc.open()

	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Expired.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("lease never expired")
		}
		time.Sleep(20 * time.Millisecond)
	}
	rc.send(proto.ClientRequest{Op: proto.ClientOpRead, Sess: sess, Seq: 1, Key: 1})
	if rep := rc.recv(); rep.Status != proto.ClientErrNoSession {
		t.Fatalf("expired session still live: %+v", rep)
	}
}

func TestServerStoppedNode(t *testing.T) {
	nd, srv := startNode(t, Config{})
	rc := dialRaw(t, srv.Addr())
	sess := rc.open()
	nd.Stop()

	rc.send(proto.ClientRequest{Op: proto.ClientOpWrite, Sess: sess, Seq: 1, Key: 1, Value: []byte("x")})
	if rep := rc.recv(); rep.Status != proto.ClientErrStopped {
		t.Fatalf("op on stopped node: %+v", rep)
	}
}

func TestServerAckPrunesCache(t *testing.T) {
	_, srv := startNode(t, Config{})
	rc := dialRaw(t, srv.Addr())
	sess := rc.open()

	rc.send(proto.ClientRequest{Op: proto.ClientOpWrite, Sess: sess, Seq: 1, Key: 1, Value: []byte("a")})
	rc.recv()
	// Acked=2 tells the server seq 1's reply arrived; its cache entry must
	// go, so a (buggy, never happens with the real client) retransmit of
	// seq 1 is silently ignored rather than re-executed.
	rc.send(proto.ClientRequest{Op: proto.ClientOpWrite, Sess: sess, Seq: 2, Acked: 2, Key: 1, Value: []byte("b")})
	rc.recv()

	cs := srv.lookup(sess)
	cs.mu.Lock()
	_, cached := cs.done[1]
	cs.mu.Unlock()
	if cached {
		t.Fatal("acked reply still cached")
	}
	rc.send(proto.ClientRequest{Op: proto.ClientOpWrite, Sess: sess, Seq: 1, Key: 1, Value: []byte("a")})
	rc.conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	buf := make([]byte, 256)
	if n, _ := rc.conn.Read(buf); n > 0 {
		t.Fatal("stale acked retransmit was answered")
	}
}

// marshal encodes a request or batch frame for sendTrain.
func marshal(t *testing.T, frame interface {
	AppendMarshal([]byte) ([]byte, error)
}) []byte {
	t.Helper()
	b, err := frame.AppendMarshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestServerMultiFrameDatagram: one datagram carrying frames of two
// sessions — a batch frame and a frame that arrives ahead of its seq among
// them — executes every frame, each session in its own seq order. FAA old
// values prove the order.
func TestServerMultiFrameDatagram(t *testing.T) {
	_, srv := startNode(t, Config{})
	rc := dialRaw(t, srv.Addr())
	a, b := rc.open(), rc.open()
	dgramsBefore := srv.Stats().Datagrams.Load()

	rc.sendTrain(
		// Session a's seq 2 comes first in the train: it must be held.
		marshal(t, &proto.ClientRequest{Op: proto.ClientOpFAA, Sess: a, Seq: 2, Key: 1, Delta: 10}),
		marshal(t, &proto.ClientBatch{Sess: b, Seq: 1, Ops: []proto.BatchOp{
			{Code: proto.ClientOpFAA, Key: 2, Delta: 1},
			{Code: proto.ClientOpFAA, Key: 2, Delta: 2},
		}}),
		marshal(t, &proto.ClientRequest{Op: proto.ClientOpFAA, Sess: a, Seq: 1, Key: 1, Delta: 1}),
		marshal(t, &proto.ClientRequest{Op: proto.ClientOpFAA, Sess: b, Seq: 3, Key: 2, Delta: 100}),
	)
	got := map[sessSeq]uint64{} // (sess, seq) -> FAA old value
	for i := 0; i < 5; i++ {
		rep := rc.recv()
		if rep.Status != proto.ClientOK {
			t.Fatalf("reply: %+v", rep)
		}
		got[sessSeq{rep.Sess, rep.Seq}] = core.DecodeUint64(rep.Value)
	}
	want := map[sessSeq]uint64{
		{a, 1}: 0, {a, 2}: 1,
		{b, 1}: 0, {b, 2}: 1, {b, 3}: 3,
	}
	for k, w := range want {
		if v, ok := got[k]; !ok || v != w {
			t.Fatalf("sess %d seq %d: old %d (present %v), want %d; all %v", k.sess, k.seq, v, ok, w, got)
		}
	}
	st := srv.Stats()
	if d := st.Datagrams.Load() - dgramsBefore; d != 1 {
		t.Fatalf("Datagrams grew by %d, want 1", d)
	}
	if st.Held.Load() == 0 {
		t.Fatal("the early frame in the train was not held")
	}
}

type sessSeq struct {
	sess uint32
	seq  uint64
}

// sendStall is a Config.beforeWrite hook: once armed, it holds the reply
// sender's next send until unblock, so a burst of replies can queue behind
// it deterministically.
type sendStall struct {
	armed   atomic.Bool
	held    chan int // receives the held send's frame count
	release chan struct{}
	once    sync.Once
}

func newSendStall() *sendStall {
	return &sendStall{held: make(chan int, 1), release: make(chan struct{})}
}

func (st *sendStall) hook(frames int) {
	if st.armed.CompareAndSwap(true, false) {
		st.held <- frames
		<-st.release
	}
}

// wait returns the held send's frame count.
func (st *sendStall) wait(t *testing.T) int {
	t.Helper()
	select {
	case f := <-st.held:
		return f
	case <-time.After(5 * time.Second):
		t.Fatal("reply sender never sent")
		return 0
	}
}

// unblock lets the held send proceed; idempotent, so tests also defer it
// to free the sender before the server's Close waits for it.
func (st *sendStall) unblock() { st.once.Do(func() { close(st.release) }) }

// TestServerPacksReplies: replies to several sessions of one client share
// datagrams — fewer reply datagrams than reply frames.
func TestServerPacksReplies(t *testing.T) {
	st := newSendStall()
	defer st.unblock()
	_, srv := startNode(t, Config{beforeWrite: st.hook})
	rc := dialRaw(t, srv.Addr())
	const sessions, perSession = 4, 8
	var frames [][]byte
	for i := 0; i < sessions; i++ {
		ops := make([]proto.BatchOp, perSession)
		for j := range ops {
			ops[j] = proto.BatchOp{Code: proto.ClientOpWrite, Key: uint64(i*perSession + j), Value: []byte("v")}
		}
		frames = append(frames, marshal(t, &proto.ClientBatch{Sess: rc.open(), Seq: 1, Ops: ops}))
	}
	// The counters advance once a send returns, which can be just after
	// its replies arrived here; ReplyDatagrams is updated before Replies.
	stats := srv.Stats()
	awaitReplies := func(n uint64) {
		for deadline := time.Now().Add(5 * time.Second); stats.Replies.Load() < n && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	}
	awaitReplies(sessions) // the opens'
	repliesBefore, dgramsBefore := stats.Replies.Load(), stats.ReplyDatagrams.Load()
	// Hold the first send of the burst until every other reply is queued
	// behind it: they then leave in one drain.
	st.armed.Store(true)
	rc.sendTrain(frames...)
	rest := sessions*perSession - st.wait(t)
	for deadline := time.Now().Add(5 * time.Second); len(srv.replyCh) < rest && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	st.unblock()
	for i := 0; i < sessions*perSession; i++ {
		if rep := rc.recv(); rep.Status != proto.ClientOK {
			t.Fatalf("reply: %+v", rep)
		}
	}
	awaitReplies(repliesBefore + sessions*perSession)
	replies := stats.Replies.Load() - repliesBefore
	dgrams := stats.ReplyDatagrams.Load() - dgramsBefore
	if replies != sessions*perSession || dgrams >= replies {
		t.Fatalf("%d replies in %d datagrams, want %d replies in fewer datagrams", replies, dgrams, sessions*perSession)
	}
}

// TestServerCountsFailedSends: reply frames a failed send leaves unsent
// count as DroppedReplies instead of vanishing.
func TestServerCountsFailedSends(t *testing.T) {
	st := newSendStall()
	defer st.unblock()
	_, srv := startNode(t, Config{beforeWrite: st.hook})
	rc := dialRaw(t, srv.Addr())
	st.armed.Store(true)
	rc.send(proto.ClientRequest{Op: proto.ClientOpPing, Seq: 1})
	held := st.wait(t)
	srv.conn.Close() // the socket dies under the held sender
	st.unblock()
	stats := srv.Stats()
	for deadline := time.Now().Add(5 * time.Second); stats.DroppedReplies.Load() < uint64(held) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := stats.DroppedReplies.Load(); held != 1 || got != 1 {
		t.Fatalf("DroppedReplies = %d after a failed send of %d frames, want 1 of 1", got, held)
	}
	if got := stats.Replies.Load(); got != 0 {
		t.Fatalf("Replies = %d, want 0", got)
	}
}

// TestServerLoneReplyDatagram pins the wire format: a lone reply leaves as
// a datagram holding exactly its reply frame.
func TestServerLoneReplyDatagram(t *testing.T) {
	nd, srv := startNode(t, Config{})
	rc := dialRaw(t, srv.Addr())
	rc.send(proto.ClientRequest{Op: proto.ClientOpPing, Seq: 7})
	buf := make([]byte, 2048)
	rc.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := rc.conn.Read(buf)
	if err != nil {
		t.Fatalf("no reply: %v", err)
	}
	v := nd.View()
	want, _ := (&proto.ClientReply{
		Status: proto.ClientOK, Flags: proto.ClientFlagControl, Seq: 7,
		Value: proto.AppendNodeInfo(nil, 0, 0, v.Epoch, v.Members),
	}).AppendMarshal(nil)
	if !bytes.Equal(buf[:n], want) {
		t.Fatalf("lone reply datagram\n got %x\nwant %x", buf[:n], want)
	}
}
