// Package server exposes a Kite node to external processes: it listens on a
// per-node UDP address, leases the node's worker-owned sessions to remote
// clients, and bridges their operations onto the asynchronous Submit/Done
// path of kite/internal/core.
//
// The client link has the same contract as the replica-to-replica transport:
// unreliable datagrams. A datagram carries a train of frames (see
// kite/internal/proto): the server reads requests with recvmmsg, splits each
// datagram into its frames and handles them in order, and packs the replies
// bound for one client address into shared datagrams. Replies flush on
// drain, like the replica transport's datagrams: the sender posts whatever
// is queued in one sendmmsg and never waits for more. Reliability lives at
// the edges — the client library (package kite/client) retransmits requests,
// and the server keeps a per-session cache of completed replies so a
// retransmitted request is answered from the cache instead of re-executed
// (exactly-once per (session, seq)). All of this is per frame: a lost
// datagram simply means its frames are retransmitted. Because datagrams can
// also reorder, the server submits a session's data ops strictly in client
// sequence order, holding back frames that arrive early.
package server

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"kite/internal/core"
	"kite/internal/membership"
	"kite/internal/proto"
	"kite/internal/transport"
)

// Config parameterises a session server.
type Config struct {
	// Addr is the UDP address to listen on (host:port; host:0 picks a
	// port, see Server.Addr).
	Addr string
	// MaxSessions bounds concurrently leased sessions. 0 means every
	// session of the node may be leased.
	MaxSessions int
	// LeaseTimeout expires a leased session after this much client
	// silence, returning it to the pool. 0 means DefaultLeaseTimeout.
	LeaseTimeout time.Duration
	// ReplyDepth bounds the reply queue; overflow drops replies (clients
	// retry). 0 means DefaultReplyDepth.
	ReplyDepth int
	// Groups and Group describe this node's place in a sharded deployment
	// (Group in [0, Groups)): the shard map advertised to clients in the
	// ping reply, so Dial can verify it is talking to the group it thinks
	// it is. Groups == 0 means unsharded (equivalent to 1 group, group 0).
	Groups int
	Group  int

	// beforeWrite, when set, runs on the reply sender with the number of
	// reply frames of each drain just before they are posted — the test
	// hook that stalls a send so a burst of replies can queue behind it.
	beforeWrite func(frames int)
}

// Defaults for Config zero values.
const (
	DefaultLeaseTimeout = time.Minute
	DefaultReplyDepth   = 4096
)

// maxHeldOut bounds how many reordered (future-seq) requests a session
// buffers; beyond that early frames are dropped and the client retries.
const maxHeldOut = 256

// Stats counts server-level events. Requests/Datagrams and
// Replies/ReplyDatagrams are the frames per datagram in each direction.
type Stats struct {
	Requests       atomic.Uint64 // well-formed frames received
	Datagrams      atomic.Uint64 // datagrams received
	BatchedOps     atomic.Uint64 // data ops that arrived inside batch frames
	Retransmits    atomic.Uint64 // duplicate requests answered from cache
	Held           atomic.Uint64 // reordered requests buffered for in-order submit
	Replies        atomic.Uint64 // reply frames sent
	ReplyDatagrams atomic.Uint64 // reply datagrams sent
	DroppedReplies atomic.Uint64 // reply frames dropped: queue overflow or a failed send
	Expired        atomic.Uint64 // sessions reclaimed by lease timeout
}

// Server is one node's client-facing session server.
type Server struct {
	nd   *core.Node
	cfg  Config
	conn *net.UDPConn
	bc   *transport.BatchConn

	mu       sync.Mutex
	sessions map[uint32]*clientSession
	free     []*core.Session
	nextID   uint32
	// opens dedupes retransmitted Open requests — leasing once per
	// (client addr, seq) instead of leaking one lease per lost reply.
	opens map[openKey]openEntry

	replyCh chan outReply
	stats   Stats
	closed  atomic.Bool
	wg      sync.WaitGroup
	stopJan chan struct{}
}

type outReply struct {
	dest *transport.UDPDest
	rep  proto.ClientReply
}

type openKey struct {
	addr netip.AddrPort
	seq  uint64
}

type openEntry struct {
	rep  proto.ClientReply
	when time.Time
}

// clientSession is one leased node session plus the bridging state that
// makes the lossy client link exactly-once and in-order.
type clientSession struct {
	id uint32
	cs *core.Session

	mu         sync.Mutex
	addr       netip.AddrPort     // latest client address; replies go here
	dest       *transport.UDPDest // addr with its precomputed raw sockaddr
	nextSeq    uint64             // next data-op seq to submit to the core session
	heldOut    map[uint64]heldReq
	inflight   map[uint64]struct{}
	done       map[uint64]proto.ClientReply // completed replies kept for retransmits
	lastActive time.Time
	// epoch is the node's membership epoch this session last observed.
	// When the node's installed epoch moves past it, the next data reply
	// carries ClientFlagReconfigured (once per change) so the client
	// re-pings for the new membership.
	epoch uint32
}

type heldReq struct {
	op       uint8
	key      uint64
	delta    uint64
	expected []byte
	value    []byte
}

// New binds the UDP socket and starts the server's goroutines. The node may
// be started before or after New, but must be started for ops to complete.
func New(nd *core.Node, cfg Config) (*Server, error) {
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = DefaultLeaseTimeout
	}
	if cfg.ReplyDepth <= 0 {
		cfg.ReplyDepth = DefaultReplyDepth
	}
	if cfg.Groups > proto.MaxGroups {
		return nil, fmt.Errorf("server: %d groups exceeds %d", cfg.Groups, proto.MaxGroups)
	}
	if cfg.Groups > 0 && (cfg.Group < 0 || cfg.Group >= cfg.Groups) {
		return nil, fmt.Errorf("server: group %d outside [0,%d)", cfg.Group, cfg.Groups)
	}
	la, err := net.ResolveUDPAddr("udp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("server: resolve %s: %w", cfg.Addr, err)
	}
	conn, err := net.ListenUDP("udp", la)
	if err != nil {
		return nil, fmt.Errorf("server: listen %s: %w", cfg.Addr, err)
	}
	s := &Server{
		nd:       nd,
		cfg:      cfg,
		conn:     conn,
		bc:       transport.NewBatchConn(conn, nil),
		sessions: make(map[uint32]*clientSession),
		opens:    make(map[openKey]openEntry),
		replyCh:  make(chan outReply, cfg.ReplyDepth),
		stopJan:  make(chan struct{}),
	}
	s.free = leasePool(nd, cfg)
	s.wg.Add(3)
	go s.recvLoop()
	go s.sendLoop()
	go s.janitor()
	return s, nil
}

// Addr reports the bound UDP address (useful with :0 binds).
func (s *Server) Addr() string { return s.conn.LocalAddr().String() }

// Rebind points the server at a freshly restarted core node, keeping the
// client-facing socket (and thus every client's dial target) alive across
// the replica's restart. All leases are dropped — the leased sessions
// belonged to the dead incarnation, so their outstanding ops already failed
// with ErrStopped — and clients observe ClientErrNoSession on their next
// frame (surfaced as ErrSessionExpired), re-leasing with NewSession exactly
// as they would after a lease timeout. Fresh leases are handed out
// immediately, but their operations buffer inside the rejoining node until
// its catch-up sweep completes (see OPERATIONS.md "Restarting a replica").
func (s *Server) Rebind(nd *core.Node) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nd = nd
	s.sessions = make(map[uint32]*clientSession)
	s.opens = make(map[openKey]openEntry)
	s.free = leasePool(nd, s.cfg)
}

// leasePool builds the leasable session set for nd under cfg — shared by
// New (initial boot) and Rebind (post-restart) so the two can never
// diverge on pool sizing.
func leasePool(nd *core.Node, cfg Config) []*core.Session {
	max := nd.Sessions()
	if cfg.MaxSessions > 0 && cfg.MaxSessions < max {
		max = cfg.MaxSessions
	}
	pool := make([]*core.Session, 0, max)
	for i := 0; i < max; i++ {
		pool = append(pool, nd.Session(i))
	}
	return pool
}

// Stats exposes the server counters.
func (s *Server) Stats() *Stats { return &s.stats }

// Close stops the server. Leased node sessions simply stop receiving
// traffic; the node itself is not stopped.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	close(s.stopJan)
	s.conn.Close()
	s.wg.Wait()
	return nil
}

// recvLoop reads request datagrams in batched syscalls (recvmmsg where
// available), each with its source address, and handles their frames.
func (s *Server) recvLoop() {
	defer s.wg.Done()
	bufs := make([][]byte, transport.MaxIOBatch)
	for i := range bufs {
		bufs[i] = make([]byte, 2048)
	}
	sizes := make([]int, transport.MaxIOBatch)
	from := make([]netip.AddrPort, transport.MaxIOBatch)
	for {
		n, err := s.bc.ReadBatchFrom(bufs, sizes, from)
		if err != nil {
			if s.closed.Load() || errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		s.stats.Datagrams.Add(uint64(n))
		for i := 0; i < n; i++ {
			s.handleDatagram(bufs[i][:sizes[i]], from[i])
		}
	}
}

// handleDatagram handles a datagram's frames in train order, so a session's
// frames packed into one datagram reach the in-order gate in the order the
// client sent them.
func (s *Server) handleDatagram(dgram []byte, from netip.AddrPort) {
	for len(dgram) > 0 {
		frame, rest, err := proto.NextFrame(dgram, proto.RequestFrameLen)
		if err != nil {
			return // corrupt frame: drop the rest, like a bad checksum
		}
		dgram = rest
		if frame[0] == proto.ClientOpBatch {
			var b proto.ClientBatch
			if b.Unmarshal(frame) != nil {
				continue
			}
			s.stats.Requests.Add(1)
			s.handleBatch(&b, from)
			continue
		}
		var req proto.ClientRequest
		if req.Unmarshal(frame) != nil {
			continue
		}
		s.stats.Requests.Add(1)
		s.handle(&req, from)
	}
}

// sendLoop drains the reply queue and ships replies in batched syscalls:
// replies bound for the same client address share a datagram (up to
// proto.MaxClientFrameLen bytes, in reused buffers) and each drain goes out
// as one WriteBatch (sendmmsg where available). The flush policy is the
// transport's: flush on drain, no deadline — replies queued while a send
// is in flight ride the next one. Frames a failed send leaves unsent count
// as DroppedReplies (the clients retry). replyCh is never closed —
// core-worker Done callbacks may call reply() at any time, even during
// Close — so the loop exits on the stop signal instead.
func (s *Server) sendLoop() {
	defer s.wg.Done()
	bufs := make([][]byte, transport.MaxIOBatch)
	for i := range bufs {
		bufs[i] = make([]byte, 0, proto.MaxClientFrameLen)
	}
	dgs := make([]transport.Datagram, 0, transport.MaxIOBatch)
	frames := make([]int, 0, transport.MaxIOBatch) // reply frames per datagram
	pending := make([]outReply, 0, transport.MaxIOBatch)
	for {
		select {
		case <-s.stopJan:
			return
		case out := <-s.replyCh:
			pending = append(pending[:0], out)
		}
	fill:
		for len(pending) < cap(pending) {
			select {
			case out := <-s.replyCh:
				pending = append(pending, out)
			default:
				break fill
			}
		}
		dgs, frames = dgs[:0], frames[:0]
		for i := range pending {
			out := &pending[i]
			if len(out.rep.Value) > proto.MaxValueLen {
				continue // unencodable; cannot happen for store values
			}
			j := openDatagram(dgs, out.dest, out.rep.WireLen())
			if j < 0 {
				j = len(dgs)
				dgs = append(dgs, transport.Datagram{Buf: bufs[j][:0], Dest: out.dest})
				frames = append(frames, 0)
			}
			dgs[j].Buf, _ = out.rep.AppendMarshal(dgs[j].Buf)
			frames[j]++
		}
		if len(dgs) == 0 {
			continue
		}
		if s.cfg.beforeWrite != nil {
			s.cfg.beforeWrite(len(pending))
		}
		n, _ := s.bc.WriteBatch(dgs)
		s.stats.ReplyDatagrams.Add(uint64(n))
		sent, lost := 0, 0
		for j, k := range frames {
			if j < n {
				sent += k
			} else {
				lost += k
			}
		}
		s.stats.Replies.Add(uint64(sent))
		if lost > 0 {
			s.stats.DroppedReplies.Add(uint64(lost))
		}
	}
}

// openDatagram returns the index of a datagram in dgs bound for dest with
// room for size more bytes, or -1. dgs holds at most one flush's worth of
// datagrams, so the scan is short.
func openDatagram(dgs []transport.Datagram, dest *transport.UDPDest, size int) int {
	for j := len(dgs) - 1; j >= 0; j-- {
		if len(dgs[j].Buf)+size <= proto.MaxClientFrameLen && transport.SameDest(dgs[j].Dest, dest) {
			return j
		}
	}
	return -1
}

// reply queues a reply datagram; full queue drops it (the client retries).
func (s *Server) reply(dest *transport.UDPDest, rep proto.ClientReply) {
	if s.closed.Load() {
		return
	}
	select {
	case s.replyCh <- outReply{dest: dest, rep: rep}:
	default:
		s.stats.DroppedReplies.Add(1)
	}
}

// destOf resolves a source address into a reply destination.
func destOf(from netip.AddrPort) *transport.UDPDest {
	return transport.NewUDPDest(net.UDPAddrFromAddrPort(from))
}

func (s *Server) handle(req *proto.ClientRequest, from netip.AddrPort) {
	switch req.Op {
	case proto.ClientOpPing:
		nd := s.node()
		v := nd.View()
		s.reply(destOf(from), proto.ClientReply{
			Status: proto.ClientOK, Flags: proto.ClientFlagControl, Seq: req.Seq,
			Value: proto.AppendNodeInfo(nil, s.cfg.Groups, s.cfg.Group, v.Epoch, v.Members),
		})
	case proto.ClientOpJoin:
		s.handleReconfig(req, from, true)
	case proto.ClientOpRemove:
		s.handleReconfig(req, from, false)
	case proto.ClientOpOpen:
		s.handleOpen(req, from)
	case proto.ClientOpClose:
		s.release(req.Sess)
		s.reply(destOf(from), proto.ClientReply{
			Status: proto.ClientOK, Flags: proto.ClientFlagControl,
			Sess: req.Sess, Seq: req.Seq,
		})
	default:
		s.handleData(req, from)
	}
}

func (s *Server) handleOpen(req *proto.ClientRequest, from netip.AddrPort) {
	dest := destOf(from)
	key := openKey{addr: from, seq: req.Seq}
	s.mu.Lock()
	if e, ok := s.opens[key]; ok {
		s.mu.Unlock()
		s.stats.Retransmits.Add(1)
		s.reply(dest, e.rep)
		return
	}
	if len(s.free) == 0 {
		s.mu.Unlock()
		s.reply(dest, proto.ClientReply{
			Status: proto.ClientErrNoCapacity, Flags: proto.ClientFlagControl, Seq: req.Seq,
		})
		return
	}
	cs := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	s.nextID++ // ids start at 1 and are never reused, so stale frames miss
	sess := &clientSession{
		id: s.nextID, cs: cs, addr: from, dest: dest, nextSeq: 1,
		heldOut:    make(map[uint64]heldReq),
		inflight:   make(map[uint64]struct{}),
		done:       make(map[uint64]proto.ClientReply),
		lastActive: time.Now(),
		epoch:      s.nd.ConfigEpoch(),
	}
	s.sessions[sess.id] = sess
	rep := proto.ClientReply{
		Status: proto.ClientOK, Flags: proto.ClientFlagControl, Sess: sess.id, Seq: req.Seq,
	}
	s.opens[key] = openEntry{rep: rep, when: time.Now()}
	s.mu.Unlock()
	s.reply(dest, rep)
}

// release returns a leased session to the pool. The underlying core session
// may still be draining ops; that is safe — session order guarantees the
// next lessee's ops queue behind them.
func (s *Server) release(id uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return
	}
	delete(s.sessions, id)
	s.free = append(s.free, sess.cs)
}

func (s *Server) lookup(id uint32) *clientSession {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[id]
}

// node returns the current core node (it changes across Rebind).
func (s *Server) node() *core.Node {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nd
}

// handleReconfig drives a join/remove request: the node id travels in Key,
// the committed configuration returns in the reply's Value. The CAS can
// take protocol round trips, so it runs off the receive loop; duplicate
// goroutines from client retransmissions are harmless — the underlying
// reconfiguration is idempotent and every goroutine replies (the client
// keeps the first).
func (s *Server) handleReconfig(req *proto.ClientRequest, from netip.AddrPort, add bool) {
	nd := s.node()
	id, seq := uint8(req.Key), req.Seq
	go func() {
		var (
			cfg membership.Config
			err error
		)
		if add {
			cfg, err = nd.ReconfigureAdd(id, 0)
		} else {
			cfg, err = nd.ReconfigureRemove(id, 0)
		}
		rep := proto.ClientReply{
			Status: proto.ClientOK, Flags: proto.ClientFlagControl, Seq: seq,
			Value: cfg.Encode(),
		}
		if err != nil {
			rep.Status, rep.Value = proto.ClientErrConflict, nil
		}
		s.reply(destOf(from), rep)
	}()
}

// handleBatch unrolls a batch frame: op i is exactly an individual request
// with seq b.Seq+i, so the in-order gate, dedup and reply cache need no
// batch-specific cases — a retransmitted batch is answered per-op from the
// cache, a reordered one is held per-op until its gap fills.
func (s *Server) handleBatch(b *proto.ClientBatch, from netip.AddrPort) {
	s.stats.BatchedOps.Add(uint64(len(b.Ops)))
	for i, op := range b.Ops {
		req := proto.ClientRequest{
			Op: op.Code, Sess: b.Sess, Seq: b.Seq + uint64(i), Acked: b.Acked,
			Key: op.Key, Delta: op.Delta, Expected: op.Expected, Value: op.Value,
		}
		s.handleData(&req, from)
	}
}

func (s *Server) handleData(req *proto.ClientRequest, from netip.AddrPort) {
	sess := s.lookup(req.Sess)
	if sess == nil {
		s.reply(destOf(from), proto.ClientReply{
			Status: proto.ClientErrNoSession, Sess: req.Sess, Seq: req.Seq,
		})
		return
	}

	sess.mu.Lock()
	// The precomputed destination is rebuilt only when the client's address
	// actually moved, so the steady-state data path reuses it per reply.
	if sess.dest == nil || sess.addr != from {
		sess.dest = destOf(from)
		sess.addr = from
	}
	sess.lastActive = time.Now()
	// The client has every reply below Acked; drop them from the cache.
	for seq := range sess.done {
		if seq < req.Acked {
			delete(sess.done, seq)
		}
	}
	if rep, ok := sess.done[req.Seq]; ok {
		// Retransmitted request whose reply may have been lost: answer
		// from the cache without re-executing.
		dest := sess.dest
		sess.mu.Unlock()
		s.stats.Retransmits.Add(1)
		s.reply(dest, rep)
		return
	}
	if _, ok := sess.inflight[req.Seq]; ok || req.Seq < sess.nextSeq {
		// Already executing (reply will come), or completed and acked
		// (a straggler duplicate): ignore.
		sess.mu.Unlock()
		return
	}
	if req.Seq > sess.nextSeq {
		// Reordered arrival: buffer until the gap fills. Payloads alias
		// the recv buffer, so copy them out.
		if len(sess.heldOut) < maxHeldOut {
			sess.heldOut[req.Seq] = heldReq{
				op: req.Op, key: req.Key, delta: req.Delta,
				expected: bytes.Clone(req.Expected), value: bytes.Clone(req.Value),
			}
			s.stats.Held.Add(1)
		}
		sess.mu.Unlock()
		return
	}
	// req.Seq == nextSeq: submit it, then drain any buffered successors.
	submits := []heldReq{{
		op: req.Op, key: req.Key, delta: req.Delta,
		expected: bytes.Clone(req.Expected), value: bytes.Clone(req.Value),
	}}
	seqs := []uint64{req.Seq}
	sess.inflight[req.Seq] = struct{}{}
	sess.nextSeq++
	for {
		h, ok := sess.heldOut[sess.nextSeq]
		if !ok {
			break
		}
		delete(sess.heldOut, sess.nextSeq)
		sess.inflight[sess.nextSeq] = struct{}{}
		submits = append(submits, h)
		seqs = append(seqs, sess.nextSeq)
		sess.nextSeq++
	}
	sess.mu.Unlock()

	for i, h := range submits {
		s.submit(sess, seqs[i], h)
	}
}

// submit bridges one data op onto the core session. Submit may block when
// the worker's admission queue is full — that stalls the recv loop and lets
// excess client datagrams drop at the socket, which is exactly the
// backpressure story of the rest of the system.
func (s *Server) submit(sess *clientSession, seq uint64, h heldReq) {
	r := &core.Request{
		Code: core.OpCode(h.op), Key: h.key, Delta: h.delta,
		Expected: h.expected, Val: h.value,
	}
	epochNow := func() uint32 { return s.node().ConfigEpoch() }
	r.Done = func(r *core.Request) {
		rep := proto.ClientReply{Status: proto.ClientOK, Sess: sess.id, Seq: seq}
		if r.Err != nil {
			rep.Status = proto.ClientErrStopped
			if errors.Is(r.Err, core.ErrReservedKey) {
				rep.Status = proto.ClientErrReservedKey
			}
		} else {
			rep.Value = bytes.Clone(r.Out)
			if r.Swapped {
				rep.Flags |= proto.ClientFlagSwapped
			}
		}
		cur := epochNow()
		sess.mu.Lock()
		if cur != sess.epoch {
			// One-shot notification per epoch change: the client re-pings
			// for the new membership when it sees the flag.
			sess.epoch = cur
			rep.Flags |= proto.ClientFlagReconfigured
		}
		delete(sess.inflight, seq)
		sess.done[seq] = rep
		dest := sess.dest
		sess.mu.Unlock()
		s.reply(dest, rep)
	}
	sess.cs.Submit(r)
}

// janitor expires sessions whose client went silent, returning them to the
// pool so crashed clients do not leak the node's fixed session set.
func (s *Server) janitor() {
	defer s.wg.Done()
	tick := time.NewTicker(s.cfg.LeaseTimeout / 4)
	defer tick.Stop()
	for {
		select {
		case <-s.stopJan:
			return
		case now := <-tick.C:
			var expired []uint32
			s.mu.Lock()
			for id, sess := range s.sessions {
				sess.mu.Lock()
				idle := now.Sub(sess.lastActive)
				sess.mu.Unlock()
				if idle > s.cfg.LeaseTimeout {
					expired = append(expired, id)
				}
			}
			for key, e := range s.opens {
				if now.Sub(e.when) > s.cfg.LeaseTimeout {
					delete(s.opens, key)
				}
			}
			s.mu.Unlock()
			for _, id := range expired {
				s.release(id)
				s.stats.Expired.Add(1)
			}
		}
	}
}
