// Package client connects external processes to a Kite deployment. Dial one
// node's session server (started by kite-node -client-addr, or
// kite/internal/server in-process) and open sessions implementing the
// unified kite.Session interface: Do/DoAsync/DoBatch over kite.Op values,
// plus the convenience methods (Read/Write, ReleaseWrite/AcquireRead, FAA,
// CompareAndSwap). Code written against kite.Session runs unchanged over
// this backend and the in-process cluster.
//
// The link to the server is UDP with the same delivery contract as Kite's
// replica-to-replica transport: datagrams may be lost, duplicated or
// reordered. The client retransmits requests unacknowledged for longer than
// RetryInterval until OpTimeout; the server executes each (session, seq)
// exactly once and answers retransmissions from a reply cache, so retried
// writes and RMWs are safe. Submitting an op never makes a syscall: its
// frame is packed into an open datagram that a per-Client flusher goroutine
// posts at once, so frames staged while a send is in flight share the next
// one — opportunistic batching with no linger. Replies come back packed the
// same way. DoBatch pipelines many operations into a single request frame —
// one round trip for a whole batch of relaxed accesses — while replies stay
// per-op frames, so a lost datagram costs the retransmission of just the
// ops it carried.
//
// A session is a single logical thread of control: its synchronous methods
// must not be called concurrently, and its operations take effect in
// submission order regardless of datagram reordering. Contexts cancel the
// wait for an operation, not the operation itself: a canceled op keeps
// retransmitting in the background until it is acknowledged or times out,
// which keeps the session's in-order stream intact (only a full OpTimeout
// expiry breaks the session).
package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"kite"
	"kite/internal/core"
	"kite/internal/membership"
	"kite/internal/proto"
	"kite/internal/transport"
)

// Errors returned by client operations. The operation-level taxonomy
// (ErrStopped, ErrValueTooLong, ErrCanceled, ErrSessionClosed) is shared
// with the in-process backend — test with errors.Is against the kite
// package sentinels.
var (
	// ErrTimeout: no reply within Options.OpTimeout (server down, network
	// partition, or the deployment lost its quorum).
	ErrTimeout = errors.New("kite/client: operation timed out")
	// ErrStopped: the node stopped before completing the op. Identical to
	// the error the in-process API surfaces (kite.ErrStopped).
	ErrStopped = kite.ErrStopped
	// ErrValueTooLong: a value or CAS comparand exceeds MaxValueLen.
	// Identical to kite.ErrValueTooLong.
	ErrValueTooLong = kite.ErrValueTooLong
	// ErrCanceled: the op's context expired. Identical to kite.ErrCanceled.
	ErrCanceled = kite.ErrCanceled
	// ErrSessionClosed: the session handle was closed by this client.
	// Identical to kite.ErrSessionClosed.
	ErrSessionClosed = kite.ErrSessionClosed
	// ErrSessionExpired: the server no longer knows this session (lease
	// expired after client silence, or the server restarted).
	ErrSessionExpired = errors.New("kite/client: session expired on server")
	// ErrSessionBroken: an earlier operation on this session timed out, so
	// a gap may exist in the server's in-order submission stream and no
	// later op of this session can complete. Open a new session.
	ErrSessionBroken = errors.New("kite/client: session broken by a timed-out operation; open a new session")
	// ErrNoCapacity: the node has no free session to lease.
	ErrNoCapacity = errors.New("kite/client: node has no free sessions")
	// ErrClosed: the Client was closed.
	ErrClosed = errors.New("kite/client: client closed")
	// ErrReconfigConflict: a Join/RemoveMember request lost a concurrent
	// reconfiguration (or was otherwise refused); re-read Members and retry
	// if still wanted.
	ErrReconfigConflict = errors.New("kite/client: reconfiguration conflict")
)

// MaxValueLen is the largest value Kite stores.
const MaxValueLen = proto.MaxValueLen

// Result is the outcome of an operation — the same type every backend
// uses.
type Result = kite.Result

// Options configure a Client. Zero values select defaults.
type Options struct {
	// DialTimeout bounds Dial's liveness probe (default 3s).
	DialTimeout time.Duration
	// OpTimeout bounds every operation's retransmission effort (default
	// 10s). It is the hard lifetime of a request on the wire; per-call
	// deadlines shorter than this come from the operation's context.
	OpTimeout time.Duration
	// RetryInterval is how long a request may go unacknowledged before it
	// is retransmitted, and the period of the retry pass that checks
	// (default 50ms).
	RetryInterval time.Duration
	// MaxInflight caps outstanding operations per session; submissions
	// block once the window is full (default 64).
	MaxInflight int
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 3 * time.Second
	}
	if o.OpTimeout <= 0 {
		o.OpTimeout = 10 * time.Second
	}
	if o.RetryInterval <= 0 {
		o.RetryInterval = 50 * time.Millisecond
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 64
	}
	return o
}

type pendingKey struct {
	sess uint32
	seq  uint64
}

// txFrame is an encoded request frame and when it was last transmitted.
// Frames are immutable once registered; sent is guarded by Client.mu.
type txFrame struct {
	frame []byte
	sent  time.Time
}

// pendingOp is one unacknowledged request: its encoded frame for
// retransmission, the completion callback, and the give-up deadline.
// Exactly one of cb (data ops) and ctrlCB (control ops) is set. cb is
// mutated only under Client.mu while the op is registered; it is cleared
// when the waiter detaches (context expiry) so the result is delivered at
// most once.
type pendingOp struct {
	tx       txFrame
	batch    *txFrame // the shared frame of a DoBatch chunk; nil for individually framed ops
	ctx      context.Context
	deadline time.Time
	cb       func(Result)
	ctrlCB   func(rep *proto.ClientReply, err error)
	sess     *Session // nil for control ops
	seq      uint64
}

// Client is one connection to a node's session server. It is safe for
// concurrent use; sessions opened from it share the socket.
type Client struct {
	opts Options
	conn *net.UDPConn
	// bc does the socket's batched I/O (sendmmsg/recvmmsg where available,
	// per-datagram syscalls elsewhere): flushLoop is its one writer and
	// recvLoop its one reader, as its contract requires.
	bc  *transport.BatchConn
	out outbox

	mu      sync.Mutex
	pending map[pendingKey]*pendingOp // data ops: key {sess, seq}
	control map[uint64]*pendingOp     // control ops: key seq
	ctrlSeq uint64

	closed atomic.Bool
	stop   chan struct{} // closed by Close: stops the flusher and the retry pass
	wg     sync.WaitGroup

	// Node info learned from the server's ping replies (at Dial, and again
	// whenever a data reply carries ClientFlagReconfigured): the node's
	// replica-group count and index ((1, 0) for unsharded deployments),
	// plus its group's membership epoch and member bitmask. Guarded by mu —
	// pings can now race data traffic.
	groups  int
	group   int
	epoch   uint32
	members uint16
	// repinging collapses concurrent refresh triggers into one ping.
	repinging atomic.Bool
}

// Dial connects to a session server and verifies it is alive with a ping
// round (UDP alone cannot detect a dead peer). It fails with ErrTimeout
// wrapped in a dial error if nothing answers within DialTimeout.
func Dial(addr string, opts Options) (*Client, error) {
	opts = opts.withDefaults()
	ra, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("kite/client: resolve %s: %w", addr, err)
	}
	conn, err := net.DialUDP("udp", nil, ra)
	if err != nil {
		return nil, fmt.Errorf("kite/client: dial %s: %w", addr, err)
	}
	c := &Client{
		opts:    opts,
		conn:    conn,
		bc:      transport.NewBatchConn(conn, nil),
		out:     outbox{notify: make(chan struct{}, 1)},
		stop:    make(chan struct{}),
		pending: make(map[pendingKey]*pendingOp),
		control: make(map[uint64]*pendingOp),
		// Control seqs start at a random point so that a client whose
		// socket reuses a recently freed ephemeral port cannot collide
		// with its predecessor's (addr, seq) entries in the server's
		// open-dedup cache — nor match the predecessor's late replies.
		ctrlSeq: rand.Uint64(),
	}
	c.wg.Add(3)
	go c.recvLoop()
	go c.flushLoop()
	go c.retryLoop()

	if _, _, err := c.controlRound(proto.ClientOpPing, 0, 0, opts.DialTimeout); err != nil {
		c.Close()
		return nil, fmt.Errorf("kite/client: no session server at %s: %w", addr, err)
	}
	return c, nil
}

// ShardInfo reports the dialed node's place in its deployment, as
// advertised in the ping reply: the number of replica groups and this
// node's group index. Unsharded deployments report (1, 0). DialSharded
// uses it to validate a shard map; it is also useful for diagnostics.
func (c *Client) ShardInfo() (groups, group int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.groups, c.group
}

// Members reports the dialed node's replica-group membership as of the last
// ping: the configuration epoch and the member node ids. The client
// re-pings automatically when a reply signals a reconfiguration
// (ClientFlagReconfigured), so this tracks live AddNode/RemoveNode changes;
// call Refresh to force an update. Servers predating membership report
// (0, nil).
func (c *Client) Members() (epoch uint32, nodes []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range (membership.Config{Members: c.members}).MemberIDs() {
		nodes = append(nodes, int(id))
	}
	return c.epoch, nodes
}

// Refresh re-pings the server synchronously, updating ShardInfo/Members.
func (c *Client) Refresh() error {
	_, _, err := c.controlRound(proto.ClientOpPing, 0, 0, c.opts.OpTimeout)
	return err
}

// refreshAsync re-pings in the background (at most one in flight) — the
// reaction to a reply flagged ClientFlagReconfigured. Runs on the receive
// goroutine, so it must not block.
func (c *Client) refreshAsync() {
	if !c.repinging.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer c.repinging.Store(false)
		c.controlRound(proto.ClientOpPing, 0, 0, c.opts.OpTimeout)
	}()
}

// Join asks the dialed node to add replica id to its group, returning the
// committed membership. The joining replica must afterwards boot with this
// configuration in catch-up mode — this is the control half of
// kite-node -join; the call does not itself start anything.
func (c *Client) Join(id uint8) (epoch uint32, nodes []int, err error) {
	return c.reconfigRound(proto.ClientOpJoin, id)
}

// RemoveMember asks the dialed node to remove replica id from its group,
// returning the committed membership. Must be sent to a surviving member,
// not to the replica being removed.
func (c *Client) RemoveMember(id uint8) (epoch uint32, nodes []int, err error) {
	return c.reconfigRound(proto.ClientOpRemove, id)
}

func (c *Client) reconfigRound(op uint8, id uint8) (epoch uint32, nodes []int, err error) {
	_, val, err := c.controlRound(op, 0, uint64(id), c.opts.OpTimeout)
	if err != nil {
		return 0, nil, err
	}
	cfg, err := membership.Decode(val)
	if err != nil {
		return 0, nil, fmt.Errorf("kite/client: malformed membership reply: %w", err)
	}
	for _, m := range cfg.MemberIDs() {
		nodes = append(nodes, int(m))
	}
	return cfg.Epoch, nodes, nil
}

// Close releases the connection; outstanding and future operations fail
// with ErrClosed. Sessions of this client become unusable (their leases
// expire server-side).
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	close(c.stop)
	c.conn.Close()
	c.wg.Wait()
	// Fail everything still outstanding. Data ops release their window
	// slot (via completed) so submitters blocked on a full window wake.
	c.mu.Lock()
	pending, control := c.pending, c.control
	c.pending, c.control = map[pendingKey]*pendingOp{}, map[uint64]*pendingOp{}
	c.mu.Unlock()
	for _, op := range pending {
		if op.sess != nil {
			op.sess.completed(op.seq)
		}
		op.fail(ErrClosed)
	}
	for _, op := range control {
		op.fail(ErrClosed)
	}
	return nil
}

func (op *pendingOp) fail(err error) {
	if op.ctrlCB != nil {
		op.ctrlCB(nil, err)
	} else if op.cb != nil {
		op.cb(Result{Err: err})
	}
}

// detach clears a registered op's callback (the waiter gave up on its
// context). The op keeps retransmitting until acknowledged or expired so
// the server's in-order stream sees its seq — detaching never breaks the
// session. Reports whether the op was still registered.
func (c *Client) detach(key pendingKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	op, ok := c.pending[key]
	if !ok {
		return false
	}
	op.cb = nil
	return true
}

// outbox packs outgoing frames into datagrams for flushLoop: a frame joins
// the open (last) datagram if the result stays within
// proto.MaxClientFrameLen, and opens a new one otherwise. Nothing waits to
// fill a datagram — the flusher takes whatever is staged as soon as it is
// notified, so a lone frame goes out at once and frames staged while a
// send is in flight ride the next one. The notify channel is edge-triggered
// like the replica transport's send ring.
type outbox struct {
	mu     sync.Mutex
	dgrams [][]byte // staged datagrams; buffers are recycled across flushes
	notify chan struct{}
}

// stage packs frames and wakes the flusher. The frames are copied, so the
// caller keeps ownership.
func (o *outbox) stage(frames ...[]byte) {
	o.mu.Lock()
	for _, f := range frames {
		k := len(o.dgrams)
		if k > 0 && len(o.dgrams[k-1])+len(f) <= proto.MaxClientFrameLen {
			o.dgrams[k-1] = append(o.dgrams[k-1], f...)
			continue
		}
		if k < cap(o.dgrams) && cap(o.dgrams[:k+1][k]) > 0 {
			o.dgrams = o.dgrams[:k+1] // reuse a buffer from an earlier flush
		} else {
			o.dgrams = append(o.dgrams, make([]byte, 0, proto.MaxClientFrameLen))
		}
		o.dgrams[k] = append(o.dgrams[k][:0], f...)
	}
	o.mu.Unlock()
	select {
	case o.notify <- struct{}{}:
	default: // flusher already signalled
	}
}

// take returns the staged datagrams, leaving spare (the buffers of the
// previous flush, now sent) in their place for reuse.
func (o *outbox) take(spare [][]byte) [][]byte {
	o.mu.Lock()
	full := o.dgrams
	o.dgrams = spare[:0]
	o.mu.Unlock()
	return full
}

// flushLoop posts staged datagrams, everything staged per wake-up in one
// WriteBatch (sendmmsg where available). It is the socket's only writer.
func (c *Client) flushLoop() {
	defer c.wg.Done()
	var spare [][]byte
	var dgs []transport.Datagram
	for {
		select {
		case <-c.out.notify:
		case <-c.stop:
			return
		}
		full := c.out.take(spare)
		dgs = dgs[:0]
		for _, b := range full {
			dgs = append(dgs, transport.Datagram{Buf: b}) // nil Dest: the connected peer
		}
		for sent := 0; sent < len(dgs); {
			n, err := c.bc.WriteBatch(dgs[sent:])
			sent += n
			if err != nil {
				if c.closed.Load() {
					return
				}
				sent++ // e.g. a refused send: that datagram is lost, retries cover it
			}
		}
		if len(full) > transport.MaxIOBatch {
			// Keep a burst's worth of buffers for reuse, not a backlog's.
			clear(full[transport.MaxIOBatch:])
			full = full[:transport.MaxIOBatch]
		}
		spare = full
	}
}

// recvLoop reads reply datagrams in batched syscalls (recvmmsg where
// available) and demultiplexes their frames to pending operations.
func (c *Client) recvLoop() {
	defer c.wg.Done()
	bufs := make([][]byte, transport.MaxIOBatch)
	for i := range bufs {
		bufs[i] = make([]byte, 2048)
	}
	sizes := make([]int, transport.MaxIOBatch)
	var got []delivery
	for {
		n, err := c.bc.ReadBatch(bufs, sizes)
		if err != nil {
			if c.closed.Load() || errors.Is(err, net.ErrClosed) {
				return
			}
			continue // e.g. ICMP port unreachable while the server restarts
		}
		for i := 0; i < n; i++ {
			got = c.deliver(bufs[i][:sizes[i]], got)
		}
	}
}

// delivery pairs a reply frame with the op it completes.
type delivery struct {
	op  *pendingOp
	rep proto.ClientReply
}

// deliver completes the ops answered by one datagram's reply frames,
// matching them all under one lock acquisition. got is scratch space,
// returned for reuse.
func (c *Client) deliver(dgram []byte, got []delivery) []delivery {
	got = got[:0]
	c.mu.Lock()
	for len(dgram) > 0 {
		frame, rest, err := proto.NextFrame(dgram, proto.ReplyFrameLen)
		if err != nil {
			break // corrupt frame: drop the rest, like a bad checksum
		}
		dgram = rest
		var rep proto.ClientReply
		if rep.Unmarshal(frame) != nil {
			continue
		}
		var op *pendingOp
		if rep.Flags&proto.ClientFlagControl != 0 {
			if op = c.control[rep.Seq]; op != nil {
				delete(c.control, rep.Seq)
			}
		} else {
			k := pendingKey{sess: rep.Sess, seq: rep.Seq}
			if op = c.pending[k]; op != nil {
				delete(c.pending, k)
			}
		}
		if op != nil { // else a duplicate or stale reply
			got = append(got, delivery{op: op, rep: rep})
		}
	}
	c.mu.Unlock()
	for i := range got {
		d := &got[i]
		if d.op.sess != nil {
			d.op.sess.completed(d.op.seq)
		}
		c.complete(d.op, &d.rep)
		*d = delivery{}
	}
	return got
}

// statusErr maps a wire status to a client error (nil for ClientOK).
func statusErr(status uint8) error {
	switch status {
	case proto.ClientOK:
		return nil
	case proto.ClientErrStopped:
		return ErrStopped
	case proto.ClientErrNoSession:
		return ErrSessionExpired
	case proto.ClientErrNoCapacity:
		return ErrNoCapacity
	case proto.ClientErrConflict:
		return ErrReconfigConflict
	case proto.ClientErrReservedKey:
		return kite.ErrReservedKey
	default:
		return fmt.Errorf("kite/client: server error %d", status)
	}
}

// complete maps a wire reply to the op's callback (on the receive
// goroutine — callbacks must not block).
func (c *Client) complete(op *pendingOp, rep *proto.ClientReply) {
	err := statusErr(rep.Status)
	if op.ctrlCB != nil {
		op.ctrlCB(rep, err)
		return
	}
	if rep.Flags&proto.ClientFlagReconfigured != 0 {
		// The node's group reconfigured since this session last heard:
		// refresh the membership view in the background.
		c.refreshAsync()
	}
	if op.cb == nil {
		return
	}
	res := Result{Swapped: rep.Flags&proto.ClientFlagSwapped != 0, Err: err}
	if err == nil && len(rep.Value) > 0 {
		res.Value = append([]byte(nil), rep.Value...)
	}
	op.cb(res)
}

// retryLoop retransmits requests unacknowledged for at least
// RetryInterval, expires ops past their deadline, and sweeps
// context-canceled ops — the reliability layer over the lossy datagram
// link, and the place per-op cancellation is observed for waiters that are
// not blocked in Do. A frame sent less than RetryInterval ago is not
// resent: its reply may simply still be on its way.
func (c *Client) retryLoop() {
	defer c.wg.Done()
	tick := time.NewTicker(c.opts.RetryInterval)
	defer tick.Stop()
	// Frames are immutable once registered, so the pass collects them
	// under the lock and stages them for the flusher after releasing it (a
	// retransmission that races its reply is harmless — the server dedups).
	var frames [][]byte
	resend := func(tx *txFrame, now time.Time) {
		if now.Sub(tx.sent) >= c.opts.RetryInterval {
			tx.sent = now
			frames = append(frames, tx.frame)
		}
	}
	for {
		var now time.Time
		select {
		case now = <-tick.C:
		case <-c.stop:
			return
		}
		var expired []*pendingOp
		var canceled []func()
		frames = frames[:0]
		c.mu.Lock()
		for k, op := range c.pending {
			if now.After(op.deadline) {
				delete(c.pending, k)
				expired = append(expired, op)
				continue
			}
			if op.ctx != nil && op.ctx.Err() != nil && op.cb != nil {
				// Context expired: release the waiter now, but keep the
				// op on the wire until it is acknowledged — its seq must
				// reach the server or the session breaks.
				cb, cause := op.cb, op.ctx.Err()
				op.cb = nil
				canceled = append(canceled, func() {
					cb(Result{Err: kite.CanceledErr(cause)})
				})
			}
			if op.batch != nil {
				resend(op.batch, now) // once per chunk, not once per op
			} else {
				resend(&op.tx, now)
			}
		}
		for k, op := range c.control {
			if now.After(op.deadline) {
				delete(c.control, k)
				expired = append(expired, op)
				continue
			}
			resend(&op.tx, now)
		}
		c.mu.Unlock()
		if len(frames) > 0 {
			c.out.stage(frames...)
		}
		for _, deliver := range canceled {
			deliver()
		}
		for _, op := range expired {
			if op.sess != nil {
				// The server will never see this seq again, so its
				// in-order gate would hold back every later op: the
				// session is unusable from here on.
				op.sess.broken.Store(true)
				op.sess.completed(op.seq)
			}
			op.fail(ErrTimeout)
		}
	}
}

// register installs op (or a batch of ops) and stages the frame for its
// first transmission (retryLoop takes over). The closed check happens under
// the same lock Close snapshots the maps with, so an op either lands in the
// snapshot (and is failed by Close) or observes closed here — it cannot be
// registered and then orphaned.
func (c *Client) register(frame []byte, ops []*pendingOp, keys []pendingKey) bool {
	c.mu.Lock()
	if c.closed.Load() {
		c.mu.Unlock()
		for _, op := range ops {
			if op.sess != nil {
				op.sess.completed(op.seq)
			}
			op.fail(ErrClosed)
		}
		return false
	}
	for i, op := range ops {
		if op.ctrlCB != nil {
			c.control[keys[i].seq] = op
		} else {
			c.pending[keys[i]] = op
		}
	}
	c.mu.Unlock()
	c.out.stage(frame)
	return true
}

// controlRound runs one synchronous control op (ping/open/close and the
// membership ops, which carry a node id in key). It returns the reply's
// session id and a copy of its value.
func (c *Client) controlRound(opCode uint8, sess uint32, key uint64, timeout time.Duration) (uint32, []byte, error) {
	c.mu.Lock()
	c.ctrlSeq++
	seq := c.ctrlSeq
	c.mu.Unlock()
	req := proto.ClientRequest{Op: opCode, Sess: sess, Seq: seq, Key: key}
	frame, err := req.AppendMarshal(make([]byte, 0, req.WireLen()))
	if err != nil {
		return 0, nil, err
	}
	type ctrlRes struct {
		sess uint32
		val  []byte
		err  error
	}
	done := make(chan ctrlRes, 1)
	now := time.Now()
	op := &pendingOp{
		tx:       txFrame{frame: frame, sent: now},
		deadline: now.Add(timeout),
		ctrlCB: func(rep *proto.ClientReply, err error) {
			var id uint32
			var val []byte
			if rep != nil {
				id = rep.Sess
				// rep.Value aliases the receive buffer; copy/decode before
				// handing the round back.
				val = append([]byte(nil), rep.Value...)
				if opCode == proto.ClientOpPing && err == nil {
					groups, group, epoch, members := proto.ParseNodeInfo(rep.Value)
					c.mu.Lock()
					c.groups, c.group = groups, group
					// Epoch-monotone install: a reordered or late reply
					// from an earlier ping must not regress the membership
					// view to a configuration the group already left.
					if members != 0 && (c.members == 0 || epoch > c.epoch) {
						c.epoch, c.members = epoch, members
					}
					c.mu.Unlock()
				}
			}
			done <- ctrlRes{sess: id, val: val, err: err}
		},
	}
	c.register(frame, []*pendingOp{op}, []pendingKey{{seq: seq}})
	r := <-done
	return r.sess, r.val, r.err
}

// NewSession leases a session on the server's node. Sessions are a finite
// node resource; Close them when done (crashed clients are reclaimed by the
// server's lease timeout). The returned session implements kite.Session.
func (c *Client) NewSession() (*Session, error) {
	id, _, err := c.controlRound(proto.ClientOpOpen, 0, 0, c.opts.OpTimeout)
	if err != nil {
		return nil, err
	}
	s := &Session{
		c:       c,
		id:      id,
		window:  make(chan struct{}, c.opts.MaxInflight),
		doneSet: make(map[uint64]struct{}),
	}
	s.Ops = kite.Ops{Doer: s}
	return s, nil
}

// Session is an external client's ordered stream of operations, backed by
// one worker-owned session on the server's node. It implements
// kite.Session. Synchronous methods must not be interleaved from multiple
// goroutines; asynchronous submissions are serialised internally and
// complete in submission order server-side.
type Session struct {
	kite.Ops
	c  *Client
	id uint32

	mu       sync.Mutex
	seq      uint64              // last assigned data seq
	frontier uint64              // every seq <= frontier has completed (acked to server)
	doneSet  map[uint64]struct{} // completed seqs above the frontier
	window   chan struct{}       // inflight slots (backpressure)

	closed atomic.Bool
	// broken is set when a data op times out: its seq will never reach
	// the server, so the server-side in-order gate blocks all later seqs.
	broken atomic.Bool
}

// ID reports the server-assigned session id (diagnostics).
func (s *Session) ID() uint32 { return s.id }

// Close releases the session lease (best effort — a lost datagram just
// means the lease expires on its own). Operations after Close fail with
// kite.ErrSessionClosed.
func (s *Session) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	_, _, err := s.c.controlRound(proto.ClientOpClose, s.id, 0, s.c.opts.RetryInterval*4)
	if errors.Is(err, ErrTimeout) {
		err = nil
	}
	return err
}

// completed records a finished seq and advances the ack frontier.
func (s *Session) completed(seq uint64) {
	s.mu.Lock()
	s.doneSet[seq] = struct{}{}
	for {
		if _, ok := s.doneSet[s.frontier+1]; !ok {
			break
		}
		delete(s.doneSet, s.frontier+1)
		s.frontier++
	}
	s.mu.Unlock()
	select {
	case <-s.window:
	default:
	}
}

// submitErr reports the session-state error that should fail a submission
// before it consumes a seq, or nil.
func (s *Session) submitErr() error {
	switch {
	case s.closed.Load():
		return ErrSessionClosed
	case s.c.closed.Load():
		return ErrClosed
	case s.broken.Load():
		return ErrSessionBroken
	default:
		return nil
	}
}

// validate rejects malformed ops before a seq is consumed: a seq that is
// assigned but never transmitted would wedge the server's in-order
// submission for the rest of the session. The rules (and errors) are the
// shared ones every backend enforces.
func validate(op kite.Op) error { return kite.ValidateOp(op) }

// acquireSlot takes one inflight-window slot, giving up if ctx expires
// first.
func (s *Session) acquireSlot(ctx context.Context) error {
	if ctx.Done() == nil {
		s.window <- struct{}{}
		return nil
	}
	select {
	case s.window <- struct{}{}:
		return nil
	case <-ctx.Done():
		return kite.CanceledErr(ctx.Err())
	}
}

// submit assigns the next seq, builds the frame and registers it with the
// client. It blocks while the session's inflight window is full. cb is
// invoked exactly once (possibly synchronously, on submission failure).
func (s *Session) submit(ctx context.Context, op kite.Op, cb func(Result)) (pendingKey, bool) {
	fail := func(err error) (pendingKey, bool) {
		if cb != nil {
			cb(Result{Err: err})
		}
		return pendingKey{}, false
	}
	if err := s.submitErr(); err != nil {
		return fail(err)
	}
	if err := validate(op); err != nil {
		return fail(err)
	}
	if err := s.acquireSlot(ctx); err != nil {
		return fail(err)
	}
	req := proto.ClientRequest{
		Op: uint8(op.Code), Key: op.Key, Delta: op.Delta,
		Expected: op.Expected, Value: op.Value,
	}
	s.mu.Lock()
	s.seq++
	req.Sess = s.id
	req.Seq = s.seq
	req.Acked = s.frontier + 1
	s.mu.Unlock()
	// Sized exactly: the frame is kept for retransmission until acked.
	frame, _ := req.AppendMarshal(make([]byte, 0, req.WireLen())) // cannot fail: payload sizes checked above
	key := pendingKey{sess: s.id, seq: req.Seq}
	now := time.Now()
	ok := s.c.register(frame, []*pendingOp{{
		tx:       txFrame{frame: frame, sent: now},
		ctx:      ctx,
		deadline: now.Add(s.c.opts.OpTimeout),
		cb:       cb,
		sess:     s,
		seq:      req.Seq,
	}}, []pendingKey{key})
	return key, ok
}

// Do executes op and blocks until it completes or ctx is done. On context
// expiry Do returns an error matching kite.ErrCanceled and the context
// cause; the request itself stays on the wire until acknowledged or until
// OpTimeout, so the session survives cancellation.
func (s *Session) Do(ctx context.Context, op kite.Op) (Result, error) {
	done := make(chan Result, 1)
	key, registered := s.submit(ctx, op, func(r Result) { done <- r })
	if !registered {
		r := <-done
		return r, r.Err
	}
	select {
	case r := <-done:
		return r, r.Err
	case <-ctx.Done():
		if !s.c.detach(key) {
			// The reply raced the cancellation; prefer the real result if
			// it has already been delivered.
			select {
			case r := <-done:
				return r, r.Err
			default:
			}
		}
		err := kite.CanceledErr(ctx.Err())
		return Result{Err: err}, err
	}
}

// DoAsync submits op and returns; cb (optional) receives the result on the
// client's receive goroutine and must not block. The op's slices are
// encoded into the wire frame before DoAsync returns, so the caller may
// reuse them immediately.
func (s *Session) DoAsync(op kite.Op, cb func(Result)) {
	s.submit(context.Background(), op, cb)
}

// DoBatch pipelines ops to the server in as few frames as possible (many
// ops per batch frame, consecutive seqs; the frames share datagrams with
// any other traffic staged at the same time) and waits for all results —
// one round trip for a batch of relaxed accesses instead of one per op.
// Replies come back as one frame per op, packed into shared datagrams.
// Results are index-aligned with ops; the batch occupies consecutive
// positions in session order. If any op's payload is oversized the whole
// batch is rejected up front with ErrValueTooLong and no op executes.
func (s *Session) DoBatch(ctx context.Context, ops []kite.Op) ([]Result, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	// Validate everything before consuming any seq: batches are all-or-
	// nothing at the submission boundary.
	for _, op := range ops {
		if err := validate(op); err != nil {
			return nil, err
		}
	}
	type idxRes struct {
		i int
		r Result
	}
	done := make(chan idxRes, len(ops))
	results := make([]Result, len(ops))
	got := make([]bool, len(ops))
	keys := make([]pendingKey, 0, len(ops))

	chunkMax := proto.MaxBatchOps
	if chunkMax > s.c.opts.MaxInflight {
		chunkMax = s.c.opts.MaxInflight
	}

	submitted := 0
	for base := 0; base < len(ops); {
		n, ks, err := s.submitChunk(ctx, ops, base, chunkMax, func(i int, r Result) {
			done <- idxRes{i: i, r: r}
		})
		keys = append(keys, ks...)
		submitted += n
		base += n
		if err != nil {
			// Ops never submitted fail with the submission error; the
			// already-submitted prefix is collected below.
			for i := base; i < len(ops); i++ {
				results[i], got[i] = Result{Err: err}, true
			}
			break
		}
	}

	for n := 0; n < submitted; {
		select {
		case x := <-done:
			results[x.i], got[x.i] = x.r, true
			n++
		case <-ctx.Done():
			// Release the wait; the submitted ops stay on the wire (see
			// Do). Drain completions that raced in, mark the rest.
			for _, k := range keys {
				s.c.detach(k)
			}
			for n < submitted {
				select {
				case x := <-done:
					results[x.i], got[x.i] = x.r, true
					n++
					continue
				default:
				}
				break
			}
			cerr := kite.CanceledErr(ctx.Err())
			for i := range results {
				if !got[i] {
					results[i] = Result{Err: cerr}
				}
			}
			return results, cerr
		}
	}
	return results, firstBatchErr(results)
}

func firstBatchErr(results []Result) error {
	for i := range results {
		if results[i].Err != nil {
			return results[i].Err
		}
	}
	return nil
}

// submitChunk packs ops[base:] into one batch frame — bounded by chunkMax
// ops, the frame-size budget, and the inflight window — assigns their
// seqs and registers them as one retransmission group. It returns how many
// ops it submitted; cb receives (absolute index, result) per op.
func (s *Session) submitChunk(ctx context.Context, ops []kite.Op, base, chunkMax int, cb func(int, Result)) (int, []pendingKey, error) {
	if err := s.submitErr(); err != nil {
		return 0, nil, err
	}
	// Pack by count and frame budget.
	n, size := 0, proto.BatchOverhead
	for base+n < len(ops) && n < chunkMax {
		opLen := proto.BatchOp{Expected: ops[base+n].Expected, Value: ops[base+n].Value}.WireLen()
		if n > 0 && size+opLen > proto.MaxClientFrameLen {
			break
		}
		size += opLen
		n++
	}
	// Acquire one window slot per op before assigning seqs.
	for i := 0; i < n; i++ {
		if err := s.acquireSlot(ctx); err != nil {
			for j := 0; j < i; j++ { // return the slots we took
				<-s.window
			}
			return 0, nil, err
		}
	}
	b := proto.ClientBatch{Sess: s.id, Ops: make([]proto.BatchOp, n)}
	for i := 0; i < n; i++ {
		op := ops[base+i]
		b.Ops[i] = proto.BatchOp{
			Code: uint8(op.Code), Key: op.Key, Delta: op.Delta,
			Expected: op.Expected, Value: op.Value,
		}
	}
	s.mu.Lock()
	b.Seq = s.seq + 1
	s.seq += uint64(n)
	b.Acked = s.frontier + 1
	s.mu.Unlock()
	frame, err := b.AppendMarshal(nil)
	if err != nil { // cannot happen: ops validated by DoBatch
		for j := 0; j < n; j++ {
			<-s.window
		}
		return 0, nil, err
	}
	now := time.Now()
	group := &txFrame{frame: frame, sent: now}
	pend := make([]*pendingOp, n)
	keys := make([]pendingKey, n)
	deadline := now.Add(s.c.opts.OpTimeout)
	for i := 0; i < n; i++ {
		idx := base + i
		seq := b.Seq + uint64(i)
		pend[i] = &pendingOp{
			batch: group, ctx: ctx, deadline: deadline,
			cb:   func(r Result) { cb(idx, r) },
			sess: s, seq: seq,
		}
		keys[i] = pendingKey{sess: s.id, seq: seq}
	}
	s.c.register(frame, pend, keys)
	return n, keys, nil
}

// EncodeUint64 encodes a counter value in Kite's FAA/CAS convention
// (8-byte little-endian).
func EncodeUint64(x uint64) []byte { return core.EncodeUint64(x) }

// DecodeUint64 decodes a counter value; short or absent values read as zero.
func DecodeUint64(v []byte) uint64 { return core.DecodeUint64(v) }
