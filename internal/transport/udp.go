package transport

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"kite/internal/proto"
)

// UDP is the datagram transport for multi-process deployments. Each local
// worker binds one socket; batches are marshalled with proto.MarshalBatch
// and sent as single datagrams to the peer worker's socket, mirroring the
// one-connection-per-remote-worker layout of the paper (§6.3).
//
// The hot path is allocation-free in steady state:
//
//	Send: encode in place into a pooled datagram buffer → stage on the
//	      socket's sendRing (two pointer moves under a short lock) → the
//	      flusher drains a run of datagrams and posts them with one
//	      sendmmsg (BatchConn), recycling buffers after the syscall.
//	Recv: recvmmsg fills pooled recvSlots (buffer + message slice + origins
//	      arena) → each datagram decodes with proto.UnmarshalBatchInto,
//	      aliasing the slot → delivered as a Batch whose Release returns
//	      the slot to the pool once the worker has dispatched it.
//
// The flusher batches opportunistically and never waits for company: each
// wake-up drains everything staged and posts it in one WriteBatch, and
// datagrams staged while that syscall is in flight ride the next one. A
// lone datagram on an idle ring goes out at once; under load the ring
// fills during each syscall, so the batches grow with the offered load —
// the software rendition of Kite's doorbell batching (§6.2).
//
// Like RDMA UD, UDP gives no delivery guarantee; the protocols above provide
// their own retries and the slow-path barrier handles permanent loss.
type UDP struct {
	local       uint8
	workers     int
	socks       []*net.UDPConn
	conns       []*BatchConn
	rings       []*sendRing
	peers       map[uint8][]*UDPDest // node -> per-worker destination
	recv        []chan Batch
	bufs        chan []byte    // datagram buffer free list
	slots       chan *recvSlot // receive-slot free list
	beforeWrite func(n int)    // test hook, see UDPConfig.beforeWrite
	stats       Stats
	closed      atomic.Bool
	wg          sync.WaitGroup // receive loops
	flushWg     sync.WaitGroup // flushers
}

const (
	// sendRingDepth bounds staged-but-unflushed datagrams per socket.
	sendRingDepth = 1024
	// bufPoolSize / recvSlotPoolSize bound the free lists; overflow is
	// garbage-collected, a dry pool allocates.
	bufPoolSize      = 256
	recvSlotPoolSize = 1024
)

// recvSlot is one pooled receive unit: the datagram buffer plus the decoded
// message slice and origins arena that alias it. Handed to the consumer
// inside a Batch; Release returns it for the next recvmmsg.
type recvSlot struct {
	u     *UDP
	buf   []byte
	msgs  []proto.Message
	arena []uint64
}

func (s *recvSlot) release() {
	select {
	case s.u.slots <- s:
	default: // pool full: let the GC take it
	}
}

// UDPConfig describes the local node and the full cluster address map.
type UDPConfig struct {
	LocalNode uint8
	Workers   int
	// Listen[i] is the UDP address worker i binds ("" or host:0 for any).
	Listen []string
	// Peers[node][worker] is the address of that remote worker's socket.
	Peers map[uint8][]string
	// RecvDepth bounds each worker's receive queue (DefaultMailboxDepth
	// if zero).
	RecvDepth int
	// DisableBatchIO forces the per-datagram syscall fallback even where
	// sendmmsg/recvmmsg are available (tests, platform escape hatch).
	DisableBatchIO bool

	// beforeWrite, when set, runs on the flusher with the size of each
	// drained run just before it is posted — the test hook that stalls a
	// flush so a burst can be staged behind it.
	beforeWrite func(n int)
}

// NewUDP binds the local sockets and resolves peer addresses.
func NewUDP(cfg UDPConfig) (*UDP, error) {
	if len(cfg.Listen) != cfg.Workers {
		return nil, fmt.Errorf("transport: %d listen addrs for %d workers", len(cfg.Listen), cfg.Workers)
	}
	depth := cfg.RecvDepth
	if depth <= 0 {
		depth = DefaultMailboxDepth
	}
	u := &UDP{
		local:       cfg.LocalNode,
		workers:     cfg.Workers,
		peers:       make(map[uint8][]*UDPDest),
		recv:        make([]chan Batch, cfg.Workers),
		bufs:        make(chan []byte, bufPoolSize),
		slots:       make(chan *recvSlot, recvSlotPoolSize),
		beforeWrite: cfg.beforeWrite,
	}
	for node, addrs := range cfg.Peers {
		resolved := make([]*UDPDest, len(addrs))
		for i, a := range addrs {
			ra, err := net.ResolveUDPAddr("udp", a)
			if err != nil {
				return nil, fmt.Errorf("transport: resolve %s: %w", a, err)
			}
			resolved[i] = NewUDPDest(ra)
		}
		u.peers[node] = resolved
	}
	for i := 0; i < cfg.Workers; i++ {
		la, err := net.ResolveUDPAddr("udp", cfg.Listen[i])
		if err != nil {
			u.Close()
			return nil, fmt.Errorf("transport: resolve listen %s: %w", cfg.Listen[i], err)
		}
		sock, err := net.ListenUDP("udp", la)
		if err != nil {
			u.Close()
			return nil, fmt.Errorf("transport: listen %s: %w", cfg.Listen[i], err)
		}
		bc := NewBatchConn(sock, &u.stats)
		if cfg.DisableBatchIO {
			bc.DisableBatch()
		}
		u.socks = append(u.socks, sock)
		u.conns = append(u.conns, bc)
		u.rings = append(u.rings, newSendRing(sendRingDepth))
		u.recv[i] = make(chan Batch, depth)
		u.wg.Add(1)
		go u.recvLoop(i, bc)
		u.flushWg.Add(1)
		go u.flushLoop(u.rings[i], bc)
	}
	return u, nil
}

// LocalAddrs reports the bound per-worker addresses (useful with :0 binds).
func (u *UDP) LocalAddrs() []string {
	out := make([]string, len(u.socks))
	for i, s := range u.socks {
		out[i] = s.LocalAddr().String()
	}
	return out
}

// Batched reports whether the batched-syscall path is active on the local
// sockets (false once any of them demoted to the fallback).
func (u *UDP) Batched() bool {
	for _, bc := range u.conns {
		if !bc.Batched() {
			return false
		}
	}
	return len(u.conns) > 0
}

// setBatchLimit caps datagrams per batch syscall on every socket — test
// hook for exercising partial-batch short writes. Call before traffic.
func (u *UDP) setBatchLimit(n int) {
	for _, bc := range u.conns {
		bc.setLimit(n)
	}
}

func (u *UDP) getBuf() []byte {
	select {
	case b := <-u.bufs:
		return b
	default:
		return make([]byte, proto.MaxBatchBytes)
	}
}

func (u *UDP) putBuf(b []byte) {
	b = b[:cap(b)]
	if cap(b) < proto.MaxBatchBytes {
		return
	}
	select {
	case u.bufs <- b:
	default: // pool full
	}
}

// slot returns a pooled receive slot, allocating when the pool is dry.
func (u *UDP) slot() *recvSlot {
	select {
	case s := <-u.slots:
		return s
	default:
		return &recvSlot{u: u, buf: make([]byte, proto.MaxBatchBytes)}
	}
}

// flushLoop drains one socket's send ring and posts each drained run in
// one WriteBatch, then drains again: flush on drain, no deadline. Datagrams
// a failed syscall leaves unsent are counted in Stats.DroppedSend — loss is
// within the transport contract, silence is not.
func (u *UDP) flushLoop(ring *sendRing, bc *BatchConn) {
	defer u.flushWg.Done()
	dgs := make([]Datagram, MaxIOBatch)
	for {
		k, done := ring.drain(dgs)
		if k == 0 {
			if done {
				return
			}
			<-ring.notify
			continue
		}
		if u.beforeWrite != nil {
			u.beforeWrite(k)
		}
		if n, err := bc.WriteBatch(dgs[:k]); err != nil {
			u.stats.DroppedSend.Add(uint64(k - n))
		}
		for i := 0; i < k; i++ {
			u.putBuf(dgs[i].Buf)
			dgs[i] = Datagram{}
		}
	}
}

// recvLoop reads batched datagrams into pooled slots, decodes each in place
// and delivers it as a releasable Batch.
func (u *UDP) recvLoop(worker int, bc *BatchConn) {
	defer u.wg.Done()
	var (
		slots [MaxIOBatch]*recvSlot
		sizes [MaxIOBatch]int
	)
	views := make([][]byte, MaxIOBatch)
	for {
		for i := range slots {
			if slots[i] == nil {
				slots[i] = u.slot()
			}
			views[i] = slots[i].buf
		}
		n, err := bc.ReadBatch(views, sizes[:])
		if err != nil {
			return // socket closed
		}
		for i := 0; i < n; i++ {
			s := slots[i]
			var derr error
			s.msgs, s.arena, derr = proto.UnmarshalBatchInto(s.msgs, s.arena, s.buf[:sizes[i]])
			if derr != nil {
				continue // corrupt datagram: drop, slot is reused as-is
			}
			slots[i] = nil // ownership passes to the consumer
			select {
			case u.recv[worker] <- Batch{Msgs: s.msgs, rel: s}:
			default:
				u.stats.DroppedFull.Add(1)
				s.release()
			}
		}
	}
}

// Send implements Transport: encode into a pooled buffer, stage on the
// socket ring. The batch slice is the caller's again as soon as Send
// returns. Sends to the local node loop back without touching the socket.
func (u *UDP) Send(dst Endpoint, batch []proto.Message) {
	if len(batch) == 0 || u.closed.Load() {
		return
	}
	if dst.Node == u.local {
		s := u.slot()
		s.msgs = append(s.msgs[:0], batch...)
		select {
		case u.recv[dst.Worker] <- Batch{Msgs: s.msgs, rel: s}:
			u.stats.SentBatches.Add(1)
			u.stats.SentMsgs.Add(uint64(len(batch)))
		default:
			u.stats.DroppedFull.Add(1)
			s.release()
		}
		return
	}
	dests, ok := u.peers[dst.Node]
	if !ok || int(dst.Worker) >= len(dests) {
		u.stats.DroppedFault.Add(1)
		return
	}
	buf := u.getBuf()
	out, err := proto.MarshalBatch(buf[:0], batch)
	if err != nil {
		u.putBuf(buf)
		return
	}
	w := int(dst.Worker) % len(u.rings)
	if !u.rings[w].push(Datagram{Buf: out, Dest: dests[dst.Worker]}) {
		u.stats.DroppedFull.Add(1)
		u.putBuf(buf)
		return
	}
	u.stats.SentBatches.Add(1)
	u.stats.SentMsgs.Add(uint64(len(batch)))
}

// Recv implements Transport.
func (u *UDP) Recv(ep Endpoint) <-chan Batch { return u.recv[ep.Worker] }

// Close implements Transport. Staged datagrams are flushed before the
// sockets close.
func (u *UDP) Close() error {
	if u.closed.Swap(true) {
		return nil
	}
	for _, r := range u.rings {
		r.close()
	}
	u.flushWg.Wait()
	for _, s := range u.socks {
		s.Close()
	}
	u.wg.Wait()
	return nil
}

// Stats exposes the transport counters.
func (u *UDP) Stats() *Stats { return &u.stats }
